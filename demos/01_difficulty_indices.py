"""
Difficulty indices across the candidate models
==============================================

Walk the translational index formulas over a range of target
separations, then show how each model adapts to rotational tasks.
"""

from fitts3d import (ModelKind, TaskSpec, id_fitts, id_hoffmann, id_r_final,
                     id_rot_adapted, id_shannon, id_t_final, id_welford,
                     predictors_for)

W = 5.0   # target width, cm
F = 3.0   # object size, cm

print("translational indices, W = 5 cm, F = 3 cm")
print(f"{'A':>6}  {'fitts':>7}  {'hoffmann':>8}  {'welford':>7}  "
      f"{'shannon':>7}  {'id_t':>7}")
for A in (6.0 * k for k in range(1, 9)):
    print(f"{A:6.1f}  {id_fitts(A, W):7.3f}  "
          f"{id_hoffmann(A, W, F):8.3f}  {id_welford(A, W):7.3f}  "
          f"{id_shannon(A, W):7.3f}  {id_t_final(A, W, F):7.3f}")

# Shannon stays defined down to A = 0, Fitts does not
print()
print("shannon at A=0:", id_shannon(0, W))

# rotational adaptations: amplitude alpha plays distance, tolerance
# omega plays width; the final model squares the tolerance
print()
print("rotational indices, alpha = 30 deg")
print(f"{'omega':>6}  {'fitts':>7}  {'welford':>7}  {'shannon':>7}  {'id_r':>7}")
for omega in (2.5, 5.0, 7.5, 10.0):
    print(f"{omega:6.1f}  "
          f"{id_rot_adapted(ModelKind.FITTS, 30, omega):7.3f}  "
          f"{id_rot_adapted(ModelKind.WELFORD, 30, omega):7.3f}  "
          f"{id_rot_adapted(ModelKind.SHANNON, 30, omega):7.3f}  "
          f"{id_r_final(30, omega):7.3f}")

# a combined task: prior models collapse everything into one number,
# the final model keeps the two regimes apart
task = TaskSpec(F=4, W=8, A=24, phi=0, theta=15, alpha=45, omega=7.5)
print()
print("combined task A=24 W=8 alpha=45 omega=7.5:")
for kind in (ModelKind.FITTS, ModelKind.SHANNON, ModelKind.FINAL):
    pairs = ", ".join(f"{n}={v:.3f}" for n, v in predictors_for(kind, task).items())
    print(f"  {kind.value:12s} {pairs}")
