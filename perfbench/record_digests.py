"""Record the sha256 of every log the benchmark generates at the default
seed, into digests.json beside this file.

    python3 perfbench/record_digests.py

Run it only when the log format or the generator is meant to change:
the benchmark's correctness gate compares each default-seed log with
these digests to hold fitts3d to its byte-for-byte determinism.
"""

import json
import os
import sys
import tempfile

import run
from checks import DEFAULT_SEED, DIGESTS_PATH, digest_key, sha256_file


def sizes():
    for e, i in run.CELLS:
        yield e, i, run.PAPER_REPS[e]
        yield e, i, run.PUBLISHED_REPS[e]
    for e, i in run.SMOKE_CELLS:
        yield e, i, run.SMOKE_REPS


def main():
    sys.path.insert(0, run.SRC)
    digests = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        path = os.path.join(tmp, "log.csv")
        for e, i, reps in sizes():
            run.generate_log(path, e, i, reps, DEFAULT_SEED)
            digests[digest_key(e, i, reps, DEFAULT_SEED)] = sha256_file(path)
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(digests.items())), fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {DIGESTS_PATH}")


if __name__ == "__main__":
    main()
