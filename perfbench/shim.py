"""Child-side entry point for one fitts3d CLI invocation.

    python3 perfbench/shim.py trace OUT.json VERB [ARGS...]
        install the tracer's wrappers, run fitts3d.cli.main, and write
        the spans, aggregates and counters to OUT.json
    python3 perfbench/shim.py count OUT.json VERB [ARGS...]
        run fitts3d.cli.main untouched and write how many modules the
        process holds afterwards, and whether numpy is among them

The exit code is the CLI's. PYTHONPATH must reach the package.
"""

import sys


def main():
    mode, out, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode == "count":
        from fitts3d.cli import main as cli_main
        rc = cli_main(argv)
        modules, has_numpy = len(sys.modules), "numpy" in sys.modules
        import json
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"modules": modules, "numpy": has_numpy}, fh)
        return rc
    if mode != "trace":
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    import json

    import fitts3d.cli
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        rc = fitts3d.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
