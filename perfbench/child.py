"""One `fbmpassage` CLI invocation in a fresh interpreter, with its timestamps.

    python child.py TIMING_JSON [--trace TRACE_JSON] -- CLI_ARGS...

Imports `fbmpassage.cli` and calls `cli.main(CLI_ARGS)`, as the
`fbmpassage` entry point does, and exits with its code.  TIMING_JSON gets
the monotonic clock (shared by all processes of the machine) right after
the import and right after `main` returned, plus the path of the imported
package.  With --trace the run goes through tracer.Tracer and its
per-layer tallies go to TRACE_JSON.
"""

import argparse
import json
import sys
import time


def main() -> int:
    split = sys.argv.index("--")
    parser = argparse.ArgumentParser()
    parser.add_argument("timing")
    parser.add_argument("--trace")
    args = parser.parse_args(sys.argv[1:split])
    cli_args = sys.argv[split + 1 :]

    import fbmpassage.cli as cli

    imported = time.monotonic()
    run = cli.main
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        run = tracer.install(cli)
    code = run(cli_args)
    done = time.monotonic()
    if args.trace:
        with open(args.trace, "w") as fh:
            json.dump(tracer.report(), fh, indent=1)
    with open(args.timing, "w") as fh:
        json.dump({"imported": imported, "done": done, "code": code, "package": cli.__file__}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
