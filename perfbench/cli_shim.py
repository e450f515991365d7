"""Run one causalbox CLI command under the tracer.

Usage: python cli_shim.py SPANS_OUT CLI_ARGS...

Times ``import causalbox.cli`` on its own, installs the tracer's wrappers,
runs the command through ``causalbox.cli.dispatch`` and writes the import
time, spans and counts as JSON to SPANS_OUT.  Exits with the command's code.
"""

import json
import sys
from time import perf_counter

from tracer import Tracer


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import causalbox.cli as cli

    import_s = perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        rc = cli.dispatch(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(spans_out, "w") as fh:
            json.dump(dict(tracer.dump(), import_s=import_s), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
