"""Measure one workload's set-up in a fresh interpreter.

Usage: python setup_probe.py WORKLOAD

Prints ``{"import_s": ..., "prep_s": ...}``: the time to import causalbox
(``causalbox.cli`` for the CLI workload) and the time of the workload's
per-graph preparation with cold caches.
"""

import json
import sys
from time import perf_counter


def main() -> None:
    name = sys.argv[1]
    t0 = perf_counter()
    if name == "cli-fixtures":
        import causalbox.cli  # noqa: F401
    else:
        import causalbox  # noqa: F401
    t1 = perf_counter()
    from workloads import WORKLOADS

    t2 = perf_counter()
    WORKLOADS[name].prepare()
    t3 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "prep_s": t3 - t2}))


if __name__ == "__main__":
    main()
