"""Run one CLI command in a fresh interpreter with the span wrappers on.

Usage: python bench/cli_child.py OUT.json ARG...

Times the fresh import of lattice_dual.cli, installs the wrappers, runs
cli.main(ARGS) as ``python -m lattice_dual ARG...`` would, and writes the
span aggregates, the import time and the kept spans to OUT.json.  The exit
code is the CLI's.
"""

import json
import sys
from time import perf_counter

from tracing import Tracer, install


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import lattice_dual.cli

    import_s = perf_counter() - start
    tracer = Tracer()
    install(tracer, sys.modules["lattice_dual"])
    try:
        return lattice_dual.cli.main(argv)
    finally:
        tracer.end_task()
        doc = tracer.snapshot()
        doc["import_s"] = import_s
        doc["kept"] = tracer.spans
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
