"""Run one chiralplate CLI command with layer tracing on.

Usage: python bench/cli_traced.py SPANS_JSON OP_ID <chiralplate CLI arguments>

Times the import of ``chiralplate.cli``, installs the tracer of spans.py,
runs the CLI's ``main`` with the remaining arguments and writes the spans,
the hook statistics and the import time to SPANS_JSON. The exit code is the
CLI's. The package must be importable (PYTHONPATH=src).
"""

import sys
import time

from spans import Tracer


def main() -> int:
    out, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    t0 = time.perf_counter()
    import chiralplate.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.op = op
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(out, import_s=import_s)


if __name__ == "__main__":
    sys.exit(main())
