"""A traced `gtsingular` process: python3 perfbench/cli_child.py ARGS...

Behaves like the `gtsingular` console script (same arguments, output and
exit code) and additionally times the import of gtsingular.cli and the call
of cli.main, with the library's public functions wrapped by the span tracer.
The spans are written, when the process ends, to the JSON file named by
PERFBENCH_TRACE_OUT.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
from gtsingular import cli  # noqa: E402

import_s = time.perf_counter() - t0

import tracer as tracing  # noqa: E402


def main() -> int:
    tracer = tracing.Tracer()
    tracing.install(tracer, tracing.LIBRARY_TARGETS)
    tracer.start()
    try:
        code = cli.main(sys.argv[1:])
    finally:
        main_s = tracer.stop()
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
            json.dump({
                "import_s": import_s,
                "main_s": main_s,
                "stats": tracer.stats,
                "counts": tracer.counts,
                "selfsum_err": tracer.selfsum_error(main_s),
            }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
