"""One qsymq CLI request with spans recorded, for traced benchmark runs.

    PYTHONPATH=src python3 perfbench/cli_child.py SPANS_OUT REQUEST_ID ARGS...

Installs the tracing wrappers, calls ``qsymq.cli.main(ARGS)`` exactly as
``python -m qsymq ARGS`` would, writes the spans and counts to SPANS_OUT as
JSON and exits with the CLI's exit code.
"""

import json
import sys

import qsymq.cli
from tracing import Tracer


def main() -> int:
    out, request, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer(request)
    tracer.install()
    try:
        code = qsymq.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(out, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
