"""Traced witt12 command: the benchmark's stand-in for ``python -m witt12.cli``.

    python -X importtime perfbench/cli_child.py SPANS_FILE OP_ID ARG...

Installs the tracing wrappers, runs ``witt12.cli.main(ARG...)`` and exits
with its code, so stdout and the exit code match the plain command.  The
spans are written to SPANS_FILE as JSON when the command ends.
"""

import sys

import witt12.cli  # first, so that -X importtime charges the import to witt12

import json

from tracing import Tracer


def main() -> int:
    spans_path, op_id, *args = sys.argv[1:]
    tracer = Tracer()
    tracer.op = int(op_id)
    tracer.install()
    try:
        return witt12.cli.main(args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
