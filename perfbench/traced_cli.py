"""The popa-algebra CLI with the benchmark's spans around every layer.

Usage: python traced_cli.py SPANS_JSON VERB [CLI ARGS...]

Runs ``popa_algebra.cli.main`` on the arguments after SPANS_JSON, writes
the spans it recorded to SPANS_JSON, and exits with the CLI's code.
"""

import json
import sys

import popa_algebra.cli

import spans


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    tracer.op = argv[0]
    try:
        return popa_algebra.cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
