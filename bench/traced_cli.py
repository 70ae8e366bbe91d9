"""Run one rindler-spin CLI command with the span tracer installed.

Usage: python traced_cli.py SPANS.npz SUBCOMMAND [ARGS...]

Exits with the CLI's own exit code after writing the spans to SPANS.npz.
The benchmark uses it for the traced run of the cli-docs workload.
"""

import sys

import rindler_spin.cli  # loaded first, so the tracer patches its bindings

from tracer import Tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return rindler_spin.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
