"""Run one licov CLI command with every layer traced, then write the spans.

    python3 benchmarks/traced_cli.py SPANS.json <command> [options...]

The command is run in this process by `licov.cli.main`, with `src` on
PYTHONPATH exactly as for `python -m licov.cli`. The root span `cli`
covers the import of the package and the command; the spans go to
SPANS.json as a list of objects once the command has returned, and the
process exits with the command's exit code.
"""
import json
import sys

from tracer import Tracer


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    try:
        with tracer.request("cli"):
            with tracer.span("cli.import"):
                import licov.cli
            import layers

            layers.install(tracer)
            code = licov.cli.main(cli_args)
    finally:
        tracer.unpatch()
    with open(spans_path, "w") as f:
        json.dump([s.to_dict() for s in tracer.spans], f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
