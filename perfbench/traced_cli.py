"""Run one csibio CLI command with the layer tracer installed.

    python3 perfbench/traced_cli.py SPANS_JSON -- <csibio arguments>

Behaves like the ``csibio`` entry point (same arguments, stdout, stderr
and exit code) and additionally writes the spans and counters of the
command to SPANS_JSON. ``csibio`` must be importable (PYTHONPATH).
"""

import json
import sys

from tracer import Tracer, install


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        sys.stderr.write("usage: traced_cli.py SPANS_JSON -- <csibio arguments>\n")
        return 2
    tracer = Tracer()
    install(tracer)
    from csibio.cli import main as csibio_main

    code = csibio_main(argv)
    with open(spans_path, "w") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
