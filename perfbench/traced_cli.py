"""`qforms.cli` with the layer tracer installed; stdout and exit code unchanged.

Usage: traced_cli.py SPANS_CSV CLI_ARGS...  (spans are written on exit)
"""

import sys

import tracer

import qforms.cli

if __name__ == "__main__":
    spans_path, argv = sys.argv[1], sys.argv[2:]
    trc = tracer.Tracer()
    tracer.install(trc)
    try:
        code = qforms.cli.main(argv)
    finally:
        tracer.write_spans(spans_path, trc.spans)
    sys.exit(code)
