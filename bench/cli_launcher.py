"""Traced stand-in for `python -m fidmod`: installs the layer wrappers, calls
`fidmod.cli.main(argv)` in this fresh interpreter, and at exit writes the
spans and memo counters to the file named by FIDBENCH_SPANS.  Stdout and the
exit code are those of the CLI itself.

    FIDBENCH_SPANS=spans.json python3 bench/cli_launcher.py dim --d 2 --gen "M(1)" --range 0..6
"""

import os
import sys

import tracer
import fidmod.cli

tr = tracer.Tracer()
tr.install()
try:
    rc = tr.wrap("cli.main", fidmod.cli.main)(sys.argv[1:])
finally:
    tr.dump(os.environ["FIDBENCH_SPANS"], memo=tracer.memo_snapshot())
raise SystemExit(rc)
