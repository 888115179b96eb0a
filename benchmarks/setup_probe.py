"""Set-up probe: import the package and answer one warm-up query.

The benchmark times a fresh interpreter running this file, from process
start until the line ``ready`` arrives on stdout.
"""

import contextlib
import io
import sys

from diagnoscope.cli import run_cli

with contextlib.redirect_stdout(io.StringIO()):
    code = run_cli(["diagnose", sys.argv[1], "--observe", "E", "--strategy", "all"])
print("ready" if code == 0 else f"warm-up query exited {code}", flush=True)
