#!/usr/bin/env python3
"""Peak memory of one tiedyn CLI run, measured from a small parent.

Usage:
    python3 scripts/peak_rss.py -- CLI-ARGS...

Runs ``python3 -m tiedyn.cli CLI-ARGS`` with this checkout's ``src`` on
PYTHONPATH and prints the child's exit code, wall time and ``ru_maxrss``
as reported by ``os.wait4``. A child's ``ru_maxrss`` starts at the
parent's RSS at spawn time, so this script imports only the standard
library: a parent that imports numpy would set a floor of its own under
the CLI's figure. Exits with the child's exit code.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def main(argv: list[str]) -> int:
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "tiedyn.cli", *argv], env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    print(f"exit={code} wall_s={wall:.3f} peak_rss_mb={usage.ru_maxrss / 1024:.1f}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
