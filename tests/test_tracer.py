"""The benchmark's tracer still finds every library name it wraps.

perfbench/tracer.py patches functions into braidmono by name; a rename or
a rebinding in src/ makes its install or uninstall raise.  Checking it here
catches that with the unit tests instead of at benchmark time.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path.insert(0, "perfbench")
import tracer
t = tracer.Tracer()
t.install()
t.uninstall()
"""


def test_tracer_installs_and_uninstalls():
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
