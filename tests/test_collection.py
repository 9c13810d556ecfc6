"""The suite itself: every test file collects.

The tier-1 command runs pytest with --continue-on-collection-errors, so a test
file that no longer imports (say, after a name it imports moves) only reports
an error while every other file passes. Collecting the whole suite in a child
process turns that error into this test's failure.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_test_file_collects():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                          "-p", "no:cacheprovider"],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
