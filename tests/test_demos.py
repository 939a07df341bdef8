"""Each demo script runs to completion against the package in this tree, and
the demos that need no numpy print the bytes the numpy-free CI job pins."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# stdout SHA-256, copied from the numpy-free job in .github/workflows/tests.yml
DIGESTS = {
    "01_worked_example.py":
        "b2c3ae207801c582a26088ec4a2eab3bff540feff0af08e0046e63cf6034285e",
    "03_period_bounds.py":
        "c78dd7f5b3edb0b657cf8f19655f59e0458c2256b9563bfc6eeb5ec804efeefa",
    "06_structure.py":
        "30b8f14894eb2cf5599d87d2191f7d5b435e0de799d56b5a307657afbe72c7fb",
}


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if script.name in DIGESTS:
        digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
        assert digest == DIGESTS[script.name]
