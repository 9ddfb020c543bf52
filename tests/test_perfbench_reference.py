"""The benchmark's correctness oracle (``perfbench/reference.py``) checks
itself against hand-computed cases in ``perfbench/test_reference.py``.
That directory is outside the collected test paths, so run its
self-test here as a script, the way its docstring describes."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_reference_self_test():
    script = os.path.join(ROOT, "perfbench", "test_reference.py")
    # No bytecode cache: running the suite leaves perfbench/ untouched.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, script], capture_output=True, text=True,
        timeout=120, check=False, env=env,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 0, output
    assert "FAIL" not in proc.stdout, output
    assert proc.stdout.count("ok ") >= 5, output
