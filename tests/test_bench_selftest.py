"""The benchmark harness's own self-tests, run against this checkout.

``bench/selftest.py`` drives every workload's generators, output checks,
calibration and tracer on small inputs, loading dmuss from ``src/``.
Running it here means a change under ``src/`` that breaks the harness
fails the test suite, not only a benchmark run.  It takes about two
seconds and writes only under the git-ignored ``.bench_out/``.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "bench" / "selftest.py"


def test_bench_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True, timeout=300, cwd=SELFTEST.parents[1]
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stderr.rstrip().endswith("OK"), done.stderr
