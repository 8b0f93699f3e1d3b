import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_self_check_passes():
    # the benchmark patches module attributes of the package; its self-check
    # runs every workload on shrunken inputs and fails when one has moved
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-check"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
