"""``tools/compare_bytes.py`` on two copies of the package source."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import boxcarpets as bc

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compare_bytes.py"
# small enough for seconds per run; sweep centers valid for both signal kinds
TINY = """\
[modes]
count = 12
[grid]
x_points = 41
t_points = 11
tmax_tau = 1.0
snapshots_tau = 0.5
[ensemble]
count = 4
[sweep]
start = 5.0
stop = 6.0
[fit]
samples = 50
"""


def _compare(parent, change, config):
    return subprocess.run([sys.executable, str(TOOL), str(parent), str(change), "--config", str(config)],
                          capture_output=True, text=True, timeout=600)


def test_compare_bytes_reports_the_one_changed_value(tmp_path):
    config = tmp_path / "tiny.ini"
    config.write_text(TINY)
    trees = [tmp_path / "parent", tmp_path / "change"]
    for tree in trees:
        shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))

    done = _compare(*trees, config)
    assert done.returncode == 0, done.stderr
    *lines, summary = done.stdout.splitlines()
    # 11 runs, of one file or more each
    assert len(lines) >= 11 and all(line.startswith("same ") for line in lines)
    assert summary == f"{len(lines)} files: {len(lines)} same, 0 differ"

    # one decay time of the change grows by a relative 1e-6
    energy = trees[1] / "src" / "boxcarpets" / "energy.py"
    text = energy.read_text()
    anchor = "    np.fill_diagonal(times, np.inf)\n"
    assert text.count(anchor) == 1
    energy.write_text(text.replace(anchor, anchor + "    times[2, 5] *= 1.0 + 1e-6\n"))
    done = _compare(*trees, config)
    assert done.returncode == 1, done.stderr
    differing = [line for line in done.stdout.splitlines() if line.startswith("differs") and ".csv" in line]
    assert len(differing) == 1
    found = re.fullmatch(r"differs  decaymap/decay_times\.csv: largest difference (\S+) of the largest magnitude",
                         differing[0])
    assert found, differing
    times = bc.decay_time_map(bc.CavityConfig(), bc.DecoherenceParams(gamma=bc.DEFAULT_GAMMA), 12)
    largest = times[times < float("inf")].max()
    assert float(found.group(1)) == pytest.approx(1e-6 * times[2, 5] / largest, rel=1e-2)
