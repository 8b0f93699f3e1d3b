"""``tools/check_outputs.py`` on a tiny-config run of every product."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import boxcarpets as bc

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "check_outputs.py"
PRODUCTS = ("carpet", "trajectories", "densmat", "purity", "fit", "sweep", "decaymap")
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


def _check(*dirs):
    done = subprocess.run([sys.executable, str(TOOL), *map(str, dirs)], capture_output=True, text=True, timeout=120)
    assert not done.stderr
    return done.returncode, done.stdout.splitlines()


def test_check_outputs_reports_each_broken_file(tmp_path):
    base = bc.parse_config(TINY)
    runs = [tmp_path / product for product in PRODUCTS]
    for product, out in zip(PRODUCTS, runs):
        bc.run(bc.apply_overrides(base, products=(product,), out_dir=str(out)))
    assert _check(*runs) == (0, [])
    assert _check(*runs, tmp_path / "missing") == (1, [f"{tmp_path / 'missing'}: no manifest.json"])

    # one flipped byte in a CSV
    purity = tmp_path / "purity" / "purity.csv"
    original = purity.read_bytes()
    flipped = bytearray(original)
    flipped[-2] ^= 1
    purity.write_bytes(flipped)
    assert _check(*runs) == (1, [f"{purity}: sha256 differs from the manifest"])
    purity.write_bytes(original)
    assert _check(*runs) == (0, [])

    # an error appended to the last sweep row, with the checksum updated to match
    sweep = tmp_path / "sweep" / "sweep.csv"
    lines = sweep.read_text().splitlines()
    sweep.write_text("\n".join(lines[:-1] + [lines[-1] + "fit failed"]) + "\n")
    manifest = tmp_path / "sweep" / "manifest.json"
    record = json.loads(manifest.read_text())
    record["checksums"]["sweep.csv"] = hashlib.sha256(sweep.read_bytes()).hexdigest()
    manifest.write_text(json.dumps(record))
    assert _check(*runs) == (1, [f"{sweep}: row {len(lines) - 2} carries an error: fit failed"])
