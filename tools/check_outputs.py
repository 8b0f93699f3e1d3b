"""Check the output directories of CLI runs against their manifests.

    python tools/check_outputs.py DIR...

Each DIR is the output directory of one CLI run.  Checks that it holds a
``manifest.json``, and that
- the manifest records no failure;
- it lists at least one file, and holds one checksum per listed file;
- every listed file, looked up by name next to the manifest, matches its
  sha256;
- no row of a listed ``sweep.csv`` carries an error: a failed center is an
  error row, not a product failure.

Prints one line per failed check and exits 1 if any check failed, 0
otherwise.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _sweep_errors(path: Path) -> list[str]:
    """Failed checks of one ``sweep.csv``: no row, or a row whose error column, the 7th, is not empty."""
    rows = path.read_text().splitlines()[2:]  # after the metadata line and the column names
    if not rows:
        return [f"{path}: sweep has no row"]
    problems = []
    for i, row in enumerate(rows, start=1):
        cells = row.split(",", 6)
        if len(cells) != 7:
            problems.append(f"{path}: row {i} has {len(cells)} cells, expected 7")
        elif cells[6]:
            problems.append(f"{path}: row {i} carries an error: {cells[6]}")
    return problems


def check_manifest(manifest: Path) -> list[str]:
    """Failed checks of one manifest and the files it lists."""
    data = json.loads(manifest.read_text())
    problems = [f"{manifest}: product {name} failed: {message}" for name, message in data["failures"].items()]
    names = [Path(f).name for files in data["products"].values() for f in files]
    if not names:
        problems.append(f"{manifest}: lists no file")
    if len(names) != len(data["checksums"]):
        problems.append(f"{manifest}: lists {len(names)} files but holds {len(data['checksums'])} checksums")
    for name in names:
        path = manifest.parent / name
        if not path.is_file():
            problems.append(f"{path}: listed in the manifest but missing")
            continue
        if _sha256(path) != data["checksums"].get(name):
            problems.append(f"{path}: sha256 differs from the manifest")
        if name == "sweep.csv":
            problems += _sweep_errors(path)
    return problems


def check(dirs: list[Path]) -> list[str]:
    """Failed checks of the run directories ``dirs``."""
    problems = []
    for d in dirs:
        manifest = d / "manifest.json"
        if manifest.is_file():
            problems += check_manifest(manifest)
        else:
            problems.append(f"{d}: no manifest.json")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="+", type=Path, metavar="DIR", help="output directory of one CLI run")
    problems = check(parser.parse_args(argv).dirs)
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
