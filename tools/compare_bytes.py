"""Compare the files of the default CLI runs made from two checkouts.

    python tools/compare_bytes.py PARENT CHANGE [--config PATH]

Runs each entry of ``RUNS`` through ``python -m boxcarpets.cli`` with the
``src/`` of checkout PARENT and, at the same time, of checkout CHANGE, into a
temporary directory; ``--config`` passes one configuration file to every run.  For
each file a manifest lists, prints whether its sha256 is the same on both
sides.  For a CSV file that differs, it also prints the largest difference
between the two sides' numbers, relative to the largest finite magnitude in
PARENT's file, and whether any text cell differs.

Exit status: 0 when every file is the same, 1 when any file differs or is
missing on one side, 2 when a run fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# run name -> CLI arguments: every product at the default config, the carpet
# of each quantity and a coherent one off center, trajectories damped and
# coherent, and the sweep of each signal kind
RUNS = {
    "carpet-density": ["carpet"],
    "carpet-velocity": ["carpet", "--quantity", "velocity"],
    "carpet-coherent-x0-20": ["carpet", "--gamma", "0", "--x0", "20"],
    "densmat": ["densmat"],
    "trajectories": ["trajectories"],
    "trajectories-coherent": ["trajectories", "--gamma", "0"],
    "purity": ["purity"],
    "fit": ["fit"],
    "sweep": ["sweep"],
    "sweep-double": ["sweep", "--kind", "double"],
    "decaymap": ["decaymap"],
}


class RunFailed(Exception):
    pass


def run_checkouts(roots: list[Path], work: Path, config: Path | None) -> list[dict[str, list[Path]]]:
    """Run every entry of ``RUNS`` once with each checkout's ``src/`` first on
    the import path, the checkouts' runs of one entry side by side; returns,
    per checkout and by run name, the files its manifest lists."""
    files = [{} for _ in roots]
    for name, args in RUNS.items():
        outs = [work / str(side) / name for side in range(len(roots))]
        commands = [[sys.executable, "-m", "boxcarpets.cli", *args, "--out", str(out)] for out in outs]
        if config is not None:
            commands = [command + ["--config", str(config)] for command in commands]
        running = [subprocess.Popen(command, env=dict(os.environ, PYTHONPATH=str(root / "src")), cwd=work,
                                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
                   for command, root in zip(commands, roots)]
        errors = [process.communicate()[1] for process in running]
        for root, out, process, error, listed in zip(roots, outs, running, errors, files):
            if process.returncode != 0:
                raise RunFailed(f"run {name} failed in {root} (exit {process.returncode}): {error.strip()}")
            manifest = json.loads((out / "manifest.json").read_text())
            listed[name] = [Path(f) for fs in manifest["products"].values() for f in fs]
    return files


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cells(line: str):
    """One CSV line as floats, NaN where a cell is text, and its text cells by column."""
    cells = line.split(",")
    try:
        return np.array(cells, dtype=float), {}
    except ValueError:
        values, text = np.full(len(cells), np.nan), {}
        for i, cell in enumerate(cells):
            try:
                values[i] = float(cell)
            except ValueError:
                text[i] = cell
        return values, text


def csv_difference(parent: Path, change: Path) -> str:
    """The largest difference between the numbers of two CSV files of one
    layout, relative to the largest finite magnitude in ``parent``; a NaN
    against a number, or infinities of different sign, differ by inf."""
    lines_a, lines_b = parent.read_text().splitlines(), change.read_text().splitlines()
    if len(lines_a) != len(lines_b):
        return f"{len(lines_a)} lines against {len(lines_b)}"
    worst, scale, text_differs = 0.0, 0.0, False
    for number, (a, b) in enumerate(zip(lines_a, lines_b), 1):
        (va, ta), (vb, tb) = _cells(a), _cells(b)
        if va.size != vb.size:
            return f"line {number} has {va.size} cells against {vb.size}"
        text_differs |= ta != tb
        same = (va == vb) | (np.isnan(va) & np.isnan(vb))
        with np.errstate(invalid="ignore"):
            gap = np.where(same, 0.0, np.abs(va - vb))
        gap[np.isnan(gap)] = np.inf
        finite = np.abs(va[np.isfinite(va)])
        worst = max(worst, float(gap.max(initial=0.0)))
        scale = max(scale, float(finite.max(initial=0.0)))
    relative = worst / scale if scale > 0.0 else worst
    return f"largest difference {relative:.3g} of the largest magnitude" + ("; text cells differ" if text_differs else "")


def compare(parent: dict[str, list[Path]], change: dict[str, list[Path]]) -> tuple[list[str], int]:
    """One report line per listed file, and how many files differ or are missing."""
    lines, bad = [], 0
    for name in RUNS:
        ours = {f.name: f for f in parent[name]}
        theirs = {f.name: f for f in change[name]}
        for file in sorted(ours.keys() | theirs.keys()):
            label = f"{name}/{file}"
            if file not in theirs or file not in ours:
                lines.append(f"missing  {label}: only in {'PARENT' if file in ours else 'CHANGE'}")
                bad += 1
            elif _sha256(ours[file]) == _sha256(theirs[file]):
                lines.append(f"same     {label}")
            else:
                detail = f": {csv_difference(ours[file], theirs[file])}" if file.endswith(".csv") else ""
                lines.append(f"differs  {label}{detail}")
                bad += 1
    return lines, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout whose files are the reference")
    parser.add_argument("change", type=Path, help="checkout compared with it")
    parser.add_argument("--config", type=Path, help="configuration file passed to every run")
    args = parser.parse_args(argv)
    roots = [args.parent.resolve(), args.change.resolve()]
    for root in roots:
        if not (root / "src" / "boxcarpets" / "__init__.py").is_file():
            parser.error(f"no package source at {root / 'src' / 'boxcarpets'}")
    config = args.config.resolve() if args.config else None
    with tempfile.TemporaryDirectory(prefix="compare_bytes_") as work:
        try:
            parent, change = run_checkouts(roots, Path(work), config)
        except RunFailed as exc:
            print(exc, file=sys.stderr)
            return 2
        lines, bad = compare(parent, change)
    print("\n".join(lines))
    total = len(lines)
    print(f"{total} files: {total - bad} same, {bad} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
