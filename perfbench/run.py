"""Benchmark of the boxcarpets products, run the way the CLI runs them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

One client in one process runs a closed loop: each product is one
``products.run(config, parallelism=1)`` call into a fresh output directory,
started when the previous one has finished and its files have been checked.
A pass is one run of every product of the workload.  The number of passes
per run is fixed per workload and scales with ``--seconds``; at least one.

With ``--trace 0`` the end-to-end metrics are measured with tracing off.
With ``--trace 1`` untraced and traced passes alternate, and the traced ones
give the per-layer metrics (see tracing.py).  The last line of standard
output is one JSON object; the lines before it print every metric with its
unit, the generated inputs and the run's fingerprint.

Everything the benchmark writes goes to ``.bench_build/perfbench`` in the
checkout.  The package is imported from ``src/`` of the same checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 3

# Metric name -> (unit, better); the keys of the JSON line under --trace 0.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


class BenchError(Exception):
    pass


def load_package():
    """Import boxcarpets from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "boxcarpets" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'boxcarpets'}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import boxcarpets

    if Path(boxcarpets.__file__).resolve().parent != (SRC / "boxcarpets").resolve():
        raise BenchError(f"imported boxcarpets from {boxcarpets.__file__}, not from {SRC}")
    return boxcarpets


# -- fingerprint -----------------------------------------------------------------


def _openblas() -> tuple[str, int | None]:
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "lib*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.restype = ctypes.c_char_p
                    get_threads.restype = ctypes.c_int
                    return get_config().decode(), int(get_threads())
    return "unknown", None


def fingerprint() -> dict:
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=30)
        commit = done.stdout.strip() or "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "boxcarpets").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas, threads = _openblas()
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "openblas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
    }


# -- measurement -----------------------------------------------------------------


def time_setup(name: str, seed: int) -> float:
    start = perf_counter()
    subprocess.run([sys.executable, str(HERE / "setup_probe.py"), name, str(seed)], check=True, timeout=120,
                   stdout=subprocess.DEVNULL, cwd=ROOT)
    return perf_counter() - start


class Client:
    """The closed-loop client: the product runs of one workload, and their failures so far."""

    def __init__(self, bc, name: str, seed: int, shrink: bool, workdir: Path, failures: list):
        self.bc = bc
        self.runs = [(r, bc.apply_overrides(bc.parse_config(r.config_text), **r.overrides))
                     for r in workloads.build(name, seed, shrink)]
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.failures = failures
        self.attempted = 0

    def run_pass(self, recorder=None) -> dict:
        """Run every product once; time each ``products.run`` call, then check its files."""
        times = {}
        seen = checks.new_observations()
        for run, config in self.runs:
            self.attempted += 1
            out = self.workdir / f"{self.attempted:04d}-{run.label}"
            config = self.bc.apply_overrides(config, out_dir=str(out))
            span = recorder.span("products.run", product=run.label) if recorder else contextlib.nullcontext()
            start = perf_counter()
            try:
                with span:
                    manifest = self.bc.run(config, parallelism=1)
                times[run.label] = perf_counter() - start
                checks.check_run(config, out, manifest, run.checks, self.rng, seen)
            except Exception as exc:  # a failed product run is counted, never fatal
                times.setdefault(run.label, perf_counter() - start)
                self.failures.append(f"{run.label}: {type(exc).__name__}: {exc}")
            finally:
                shutil.rmtree(out, ignore_errors=True)
        return {"times": times, "wall": sum(times.values()), "seen": seen}


def measure(bc, name: str, seed: int, seconds: float, trace: bool, shrink: bool = False) -> dict:
    workdir = WORK / f"{name}-seed{seed}-{os.getpid()}"
    failures: list[str] = []
    client = Client(bc, name, seed, shrink, workdir, failures)
    report = {"name": name, "seed": seed, "runs": client.runs, "failures": failures}
    warm = Client(bc, name, seed, True, workdir, failures)
    count = max(1, round(workloads.PASSES_PER_20_S[name] * seconds / 20.0))
    try:
        if not shrink:
            # imports, BLAS threads and allocator pools settle before timing
            warm.run_pass()
        if not trace:
            repeats = 1 if shrink else SETUP_REPEATS
            setup = [time_setup(name, seed) for _ in range(repeats)]
            passes = [client.run_pass() for _ in range(count)]
            report["passes"] = passes
            report["setup"] = setup
            report["metrics"] = {
                "wall_s": statistics.median(p["wall"] for p in passes),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            }
        else:
            untraced, traced = [], []
            for _ in range(max(1, round(count / 2))):
                untraced.append(client.run_pass())
                recorder = tracing.Recorder()
                with tracing.installed(recorder):
                    done = client.run_pass(recorder)
                traced.append((recorder, *tracing.pass_metrics(recorder.spans, done["seen"])))
            layers = {k: statistics.median(t[1][k] for t in traced) for k in tracing.PER_LAYER
                      if k != "trace.overhead_ratio"}
            layers["trace.overhead_ratio"] = layers["trace.wall_s"] / statistics.median(
                p["wall"] for p in untraced) - 1.0
            report["passes"] = untraced
            report["traced"] = traced
            report["metrics"] = layers
            report["bases"] = traced[-1][2]
            tracing.dump([t[0] for t in traced], WORK / f"spans-{name}-seed{seed}-{os.getpid()}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["attempted"] = client.attempted + warm.attempted
    return report


# -- reporting -------------------------------------------------------------------


def result_line(report: dict, units: dict) -> dict:
    return {
        "correct": not report["failures"],
        "attempted": report["attempted"],
        "failed": len(report["failures"]),
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in report["metrics"].items()},
    }


def describe(report: dict, seconds: float, trace: bool, prints: dict) -> list[str]:
    lines = [f"workload {report['name']}  seed {report['seed']}  seconds {seconds}  trace {int(trace)}"]
    for run, config in report["runs"]:
        flags = " ".join(f"{k}={v}" for k, v in run.overrides.items() if k != "products") or "none"
        text = run.config_text.strip().replace("\n", "; ") or "(reference defaults)"
        lines.append(f"input {run.label}: product {config.output.products[0]}, overrides {flags}, config {text}")
    lines.append("fingerprint " + " ".join(f"{k}={v}" for k, v in prints.items()))
    passes = report["passes"]
    n = len(passes)
    if not trace:
        m = report["metrics"]
        lines.append(f"setup_s {m['setup_s']!r} s  median of {len(report['setup'])} fresh interpreters")
        lines.append(f"wall_s {m['wall_s']!r} s  median of {n} pass(es)")
        for label in passes[0]["times"]:
            value = statistics.median(p["times"][label] for p in passes)
            lines.append(f"{label}_s {value!r} s  median of {n} pass(es)")
        lines.append(f"peak_rss_mb {m['peak_rss_mb']!r} MB  peak resident set of the process running the passes")
    else:
        lines.append(f"traced passes {len(report['traced'])}, untraced passes {n}; self times in s, "
                     "counts computed from call inputs and output files")
        for k, v in report["metrics"].items():
            base = report["bases"].get(k)
            lines.append(f"{k} {v!r} {tracing.PER_LAYER[k][0]}" + (f"  (computed: {base})" if base else ""))
        last = report["traced"][-1][1]
        lines.append(f"last traced pass: self times add up to {sum(last[k] for k in tracing.PARTITION)!r} s, "
                     f"trace.wall_s {last['trace.wall_s']!r} s")
    attempted, failed = report["attempted"], len(report["failures"])
    lines.append(f"failed_ratio {failed / attempted!r} 1  {failed} failed / {attempted} attempted product runs")
    lines += [f"FAILED {f}" for f in report["failures"]]
    return lines


def self_check() -> int:
    """Run every workload's code path on shrunken inputs and check the harness itself."""
    bc = load_package()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = [m["name"] for m in declared["end_to_end"]]
    want_layer = [m["name"] for m in declared["per_layer"]]
    problems = []
    if want_e2e != list(END_TO_END) or want_layer != list(tracing.PER_LAYER):
        problems.append("metric names differ from BENCHMARK.json")
    if [w["name"] for w in declared["workloads"]] != list(workloads.NAMES):
        problems.append("workload names differ from BENCHMARK.json")
    for name in workloads.NAMES:
        before = tracing.attribute_snapshot()
        plain = measure(bc, name, 0, 0, False, shrink=True)
        traced = measure(bc, name, 0, 0, True, shrink=True)
        if tracing.attribute_snapshot() != before:
            problems.append(f"{name}: traced run left module attributes changed")
        for report, want, units in ((plain, want_e2e, END_TO_END), (traced, want_layer, tracing.PER_LAYER)):
            line = json.loads(json.dumps(result_line(report, units)))
            if list(line["metrics"]) != want:
                problems.append(f"{name}: printed metrics {sorted(line['metrics'])} are not {sorted(want)}")
            problems += [f"{name}: {f}" for f in report["failures"]]
        for _, layer, _ in traced["traced"]:
            total = sum(layer[k] for k in tracing.PARTITION)
            if abs(total - layer["trace.wall_s"]) > 1e-9 * max(1.0, layer["trace.wall_s"]):
                problems.append(f"{name}: self times add up to {total!r}, traced wall is {layer['trace.wall_s']!r}")
        print(f"self-check {name}: wall_s {plain['metrics']['wall_s']:.3f} s, "
              f"traced {traced['metrics']['trace.wall_s']:.3f} s, {plain['attempted']} + "
              f"{traced['attempted']} product runs")
    for p in problems:
        print(f"self-check problem: {p}", file=sys.stderr)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="run every workload on shrunken inputs")
    args = parser.parse_args(argv)
    try:
        if args.self_check:
            return self_check()
        if args.workload not in workloads.NAMES:
            parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
        if args.seed < 0:
            parser.error("--seed must be nonnegative")
        bc = load_package()
        trace = bool(args.trace)
        report = measure(bc, args.workload, args.seed, args.seconds, trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    units = tracing.PER_LAYER if trace else END_TO_END
    for line in describe(report, args.seconds, trace, fingerprint()):
        print(line)
    print(json.dumps(result_line(report, units)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
