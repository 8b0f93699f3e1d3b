import dataclasses
import json

import numpy as np
import pytest

import boxcarpets as bc
from boxcarpets import csvio, products
from boxcarpets.cli import main


def small_config(out_dir, products, **kw):
    config = bc.parse_config(
        "[grid]\n"
        "x_points = 101\n"
        "t_points = 41\n"
        "tmax_tau = 0.5\n"
        "snapshots_tau = 0,0.5\n"
        "[ensemble]\n"
        "count = 4\n"
        "[fit]\n"
        "samples = 120\n"
        "restarts = 4\n"
        "[sweep]\n"
        "start = 6\n"
        "stop = 10\n"
        "step = 2\n"
    )
    return bc.apply_overrides(config, out_dir=str(out_dir), products=products, **kw)


def test_carpet_product_files_and_manifest(tmp_path):
    config = small_config(tmp_path, ("carpet",))
    manifest = bc.run(config)
    assert manifest["failures"] == {}
    files = manifest["products"]["carpet"]
    assert len(files) == 2
    assert (tmp_path / "carpet_density.csv").exists()
    assert (tmp_path / "carpet_density.ppm").read_bytes().startswith(b"P6\n101 41\n255\n")
    stored = json.loads((tmp_path / "manifest.json").read_text())
    assert stored["checksums"] == manifest["checksums"]
    assert set(stored["checksums"]) == {"carpet_density.csv", "carpet_density.ppm"}


def test_runs_are_byte_identical(tmp_path):
    # parallelism is accepted for compatibility and changes nothing
    a = bc.run(small_config(tmp_path / "a", ("carpet", "purity", "decaymap")))
    b = bc.run(small_config(tmp_path / "b", ("carpet", "purity", "decaymap")), parallelism=8)
    assert a["checksums"] == b["checksums"]
    assert a["failures"] == b["failures"] == {}


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_products_of_one_run_share_the_state_and_purity_curve(tmp_path, monkeypatch):
    names = ("purity", "fit", "carpet", "trajectories")
    alone = {}
    for name in names:
        alone |= bc.run(small_config(tmp_path / name, (name,)))["checksums"]
    curves = _count_calls(monkeypatch, products, "purity_curve")
    states = _count_calls(monkeypatch, products, "decompose")
    shared = bc.run(small_config(tmp_path / "shared", names))
    assert (len(curves), len(states)) == (1, 1)
    assert shared["failures"] == {}
    assert shared["checksums"] == alone


def test_decaymap_run_builds_no_state(tmp_path, monkeypatch):
    states = _count_calls(monkeypatch, products, "decompose")
    assert bc.run(small_config(tmp_path, ("decaymap",)))["failures"] == {}
    assert states == []


def test_state_error_fails_only_the_products_that_need_it(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise bc.DomainError("no state")

    monkeypatch.setattr(products, "decompose", broken)
    manifest = bc.run(small_config(tmp_path, ("purity", "decaymap", "carpet")))
    assert set(manifest["failures"]) == {"purity", "carpet"}
    assert set(manifest["checksums"]) == {"decay_times.csv", "decay_times.ppm"}


def test_fit_failure_keeps_the_shared_purity_curve(tmp_path):
    alone = bc.run(small_config(tmp_path / "alone", ("purity",), gamma=0.0))
    both = bc.run(small_config(tmp_path / "both", ("purity", "fit"), gamma=0.0))
    assert set(both["failures"]) == {"fit"}
    assert both["checksums"] == alone["checksums"]
    assert set(alone["checksums"]) == {"purity.csv"}


def test_sweep_product_row_count(tmp_path):
    config = small_config(tmp_path, ("sweep",))
    config = dataclasses.replace(config, sweep=bc.SweepSpec(start=0.0, stop=20.0, step=0.5))
    bc.run(config)
    rows = [
        ln for ln in (tmp_path / "sweep.csv").read_text().splitlines() if not ln.startswith("#")
    ]
    assert len(rows) - 1 == 41  # header + one row per center


def test_trajectories_product(tmp_path):
    config = small_config(tmp_path, ("trajectories",))
    manifest = bc.run(config)
    assert manifest["failures"] == {}
    lines = (tmp_path / "trajectories.csv").read_text().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header.split(",")[:2] == ["t", "x_1"]
    meta = (tmp_path / "trajectories.meta").read_text()
    assert meta.count("completed") == 4


def test_densmat_product(tmp_path):
    config = small_config(tmp_path, ("densmat",))
    manifest = bc.run(config)
    assert manifest["failures"] == {}
    names = {f.split("/")[-1] for f in manifest["products"]["densmat"]}
    assert names == {
        "corrmatrix.csv",
        "corrmatrix.ppm",
        "densmat_re_t0.csv",
        "densmat_im_t0.csv",
        "densmat_re_t0.ppm",
        "densmat_re_t0.5.csv",
        "densmat_im_t0.5.csv",
        "densmat_re_t0.5.ppm",
    }
    header = (tmp_path / "corrmatrix.csv").read_text().splitlines()[1]
    assert header.startswith("alpha,1,2,")


def test_fit_product_and_failure_exit_code(tmp_path):
    assert bc.run(small_config(tmp_path / "ok", ("fit",)))["failures"] == {}
    # a coherent run has a constant purity curve: the fit product must fail
    manifest = bc.run(small_config(tmp_path / "flat", ("fit",), gamma=0.0))
    assert "fit" in manifest["failures"]


def test_ensemble_csv_pads_missing_samples(tmp_path):
    times = np.linspace(0.0, 1.0, 5)
    full = bc.Trajectory(x0=0.0, times=times, positions=np.zeros(5))
    part = bc.Trajectory(
        x0=1.0, times=times[:3], positions=np.ones(3), status="step-floor-hit"
    )
    csvio.write_ensemble([full, part], times, tmp_path / "e.csv", tmp_path / "e.meta")
    rows = [ln for ln in (tmp_path / "e.csv").read_text().splitlines() if not ln.startswith("#")]
    assert rows[-1].split(",")[2] == "nan"
    assert "step-floor-hit" in (tmp_path / "e.meta").read_text()


def test_matrix_csv_inf_sentinel(tmp_path, cfg):
    times = bc.decay_time_map(cfg, bc.DEFAULT_GAMMA, 5)
    csvio.write_mode_matrix(times, tmp_path / "m.csv")
    rows = [ln for ln in (tmp_path / "m.csv").read_text().splitlines() if not ln.startswith("#")]
    assert rows[1].split(",")[1] == "inf"
    assert "e+" not in rows[1].split(",")[1]


def test_float_format_round_trips():
    for v in (1 / 3, 0.1, 2.0 / (5.0 * np.pi), 1e-300, -123456.789):
        assert float(csvio.fmt(v)) == v


def test_data_rows_match_fmt_byte_for_byte(tmp_path):
    # the writers format whole rows with one '%.17g' template; it must give fmt's text
    edge = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2250738585072009e-308, 1e300, -1e-300,
            1 / 3, 0.1, 2.0 / (5.0 * np.pi), -123456.789, 1e16, 12345678901234567.0]
    values = np.array([edge, edge[::-1]])
    x = np.array([-0.0, 1 / 3])
    csvio.write_plane(x, np.arange(len(edge)), values, tmp_path / "p.csv")
    lines = (tmp_path / "p.csv").read_text().splitlines()[2:]
    assert lines == [csvio.fmt(xi) + "," + ",".join(csvio.fmt(v) for v in row) for xi, row in zip(x, values)]
    assert lines[0].split(",")[:5] == ["-0", "nan", "inf", "-inf", "-0"]


# -- command line -------------------------------------------------------------


def test_cli_carpet_success(tmp_path, capsys):
    code = main(
        ["carpet", "--out", str(tmp_path), "--tmax", "0.25", "--gamma", "0", "--x0", "20"]
        + ["--config", _small_cfg_file(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "carpet_density.csv" in out


def test_cli_velocity_quantity(tmp_path):
    code = main(
        ["carpet", "--quantity", "velocity", "--out", str(tmp_path), "--config", _small_cfg_file(tmp_path)]
    )
    assert code == 0
    assert (tmp_path / "carpet_velocity.ppm").exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[signal]\nkind = double\nx0 = 1\n")
    assert main(["purity", "--config", str(bad)]) == 2
    assert "x0" in capsys.readouterr().err
    assert main(["purity", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert main(["purity", "--x0", "40", "--out", str(tmp_path)]) == 2
    # non-finite settings stop before any product runs
    assert main(["carpet", "--tmax", "inf", "--out", str(tmp_path)]) == 2
    assert main(["purity", "--gamma", "nan", "--out", str(tmp_path)]) == 2
    bad.write_text("[sweep]\nstep = nan\n")
    assert main(["sweep", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "step" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


def test_cli_product_failure_exit_code(tmp_path, capsys):
    code = main(
        ["fit", "--gamma", "0", "--out", str(tmp_path), "--config", _small_cfg_file(tmp_path)]
    )
    assert code == 1
    assert "fit" in capsys.readouterr().err


def test_cli_lambda_flag(tmp_path):
    code = main(
        ["decaymap", "--lambda", "formula", "--out", str(tmp_path), "--config", _small_cfg_file(tmp_path)]
    )
    assert code == 0


def test_cli_jobs_flag_is_ignored(tmp_path):
    cfg = _small_cfg_file(tmp_path)
    assert main(["decaymap", "--out", str(tmp_path / "plain"), "--config", cfg]) == 0
    assert main(["decaymap", "--jobs", "3", "--out", str(tmp_path / "jobs"), "--config", cfg]) == 0
    plain, jobs = (json.loads((tmp_path / d / "manifest.json").read_text()) for d in ("plain", "jobs"))
    assert plain["checksums"] == jobs["checksums"]


def _small_cfg_file(tmp_path) -> str:
    path = tmp_path / "small.cfg"
    path.write_text(
        "[grid]\nx_points = 81\nt_points = 33\ntmax_tau = 0.25\n"
        "[fit]\nsamples = 100\nrestarts = 3\n"
        "[ensemble]\ncount = 3\n"
    )
    return str(path)
