import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

import boxcarpets as bc
from boxcarpets import csvio, products
from boxcarpets.cli import _common_flags, main


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


def test_default_densmat_names(tmp_path):
    config = small_config(tmp_path, ("densmat",))
    grid = dataclasses.replace(config.grid, snapshots_tau=bc.GridSpec().snapshots_tau)
    config = dataclasses.replace(config, grid=grid)
    names = {f.split("/")[-1] for f in bc.run(config)["products"]["densmat"]}
    assert {n for n in names if n.startswith("densmat_re") and n.endswith(".csv")} == {
        "densmat_re_t0.csv", "densmat_re_t0.5.csv", "densmat_re_t1.csv", "densmat_re_t20.csv"
    }


def test_close_densmat_snapshots_write_distinct_files(tmp_path):
    # 1.0000001 and 1.0000002 agree to 6 significant digits
    config = small_config(tmp_path, ("densmat",))
    grid = dataclasses.replace(config.grid, snapshots_tau=(1.0000001, 1.0000002))
    config = dataclasses.replace(config, grid=grid)
    manifest = bc.run(config)
    assert manifest["failures"] == {}
    names = [f.split("/")[-1] for f in manifest["products"]["densmat"]]
    planes = [name for name in names if name.startswith("densmat_")]
    assert len(planes) == len(set(planes)) == len(list(tmp_path.glob("densmat_*"))) == 6
    assert "densmat_re_t1.0000002.csv" in planes
    # the pixmaps of so close times may round to the same pixels; the tables differ
    tables = [name for name in planes if name.endswith(".csv")]
    assert len({manifest["checksums"][name] for name in tables}) == 4
    assert "t_tau=1.0000001" in (tmp_path / "densmat_im_t1.0000001.csv").read_text().splitlines()[0]


def test_decaymap_of_one_mode(tmp_path):
    # the one-mode map is all never-decaying diagonal: [[inf]]
    config = dataclasses.replace(small_config(tmp_path, ("decaymap",)), n_modes=1)
    assert bc.run(config)["failures"] == {}
    rows = [ln for ln in (tmp_path / "decay_times.csv").read_text().splitlines() if not ln.startswith("#")]
    assert rows[1].split(",")[1:] == ["inf"]
    assert (tmp_path / "decay_times.ppm").read_bytes().startswith(b"P6\n1 1\n255\n")


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


def test_ensemble_csv_rejects_samples_off_the_common_grid(tmp_path):
    times = np.linspace(0.0, 1.0, 5)
    shifted = bc.Trajectory(x0=0.0, times=times[:3] + 0.1, positions=np.zeros(3))
    # more samples than the grid used to raise numpy's broadcast ValueError
    longer = bc.Trajectory(x0=0.0, times=np.linspace(0.0, 1.25, 6), positions=np.zeros(6))
    for tr in (shifted, longer):
        with pytest.raises(bc.DomainError, match="do not align with the common grid"):
            csvio.write_ensemble([tr], times, tmp_path / "e.csv", tmp_path / "e.meta")


def test_matrix_csv_inf_sentinel(tmp_path, cfg):
    times = bc.decay_time_map(cfg, bc.DecoherenceParams(gamma=bc.DEFAULT_GAMMA), 5)
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


def test_curve_rows_match_fmt_byte_for_byte(tmp_path):
    config = bc.parse_config("")
    curve = products._Run(config, tmp_path).purity
    fit = bc.fit_purity(curve, config.fit)
    csvio.write_purity_curve(curve, tmp_path / "p.csv")
    csvio.write_fit_curve(curve, fit, tmp_path / "f.csv")
    tables = {
        "p.csv": ("t,chi", (curve.times, curve.values)),
        "f.csv": ("t,chi,model", (curve.times, curve.values, fit.evaluate(curve.times))),
    }
    for name, (header, columns) in tables.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[1] == header
        assert lines[2:] == [",".join(csvio.fmt(v) for v in row) for row in zip(*columns)]


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
    # the flag is parsed by the same function as the [deco] lambda row;
    # a negative rate is a configuration error
    args = ["decaymap", "--out", str(tmp_path / "bad"), "--config", _small_cfg_file(tmp_path), "--lambda"]
    with pytest.raises(SystemExit) as exc:
        main(args + ["never"])
    assert exc.value.code == 2
    assert main(args + ["-1"]) == 2
    assert not (tmp_path / "bad").exists()


def test_cli_rejects_the_removed_jobs_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["decaymap", "--jobs", "3", "--out", str(tmp_path), "--config", _small_cfg_file(tmp_path)])
    assert exc.value.code == 2
    assert not (tmp_path / "manifest.json").exists()


def test_readme_global_flags_are_the_cli_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme[readme.index("Global flags:"):].split("\n\n", 1)[0]
    documented = set(re.findall(r"`(--[a-z0-9-]+)", paragraph))
    parsed = {flag for action in _common_flags()._actions for flag in action.option_strings}
    assert documented == parsed


def _small_cfg_file(tmp_path) -> str:
    path = tmp_path / "small.cfg"
    path.write_text(
        "[grid]\nx_points = 81\nt_points = 33\ntmax_tau = 0.25\n"
        "[fit]\nsamples = 100\nrestarts = 3\n"
        "[ensemble]\ncount = 3\n"
    )
    return str(path)
