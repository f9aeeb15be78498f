import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kernelreach
from kernelreach import (
    BoxInitial,
    CwhSystem,
    FitConfig,
    GridSpec,
    ModelFormatError,
    PointInitial,
    SampleSet,
    SaturatedFeedback,
    ScaledBetaDisturbance,
    SystemConfig,
    ToraSystem,
    classify_batch,
    load_model,
    load_sample_csv,
    save_sample_csv,
)
from kernelreach import cli
from kernelreach.cli import RunConfig, grid_from_dict, load_run_config, main
from kernelreach.systems import REFERENCE_STREAM, child_seed

REPO_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _write_cwh_config(path, sample_size=30, horizon=5, seed=1803, grid=True):
    doc = {
        "system": {"kind": "cwh", "omega": 0.00113, "mass": 300.0, "dt": 20.0},
        "horizon": horizon,
        "disturbance": {
            "kind": "gaussian",
            "mean": [0.0, 0.0, 0.0, 0.0],
            "covariance_diagonal": [1e-4, 1e-4, 5e-8, 5e-8],
        },
        "initial": {"kind": "point", "x": [-0.75, -0.75, 0.0, 0.0]},
        "sample_size": sample_size,
        "master_seed": seed,
        "fit": {"kernel_family": "abel", "bandwidth": 0.1, "lambda": "reciprocal-m"},
    }
    if grid:
        doc["grid"] = {
            "dim_i": 0,
            "dim_j": 1,
            "fixed": [-0.585, -0.595, 0.0034, 0.003],
            "range_i": [-0.75, -0.43],
            "range_j": [-0.76, -0.44],
            "resolution_i": 100,
            "resolution_j": 100,
        }
    path.write_text(json.dumps(doc))
    return doc


def test_simulate_writes_expected_csv(tmp_path, capsys):
    config = tmp_path / "run.json"
    _write_cwh_config(config, sample_size=100)
    out = tmp_path / "samples.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x1,x2,x3,x4"
    assert len(lines) == 101
    assert "M=100" in capsys.readouterr().out


def test_simulate_rerun_is_byte_identical(tmp_path):
    config = tmp_path / "run.json"
    _write_cwh_config(config)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["simulate", "--config", str(config), "--out", str(first)]) == 0
    assert main(["simulate", "--config", str(config), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_simulate_rejects_zero_samples(tmp_path, capsys):
    config = tmp_path / "run.json"
    _write_cwh_config(config, sample_size=0)
    out = tmp_path / "samples.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    assert "sample_size" in capsys.readouterr().err


def test_simulate_missing_config_is_io_error(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x.csv")]) == 3


def test_simulate_diverging_sample_is_config_error(tmp_path, capsys):
    # one of the eight initial states sits near 3e307 in x2 and overflows in RK4
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "system": {"kind": "tora"},
        "horizon": 1,
        "initial": {"kind": "uniform-box", "lo": [0.6, -0.7, -0.4, 0.5],
                    "hi": [0.7, 3.3e307, -0.3, 0.6]},
        "sample_size": 8,
        "master_seed": 8,
    }))
    out = tmp_path / "samples.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    assert "error: integration produced a non-finite state" in capsys.readouterr().err
    assert not out.exists()


def test_bad_json_reports_line(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text('{"system": {,}')
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 2
    assert "line" in capsys.readouterr().err


def test_fit_reciprocal_m_lambda(tmp_path, capsys):
    config = tmp_path / "run.json"
    _write_cwh_config(config, sample_size=100)
    samples = tmp_path / "samples.csv"
    model_path = tmp_path / "model.json"
    main(["simulate", "--config", str(config), "--out", str(samples)])
    assert main(["fit", "--samples", str(samples), "--sigma", "0.1",
                 "--lambda", "reciprocal-m", "--out", str(model_path)]) == 0
    model = load_model(model_path)
    assert model.lam == 0.01
    assert "tau=" in capsys.readouterr().out


def test_fit_single_row_prints_half_tau(tmp_path, capsys):
    samples = tmp_path / "one.csv"
    samples.write_text("x1,x2\n0.25,0.75\n")
    model_path = tmp_path / "model.json"
    assert main(["fit", "--samples", str(samples), "--sigma", "0.1",
                 "--lambda", "1.0", "--out", str(model_path)]) == 0
    assert "tau=0.5" in capsys.readouterr().out


def test_fit_empty_csv_fails(tmp_path):
    samples = tmp_path / "empty.csv"
    samples.write_text("")
    assert main(["fit", "--samples", str(samples), "--out", str(tmp_path / "m.json")]) == 2


def test_fit_rejects_bad_lambda(tmp_path, capsys):
    samples = tmp_path / "one.csv"
    samples.write_text("x1\n0.0\n")
    assert main(["fit", "--samples", str(samples), "--lambda", "never",
                 "--out", str(tmp_path / "m.json")]) == 2


def test_query_on_support_is_all_inside(tmp_path):
    config = tmp_path / "run.json"
    _write_cwh_config(config)
    samples = tmp_path / "samples.csv"
    model_path = tmp_path / "model.json"
    out = tmp_path / "query.csv"
    main(["simulate", "--config", str(config), "--out", str(samples)])
    main(["fit", "--samples", str(samples), "--out", str(model_path)])
    assert main(["query", "--model", str(model_path), "--points", str(samples),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "value,inside"
    values = [float(line.split(",")[0]) for line in lines[1:]]
    flags = [int(line.split(",")[1]) for line in lines[1:]]
    assert flags == [1] * 30
    assert all(0.0 <= v <= 1.0 + 1e-12 for v in values)


def test_query_dimension_mismatch(tmp_path, capsys):
    samples = tmp_path / "one.csv"
    samples.write_text("x1,x2\n0.25,0.75\n")
    model_path = tmp_path / "model.json"
    main(["fit", "--samples", str(samples), "--out", str(model_path)])
    points = tmp_path / "points.csv"
    points.write_text("x1,x2,x3\n0.0,0.0,0.0\n")
    assert main(["query", "--model", str(model_path), "--points", str(points),
                 "--out", str(tmp_path / "q.csv")]) == 2
    assert "dimension" in capsys.readouterr().err


def test_contour_ten_thousand_nodes(tmp_path, capsys):
    config = tmp_path / "run.json"
    _write_cwh_config(config, sample_size=100)
    samples = tmp_path / "samples.csv"
    model_path = tmp_path / "model.json"
    grid_path = tmp_path / "grid.json"
    out = tmp_path / "contour.csv"
    main(["simulate", "--config", str(config), "--out", str(samples)])
    main(["fit", "--samples", str(samples), "--out", str(model_path)])
    grid_path.write_text(json.dumps(json.loads(config.read_text())["grid"]))

    assert main(["contour", "--model", str(model_path), "--grid", str(grid_path),
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "10000 nodes" in printed and "elapsed=" in printed

    lines = out.read_text().splitlines()
    assert lines[0] == "x1a,x2a,x1b,x2b"
    assert len(lines) > 1  # the boundary crosses this grid
    first_row = [float(tok) for tok in lines[1].split(",")]
    assert len(first_row) == 4
    sidecar = json.loads(out.with_suffix(".json").read_text())
    assert sidecar["level"] == load_model(model_path).level
    assert sidecar["grid"]["resolution_i"] == 100
    assert "tau" in sidecar


def test_contour_level_override(tmp_path):
    samples = tmp_path / "one.csv"
    samples.write_text("x1,x2\n0.0,0.0\n")
    model_path = tmp_path / "model.json"
    main(["fit", "--samples", str(samples), "--out", str(model_path)])
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({
        "dim_i": 0, "dim_j": 1, "fixed": [0.0, 0.0],
        "range_i": [-1, 1], "range_j": [-1, 1],
        "resolution_i": 50, "resolution_j": 50,
    }))
    out = tmp_path / "contour.csv"
    assert main(["contour", "--model", str(model_path), "--grid", str(grid_path),
                 "--level", "0.1", "--out", str(out)]) == 0
    level = json.loads(out.with_suffix(".json").read_text())["level"]
    assert level == 0.1


def test_contour_sidecar_level_is_the_model_level_where_one_minus_tau_is_not(tmp_path):
    # the bit audit's abel n=2 M=100 case at lambda = 0.013: 1 - tau rounds above the level
    support = np.random.default_rng([100, 2]).uniform(-1.0, 1.0, size=(100, 2))
    samples = tmp_path / "samples.csv"
    save_sample_csv(SampleSet(support), samples)
    model_path = tmp_path / "model.json"
    assert main(["fit", "--samples", str(samples), "--kernel", "abel", "--sigma", "0.1",
                 "--lambda", "0.013", "--out", str(model_path)]) == 0
    model = load_model(model_path)
    assert 1.0 - (1.0 - model.level) != model.level
    assert classify_batch(model, support).all()
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({
        "dim_i": 0, "dim_j": 1, "fixed": [0.0, 0.0],
        "range_i": [-1, 1], "range_j": [-1, 1],
        "resolution_i": 20, "resolution_j": 20,
    }))
    out = tmp_path / "contour.csv"
    assert main(["contour", "--model", str(model_path), "--grid", str(grid_path),
                 "--out", str(out)]) == 0
    assert json.loads(out.with_suffix(".json").read_text())["level"] == model.level


@pytest.mark.parametrize("level", ["nan", "inf", "-inf"])
def test_contour_rejects_a_non_finite_level(tmp_path, capsys, level):
    # a non-finite level has no contour, and JSON cannot hold it: exit 2, write nothing
    samples = tmp_path / "one.csv"
    samples.write_text("x1,x2\n0.0,0.0\n")
    model_path = tmp_path / "model.json"
    assert main(["fit", "--samples", str(samples), "--out", str(model_path)]) == 0
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({
        "dim_i": 0, "dim_j": 1, "fixed": [0.0, 0.0],
        "range_i": [-1, 1], "range_j": [-1, 1],
        "resolution_i": 5, "resolution_j": 5,
    }))
    capsys.readouterr()
    out = tmp_path / "contour.csv"
    assert main(["contour", "--model", str(model_path), "--grid", str(grid_path),
                 f"--level={level}", "--out", str(out)]) == 2
    assert "contour level must be finite" in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".json").exists()


def test_validate_prints_rate_and_hausdorff(tmp_path, capsys):
    config = tmp_path / "run.json"
    _write_cwh_config(config)
    samples = tmp_path / "samples.csv"
    fresh = tmp_path / "fresh.csv"
    model_path = tmp_path / "model.json"
    main(["simulate", "--config", str(config), "--out", str(samples)])
    main(["simulate", "--config", str(config), "--seed", "99", "--out", str(fresh)])
    main(["fit", "--samples", str(samples), "--out", str(model_path)])
    assert main(["validate", "--model", str(model_path), "--samples", str(fresh)]) == 0
    printed = capsys.readouterr().out
    assert "containment_rate=" in printed and "hausdorff" in printed
    rate = float(printed.split("containment_rate=")[1].split()[0])
    assert 0.0 <= rate <= 1.0


def test_validate_training_sample_rate_one(tmp_path, capsys):
    config = tmp_path / "run.json"
    _write_cwh_config(config)
    samples = tmp_path / "samples.csv"
    model_path = tmp_path / "model.json"
    main(["simulate", "--config", str(config), "--out", str(samples)])
    main(["fit", "--samples", str(samples), "--out", str(model_path)])
    main(["validate", "--model", str(model_path), "--samples", str(samples)])
    assert "containment_rate=1.000000" in capsys.readouterr().out


def test_sweep_writes_table(tmp_path):
    config = tmp_path / "run.json"
    _write_cwh_config(config, horizon=2)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(config), "--m-list", "5,10",
                 "--seeds", "0,1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "m,seed,tau,sym_diff_area,hausdorff_to_reference"
    assert len(lines) == 5
    assert b"\r" not in out.read_bytes()


def test_sweep_rejects_bad_lists(tmp_path, capsys):
    config = tmp_path / "run.json"
    _write_cwh_config(config)
    assert main(["sweep", "--config", str(config), "--m-list", "ten",
                 "--seeds", "0", "--out", str(tmp_path / "s.csv")]) == 2


def test_sweep_rejects_a_lambda_it_would_ignore(tmp_path, capsys):
    # sweep fits every sample size with 1/M, so any other fit.lambda is an error
    config = tmp_path / "run.json"
    doc = _write_cwh_config(config, horizon=2)
    doc["fit"]["lambda"] = 0.5
    config.write_text(json.dumps(doc))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(config), "--m-list", "5",
                 "--seeds", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {config}: " in err and "fit.lambda must be 'reciprocal-m'" in err
    assert not out.exists()


def test_load_model_corrupt_exit_code(tmp_path):
    bad = tmp_path / "model.json"
    bad.write_text("{broken")
    assert main(["query", "--model", str(bad), "--points", str(bad),
                 "--out", str(tmp_path / "q.csv")]) == 2


def test_query_rejects_model_with_wrong_tau(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    samples.write_text("x1,x2\n0.0,0.0\n0.05,0.02\n-0.03,0.04\n")
    model_path = tmp_path / "model.json"
    assert main(["fit", "--samples", str(samples), "--out", str(model_path)]) == 0
    doc = json.loads(model_path.read_text())
    doc["tau"] += 0.05
    model_path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="tau"):
        load_model(model_path)
    capsys.readouterr()
    assert main(["query", "--model", str(model_path), "--points", str(samples),
                 "--out", str(tmp_path / "q.csv")]) == 2
    assert "tau" in capsys.readouterr().err


def test_checked_in_configs_parse(tmp_path):
    # the shipped experiment configs simulate end to end
    for name in ("cwh_rendezvous.json", "tora.json", "tora_beta.json"):
        config = REPO_CONFIGS / name
        doc = json.loads(config.read_text())
        doc["sample_size"] = 3
        if doc["system"]["kind"] == "tora":
            doc["horizon"] = 3
        small = tmp_path / name
        small.write_text(json.dumps(doc))
        out = tmp_path / f"{name}.csv"
        assert main(["simulate", "--config", str(small), "--out", str(out)]) == 0
        assert load_sample_csv(out).size == 3


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    config = tmp_path / "run.json"
    _write_cwh_config(config, sample_size=3)
    out = tmp_path / "samples.csv"
    result = subprocess.run(
        [sys.executable, "-m", "kernelreach", "simulate",
         "--config", str(config), "--out", str(out)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert load_sample_csv(out).size == 3


def test_cli_import_does_not_load_scipy_special():
    # scipy.special serves only the sigmoid activation; start-up must not pay its import
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, kernelreach.cli; print('scipy.special' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def _mlp_weights_doc():
    return {
        "input_dim": 4,
        "output_dim": 1,
        "layers": [{
            "weights": [0.0, 0.0, -1.0, -1.0],
            "rows": 1,
            "cols": 4,
            "bias": [0.0],
            "activation": "linear",
        }],
        "saturation": {"lo": [-1.0], "hi": [1.0]},
    }


def _mlp_config_doc():
    return {
        "system": {"kind": "tora", "controller": {"kind": "mlp", "path": "net.json"}},
        "horizon": 3,
        "initial": {"kind": "point", "x": [0.65, -0.65, -0.35, 0.55]},
        "sample_size": 2,
        "master_seed": 0,
    }


def test_mlp_controller_config(tmp_path):
    weights = tmp_path / "net.json"
    weights.write_text(json.dumps(_mlp_weights_doc()))
    config = tmp_path / "tora_mlp.json"
    config.write_text(json.dumps(_mlp_config_doc()))
    out = tmp_path / "samples.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert load_sample_csv(out).size == 2


_DELETE = object()


class _Raw(str):
    """A field value written into the JSON text as it is, e.g. ``1e400``."""


_RAW_SLOT = "raw-json-value"


def _write_edited(path, doc, section, key, value):
    """Write ``doc`` to ``path`` with field ``key`` of the dotted ``section`` set or deleted."""
    target = doc
    for part in filter(None, section.split(".")):
        target = target[int(part) if part.isdigit() else part]
    if value is _DELETE:
        del target[key]
    else:
        target[key] = _RAW_SLOT if isinstance(value, _Raw) else value
    path.write_text(json.dumps(doc).replace(f'"{_RAW_SLOT}"', str(value)))


_TORA_BOX = {"kind": "uniform-box", "lo": [0.6, -0.7, -0.4, 0.5], "hi": [0.7, -0.6, -0.3, 0.6]}


def _tora_doc():
    return {
        "system": {"kind": "tora", "controller": {"kind": "builtin-feedback"}},
        "horizon": 2,
        "disturbance": {"kind": "scaled-beta", "alpha": 2.0, "beta": 0.5, "scale": 0.01},
        "initial": dict(_TORA_BOX),
        "sample_size": 2,
        "master_seed": 0,
    }


@pytest.mark.parametrize("base, section, key, value, expected", [
    # system
    ("cwh", "system", "omgea", 1, "unknown field system.omgea"),
    ("cwh", "system", "mass", "300", "field system.mass must be a number, got '300'"),
    ("cwh", "system", "dt", True, "field system.dt must be a number"),
    ("cwh", "system", "kind", _DELETE, "missing field system.kind"),
    ("cwh", "system", "kind", "rocket", "unknown system.kind 'rocket'"),
    ("tora", "system", "integrator_substeps", 10.0,
     "field system.integrator_substeps must be an integer"),
    # controller
    ("tora", "system.controller", "k3", 1.0, "unknown field system.controller.k3"),
    ("tora", "system.controller", "k1", "1.0", "field system.controller.k1 must be a number"),
    ("tora", "system.controller", "saturation", False,
     "field system.controller.saturation must be a number"),
    ("tora", "system.controller", "kind", _DELETE, "missing field system.controller.kind"),
    ("tora", "system.controller", "kind", "mlp", "missing field system.controller.path"),
    # disturbance
    ("tora", "disturbance", "sigma", 0.1, "unknown field disturbance.sigma"),
    ("tora", "disturbance", "dims", 4.5, "field disturbance.dims must be an integer, got 4.5"),
    ("tora", "disturbance", "alpha", "2", "field disturbance.alpha must be a number"),
    ("tora", "disturbance", "kind", _DELETE, "missing field disturbance.kind"),
    ("cwh", "disturbance", "mean", _DELETE, "missing field disturbance.mean"),
    # initial
    ("tora", "initial", "center", [0.0], "unknown field initial.center"),
    ("tora", "initial", "lo", "0.6", "field initial.lo must be an array"),
    ("tora", "initial", "hi", _DELETE, "missing field initial.hi"),
    ("cwh", "initial", "x", "0", "field initial.x must be an array"),
    # fit
    ("cwh", "fit", "kernel", "gaussian", "unknown field fit.kernel"),
    ("cwh", "fit", "bandwidth", "0.5", "field fit.bandwidth must be a number"),
    ("cwh", "fit", "bandwidth", True, "field fit.bandwidth must be a number"),
    ("cwh", "fit", "lambda", "half", "field fit.lambda must be a positive number"),
    # grid
    ("cwh", "grid", "resolution", 50, "unknown field grid.resolution"),
    ("cwh", "grid", "resolution_i", 5.7, "field grid.resolution_i must be an integer, got 5.7"),
    ("cwh", "grid", "dim_j", True, "field grid.dim_j must be an integer"),
    ("cwh", "grid", "dim_i", _DELETE, "missing field grid.dim_i"),
    # top level
    ("cwh", "", "sample_sise", 3, "unknown field sample_sise"),
    ("cwh", "", "horizon", 5.7, "field horizon must be an integer, got 5.7"),
    ("cwh", "", "master_seed", "7", "field master_seed must be an integer"),
    ("cwh", "", "sample_size", True, "field sample_size must be an integer"),
    ("cwh", "", "sample_size", _DELETE, "missing field sample_size"),
    # numbers outside the finite doubles, alone or in arrays
    ("cwh", "system", "mass", _Raw("1e400"), "field system.mass must be a finite double"),
    ("cwh", "system", "mass", 10**400, "field system.mass must be a finite double"),
    ("cwh", "system", "omega", _Raw("1e400"), "field system.omega must be a finite double"),
    ("cwh", "system", "dt", _Raw("-Infinity"), "field system.dt must be a finite double"),
    ("tora", "system.controller", "k1", _Raw("1e400"),
     "field system.controller.k1 must be a finite double"),
    ("tora", "initial", "hi", _Raw("[1e400, -0.6, -0.3, 0.6]"),
     "field initial.hi[0] must be a finite double"),
    ("cwh", "system", "input_sequence", _Raw("[[0.0, 0.0], [0.0, NaN]]"),
     "field system.input_sequence[1][1] must be a finite double"),
    ("cwh", "fit", "lambda", _Raw("1e400"), "field fit.lambda must be a finite double"),
    ("cwh", "", "master_seed", 10**400, "field master_seed must be a finite double"),
    # strings inside arrays
    ("cwh", "initial", "x", ["0.5", 0, 0, 0], "field initial.x[0] must be a number, got '0.5'"),
    ("cwh", "grid", "fixed", [0.0, "0", 0.0, 0.0], "field grid.fixed[1] must be a number"),
    # a run always simulates a CWH or TORA system from an initial condition
    ("cwh", "system", "kind", "external", "unknown system.kind 'external'"),
    ("cwh", "", "initial", _DELETE, "missing field initial"),
    # bools inside numeric arrays
    ("cwh", "initial", "x", [True, -0.65, -0.35, 0.55],
     "field initial.x[0] must be a number, got True"),
    ("cwh", "grid", "fixed", [-0.585, -0.595, False, 0.003],
     "field grid.fixed[2] must be a number, got False"),
    ("cwh", "system", "input_sequence", [[0.0, 0.0], [0.0, True]],
     "field system.input_sequence[1][1] must be a number, got True"),    # value errors name their field, like the type errors above
    ("cwh", "fit", "kernel_family", "x", "field fit.kernel_family must be one of"),
    ("cwh", "fit", "bandwidth", -0.5, "field fit.bandwidth must be a positive finite number"),
    # a grid range is exactly [low, high]
    ("cwh", "grid", "range_i", [0.5], "field grid.range_i must hold exactly two numbers"),
    ("cwh", "grid", "range_j", [], "field grid.range_j must hold exactly two numbers"),
    ("cwh", "grid", "range_i", [0.0, 1.0, 7.0],
     "field grid.range_i must hold exactly two numbers, got [0.0, 1.0, 7.0]"),
    # sections that carry a dimension are checked against the 4-d state when the config loads
    ("cwh", "grid", "fixed", [-0.585, -0.595, 0.0034],
     "field grid.fixed gives dimension 3, but the state has 4"),
    ("cwh", "initial", "x", [-0.75, -0.75, 0.0],
     "field initial.x gives dimension 3, but the state has 4"),
    ("tora", "initial", "hi", [0.7, -0.6, -0.3],
     "field initial.hi must hold as many numbers as lo (4), got 3"),
    ("cwh", "", "disturbance",
     {"kind": "gaussian", "mean": [0.0, 0.0], "covariance_diagonal": [1e-4, 1e-4]},
     "field disturbance.mean gives dimension 2, but the state has 4"),
    ("tora", "disturbance", "dims", 2,
     "field disturbance.dims gives dimension 2, but the state has 4"),
    # a negative bound would clamp every control to it
    ("tora", "system.controller", "saturation", -1.0,
     "field system.controller.saturation must be nonnegative, got -1.0"),
    # range checks name their field too
    ("cwh", "system", "mass", 0.0, "field system.mass must be positive, got 0.0"),
    ("tora", "system", "control_period", -0.1, "field system.control_period must be positive"),
    ("cwh", "", "horizon", 0, "field horizon must be at least 1, got 0"),
    # a CWH thrust schedule covers the horizon inside the box, checked when the config loads
    ("cwh", "system", "input_sequence", [[0.0, 0.0]] * 3,
     "field system.input_sequence has 3 steps, so step 3 of horizon 5 is missing"),
    ("cwh", "system", "input_sequence", [[0.0, 0.0]] * 2 + [[0.0, 0.2]] + [[0.0, 0.0]] * 2,
     "field system.input_sequence [0.  0.2] at step 2 lies outside the admissible box"),
    # the value checks of disturbances and grids name their field too
    ("cwh", "disturbance", "covariance_diagonal", [1e-4, 1e-4],
     "field disturbance.covariance_diagonal and mean must be 1-d vectors of equal length"),
    ("cwh", "disturbance", "covariance_diagonal", [1e-4, -1e-4, 5e-8, 5e-8],
     "field disturbance.covariance_diagonal must be nonnegative"),
    ("cwh", "grid", "dim_i", 4, "field grid.dim_i must index a coordinate of fixed, got 4"),
    ("cwh", "grid", "dim_j", 0, "field grid.dim_j must differ from dim_i, got 0 for both"),
    ("cwh", "grid", "resolution_j", 1, "field grid.resolution_j must be at least 2, got 1"),
    ("cwh", "grid", "range_i", [0.5, 0.5],
     "field grid.range_i must run from low to high, got [0.5, 0.5]"),
    # a seed is a nonnegative integer
    ("cwh", "", "master_seed", -5, "field master_seed must be nonnegative, got -5"),
    # a flat number array holds no array
    ("cwh", "grid", "fixed", [[-0.585], -0.595, 0.0034, 0.003],
     "field grid.fixed[0] must be a number, got [-0.585]"),
    ("cwh", "initial", "x", [-0.75, -0.75, 0.0, [0.0, 1.0]],
     "field initial.x[3] must be a number, got [0.0, 1.0]"),
    ("cwh", "disturbance", "mean", [[0.0], 0.0, 0.0, 0.0],
     "field disturbance.mean[0] must be a number, got [0.0]"),
    ("cwh", "grid", "range_j", [None, 1.0], "field grid.range_j[0] must be a number, got None"),
    # a flag array holds JSON booleans only
    ("tora", "disturbance", "mask", [[False], False, False, False],
     "field disturbance.mask[0] must be a boolean, got [False]"),
    ("tora", "disturbance", "mask", [True, False, 1, True],
     "field disturbance.mask[2] must be a boolean, got 1"),
    ("tora", "disturbance", "mask", [True, "no", True, True],
     "field disturbance.mask[1] must be a boolean, got 'no'"),    # finite bounds further apart than a double can hold
    ("tora", "", "initial",
     {"kind": "uniform-box", "lo": [-1e308, -0.7, -0.4, 0.5], "hi": [1e308, -0.6, -0.3, 0.6]},
     "field initial.hi - lo overflows a double in coordinate 0"),
])
def test_config_field_errors_exit_2(tmp_path, capsys, base, section, key, value, expected):
    # one bad field in an otherwise valid config fails before anything is simulated
    config = tmp_path / "run.json"
    doc = _tora_doc() if base == "tora" else _write_cwh_config(config)
    _write_edited(config, doc, section, key, value)
    out = tmp_path / "samples.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {config}: " in err and expected in err
    assert not out.exists()


_POINTS = "x1,x2\n0.0,0.0\n0.05,0.02\n-0.03,0.04\n"


@pytest.mark.parametrize("key, value, expected", [
    ("m", _Raw("1e400"), "field m must be a finite double"),
    ("m", "5", "field m must be an integer, got '5'"),
    ("m", 5.0, "field m must be an integer, got 5.0"),
    ("lambda", "0.2", "field lambda must be a number, got '0.2'"),
    ("bandwidth", True, "field bandwidth must be a number, got True"),
    ("sigma", 0.1, "unknown field sigma"),
    ("support", _Raw("[1e400, 0.0, 0.05, 0.02, -0.03, 0.04]"),
     "field support[0] must be a finite double"),
    ("support", ["0.0", 0.0, 0.05, 0.02, -0.03, 0.04],
     "field support[0] must be a number, got '0.0'"),
    ("checksum", _DELETE, "missing field checksum"),
    ("support", [True, 0.0, 0.05, 0.02, -0.03, 0.04],
     "field support[0] must be a number, got True"),    # value errors name their field, like the type errors above
    ("lambda", -1, "field lambda must be a positive number or 'reciprocal-m', got -1"),
    ("kernel_family", "x", "field kernel_family must be one of ('abel', 'gaussian'), got 'x'"),
    ("bandwidth", -0.5, "field bandwidth must be a positive finite number, got -0.5"),
    # the support holds m*n numbers that match the checksum
    ("m", 4, "field support holds 6 values, expected m*n = 8"),
    ("checksum", "0" * 64, "field support fails its checksum"),
    ("m", 0, "field m must be at least 1, got 0"),
    ("n", 0, "field n must be at least 1, got 0"),
    # the support is a flat array of m*n numbers
    ("support", [[0.0, 0.0], 0.05, 0.02, -0.03, 0.04],
     "field support[0] must be a number, got [0.0, 0.0]"),
])
def test_model_file_field_errors_exit_2(tmp_path, capsys, key, value, expected):
    # one bad field in a model file fails the query before anything is written
    points = tmp_path / "points.csv"
    points.write_text(_POINTS)
    model = tmp_path / "model.json"
    assert main(["fit", "--samples", str(points), "--out", str(model)]) == 0
    _write_edited(model, json.loads(model.read_text()), "", key, value)
    capsys.readouterr()
    out = tmp_path / "q.csv"
    assert main(["query", "--model", str(model), "--points", str(points), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {model}: " in err and expected in err
    assert not out.exists()


def test_query_singular_model_exits_4(tmp_path, capsys):
    # a well-formed model file whose matrix cannot be factored is a numerical error
    import hashlib

    points = tmp_path / "points.csv"
    points.write_text(_POINTS)
    model = tmp_path / "model.json"
    assert main(["fit", "--samples", str(points), "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    support = np.zeros((doc["m"], doc["n"]))  # coincident points: a singular Gram matrix
    doc["support"] = support.ravel().tolist()
    doc["checksum"] = hashlib.sha256(support.tobytes()).hexdigest()
    doc["lambda"] = 1e-300  # too small to lift the zero pivot
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "q.csv"
    assert main(["query", "--model", str(model), "--points", str(points), "--out", str(out)]) == 4
    assert "numerical error" in capsys.readouterr().err
    assert not out.exists()


def test_fit_singular_samples_exits_4(tmp_path, capsys):
    # coincident samples and a lambda too small to lift the zero pivot: the factorization fails
    samples = tmp_path / "samples.csv"
    samples.write_text("x1,x2\n0.5,0.5\n0.5,0.5\n0.5,0.5\n")
    model = tmp_path / "model.json"
    assert main(["fit", "--samples", str(samples), "--lambda", "1e-300", "--out", str(model)]) == 4
    assert "numerical error" in capsys.readouterr().err
    assert not model.exists()


def test_fit_out_of_memory_exits_4(tmp_path):
    # the Gram matrix of 16,000 points (2.05 GB) exceeds the child's 1.5 GiB of
    # address space, so its allocation fails at once and no memory is touched
    limit = 3 << 29
    samples = tmp_path / "samples.csv"
    np.savetxt(samples, np.random.default_rng(0).uniform(size=(16000, 2)), delimiter=",",
               header="x1,x2", comments="")
    model = tmp_path / "model.json"
    src = Path(kernelreach.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    result = subprocess.run(
        [sys.executable, "-m", "kernelreach", "fit", "--samples", str(samples),
         "--out", str(model)],
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 4, result.stderr
    assert result.stderr.startswith("error: out of memory: Unable to allocate")
    assert "Traceback" not in result.stderr
    assert not model.exists()


def test_fit_out_of_memory_in_process_exits_4(tmp_path, monkeypatch, capsys):
    def exhausted(samples, config):
        raise MemoryError("Unable to allocate 2.05 GiB")

    samples = tmp_path / "samples.csv"
    samples.write_text(_POINTS)
    model = tmp_path / "model.json"
    monkeypatch.setattr(cli, "fit", exhausted)
    assert main(["fit", "--samples", str(samples), "--out", str(model)]) == 4
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 2.05 GiB\n"
    assert not model.exists()


# A second layer that takes 3 inputs, where the first gives 1.
_UNCHAINED_LAYER = {"weights": [0.0, 0.0, 0.0], "rows": 1, "cols": 3, "bias": [0.0],
                    "activation": "linear"}


@pytest.mark.parametrize("section, key, value, expected", [
    ("layers.0", "weights", [0.0, 0.0, -1.0, -(10**400)],
     "field layers[0].weights[3] must be a finite double"),
    ("layers.0", "rows", 1.9, "field layers[0].rows must be an integer, got 1.9"),
    ("layers.0", "rows", "1", "field layers[0].rows must be an integer, got '1'"),
    ("", "biases", [0.0], "unknown field biases"),
    ("saturation", "hi", _DELETE, "missing field saturation.hi"),
    ("layers.0", "weights", ["0.0", 0.0, -1.0, -1.0],
     "field layers[0].weights[0] must be a number, got '0.0'"),
    # the network's value checks name their field
    ("", "input_dim", 3, "field input_dim is declared as 3, but the layers give 4"),
    ("", "output_dim", 2, "field output_dim is declared as 2, but the layers give 1"),
    ("", "layers", [_mlp_weights_doc()["layers"][0], _UNCHAINED_LAYER],
     "field layers do not chain: (1, 4) then (1, 3)"),
    # weights, biases and the saturation box are flat number arrays
    ("layers.0", "weights", [[0.0, 0.0], -1.0, -1.0],
     "field layers[0].weights[0] must be a number, got [0.0, 0.0]"),
    ("saturation", "lo", [[-1.0]], "field saturation.lo[0] must be a number, got [-1.0]"),
])
def test_weight_file_field_errors_exit_2(tmp_path, capsys, section, key, value, expected):
    # one bad field in an MLP weight file fails the run before anything is simulated
    weights = tmp_path / "net.json"
    _write_edited(weights, _mlp_weights_doc(), section, key, value)
    config = tmp_path / "tora_mlp.json"
    config.write_text(json.dumps(_mlp_config_doc()))
    out = tmp_path / "samples.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{weights}: " in err and expected in err
    assert not out.exists()


_CWH_POINT = {"kind": "point", "x": [-0.75, -0.75, 0.0, 0.0]}
_GRID = {"dim_i": 0, "dim_j": 1, "fixed": [0.0, 0.0, 0.0, 0.0],
         "range_i": [-1.0, 1.0], "range_j": [-1.0, 1.0]}


@pytest.mark.parametrize("doc, system", [
    ({"system": {"kind": "cwh"}, "initial": _CWH_POINT},
     SystemConfig(CwhSystem(), 5, initial=PointInitial(_CWH_POINT["x"]))),
    ({"system": {"kind": "tora"}, "initial": _TORA_BOX},
     SystemConfig(ToraSystem(), 5, initial=BoxInitial(_TORA_BOX["lo"], _TORA_BOX["hi"]))),
    ({"system": {"kind": "tora", "controller": {"kind": "builtin-feedback"}},
      "disturbance": {"kind": "scaled-beta"}, "initial": _TORA_BOX},
     SystemConfig(ToraSystem(SaturatedFeedback()), 5, ScaledBetaDisturbance(),
                  initial=BoxInitial(_TORA_BOX["lo"], _TORA_BOX["hi"]))),
    # the disturbance mask is the one array that takes bools
    ({"system": {"kind": "tora"}, "initial": _TORA_BOX,
      "disturbance": {"kind": "scaled-beta", "mask": [True, False, True, True]}},
     SystemConfig(ToraSystem(), 5, ScaledBetaDisturbance(mask=(True, False, True, True)),
                  initial=BoxInitial(_TORA_BOX["lo"], _TORA_BOX["hi"]))),
])
def test_minimal_config_takes_dataclass_defaults(tmp_path, doc, system):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({**doc, "horizon": 5, "sample_size": 3, "master_seed": 0,
                                  "grid": _GRID}))
    assert load_run_config(config) == RunConfig(system, 3, 0, FitConfig(), GridSpec(**_GRID))


@pytest.mark.parametrize("key, value", [
    ("range_i", [0.5]), ("range_i", []), ("range_j", [0.0, 1.0, 7.0]),
])
def test_contour_grid_range_of_wrong_length_exits_2(tmp_path, capsys, key, value):
    samples = tmp_path / "one.csv"
    samples.write_text("x1,x2\n0.0,0.0\n")
    model_path = tmp_path / "model.json"
    assert main(["fit", "--samples", str(samples), "--out", str(model_path)]) == 0
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({**_GRID, "fixed": [0.0, 0.0], key: value}))
    capsys.readouterr()
    out = tmp_path / "contour.csv"
    assert main(["contour", "--model", str(model_path), "--grid", str(grid_path),
                 "--out", str(out)]) == 2
    assert f"error: {grid_path}: field {key} must hold exactly two numbers" in capsys.readouterr().err
    assert not out.exists()


def test_contour_sidecar_grid_reads_back(tmp_path):
    samples = tmp_path / "one.csv"
    samples.write_text("x1,x2\n0.0,0.0\n")
    model_path = tmp_path / "model.json"
    assert main(["fit", "--samples", str(samples), "--out", str(model_path)]) == 0
    doc = {"dim_i": 1, "dim_j": 0, "fixed": [0.25, -0.5], "range_i": [-1, 1],
           "range_j": [-0.5, 0.75], "resolution_j": 7}
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(doc))
    out = tmp_path / "contour.csv"
    assert main(["contour", "--model", str(model_path), "--grid", str(grid_path),
                 "--out", str(out)]) == 0
    sidecar = json.loads(out.with_suffix(".json").read_text())
    assert grid_from_dict(sidecar["grid"]) == grid_from_dict(doc) == GridSpec(**doc)


def test_weight_file_error_names_its_file_once(tmp_path, capsys):
    # the weight file's error names that file; the run config that points to it adds nothing
    weights = tmp_path.resolve() / "net.json"
    doc = _mlp_weights_doc()
    doc["layers"].append(_UNCHAINED_LAYER)
    weights.write_text(json.dumps(doc))
    config = tmp_path / "tora_mlp.json"
    config.write_text(json.dumps(_mlp_config_doc()))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "s.csv")]) == 2
    expected = f"error: {weights}: field layers do not chain: (1, 4) then (1, 3)\n"
    assert capsys.readouterr().err == expected


@pytest.mark.parametrize("command, flag, extra", [
    ("simulate", "--seed", ["--seed", "-3"]),
    ("sweep", "--seeds", ["--m-list", "5", "--seeds", "-1"]),
])
def test_negative_seed_flag_exits_2(tmp_path, capsys, command, flag, extra):
    config = tmp_path / "run.json"
    _write_cwh_config(config, horizon=2)
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(config), *extra, "--out", str(out)]) == 2
    assert f"error: {flag} must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def _fit_one_point(tmp_path):
    samples = tmp_path / "one.csv"
    samples.write_text("x1,x2\n0.0,0.0\n")
    model_path = tmp_path / "model.json"
    assert main(["fit", "--samples", str(samples), "--out", str(model_path)]) == 0
    return model_path


def test_contour_grid_of_another_dimension_exits_2(tmp_path, capsys):
    model_path = _fit_one_point(tmp_path)
    grid_path = tmp_path / "g3.json"
    grid_path.write_text(json.dumps({**_GRID, "fixed": [0.0, 0.0, 0.0]}))
    capsys.readouterr()
    out = tmp_path / "contour.csv"
    assert main(["contour", "--model", str(model_path), "--grid", str(grid_path),
                 "--out", str(out)]) == 2
    assert f"error: {grid_path}: grid is 3-dimensional, model expects 2" in capsys.readouterr().err
    assert not out.exists()


def test_contour_grid_nested_array_exits_2(tmp_path, capsys):
    # a grid file's flat number arrays hold no array, as in a run config's grid
    model_path = _fit_one_point(tmp_path)
    grid_path = tmp_path / "g.json"
    grid_path.write_text(json.dumps({**_GRID, "fixed": [[0.0], 0.0]}))
    capsys.readouterr()
    out = tmp_path / "contour.csv"
    assert main(["contour", "--model", str(model_path), "--grid", str(grid_path),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {grid_path}: field fixed[0] must be a number, got [0.0]" in err
    assert not out.exists()


def test_contour_out_named_like_its_sidecar_exits_2(tmp_path, capsys):
    # the sidecar is --out with the suffix .json, so an --out ending in .json would be lost
    model_path = _fit_one_point(tmp_path)
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({**_GRID, "fixed": [0.0, 0.0]}))
    capsys.readouterr()
    out = tmp_path / "contour.json"
    assert main(["contour", "--model", str(model_path), "--grid", str(grid_path),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"error: --out {out} would be overwritten by the contour's sidecar" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_contour_sidecar_that_cannot_be_written_keeps_the_previous_csv(tmp_path, capsys):
    # the sidecar is written first, so a failed sidecar replaces nothing
    model_path = _fit_one_point(tmp_path)
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({**_GRID, "fixed": [0.0, 0.0]}))
    out = tmp_path / "b.csv"
    out.write_bytes(b"previous contents\n")
    out.with_suffix(".json").mkdir()
    capsys.readouterr()
    assert main(["contour", "--model", str(model_path), "--grid", str(grid_path),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == b"previous contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.csv", "b.json", "grid.json",
                                                          "model.json", "one.csv"]


@pytest.mark.parametrize("cell, message", [
    ("1_0", "line 3 column 2: '1_0' is not a number"),
    ("nan", "non-finite values: line 3 column 2 is 'nan'"),
    ("inf", "non-finite values: line 3 column 2 is 'inf'"),
], ids=["digit-separator", "nan", "inf"])
def test_fit_samples_with_a_cell_no_writer_writes_exits_2(tmp_path, capsys, cell, message):
    samples = tmp_path / "s.csv"
    samples.write_text(f"x1,x2\n0.0,0.0\n1.0,{cell}\n")
    out = tmp_path / "model.json"
    assert main(["fit", "--samples", str(samples), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: sample file {samples} " in err
    assert message in err
    assert not out.exists()


def test_validate_points_of_another_dimension_exit_2(tmp_path, capsys):
    model_path = _fit_one_point(tmp_path)
    points = tmp_path / "p3.csv"
    points.write_text("x1,x2,x3\n0.0,0.0,0.0\n")
    capsys.readouterr()
    assert main(["validate", "--model", str(model_path), "--samples", str(points)]) == 2
    err = capsys.readouterr().err
    assert f"error: {points}: points have dimension 3, model expects 2" in err


def test_sweep_rejects_an_empty_list(tmp_path, capsys):
    config = tmp_path / "run.json"
    _write_cwh_config(config, horizon=2)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(config), "--m-list", ",", "--seeds", "0",
                 "--out", str(out)]) == 2
    assert "error: --m-list and --seeds must be nonempty" in capsys.readouterr().err
    assert not out.exists()


def test_config_that_is_not_an_object_exits_2(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text("[1, 2]")
    out = tmp_path / "samples.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    assert f"error: {config}: must be a JSON object" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["cwh_rendezvous", "tora", "tora_beta"])
def test_run_writes_what_the_command_chain_writes(tmp_path, capsys, name):
    config = REPO_CONFIGS / f"{name}.json"
    doc = json.loads(config.read_text())
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()

    samples, model_path, boundary = tmp_path / "s.csv", tmp_path / "m.json", tmp_path / "b.csv"
    grid_path, fresh_config, fresh = tmp_path / "g.json", tmp_path / "f.json", tmp_path / "f.csv"
    grid_path.write_text(json.dumps(doc["grid"]))
    fresh_config.write_text(json.dumps({**doc, "sample_size": 1000}))
    fit_doc = doc["fit"]
    assert main(["simulate", "--config", str(config), "--out", str(samples)]) == 0
    assert main(["fit", "--samples", str(samples), "--kernel", fit_doc["kernel_family"],
                 "--sigma", str(fit_doc["bandwidth"]), "--lambda", str(fit_doc["lambda"]),
                 "--out", str(model_path)]) == 0
    assert main(["contour", "--model", str(model_path), "--grid", str(grid_path),
                 "--out", str(boundary)]) == 0
    reference_seed = child_seed(doc["master_seed"], REFERENCE_STREAM)
    assert main(["simulate", "--config", str(fresh_config), "--seed", str(reference_seed),
                 "--out", str(fresh)]) == 0
    capsys.readouterr()
    assert main(["validate", "--model", str(model_path), "--samples", str(fresh)]) == 0
    validated = capsys.readouterr().out.split()
    rate, distance = (float(field.split("=")[1]) for field in validated[1:])

    for chained, written in [(samples, "terminal_states.csv"), (model_path, "model.json"),
                             (boundary, "boundary.csv")]:
        assert (out / f"{name}_{written}").read_bytes() == chained.read_bytes()
    assert len(list(out.iterdir())) == 3
    segments = len(boundary.read_text().splitlines()) - 1
    assert segments > 0
    assert printed[0].startswith(
        f"{name}: M={doc['sample_size']} tau={load_model(model_path).tau:.6f} "
        f"segments={segments} containment={rate:.4f} hausdorff={distance:.6f} (sample ")
    assert len(printed) == 1


def test_run_never_validates_on_its_training_draws(tmp_path, monkeypatch):
    # the reference sample's master seed is derived from the training seed, so
    # even a training seed equal to some fixed reference seed draws apart
    config = tmp_path / "run.json"
    _write_cwh_config(config, sample_size=20, horizon=2, seed=90210)
    draws = []
    sample = cli.sample_terminal_states

    def recording(*args):
        draws.append(sample(*args))
        return draws[-1]

    monkeypatch.setattr(cli, "sample_terminal_states", recording)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    train, reference = (draw.points for draw in draws)
    assert reference.shape == (1000, 4)
    training_rows = {row.tobytes() for row in train}
    assert not any(row.tobytes() in training_rows for row in reference)


def test_run_fits_with_the_config_fit(tmp_path, capsys):
    config = tmp_path / "run.json"
    doc = _write_cwh_config(config)
    doc["fit"] = {"kernel_family": "gaussian", "bandwidth": 0.2, "lambda": 0.05}
    config.write_text(json.dumps(doc))
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 0
    model = load_model(tmp_path / "run_model.json")
    assert (model.kernel.family, model.kernel.bandwidth, model.lam) == ("gaussian", 0.2, 0.05)


def test_run_without_a_grid_exits_2(tmp_path, capsys):
    config = tmp_path / "run.json"
    _write_cwh_config(config, grid=False)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert f"error: {config}: missing field grid" in capsys.readouterr().err
    assert not out.exists()


def test_run_out_below_a_regular_file_exits_3(tmp_path, capsys):
    config = tmp_path / "run.json"
    _write_cwh_config(config)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file\n")
    assert main(["run", "--config", str(config), "--out", str(blocker / "out")]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert sorted(path.name for path in tmp_path.iterdir()) == ["blocker", "run.json"]
    assert blocker.read_text() == "a file\n"
