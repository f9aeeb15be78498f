import json
from pathlib import Path

import numpy as np
import pytest

from kernelreach import (
    BoxInitial,
    CwhSystem,
    FitConfig,
    GridSpec,
    ModelFormatError,
    PointInitial,
    SaturatedFeedback,
    ScaledBetaDisturbance,
    SystemConfig,
    ToraSystem,
    load_model,
    load_sample_csv,
)
from kernelreach.cli import RunConfig, grid_from_dict, load_run_config, main

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
    assert sidecar["level"] == pytest.approx(1.0 - load_model(model_path).tau)
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


def test_external_source_config(tmp_path):
    inner = tmp_path / "terminal.csv"
    rows = ["x1,x2"] + [f"{0.1 * i!r},{0.2 * i!r}" for i in range(8)]
    inner.write_text("\n".join(rows) + "\n")
    config = tmp_path / "ext.json"
    config.write_text(json.dumps({
        "system": {"kind": "external", "path": "terminal.csv"},
        "horizon": 1,
        "sample_size": 5,
        "master_seed": 0,
    }))
    out = tmp_path / "picked.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    picked = load_sample_csv(out)
    assert picked.size == 5
    assert np.array_equal(picked.points, load_sample_csv(inner).points[:5])


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
    ("cwh", "fit", "lambda", "half", "fit: regularization lambda must be a positive number"),
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


@pytest.mark.parametrize("section, key, value, expected", [
    ("layers.0", "weights", [0.0, 0.0, -1.0, -(10**400)],
     "field layers[0].weights[3] must be a finite double"),
    ("layers.0", "rows", 1.9, "field layers[0].rows must be an integer, got 1.9"),
    ("layers.0", "rows", "1", "field layers[0].rows must be an integer, got '1'"),
    ("", "biases", [0.0], "unknown field biases"),
    ("saturation", "hi", _DELETE, "missing field saturation.hi"),
    ("layers.0", "weights", ["0.0", 0.0, -1.0, -1.0],
     "field layers[0].weights[0] must be a number, got '0.0'"),
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
                  BoxInitial(_TORA_BOX["lo"], _TORA_BOX["hi"]))),
])
def test_minimal_config_takes_dataclass_defaults(tmp_path, doc, system):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({**doc, "horizon": 5, "sample_size": 3, "master_seed": 0,
                                  "grid": _GRID}))
    assert load_run_config(config) == RunConfig(system, 3, 0, FitConfig(), GridSpec(**_GRID))


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
