"""Every data-file writer replaces its target atomically: a writer that fails
part-way leaves the previous file as it was and no temporary file behind.
Every CSV cell follows one number rule."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from kernelreach import (
    FitConfig,
    GridSpec,
    KernelSpec,
    MlpController,
    MlpLayer,
    SampleSet,
    extract_contour,
    fit,
    grid_decision_values,
    save_mlp_controller,
    save_model,
    save_sample_csv,
    write_contour_csv,
    write_sweep_csv,
)
from kernelreach import cli, geometry
from kernelreach.atomic import atomic_write
from kernelreach.geometry import write_contour_sidecar


class _Boom(RuntimeError):
    pass


def _rows_then_boom(rows, after=1):
    """Yield the first ``after`` rows, then fail as a writer would part-way."""
    for index, row in enumerate(rows):
        if index == after:
            raise _Boom("failed part-way")
        yield row


class _Rows:
    """Stands in for an array: iterating it fails after the first row."""

    def __init__(self, rows):
        self.rows = rows

    def __iter__(self):
        return _rows_then_boom(self.rows)


def _partial_json_dump(doc, fh, **kwargs):
    fh.write(json.dumps(doc)[:10])
    raise _Boom("failed part-way")


def _model():
    points = np.random.default_rng(0).normal(scale=0.1, size=(12, 2))
    return fit(SampleSet(points), FitConfig(KernelSpec("abel", 0.1)))


def _grid():
    return GridSpec(0, 1, (0.0, 0.0), (-0.3, 0.3), (-0.3, 0.3), 12, 12)


def _contour():
    model = _model()
    return extract_contour(grid_decision_values(model, _grid()), _grid(), model.level)


def _write_samples(path, monkeypatch):
    save_sample_csv(SimpleNamespace(dim=2, points=_Rows(np.ones((5, 2)))), path)


def _write_model(path, monkeypatch):
    monkeypatch.setattr(json, "dump", _partial_json_dump)
    save_model(_model(), path)


def _write_contour_csv(path, monkeypatch):
    write_contour_csv(SimpleNamespace(segments=_Rows(_contour().segments)), path)


def _write_sidecar(path, monkeypatch):
    contour = _contour()
    monkeypatch.setattr(json, "dump", _partial_json_dump)
    write_contour_sidecar(contour, _grid(), 0.5, path)


def _write_sweep(path, monkeypatch):
    row = geometry.SweepRow(10, 0, 0.5, None, 0.25)
    write_sweep_csv(_rows_then_boom([row, row, row]), path)


def _write_controller(path, monkeypatch):
    net = MlpController((MlpLayer(np.eye(2), np.zeros(2), "linear"),))
    monkeypatch.setattr(json, "dump", _partial_json_dump)
    save_mlp_controller(net, path)


def _write_query(path, monkeypatch):
    model_path = path.parent.parent / "model.json"
    points_path = path.parent.parent / "points.csv"
    model = _model()
    save_model(model, model_path)
    save_sample_csv(SampleSet(model.support), points_path)
    real = cli.decision_values
    monkeypatch.setattr(cli, "decision_values",
                        lambda m, p: _rows_then_boom(real(m, p), after=3))
    cli.cmd_query(SimpleNamespace(model=model_path, points=points_path, out=path))


WRITERS = {
    "save_sample_csv": _write_samples,
    "save_model": _write_model,
    "write_contour_csv": _write_contour_csv,
    "write_contour_sidecar": _write_sidecar,
    "write_sweep_csv": _write_sweep,
    "save_mlp_controller": _write_controller,
    "cmd_query": _write_query,
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_writer_leaves_previous_file(name, tmp_path, monkeypatch):
    path = tmp_path / "out" / "target.dat"
    path.parent.mkdir()
    path.write_bytes(b"previous contents\n")
    with pytest.raises(_Boom):
        WRITERS[name](path, monkeypatch)
    assert path.read_bytes() == b"previous contents\n"
    assert sorted(p.name for p in path.parent.iterdir()) == ["target.dat"]


def test_atomic_write_replaces_only_on_success(tmp_path):
    path = tmp_path / "file.txt"
    with atomic_write(path) as fh:
        fh.write("first\n")
    assert path.read_text() == "first\n"
    with pytest.raises(_Boom):
        with atomic_write(path) as fh:
            fh.write("second, half")
            raise _Boom("failed part-way")
    assert path.read_text() == "first\n"
    with atomic_write(path, newline="") as fh:
        fh.write("a\r\nb\n")
    assert path.read_bytes() == b"a\r\nb\n"
    assert [p.name for p in tmp_path.iterdir()] == ["file.txt"]


def test_atomic_write_into_missing_directory_is_os_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        with atomic_write(tmp_path / "missing" / "file.txt") as fh:
            fh.write("x")
    assert list(tmp_path.iterdir()) == []


def test_cell_rule_bytes_of_sweep_and_query_tables(tmp_path, monkeypatch):
    # None is an empty cell, a bool or an integer (numpy's too) is the integer,
    # and any other number is the shortest decimal that reads back to the same double
    rows = [geometry.SweepRow(50, 0, 0.25, None, 0.125),
            geometry.SweepRow(np.int64(800), np.int64(3), np.float64(0.1), np.float64(2.5), 1 / 3)]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    assert path.read_bytes() == (b"m,seed,tau,sym_diff_area,hausdorff_to_reference\n"
                                 b"50,0,0.25,,0.125\n"
                                 b"800,3,0.1,2.5,0.3333333333333333\n")

    model_path, points_path = tmp_path / "model.json", tmp_path / "points.csv"
    model = _model()
    save_model(model, model_path)
    save_sample_csv(SampleSet(model.support[:3]), points_path)
    monkeypatch.setattr(cli, "decision_values", lambda m, p: np.array([0.5, 1 / 3, -0.0]))
    monkeypatch.setattr(cli, "classify_batch", lambda m, p: np.array([True, False, True]))
    path = tmp_path / "query.csv"
    cli.cmd_query(SimpleNamespace(model=model_path, points=points_path, out=path))
    assert path.read_bytes() == b"value,inside\n0.5,1\n0.3333333333333333,0\n-0.0,1\n"
