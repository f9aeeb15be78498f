"""The workloads' checks catch a corrupted program output (run at small sizes)."""

import json
from pathlib import Path

import pytest

from checks import Ledger
from kernelreach import cli, estimator
from workloads import CwhMonitor, GramProbe, Stages, ToraCli

REPO = Path(__file__).resolve().parents[2]


class SmallCwh(CwhMonitor):
    sample_size = 40
    monitored = 30


@pytest.fixture
def small_tora_root(tmp_path):
    doc = json.loads((REPO / ToraCli.config_file).read_text())
    doc.update(sample_size=6, horizon=5)
    doc["grid"].update(resolution_i=12, resolution_j=12)
    config = tmp_path / ToraCli.config_file
    config.parent.mkdir()
    config.write_text(json.dumps(doc))
    work = tmp_path / "work"
    work.mkdir()
    return tmp_path, work


def run_iterations(workload, count=2):
    workload.setup()
    ledger = Ledger()
    probe = GramProbe()
    try:
        for index in range(count):
            ledger.iteration = index
            stages = Stages()
            workload.iteration(stages, ledger, probe)
    finally:
        estimator.gram = probe.original
    return ledger, stages


def test_cwh_monitor_is_clean_and_times_every_stage(tmp_path):
    ledger, stages = run_iterations(SmallCwh(REPO, 7, tmp_path))
    assert ledger.failures == []
    assert ledger.attempted == 2 * (30 + 4)
    assert set(stages.times) == {"simulate", "fit", "classify"}
    assert len(stages.latencies) == 30


def test_cwh_monitor_counts_a_flipped_single_classify(tmp_path, monkeypatch):
    original = estimator.classify
    calls = []

    def flip_fifth(model, x, level=None):
        calls.append(1)
        result = original(model, x, level)
        return (not result) if len(calls) == 5 else result

    monkeypatch.setattr(estimator, "classify", flip_fifth)
    ledger, _ = run_iterations(SmallCwh(REPO, 7, tmp_path), count=1)
    assert ledger.failed == 1
    assert ledger.failures[0]["op"] == "classify[4]"


def test_tora_cli_is_clean(small_tora_root):
    root, work = small_tora_root
    ledger, stages = run_iterations(ToraCli(root, 3, work))
    assert ledger.failures == []
    assert ledger.attempted == 12
    assert set(stages.times) == {"simulate", "fit", "query", "grid", "validate"}


def test_tora_cli_counts_a_flipped_inside_flag(small_tora_root, monkeypatch):
    root, work = small_tora_root
    original = cli.classify_batch

    def flip_first(model, points, level=None):
        inside = original(model, points, level).copy()
        inside[0] = not inside[0]
        return inside

    monkeypatch.setattr(cli, "classify_batch", flip_first)
    ledger, _ = run_iterations(ToraCli(root, 3, work), count=1)
    assert ledger.failed == 1
    assert ledger.failures[0]["op"] == "query"


def test_tora_cli_counts_a_changed_output_file(small_tora_root, monkeypatch):
    root, work = small_tora_root
    workload = ToraCli(root, 3, work)
    workload.setup()
    ledger = Ledger()
    probe = GramProbe()
    try:
        workload.iteration(Stages(), ledger, probe)
        ledger.iteration = 1
        original = cli.save_model

        def save_then_append(model, path):
            original(model, path)
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(" ")

        monkeypatch.setattr(cli, "save_model", save_then_append)
        workload.iteration(Stages(), ledger, probe)
    finally:
        estimator.gram = probe.original
    assert [(f["iteration"], f["op"]) for f in ledger.failures] == [(1, "fit")]
    assert ledger.failed == 1
