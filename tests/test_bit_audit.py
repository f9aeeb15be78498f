"""The bit audit script prints the same digests every time it runs a case."""

import importlib.util
from pathlib import Path

from kernelreach import RECIPROCAL_M

_SPEC = importlib.util.spec_from_file_location(
    "bit_audit", Path(__file__).resolve().parent.parent / "scripts" / "bit_audit.py"
)
bit_audit = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bit_audit)

# one case per kernel; M=129 needs two query blocks for its training values
# (a block holds 128 columns at its padded order 136)
_CASES = [("abel", 2, 0.1, 1, RECIPROCAL_M), ("abel", 4, 0.5, 129, 0.013),
          ("gaussian", 3, 0.3, 17, RECIPROCAL_M)]


def test_audit_cases_repeat_in_one_process():
    first = [bit_audit.audit_case(*case) for case in _CASES]
    assert [bit_audit.audit_case(*case) for case in _CASES] == first
    for line in first:
        fields = line.split()[-5:]
        assert [field.split("=")[0] for field in fields] == ["G", "L", "train", "query", "inside"]
        digests = [field.split("=")[1] for field in fields]
        assert len(set(digests)) == 5 and all(len(d) == 64 for d in digests)
    assert set(_CASES) <= set(bit_audit.CASES)


def test_sample_lines_cover_every_shipped_config_and_a_block_boundary():
    shipped = {path.stem for path in bit_audit.CONFIGS.glob("*.json")}
    assert {name for name, _, _ in bit_audit.SAMPLES} == shipped
    # a CWH and a TORA line cross the sampler's 4096-sample block boundary
    assert ("cwh_rendezvous", 5000, 2**64 + 7) in bit_audit.SAMPLES
    assert ("tora_beta", 4100, 2**64 + 7) in bit_audit.SAMPLES
    line = bit_audit.sample_line("cwh_rendezvous", 5, 2**64 + 7)
    assert line == bit_audit.sample_line("cwh_rendezvous", 5, 2**64 + 7)
    assert line.startswith(f"samples cwh_rendezvous M=5 seed={2**64 + 7} ")
    assert len(line.split()[-1]) == 64


def test_audit_environment_line_names_versions_and_threads():
    line = bit_audit.environment_line()
    assert line.startswith("env numpy=") and " scipy=" in line and " blas_threads=" in line


def test_trajectory_line_digests_every_step_of_tora_beta():
    assert bit_audit.TRAJECTORY == "tora_beta"
    line = bit_audit.trajectory_line("tora_beta")
    assert line == bit_audit.trajectory_line("tora_beta")
    assert line.startswith("trajectory tora_beta N=200 seed=2106 ")
    assert len(line.split()[-1]) == 64


def test_mlp_controller_line_digests_a_fixed_network():
    line = bit_audit.mlp_controller_line()
    assert line == bit_audit.mlp_controller_line()
    assert line.startswith("mlp_controller ") and len(line.split()[-1]) == 64
    assert (bit_audit.CONFIGS / f"{bit_audit.COMMANDS}.json").is_file()
