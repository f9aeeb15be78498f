#!/usr/bin/env python3
"""Bit audit: sha256 digests of the output bits a numerical change can move.

Each case of the standard matrix (23 sample sizes, three kernels, lambda 1/M
and 0.013) fits the classifier to a seeded uniform sample and prints one
line: tau; whether the queries in the batch's first solve block, each taken
one at a time, give the same bits as the batch (``single=same`` or
``single=moved``; a block is 128 columns from the padded order 128 up and
wider below it, so all 300 queries are checked below order 56); and the
digests of the Gram matrix G, the Cholesky factor L, the training values, the
classifier values at 300 query points and their membership flags, which a
change of threshold can move while every value keeps its bits.  Then one
``samples`` line per shipped config gives the digest of
``sample_terminal_states`` at the config's M and master seed, and two more lines with master seed 2**64 + 7,
CWH at M=5000 and TORA with Beta disturbance at M=4100, cross the sampler's
4096-sample block boundary: these cover the simulator's bits directly, the
TORA integrator and the disturbance chunk at the block edge included.  A
``trajectory`` line gives the digest of ``simulate_trajectory`` on tora_beta
over its whole horizon, every step kept, so a state that aliases a buffer the
integrator reuses would show.  The script then runs ``kernelreach run`` on each shipped config and
disk_convergence.py into a temporary directory and prints the digest of
every file they write.

The first line names what the bits depend on besides the code: the numpy and
scipy versions, the build of scipy's OpenBLAS and its thread count.  So
compare two checkouts on one machine in one session, by diffing what this
script prints in each; it writes no digest file to compare against later.

Usage: python3 scripts/bit_audit.py
"""

import ctypes
import hashlib
import importlib.util
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from kernelreach import (
    RECIPROCAL_M,
    FitConfig,
    KernelSpec,
    SampleSet,
    classify_batch,
    decision_values,
    fit,
    gram,
    sample_terminal_states,
    simulate_trajectory,
)
from kernelreach.cli import load_run_config
from kernelreach.estimator import _padded_order, _query_block

SCRIPTS = Path(__file__).resolve().parent
CONFIGS = SCRIPTS.parent / "configs"
SIZES = (1, 2, 3, 5, 17, 50, 63, 64, 65, 100, 129, 255, 256, 257, 300,
         511, 512, 513, 514, 800, 1024, 1025, 1600)
# (family, state dimension n, bandwidth)
KERNELS = (("abel", 2, 0.1), ("abel", 4, 0.5), ("gaussian", 3, 0.3))
LAMBDAS = (RECIPROCAL_M, 0.013)
CASES = [(family, n, sigma, m, lam)
         for family, n, sigma in KERNELS for lam in LAMBDAS for m in SIZES]
QUERIES = 300
# (config, M, master seed); None takes the config's own value
SAMPLES = (("cwh_rendezvous", None, None), ("tora", None, None), ("tora_beta", None, None),
           ("cwh_rendezvous", 5000, 2**64 + 7), ("tora_beta", 4100, 2**64 + 7))
# the config whose whole trajectory is digested
TRAJECTORY = "tora_beta"


def digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


def audit_case(family, n, sigma, m, lam) -> str:
    """One case's line: the sample and queries are seeded by (M, n) alone."""
    rng = np.random.default_rng([m, n])
    support = rng.uniform(-1.0, 1.0, size=(m, n))
    queries = rng.uniform(-1.2, 1.2, size=(QUERIES, n))
    kernel = KernelSpec(family, sigma)
    model = fit(SampleSet(support), FitConfig(kernel, lam))
    values = decision_values(model, queries)
    block = _query_block(_padded_order(m))
    singles = [decision_values(model, query)[0] for query in queries[:block]]
    single = "same" if np.array_equal(singles, values[:block]) else "moved"
    label = "1/M" if lam == RECIPROCAL_M else repr(lam)
    return (f"{family} n={n} sigma={sigma} M={m} lambda={label} tau={model.tau!r} "
            f"single={single} G={digest(gram(kernel, support).entries)} "
            f"L={digest(model.factor)} train={digest(model.train_values)} "
            f"query={digest(values)} inside={digest(classify_batch(model, queries))}")


def sample_line(name, m=None, seed=None) -> str:
    """The digest of a shipped config's terminal states, at its own M and seed by default."""
    run = load_run_config(CONFIGS / f"{name}.json")
    m = run.sample_size if m is None else m
    seed = run.master_seed if seed is None else seed
    points = sample_terminal_states(run.system, m, seed).points
    return f"samples {name} M={m} seed={seed} {digest(points)}"


def trajectory_line(name) -> str:
    """The digest of every state of one trajectory of a shipped config: the initial
    state drawn and the disturbance streamed from ``default_rng(master_seed)``."""
    run = load_run_config(CONFIGS / f"{name}.json")
    config, seed = run.system, run.master_seed
    x0 = config.initial.draw(np.random.default_rng(seed))
    states = simulate_trajectory(config, x0, seed)
    return f"trajectory {name} N={config.horizon} seed={seed} {digest(states)}"


def script_lines():
    """Digests of every file ``kernelreach run`` writes on the shipped configs, then of
    every file disk_convergence.py writes."""
    with tempfile.TemporaryDirectory() as tmp:
        outdirs = {"run": Path(tmp) / "run", "disk_convergence.py": Path(tmp) / "disk"}
        for config in sorted(CONFIGS.glob("*.json")):
            subprocess.run([sys.executable, "-m", "kernelreach", "run", "--config", str(config),
                            "--out", str(outdirs["run"])], check=True, capture_output=True)
        subprocess.run([sys.executable, str(SCRIPTS / "disk_convergence.py"),
                        str(outdirs["disk_convergence.py"])], check=True, capture_output=True)
        for label, outdir in outdirs.items():
            for path in sorted(outdir.iterdir()):
                yield f"{label} {path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}"


def environment_line() -> str:
    """numpy and scipy versions, and the build, core and thread count of scipy's OpenBLAS.

    The core is the CPU kernel set OpenBLAS picked at load time; the bits of
    the factor and the solves depend on it.  Where scipy bundles no OpenBLAS
    of its own (a distribution's build), the build is the one scipy reports
    at configure time and the core and thread count are unknown.
    """
    libs = Path(importlib.util.find_spec("scipy").origin).parents[1] / "scipy.libs"
    found = sorted(libs.glob("libscipy_openblas*"))
    if found:
        lib = ctypes.CDLL(str(found[0]))
        lib.scipy_openblas_get_config.argtypes = []
        lib.scipy_openblas_get_config.restype = ctypes.c_char_p
        lib.scipy_openblas_get_corename.argtypes = []
        lib.scipy_openblas_get_corename.restype = ctypes.c_char_p
        lib.scipy_openblas_get_num_threads.argtypes = []
        lib.scipy_openblas_get_num_threads.restype = ctypes.c_int
        build = lib.scipy_openblas_get_config().decode()
        core = lib.scipy_openblas_get_corename().decode()
        threads = lib.scipy_openblas_get_num_threads()
    else:
        blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"
        core = threads = None
    return (f"env numpy={np.__version__} scipy={scipy.__version__} "
            f"blas={build!r} blas_core={core} blas_threads={threads}")


def main():
    print(environment_line(), flush=True)
    for case in CASES:
        print(audit_case(*case), flush=True)
    for sample in SAMPLES:
        print(sample_line(*sample), flush=True)
    print(trajectory_line(TRAJECTORY), flush=True)
    for line in script_lines():
        print(line, flush=True)


if __name__ == "__main__":
    main()
