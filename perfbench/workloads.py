"""The benchmark's three workloads.

Each workload generates its inputs from the benchmark seed in ``setup``,
which is timed as set-up, then runs ``iteration`` repeatedly.  An iteration
times its stages with ``Stages`` and checks every output afterwards, outside
the timed stages.  The three put the cost in different layers:

* ``tora_cli``: the paper's closed-loop TORA benchmark through the whole CLI
  chain; the scalar simulator dominates it.
* ``disk_large_m``: M=1600 uniform unit-disk points through the library; the
  Gram matrix, Cholesky factor, phi blocks and triangular solves dominate it.
* ``cwh_monitor``: CWH rendezvous at M=800, queried one state at a time by a
  closed-loop monitor; the padded per-call triangular solve dominates it.
"""

import functools
import io
import json
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout

import numpy as np

from checks import (
    check_agree,
    check_exit_code,
    check_gram,
    check_query_csv,
    check_same_as_first,
    check_tau,
    check_training_inside,
)
from kernelreach import cli, estimator, geometry, kernels, systems


def derived_seed(seed: int, stream: int) -> int:
    """Independent 32-bit seed number ``stream`` of the benchmark seed."""
    return int(np.random.SeedSequence(seed, spawn_key=(stream,)).generate_state(1)[0])


class Stages:
    """Stage times of one iteration; in a traced iteration each step is also a span."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times = {}
        self.latencies = []

    def run(self, *steps):
        """Time each ``(name, fn, check)`` step in order; return the results.

        Each ``fn()`` is timed as stage ``name`` (steps of one name add up)
        and its result is passed to ``check`` outside the timing.
        """
        results = []
        for name, fn, check in steps:
            with self.tracer.stage(name) if self.tracer is not None else nullcontext():
                start = time.perf_counter()
                results.append(fn())
                elapsed = time.perf_counter() - start
            self.times[name] = self.times.get(name, 0.0) + elapsed
            check(results[-1])
        return results if len(steps) > 1 else results[0]


class GramProbe:
    """Keeps the last Gram matrix the estimator built, for the checks.

    The reference is dropped when the next Gram matrix is requested, so the
    probe never holds two matrices and does not raise peak memory.
    """

    def __init__(self):
        self.last = None
        self.original = original = getattr(estimator, "gram", None)
        if original is None:
            return

        @functools.wraps(original)
        def capture(*args, **kwargs):
            self.last = None
            self.last = original(*args, **kwargs)
            return self.last

        estimator.gram = capture

    def check(self, ledger, op, kernel_and_points) -> None:
        """Check the captured Gram matrix; rebuild one when none was captured."""
        gram, self.last = self.last, None
        if gram is None:
            gram = kernels.gram(*kernel_and_points())
        check_gram(ledger, op, gram.entries)


def _write_json(path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


class ToraCli:
    """TORA with Beta disturbance: simulate, simulate fresh, fit, query, contour, validate."""

    name = "tora_cli"
    config_file = "configs/tora_beta.json"
    # Fewer samples than the config's M=50, so an iteration takes about 0.6 s
    # and a 38 s run holds some 50 of them; the horizon, integrator and every
    # per-trajectory cost stay the config's.
    sample_size = 3

    def __init__(self, root, seed, work):
        self.root = root
        self.work = work
        self.fresh_seed = derived_seed(seed, 0)
        self.model = work / "model.json"

    def setup(self) -> dict:
        doc = json.loads((self.root / self.config_file).read_text(encoding="utf-8"))
        doc["sample_size"] = self.sample_size
        self.config = self.work / "config.json"
        self.grid = self.work / "grid.json"
        _write_json(self.config, doc)
        _write_json(self.grid, doc["grid"])
        fit = doc["fit"]
        self.fit_flags = [
            "--kernel", fit["kernel_family"],
            "--sigma", repr(fit["bandwidth"]),
            "--lambda", str(fit["lambda"]),
        ]
        resolution = [doc["grid"]["resolution_i"], doc["grid"]["resolution_j"]]
        self.grid_nodes = resolution[0] * resolution[1]
        m = doc["sample_size"]
        return {"M": m, "N": doc["horizon"], "n": 4, "Q": m, "grid": resolution, "fresh": m}

    def _model_points(self):
        doc = json.loads(self.model.read_text(encoding="utf-8"))
        kernel = kernels.KernelSpec(doc["kernel_family"], doc["bandwidth"])
        return kernel, np.reshape(doc["support"], (doc["m"], doc["n"]))

    def _step(self, ledger, probe, stage, op, argv, outputs=(), check=None):
        """One in-process CLI call as a stage step, with the checks of each run.

        Every run must exit 0, build an exactly symmetric Gram matrix when it
        loads or fits a model, and write ``outputs`` byte-identical to the
        first time they were written in this run; ``check`` gets its stdout.
        """
        ledger.attempt(op)
        argv = [str(a) for a in argv]
        out = io.StringIO()

        def call():
            ledger.current = op
            out.seek(0)
            out.truncate()
            with redirect_stdout(out), redirect_stderr(out):
                try:
                    return cli.main(argv)
                except SystemExit as exc:
                    return exc.code if isinstance(exc.code, int) else 1

        def check_run(code):
            check_exit_code(ledger, op, code)
            if argv[0] != "simulate":
                probe.check(ledger, op, self._model_points)
            for path in outputs:
                check_same_as_first(ledger, op, path.name, path.read_bytes())
            if check is not None:
                check(out.getvalue())

        return stage, call, check_run

    def iteration(self, stages, ledger, probe) -> None:
        train, fresh, query, contour = (
            self.work / name for name in ("train.csv", "fresh.csv", "query.csv", "contour.csv")
        )
        model = self.model

        def check_query(_):
            tau = json.loads(model.read_text(encoding="utf-8"))["tau"]
            check_query_csv(ledger, "query", query.read_text(encoding="utf-8"), tau)

        def check_report(report):
            fields = dict(tok.split("=", 1) for tok in report.split() if "=" in tok)
            for key, field in (("containment_rate", "containment_rate"),
                               ("hausdorff", "hausdorff_kernel_metric")):
                check_same_as_first(ledger, "validate", key, float(fields.get(field, "nan")))

        step = functools.partial(self._step, ledger, probe)
        stages.run(step("simulate", "simulate.train",
                        ("simulate", "--config", self.config, "--out", train), (train,)))
        stages.run(step("simulate", "simulate.fresh",
                        ("simulate", "--config", self.config, "--seed", self.fresh_seed,
                         "--out", fresh), (fresh,)))
        stages.run(
            step("fit", "fit", ("fit", "--samples", train, *self.fit_flags, "--out", model),
                 (model,)),
            step("query", "query",
                 ("query", "--model", model, "--points", train, "--out", query), (query,),
                 check_query),
            step("grid", "contour",
                 ("contour", "--model", model, "--grid", self.grid, "--out", contour),
                 (contour, contour.with_suffix(".json"))),
            step("validate", "validate",
                 ("validate", "--model", model, "--samples", fresh), (), check_report),
        )


def _grid_and_validate(stages, ledger, model, grid, cloud) -> None:
    """Grid membership plus contour, then containment and Hausdorff of ``cloud``."""

    def grid_contour():
        values = geometry.grid_decision_values(model, grid)
        return values, geometry.extract_contour(values, grid, 1.0 - model.tau)

    def check_grid(result):
        values, contour = result
        check_same_as_first(ledger, "grid_decision_values", "grid_values", values)
        check_same_as_first(ledger, "extract_contour", "contour_segments", contour.segments)

    def validate():
        return (geometry.containment_rate(model, cloud),
                geometry.hausdorff(cloud, model.support, metric=model.kernel))

    def check_validate(result):
        check_same_as_first(ledger, "containment_rate", "containment_rate", result[0])
        check_same_as_first(ledger, "hausdorff", "hausdorff", result[1])

    ledger.attempt("grid_decision_values")
    ledger.attempt("extract_contour")
    stages.run(("grid", grid_contour, check_grid))
    ledger.attempt("containment_rate")
    ledger.attempt("hausdorff")
    stages.run(("validate", validate, check_validate))


class DiskLargeM:
    """M=1600 unit-disk draws: fit, save, load, grid contour, validate."""

    name = "disk_large_m"
    # Large enough that the Gram matrix and the triangular solves dominate,
    # small enough (with a 50x50 grid) that a 38 s run holds some twenty
    # iterations.
    sample_size = 1600
    fresh_size = 1000

    def __init__(self, root, seed, work):
        self.work = work
        self.train_seed = derived_seed(seed, 1)
        self.fresh_seed = derived_seed(seed, 2)

    def setup(self) -> dict:
        sampler = geometry.uniform_disk_sampler()
        m = self.sample_size
        self.samples = estimator.SampleSet(sampler(m, self.train_seed), provenance="unit disk")
        self.fresh = sampler(self.fresh_size, self.fresh_seed)
        self.config = estimator.FitConfig(kernels.KernelSpec(kernels.ABEL, 0.1),
                                          estimator.RECIPROCAL_M)
        self.grid = geometry.GridSpec(0, 1, (0.0, 0.0), (-1.5, 1.5), (-1.5, 1.5), 50, 50)
        self.grid_nodes = self.grid.resolution_i * self.grid.resolution_j
        return {"M": m, "N": None, "n": 2, "Q": self.fresh_size, "grid": [50, 50],
                "fresh": self.fresh_size}

    def _model_points(self):
        return self.config.kernel, self.samples.points

    def iteration(self, stages, ledger, probe) -> None:
        path = self.work / "model.json"

        def check_model(op):
            def check(model):
                probe.check(ledger, op, self._model_points)
                check_tau(ledger, op, model.tau, model.train_values)
            return check

        ledger.attempt("fit")
        model = stages.run(("fit", lambda: estimator.fit(self.samples, self.config),
                            check_model("fit")))
        ledger.attempt("save_model")
        stages.run(("save", lambda: estimator.save_model(model, path),
                    lambda _: check_same_as_first(ledger, "save_model", path.name,
                                                  path.read_bytes())))
        del model
        ledger.attempt("load_model")
        model = stages.run(("load", lambda: estimator.load_model(path),
                            check_model("load_model")))
        _grid_and_validate(stages, ledger, model, self.grid, self.fresh)


class CwhMonitor:
    """CWH rendezvous at M=800, then a closed loop of single-state classify calls."""

    name = "cwh_monitor"
    config_file = "configs/cwh_rendezvous.json"
    sample_size = 800
    # Closed-loop calls per iteration; a 38 s run makes some 30 iterations,
    # and the latency percentiles pool every call of the run.
    monitored = 100

    def __init__(self, root, seed, work):
        self.root = root
        self.work = work
        self.train_seed = derived_seed(seed, 3)
        self.monitor_seed = derived_seed(seed, 4)

    def setup(self) -> dict:
        doc = json.loads((self.root / self.config_file).read_text(encoding="utf-8"))
        path = self.work / "config.json"
        _write_json(path, doc)
        run = cli.load_run_config(path)
        self.system, self.fit_config = run.system, run.fit
        states = []
        stream = 0
        while len(states) < self.monitored:
            seed = systems.child_seed(self.monitor_seed, stream)
            x0 = self.system.initial.draw(np.random.default_rng(seed))
            states.extend(systems.simulate_trajectory(self.system, x0, seed)[1:])
            stream += 1
        self.states = np.array(states[: self.monitored])
        return {"M": self.sample_size, "N": self.system.horizon, "n": 4, "Q": self.monitored,
                "grid": None, "fresh": self.monitored}

    def iteration(self, stages, ledger, probe) -> None:
        ledger.attempt("sample_terminal_states")
        samples = stages.run((
            "simulate",
            lambda: systems.sample_terminal_states(self.system, self.sample_size, self.train_seed),
            lambda result: check_same_as_first(ledger, "sample_terminal_states", "samples",
                                               result.points),
        ))

        def check_fit(model):
            probe.check(ledger, "fit", lambda: (self.fit_config.kernel, samples.points))
            check_tau(ledger, "fit", model.tau, model.train_values)
            check_training_inside(ledger, "classify_batch.training",
                                  estimator.classify_batch(model, samples.points))

        ledger.attempt("classify_batch.training")
        ledger.attempt("fit")
        model = stages.run(("fit", lambda: estimator.fit(samples, self.fit_config), check_fit))
        ledger.attempt("classify.batch")
        batch = estimator.classify_batch(model, self.states)

        # The closed loop: one caller, each call issued when the last returns.
        def monitor():
            single = np.empty(len(self.states), dtype=bool)
            for i, state in enumerate(self.states):
                start = time.perf_counter()
                single[i] = estimator.classify(model, state)
                stages.latencies.append(time.perf_counter() - start)
            return single

        def check_monitor(single):
            check_agree(ledger, "classify", single, batch)
            check_same_as_first(ledger, "classify", "classify", single)

        ledger.attempt("classify", count=len(self.states))
        stages.run(("classify", monitor, check_monitor))


WORKLOADS = {cls.name: cls for cls in (ToraCli, DiskLargeM, CwhMonitor)}
