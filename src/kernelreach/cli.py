"""Command-line front end: simulate, fit, query, contour, validate, sweep, run.

All commands are deterministic given their input files and flags; wall-time
reports go to the terminal, never into data files.  Exit codes: 0 success,
2 validation or configuration error, 3 I/O error, 4 numerical error or out of
memory.
"""

import argparse
import inspect
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import write_csv
from .estimator import (
    RECIPROCAL_M,
    FitConfig,
    classify_batch,
    decision_values,
    fit,
    load_model,
    save_model,
)
from .geometry import (
    GridSpec,
    containment_rate,
    convergence_sweep,
    extract_contour,
    grid_decision_values,
    hausdorff,
    write_contour_csv,
    write_contour_sidecar,
    write_sweep_csv,
)
from .kernels import _FAMILIES, KernelSpec
from .schema import ConfigError, FieldError, build, json_object, load_json, split_fields, typed
from .systems import (
    STATE_DIM,
    BoxInitial,
    CwhSystem,
    GaussianDisturbance,
    NoDisturbance,
    PointInitial,
    SaturatedFeedback,
    ScaledBetaDisturbance,
    SystemConfig,
    ToraSystem,
    load_mlp_controller,
    load_sample_csv,
    sample_terminal_states,
    save_sample_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

# The fresh draws `run` checks a fitted model against.
FRESH_SIZE = 1000
FRESH_SEED = 90210


@dataclass
class RunConfig:
    system: SystemConfig
    sample_size: int
    master_seed: int
    fit: FitConfig = FitConfig()
    grid: GridSpec = None

    def __post_init__(self):
        if self.sample_size < 1:
            raise FieldError("sample_size", f"must be at least 1, got {self.sample_size}")
        if self.master_seed < 0:
            raise FieldError("master_seed", f"must be nonnegative, got {self.master_seed}")
        if self.grid is not None and self.grid.dim != STATE_DIM:
            raise FieldError(
                "grid.fixed", f"gives dimension {self.grid.dim}, but the state has {STATE_DIM}"
            )


# What a config section builds, by its "kind" field.
_SYSTEMS = {"cwh": CwhSystem, "tora": ToraSystem}
_CONTROLLERS = {"builtin-feedback": SaturatedFeedback, "mlp": load_mlp_controller}
_DISTURBANCES = {
    "none": NoDisturbance,
    "gaussian": GaussianDisturbance,
    "scaled-beta": ScaledBetaDisturbance,
}
_INITIALS = {"point": PointInitial, "uniform-box": BoxInitial}


def grid_from_dict(doc, path="grid"):
    return build(GridSpec, doc, path, "")


def load_run_config(path) -> RunConfig:
    """Build a run from a config file; its schema is the dataclasses' own fields.

    Only two things are not: ``fit`` names its fields ``kernel_family``,
    ``bandwidth`` and ``lambda``, and the ``path`` of an MLP controller is
    relative to the config file.
    """
    doc = json_object(load_json(path), path, "")
    base_dir = Path(path).resolve().parent

    def kind(table):
        return lambda value, where: build(table, value, path, where, sections)

    def fit_config(value, where):
        fields = json_object(value, path, where)
        kernel, rest = split_fields(fields, ("kernel_family", "bandwidth"))
        kernel = build(KernelSpec, kernel, path, where, names={"family": "kernel_family"})
        return build(FitConfig, rest, path, where, names={"regularization": "lambda"},
                     kernel=kernel)

    sections = {
        "system": kind(_SYSTEMS),
        "controller": kind(_CONTROLLERS),
        "disturbance": kind(_DISTURBANCES),
        "initial": kind(_INITIALS),
        "path": lambda value, where: str(base_dir / typed(value, str, path, where)),
        "fit": fit_config,
        "grid": lambda value, where: build(GridSpec, value, path, where),
    }
    system, run = split_fields(doc, inspect.signature(SystemConfig).parameters)
    system = build(SystemConfig, system, path, "", sections)
    return build(RunConfig, run, path, "", sections, system=system)


def _parse_lambda_flag(text):
    if text == RECIPROCAL_M:
        return RECIPROCAL_M
    try:
        return float(text)
    except ValueError:
        raise ConfigError(
            f"--lambda must be a positive number or {RECIPROCAL_M!r}, got {text!r}"
        ) from None


def _parse_int_list(text, flag):
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"{flag} must be a comma-separated integer list, got {text!r}") from None


def cmd_simulate(args) -> int:
    config = load_run_config(args.config)
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    seed = config.master_seed if args.seed is None else args.seed
    start = time.perf_counter()
    samples = sample_terminal_states(config.system, config.sample_size, seed)
    elapsed = time.perf_counter() - start
    save_sample_csv(samples, args.out)
    print(f"simulate: M={samples.size} n={samples.dim} elapsed={elapsed:.3f}s -> {args.out}")
    return EXIT_OK


def cmd_fit(args) -> int:
    samples = load_sample_csv(args.samples)
    config = FitConfig(
        kernel=KernelSpec(args.kernel, args.sigma),
        regularization=_parse_lambda_flag(args.lam),
    )
    start = time.perf_counter()
    model = fit(samples, config)
    elapsed = time.perf_counter() - start
    save_model(model, args.out)
    print(
        f"fit: M={model.size} lambda={model.lam:.6g} tau={model.tau:.12g} "
        f"elapsed={elapsed:.3f}s -> {args.out}"
    )
    return EXIT_OK


def _model_and_points(model_path, points_path):
    """A model file and a point CSV of the model's dimension."""
    model = load_model(model_path)
    points = load_sample_csv(points_path)
    if points.dim != model.dim:
        raise ConfigError(
            f"{points_path}: points have dimension {points.dim}, model expects {model.dim}"
        )
    return model, points


def cmd_query(args) -> int:
    model, points = _model_and_points(args.model, args.points)
    start = time.perf_counter()
    values = decision_values(model, points.points)
    inside = classify_batch(model, points.points)
    elapsed = time.perf_counter() - start
    write_csv(args.out, ("value", "inside"), zip(values, inside))
    print(
        f"query: {points.size} points, {int(inside.sum())} inside, "
        f"elapsed={elapsed:.3f}s -> {args.out}"
    )
    return EXIT_OK


def cmd_contour(args) -> int:
    sidecar = Path(args.out).with_suffix(".json")
    if sidecar == Path(args.out):
        raise ConfigError(
            f"--out {args.out} would be overwritten by the contour's sidecar {sidecar}; "
            "give the contour CSV a suffix other than .json"
        )
    model = load_model(args.model)
    grid = grid_from_dict(load_json(args.grid), str(args.grid))
    if grid.dim != model.dim:
        raise ConfigError(
            f"{args.grid}: grid is {grid.dim}-dimensional, model expects {model.dim}"
        )
    level = model.level if args.level is None else args.level
    start = time.perf_counter()
    values = grid_decision_values(model, grid)
    contour = extract_contour(values, grid, level)
    elapsed = time.perf_counter() - start
    # the sidecar first: if it cannot be written, the previous CSV is kept
    write_contour_sidecar(contour, grid, model.tau, sidecar)
    write_contour_csv(contour, args.out)
    print(
        f"contour: {values.size} nodes, {contour.segments.shape[0]} segments at "
        f"level={level:.12g}, elapsed={elapsed:.3f}s -> {args.out} (+ {sidecar})"
    )
    return EXIT_OK


def cmd_validate(args) -> int:
    model, fresh = _model_and_points(args.model, args.samples)
    rate = containment_rate(model, fresh.points)
    distance = hausdorff(fresh.points, model.support, metric=model.kernel)
    print(f"validate: containment_rate={rate:.6f} hausdorff_kernel_metric={distance!r}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = load_run_config(args.config)
    if config.fit.regularization != RECIPROCAL_M:
        raise ConfigError(
            f"{args.config}: sweep fits each sample size with lambda = 1/M, so fit.lambda "
            f"must be {RECIPROCAL_M!r}, got {config.fit.regularization!r}"
        )
    m_list = _parse_int_list(args.m_list, "--m-list")
    seeds = _parse_int_list(args.seeds, "--seeds")
    if not m_list or not seeds:
        raise ConfigError("--m-list and --seeds must be nonempty")
    if min(seeds) < 0:
        raise ConfigError(f"--seeds must be nonnegative, got {args.seeds!r}")
    start = time.perf_counter()
    rows = convergence_sweep(config.system, m_list, seeds, kernel=config.fit.kernel)
    elapsed = time.perf_counter() - start
    write_sweep_csv(rows, args.out)
    print(f"sweep: {len(rows)} rows, elapsed={elapsed:.3f}s -> {args.out}")
    return EXIT_OK


def cmd_run(args) -> int:
    """The paper's pipeline on one config: sample, fit, contour at the model's level, validate."""
    config = load_run_config(args.config)
    if config.grid is None:
        raise ConfigError(f"{args.config}: missing field grid, which run draws the boundary on")
    marks = [time.perf_counter()]
    train = sample_terminal_states(config.system, config.sample_size, config.master_seed)
    marks.append(time.perf_counter())
    model = fit(train, config.fit)
    marks.append(time.perf_counter())
    values = grid_decision_values(model, config.grid)
    contour = extract_contour(values, config.grid, model.level)
    marks.append(time.perf_counter())
    fresh = sample_terminal_states(config.system, FRESH_SIZE, FRESH_SEED).points
    rate = containment_rate(model, fresh)
    distance = hausdorff(fresh, model.support, metric=model.kernel)
    marks.append(time.perf_counter())

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    name = Path(args.config).stem
    save_sample_csv(train, out / f"{name}_terminal_states.csv")
    save_model(model, out / f"{name}_model.json")
    write_contour_csv(contour, out / f"{name}_boundary.csv")
    stages = zip(("sample", "fit", "contour", "validate"), marks, marks[1:])
    print(f"{name}: M={model.size} tau={model.tau:.6f} segments={contour.segments.shape[0]} "
          f"containment={rate:.4f} hausdorff={distance:.6f} "
          f"({', '.join(f'{stage} {end - start:.3f}s' for stage, start, end in stages)})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelreach",
        description="Estimate forward reachable sets of stochastic systems from terminal-state samples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample terminal states from a configured system")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config master seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit a support classifier to a sample CSV")
    default = FitConfig()
    p.add_argument("--samples", required=True)
    p.add_argument("--sigma", type=float, default=default.kernel.bandwidth, help="kernel bandwidth")
    p.add_argument("--kernel", choices=_FAMILIES, default=default.kernel.family)
    p.add_argument("--lambda", dest="lam", default=default.regularization,
                   help=f"positive value or {default.regularization!r} (default)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("query", help="evaluate the classifier at points from a CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("contour", help="extract the membership boundary on a 2-d grid")
    p.add_argument("--model", required=True)
    p.add_argument("--grid", required=True, help="JSON grid specification")
    p.add_argument("--level", type=float, default=None,
                   help="override the default membership level, min F over the sample")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_contour)

    p = sub.add_parser("validate", help="containment rate and Hausdorff distance of fresh draws")
    p.add_argument("--model", required=True)
    p.add_argument("--samples", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sweep", help="convergence table over sample sizes and seeds")
    p.add_argument("--config", required=True)
    p.add_argument("--m-list", required=True, help="comma-separated sample sizes, ascending")
    p.add_argument("--seeds", required=True, help="comma-separated master seeds")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("run", help="sample, fit, contour and validate a config in one process")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="directory for the three output files")
    p.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except np.linalg.LinAlgError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
