"""Command-line front end: simulate, fit, query, contour, validate, sweep.

All commands are deterministic given their input files and flags; wall-time
reports go to the terminal, never into data files.  Exit codes: 0 success,
2 validation or configuration error, 3 I/O error, 4 numerical error.
"""

import argparse
import inspect
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_write
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
from .kernels import KernelSpec
from .schema import ConfigError, build, json_object, load_json, split_fields, typed
from .systems import (
    BoxInitial,
    CwhSystem,
    ExternalSource,
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


@dataclass
class RunConfig:
    system: SystemConfig
    sample_size: int
    master_seed: int
    fit: FitConfig = FitConfig()
    grid: GridSpec = None

    def __post_init__(self):
        if self.sample_size < 1:
            raise ValueError("sample_size must be at least 1")


# What a config section builds, by its "kind" field.
_SYSTEMS = {"cwh": CwhSystem, "tora": ToraSystem, "external": ExternalSource}
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
    ``bandwidth`` and ``lambda``, and the ``path`` of an external source or
    an MLP controller is relative to the config file.
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
        value = float(text)
    except ValueError:
        raise ConfigError(
            f"--lambda must be a positive number or {RECIPROCAL_M!r}, got {text!r}"
        ) from None
    return value


def _parse_int_list(text, flag):
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"{flag} must be a comma-separated integer list, got {text!r}") from None


def cmd_simulate(args) -> int:
    config = load_run_config(args.config)
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


def cmd_query(args) -> int:
    model = load_model(args.model)
    points = load_sample_csv(args.points)
    if points.dim != model.dim:
        raise ConfigError(
            f"{args.points}: points have dimension {points.dim}, model expects {model.dim}"
        )
    start = time.perf_counter()
    values = decision_values(model, points.points)
    inside = classify_batch(model, points.points)
    elapsed = time.perf_counter() - start
    with atomic_write(args.out, newline="") as fh:
        fh.write("value,inside\n")
        for value, flag in zip(values, inside):
            fh.write(f"{float(value)!r},{int(flag)}\n")
    print(
        f"query: {points.size} points, {int(inside.sum())} inside, "
        f"elapsed={elapsed:.3f}s -> {args.out}"
    )
    return EXIT_OK


def cmd_contour(args) -> int:
    model = load_model(args.model)
    grid = grid_from_dict(load_json(args.grid), str(args.grid))
    if grid.dim != model.dim:
        raise ConfigError(
            f"{args.grid}: grid is {grid.dim}-dimensional, model expects {model.dim}"
        )
    level = (1.0 - model.tau) if args.level is None else args.level
    start = time.perf_counter()
    values = grid_decision_values(model, grid)
    contour = extract_contour(values, grid, level)
    elapsed = time.perf_counter() - start
    write_contour_csv(contour, args.out)
    sidecar = Path(args.out).with_suffix(".json")
    write_contour_sidecar(contour, grid, model.tau, sidecar)
    print(
        f"contour: {values.size} nodes, {contour.segments.shape[0]} segments at "
        f"level={level:.12g}, elapsed={elapsed:.3f}s -> {args.out} (+ {sidecar})"
    )
    return EXIT_OK


def cmd_validate(args) -> int:
    model = load_model(args.model)
    fresh = load_sample_csv(args.samples)
    if fresh.dim != model.dim:
        raise ConfigError(
            f"{args.samples}: points have dimension {fresh.dim}, model expects {model.dim}"
        )
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
    start = time.perf_counter()
    rows = convergence_sweep(config.system, m_list, seeds, kernel=config.fit.kernel)
    elapsed = time.perf_counter() - start
    write_sweep_csv(rows, args.out)
    print(f"sweep: {len(rows)} rows, elapsed={elapsed:.3f}s -> {args.out}")
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
    p.add_argument("--samples", required=True)
    p.add_argument("--sigma", type=float, default=0.1, help="kernel bandwidth")
    p.add_argument("--kernel", choices=("abel", "gaussian"), default="abel")
    p.add_argument("--lambda", dest="lam", default=RECIPROCAL_M,
                   help=f"positive value or {RECIPROCAL_M!r} (default)")
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
                   help="override the default 1 - tau membership level")
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
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except np.linalg.LinAlgError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
