"""Which program functions the traced run wraps, and the counts taken at each.

Layers follow the package's modules: systems, kernels, estimator, geometry
and cli.  ``sites`` lists the modules whose binding is replaced, so that
for example ``kernels.kernel_matrix`` is traced only where the estimator
builds the query block phi, not inside ``kernels.gram``.  Counts marked
*computed* are derived from array shapes, not measured.
"""

import os

import numpy as np

from spans import Hook

_KR = "kernelreach."
_SYSTEMS, _KERNELS, _ESTIMATOR, _GEOMETRY, _CLI = (
    _KR + name for name in ("systems", "kernels", "estimator", "geometry", "cli")
)

# Metrics whose name does not start with the name of the layer producing them.
OWNERS = {
    "systems.rhs_evals": "systems.sample_terminal_states",
    "geometry.contour_segments": "geometry.extract_contour",
    "estimator.query_useful_ratio": "estimator.decision_values",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rhs_evals(args, kwargs, result):
    # computed: 4 RK4 stages per TORA substep; one zero-order-hold step for CWH.
    config = _arg(args, kwargs, 0, "config")
    count = _arg(args, kwargs, 1, "count")
    substeps = getattr(config.system, "integrator_substeps", None)
    per_step = 1 if substeps is None else 4 * substeps
    return {"systems.rhs_evals": per_step * count * config.horizon}


def _gram_counts(args, kwargs, result):
    # computed: M^2 entries and the (M, M, n) float64 difference tensor.
    m, n = np.shape(_arg(args, kwargs, 1, "points"))
    return {"kernels.gram.entries": m * m, "kernels.gram.temp_bytes": m * m * n * 8}


def _phi_entries(args, kwargs, result):
    return {"kernels.kernel_matrix.entries": int(np.size(result))}


def _solve_columns(args, kwargs, result):
    b = _arg(args, kwargs, 1, "b")
    return {"estimator.solve_triangular.columns": b.shape[1] if b.ndim == 2 else 1}


def _query_points(args, kwargs, result):
    return {"estimator.decision_values.points": int(np.size(result))}


def _hausdorff_pairs(args, kwargs, result):
    a = _arg(args, kwargs, 0, "a")
    b = _arg(args, kwargs, 1, "b")
    return {"geometry.hausdorff.pairs": len(a) * len(b)}


def _contour_segments(args, kwargs, result):
    return {"geometry.contour_segments": int(result.segments.shape[0])}


def _file_bytes(path_index, path_name):
    def count(args, kwargs, result):
        return {"cli.csv_io.bytes": os.path.getsize(_arg(args, kwargs, path_index, path_name))}

    return count


HOOKS = (
    Hook("systems.sample_terminal_states", _SYSTEMS, "sample_terminal_states",
         (_SYSTEMS, _GEOMETRY, _CLI), count=_rhs_evals),
    Hook("kernels.gram", _KERNELS, "gram", (_ESTIMATOR,),
         count=_gram_counts, peak_memory=True),
    Hook("kernels.kernel_matrix", _KERNELS, "kernel_matrix", (_ESTIMATOR,), count=_phi_entries),
    Hook("estimator.cholesky", "numpy.linalg", "cholesky", ("numpy.linalg",)),
    Hook("estimator.solve_triangular", "scipy.linalg", "solve_triangular", (_ESTIMATOR,),
         count=_solve_columns),
    Hook("estimator.fit", _ESTIMATOR, "fit", (_ESTIMATOR, _GEOMETRY, _CLI)),
    Hook("estimator.save_model", _ESTIMATOR, "save_model", (_ESTIMATOR, _CLI)),
    Hook("estimator.load_model", _ESTIMATOR, "load_model", (_ESTIMATOR, _CLI)),
    Hook("estimator.decision_values", _ESTIMATOR, "decision_values",
         (_ESTIMATOR, _GEOMETRY, _CLI), count=_query_points),
    Hook("estimator.classify", _ESTIMATOR, "classify", (_ESTIMATOR,)),
    Hook("geometry.grid_decision_values", _GEOMETRY, "grid_decision_values",
         (_GEOMETRY, _CLI)),
    Hook("geometry.extract_contour", _GEOMETRY, "extract_contour", (_GEOMETRY, _CLI),
         count=_contour_segments),
    Hook("geometry.containment_rate", _GEOMETRY, "containment_rate", (_GEOMETRY, _CLI)),
    Hook("geometry.hausdorff", _GEOMETRY, "hausdorff", (_GEOMETRY, _CLI),
         count=_hausdorff_pairs),
    Hook("cli.simulate", _CLI, "cmd_simulate", (_CLI,)),
    Hook("cli.fit", _CLI, "cmd_fit", (_CLI,)),
    Hook("cli.query", _CLI, "cmd_query", (_CLI,)),
    Hook("cli.contour", _CLI, "cmd_contour", (_CLI,)),
    Hook("cli.validate", _CLI, "cmd_validate", (_CLI,)),
    # The query CSV is written inline in cmd_query, so its bytes and time
    # fall under cli.query.
    Hook("cli.csv_io", _SYSTEMS, "save_sample_csv", (_SYSTEMS, _CLI),
         count=_file_bytes(1, "path")),
    Hook("cli.csv_io", _SYSTEMS, "load_sample_csv", (_SYSTEMS, _CLI),
         count=_file_bytes(0, "path")),
    Hook("cli.csv_io", _GEOMETRY, "write_contour_csv", (_GEOMETRY, _CLI),
         count=_file_bytes(1, "path")),
    Hook("cli.csv_io", _GEOMETRY, "write_contour_sidecar", (_GEOMETRY, _CLI),
         count=_file_bytes(3, "path")),
)
