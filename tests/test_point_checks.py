"""Every public entry point that takes points checks them itself.

The loops inside (the query blocks, the Hausdorff row blocks) trust what they
are given, so an entry point that forgot its check would let a bad array
through to them.  Each entry must reject a NaN entry, an inf entry, a ragged
list and a zero-width array, and, where it has one, a width other than the
model's or the other cloud's.
"""

import numpy as np
import pytest

from kernelreach import (
    FitConfig,
    KernelSpec,
    SampleSet,
    SupportModel,
    classify_batch,
    containment_rate,
    decision_values,
    directed_hausdorff,
    fit,
    gram,
    hausdorff,
    kernel_eval,
)

_SPEC = KernelSpec("abel", 0.5)
_MODEL = fit(SampleSet([[0.0, 0.0], [0.5, 0.5], [1.0, 0.0]]), FitConfig(_SPEC))
_CLOUD = np.array([[0.0, 0.0], [1.0, 1.0]])

_BAD = {
    "nan": [[0.0, np.nan], [1.0, 1.0]],
    "inf": [[0.0, 1.0], [-np.inf, 1.0]],
    "ragged": [[0.0, 1.0], [1.0]],
    "zero-width": np.zeros((2, 0)),
}
_WRONG_WIDTH = np.zeros((2, 3))

# name -> (call with one point array, whether a width is fixed by a model or cloud)
_ENTRIES = {
    "SampleSet": (SampleSet, False),
    "SupportModel": (lambda pts: SupportModel(pts, _SPEC, 0.5), False),
    "gram": (lambda pts: gram(_SPEC, pts), False),
    "kernel_eval": (lambda pts: kernel_eval(_SPEC, *pts), False),
    "decision_values": (lambda pts: decision_values(_MODEL, pts), True),
    "classify_batch": (lambda pts: classify_batch(_MODEL, pts), True),
    "containment_rate": (lambda pts: containment_rate(_MODEL, pts), True),
    "hausdorff(a)": (lambda pts: hausdorff(pts, _CLOUD), True),
    "hausdorff(b)": (lambda pts: hausdorff(_CLOUD, pts), True),
    "directed_hausdorff(a)": (lambda pts: directed_hausdorff(pts, _CLOUD), True),
    "directed_hausdorff(b)": (lambda pts: directed_hausdorff(_CLOUD, pts), True),
}

_CASES = [
    pytest.param(entry, case, id=f"{entry}-{case}")
    for entry, (_, has_width) in _ENTRIES.items()
    for case in (*_BAD, *(("wrong-width",) if has_width else ()))
]


@pytest.mark.parametrize("entry, case", _CASES)
def test_entry_rejects_bad_points(entry, case):
    call, _ = _ENTRIES[entry]
    with pytest.raises(ValueError):
        call(_WRONG_WIDTH if case == "wrong-width" else _BAD[case])


@pytest.mark.parametrize("entry", list(_ENTRIES))
def test_entry_accepts_good_points(entry):
    # the same calls go through on a clean two-point array of the model's width
    call, _ = _ENTRIES[entry]
    call(_CLOUD.copy())
