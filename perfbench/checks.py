"""Output checks that feed the benchmark's error count.

Every program call a workload makes is one attempted operation.  A call that
raises, returns a non-zero exit code, or whose output fails a check counts
as one failed operation; a run carries on after a failure.  Digests of the
outputs are pinned to the first time a run produced them, which enforces the
byte-identity contract: every iteration writes the same bits.
"""

import hashlib

import numpy as np


class Ledger:
    """Attempted and failed operations of one run, plus the pinned digests."""

    def __init__(self):
        self.iteration = 0
        self.attempted = 0
        self.current = None
        self.failures = []
        self.digests = {}
        self.values = {}
        self._failed = set()

    @property
    def failed(self) -> int:
        return len(self._failed)

    def attempt(self, op, count=1) -> None:
        self.attempted += count
        self.current = op

    def fail(self, op, reason) -> None:
        self.failures.append({"iteration": self.iteration, "op": op, "reason": reason})
        self._failed.add((self.iteration, op))

    def expect(self, op, ok, reason) -> bool:
        if not ok:
            self.fail(op, reason)
        return bool(ok)


def digest(data) -> str:
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    elif isinstance(data, str):
        data = data.encode("utf-8")
    elif not isinstance(data, bytes):
        data = repr(data).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def check_same_as_first(ledger, op, key, data) -> bool:
    """The digest of ``data`` equals the first one recorded under ``key`` in this run."""
    if isinstance(data, float):
        ledger.values.setdefault(key, data)
    value = digest(data)
    first = ledger.digests.setdefault(key, value)
    return ledger.expect(op, value == first, f"{key} differs from the first iteration")


def check_exit_code(ledger, op, code) -> bool:
    return ledger.expect(op, code == 0, f"exit code {code}")


def check_gram(ledger, op, entries) -> bool:
    e = np.asarray(entries)
    return ledger.expect(op, np.array_equal(e, e.T), "Gram matrix is not exactly symmetric") & (
        ledger.expect(op, bool(np.all(np.diag(e) == 1.0)), "Gram diagonal is not exactly 1")
    )


def check_tau(ledger, op, tau, train_values) -> bool:
    expected = 1.0 - float(np.min(train_values))
    return ledger.expect(op, tau == expected, f"tau {tau!r} != 1 - min(train values) {expected!r}")


def check_training_inside(ledger, op, inside) -> bool:
    flags = np.asarray(inside)
    outside = int(flags.size - np.count_nonzero(flags))
    return ledger.expect(op, flags.size > 0 and outside == 0, f"{outside} training points outside")


def check_query_csv(ledger, op, text, tau) -> bool:
    """A query CSV over the training points: every row inside, and tau consistent."""
    lines = text.splitlines()
    if not ledger.expect(op, lines and lines[0] == "value,inside", "query CSV header"):
        return False
    values, flags = [], []
    for line in lines[1:]:
        value, flag = line.split(",")
        values.append(float(value))
        flags.append(flag == "1")
    if not ledger.expect(op, values, "query CSV has no rows"):
        return False
    return check_training_inside(ledger, op, flags) & check_tau(ledger, op, tau, values)


def check_agree(ledger, op_prefix, single, batch) -> bool:
    """Single-point results equal the batched ones; each mismatch fails that call."""
    single = np.asarray(single)
    batch = np.asarray(batch)
    if not ledger.expect(f"{op_prefix}.batch", single.shape == batch.shape, "result shapes differ"):
        return False
    mismatched = np.flatnonzero(single != batch)
    for index in mismatched:
        ledger.fail(f"{op_prefix}[{index}]", "single-point result differs from the batch")
    return mismatched.size == 0
