import numpy as np

from checks import (
    Ledger,
    check_agree,
    check_exit_code,
    check_gram,
    check_query_csv,
    check_same_as_first,
    check_tau,
)

QUERY_CSV = "value,inside\n0.9,1\n0.75,1\n0.8,1\n"
TAU = 1.0 - 0.75


def test_clean_query_output_passes():
    ledger = Ledger()
    ledger.attempt("query")
    assert check_query_csv(ledger, "query", QUERY_CSV, TAU)
    assert (ledger.attempted, ledger.failed) == (1, 0)


def test_flipped_inside_flag_is_a_failed_operation():
    ledger = Ledger()
    ledger.attempt("query")
    assert not check_query_csv(ledger, "query", QUERY_CSV.replace("0.8,1", "0.8,0"), TAU)
    assert ledger.failed == 1
    assert "outside" in ledger.failures[0]["reason"]


def test_tau_that_does_not_match_the_training_minimum_fails():
    ledger = Ledger()
    assert not check_query_csv(ledger, "query", QUERY_CSV, TAU + 1e-16 * 4)
    assert not check_tau(ledger, "fit", 0.3, np.array([0.9, 0.75]))
    assert ledger.failed == 2


def test_changed_digest_in_a_later_iteration_fails_only_that_iteration():
    ledger = Ledger()
    ledger.iteration = 0
    assert check_same_as_first(ledger, "fit", "model.json", b'{"tau": 0.25}')
    ledger.iteration = 1
    assert check_same_as_first(ledger, "fit", "model.json", b'{"tau": 0.25}')
    ledger.iteration = 2
    assert not check_same_as_first(ledger, "fit", "model.json", b'{"tau": 0.26}')
    assert ledger.failed == 1
    assert ledger.failures[0]["iteration"] == 2


def test_float_outputs_are_pinned_bit_for_bit():
    ledger = Ledger()
    check_same_as_first(ledger, "hausdorff", "hausdorff", 0.1 + 0.2)
    ledger.iteration = 1
    assert not check_same_as_first(ledger, "hausdorff", "hausdorff", 0.3)
    assert ledger.values["hausdorff"] == 0.1 + 0.2


def test_gram_must_be_exactly_symmetric_with_unit_diagonal():
    ledger = Ledger()
    good = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert check_gram(ledger, "fit", good)
    skew = good.copy()
    skew[0, 1] = np.nextafter(0.5, 1.0)
    assert not check_gram(ledger, "fit", skew)
    ledger.iteration = 1
    off_diagonal = good.copy()
    off_diagonal[1, 1] = 1.0 - 2**-52
    assert not check_gram(ledger, "fit", off_diagonal)
    assert ledger.failed == 2


def test_each_single_call_that_disagrees_with_the_batch_fails():
    ledger = Ledger()
    single = np.array([True, False, True, True])
    batch = np.array([True, True, True, False])
    assert not check_agree(ledger, "classify", single, batch)
    assert ledger.failed == 2
    assert {f["op"] for f in ledger.failures} == {"classify[1]", "classify[3]"}


def test_nonzero_exit_code_fails_and_repeated_failures_of_one_op_count_once():
    ledger = Ledger()
    ledger.attempt("simulate.train")
    assert not check_exit_code(ledger, "simulate.train", 3)
    ledger.fail("simulate.train", "digest changed too")
    assert ledger.failed == 1
    assert check_exit_code(ledger, "fit", 0)
