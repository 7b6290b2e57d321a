"""Correlation matrix plus inseparability and conditional-variance criteria."""

import math

import numpy as np
import pytest

from ecloner import (
    CorrelationMatrix,
    DegenerateInputError,
    correlation_matrix,
    correlation_matrix_from_cov,
    displace,
    epr_paradox,
    epr_source,
    global_ecloner,
    inseparability,
    local_ecloner,
    squeezing_db,
    vacuum,
)

GRID = np.geomspace(0.01, 1.0, 100)
EPS_ROOT = 2.0 - math.sqrt(3.0)


def _local_cm(v_s):
    clones = local_ecloner(epr_source(v_s))
    return correlation_matrix(clones.state, clones.clone1)


def _global_cm(v_s):
    clones = global_ecloner(epr_source(v_s), v_s)
    return correlation_matrix(clones.state, clones.clone1)


def test_entry_accessor_on_epr_source():
    cm = correlation_matrix(epr_source(0.5), (0, 1))
    assert cm.entry("+", "+", "x", "x") == pytest.approx(1.25, abs=1e-12)
    assert cm.entry("+", "+", "x", "y") == pytest.approx(-0.75, abs=1e-12)
    assert cm.entry("-", "-", "x", "y") == pytest.approx(0.75, abs=1e-12)
    assert cm.entry("+", "-", "x", "y") == 0.0


def test_vacuum_correlation_matrix_is_identity():
    cm = correlation_matrix(vacuum(2), (0, 1))
    assert np.array_equal(cm.matrix, np.eye(4))


def test_correlation_matrix_is_exactly_displacement_invariant():
    state = epr_source(0.3)
    shifted = displace(state, (5.0, -2.0, 1.0, 7.0))
    assert np.array_equal(
        correlation_matrix(state, (0, 1)).matrix,
        correlation_matrix(shifted, (0, 1)).matrix,
    )


def test_correlation_matrix_rejects_identical_modes():
    with pytest.raises(ValueError):
        correlation_matrix(vacuum(2), (1, 1))


def test_correlation_matrix_rejects_out_of_range_pair():
    with pytest.raises(ValueError):
        correlation_matrix(vacuum(2), (0, 2))


def test_correlation_matrix_from_cov_rejects_an_asymmetric_block():
    # Averaged with its transpose, this block would fail only later, inside
    # inseparability, with a RuntimeError.
    cov = np.eye(4)
    cov[0, 2] = 5.0
    with pytest.raises(ValueError, match="correlation matrix must be symmetric"):
        correlation_matrix_from_cov(cov, (0, 1))


def test_correlation_matrix_from_cov_rejects_an_odd_size():
    # Read by its last axis alone, a 5x5 matrix passed as a 2-mode state.
    with pytest.raises(ValueError, match=r"got shape \(5, 5\)"):
        correlation_matrix_from_cov(np.eye(5), (0, 1))


def test_correlation_matrix_from_cov_rejects_a_non_square_matrix():
    # Read by its last axis alone, a 4x6 matrix passed as a 3-mode state.
    with pytest.raises(ValueError, match=r"got shape \(4, 6\)"):
        correlation_matrix_from_cov(np.ones((4, 6)), (0, 1))


def test_correlation_matrix_validation():
    bad = np.eye(4)
    bad[0, 1] = 0.5  # asymmetric
    with pytest.raises(ValueError):
        CorrelationMatrix(bad)
    with pytest.raises(ValueError):
        CorrelationMatrix(np.diag([1.0, 1.0, -0.1, 1.0]))


@pytest.mark.parametrize("v_s", [0.05, 0.25, 0.5, 1.0])
def test_pure_epr_inseparability_equals_squeezing_variance(v_s):
    cm = correlation_matrix(epr_source(v_s), (0, 1))
    assert inseparability(cm) == pytest.approx(v_s, abs=1e-12)


@pytest.mark.parametrize("v_s", [0.05, 0.25, 0.5, 1.0])
def test_pure_epr_paradox_closed_form(v_s):
    cm = correlation_matrix(epr_source(v_s), (0, 1))
    expected = 4.0 / (v_s + 1.0 / v_s) ** 2
    assert epr_paradox(cm) == pytest.approx(expected, abs=1e-12)
    if v_s == 1.0:
        assert epr_paradox(cm) == pytest.approx(1.0, abs=1e-12)


def test_local_machine_criteria_closed_forms_on_grid():
    for v_s in GRID:
        cm = _local_cm(v_s)
        assert inseparability(cm) == pytest.approx(v_s + 1.0, abs=1e-10)
        assert epr_paradox(cm) == pytest.approx(4.0, abs=1e-10)


def test_global_machine_criteria_closed_forms_on_grid():
    for v_s in GRID:
        cm = _global_cm(v_s)
        assert inseparability(cm) == pytest.approx(2.0 * v_s, abs=1e-10)
        assert epr_paradox(cm) == pytest.approx(16.0 / (v_s + 1.0 / v_s) ** 2, abs=1e-10)


def test_local_machine_never_preserves_entanglement():
    for v_s in GRID:
        cm = _local_cm(v_s)
        assert inseparability(cm) >= 1.0
        assert epr_paradox(cm) >= 1.0


def test_global_criteria_are_nondecreasing_in_squeezing_variance():
    i_values = [inseparability(_global_cm(v)) for v in GRID]
    eps_values = [epr_paradox(_global_cm(v)) for v in GRID]
    assert np.all(np.diff(i_values) >= -1e-12)
    assert np.all(np.diff(eps_values) >= -1e-12)


def _bisect(fn, lo, hi, tol=1e-9):
    f_lo = fn(lo)
    assert f_lo * fn(hi) < 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f_lo * fn(mid) <= 0:
            hi = mid
        else:
            lo = mid
            f_lo = fn(lo)
    return 0.5 * (lo + hi)


def test_global_inseparability_crosses_one_at_half():
    root = _bisect(lambda v: inseparability(_global_cm(v)) - 1.0, 0.01, 1.0)
    assert abs(root - 0.5) <= 1e-9
    assert squeezing_db(root) == pytest.approx(3.0103, abs=1e-3)
    # single sign change on the grid
    signs = np.sign([inseparability(_global_cm(v)) - 1.0 for v in GRID])
    assert np.count_nonzero(np.diff(signs[signs != 0])) == 1


def test_global_epr_paradox_crosses_one_at_analytic_root():
    root = _bisect(lambda v: epr_paradox(_global_cm(v)) - 1.0, 0.01, 1.0)
    assert abs(root - EPS_ROOT) <= 1e-9
    assert squeezing_db(root) == pytest.approx(5.7195, abs=1e-3)
    signs = np.sign([epr_paradox(_global_cm(v)) - 1.0 for v in GRID])
    assert np.count_nonzero(np.diff(signs[signs != 0])) == 1


def test_quoted_crossing_variance_is_inconsistent_with_its_db_value():
    # 0.67 is sometimes quoted alongside 5.7 dB; those two cannot both hold.
    assert abs(squeezing_db(0.67) - 5.7) > 3.0
    assert squeezing_db(EPS_ROOT) == pytest.approx(5.72, abs=5e-3)


def test_criteria_symmetric_under_mode_swap_for_machine_outputs():
    clones = global_ecloner(epr_source(0.4), 0.4)
    cm = correlation_matrix(clones.state, clones.clone1)
    cm_swapped = correlation_matrix(clones.state, clones.clone1[::-1])
    assert inseparability(cm) == pytest.approx(inseparability(cm_swapped), abs=1e-12)
    assert epr_paradox(cm) == pytest.approx(epr_paradox(cm_swapped), abs=1e-12)


def test_swapping_the_pair_conditions_the_other_mode():
    # Hand-built asymmetric matrix: conditioning on the quieter mode differs.
    matrix = np.array(
        [
            [3.0, 0.0, 1.0, 0.0],
            [0.0, 3.0, 0.0, -1.0],
            [1.0, 0.0, 1.5, 0.0],
            [0.0, -1.0, 0.0, 1.5],
        ]
    )
    swap = [2, 3, 0, 1]
    directed = epr_paradox(CorrelationMatrix(matrix))
    swapped = epr_paradox(CorrelationMatrix(matrix[np.ix_(swap, swap)]))
    assert directed == pytest.approx((3.0 - 1.0 / 1.5) ** 2, abs=1e-12)
    assert swapped == pytest.approx((1.5 - 1.0 / 3.0) ** 2, abs=1e-12)


def test_epr_paradox_rejects_zero_conditioning_variance():
    cm = CorrelationMatrix(np.diag([1.0, 1.0, 0.0, 1.0]))
    with pytest.raises(DegenerateInputError):
        epr_paradox(cm)


def test_inseparability_rejects_impossible_correlations():
    # Symmetric with nonnegative diagonal but far from positive semidefinite;
    # no physical or sampled matrix can produce this.
    matrix = np.eye(4)
    matrix[0, 2] = matrix[2, 0] = 5.0
    with pytest.raises(RuntimeError):
        inseparability(CorrelationMatrix(matrix))


@pytest.mark.parametrize(
    "matrix",
    [
        np.full((4, 4), np.nan),
        np.diag([1.0, np.inf, 1.0, 1.0]),
        np.array([np.eye(4), np.full((4, 4), np.nan)]),
    ],
    ids=["nan", "inf", "nan-in-stack"],
)
def test_correlation_matrix_rejects_non_finite(matrix):
    with pytest.raises(ValueError, match="non-finite"):
        CorrelationMatrix(matrix)


@pytest.mark.parametrize("v_s", [np.nan, np.inf, -np.inf])
def test_squeezing_db_rejects_non_finite(v_s):
    with pytest.raises(ValueError, match="finite"):
        squeezing_db(v_s)


def test_stacked_criteria_match_scalar_calls():
    covs = np.array([global_ecloner(epr_source(v), v).state.cov for v in (0.02, 0.3, 0.7)])
    stacked = correlation_matrix_from_cov(covs, (0, 1))
    stacked_swapped = correlation_matrix_from_cov(covs, (1, 0))
    assert stacked.matrix.shape == stacked_swapped.matrix.shape == (3, 4, 4)
    for idx, cov in enumerate(covs):
        cm = correlation_matrix_from_cov(cov, (0, 1))
        assert inseparability(stacked)[idx] == pytest.approx(inseparability(cm), rel=1e-12)
        assert epr_paradox(stacked)[idx] == pytest.approx(epr_paradox(cm), rel=1e-12)
        swapped = correlation_matrix_from_cov(cov, (1, 0))
        assert epr_paradox(stacked_swapped)[idx] == pytest.approx(epr_paradox(swapped), rel=1e-12)
    assert isinstance(inseparability(cm), float) and isinstance(epr_paradox(cm), float)


def test_stacked_criteria_guard_every_matrix():
    impossible = np.eye(4)
    impossible[0, 2] = impossible[2, 0] = 5.0
    with pytest.raises(RuntimeError, match="negative correlation combination -8"):
        inseparability(CorrelationMatrix(np.array([np.eye(4), impossible])))
    with pytest.raises(DegenerateInputError):
        epr_paradox(CorrelationMatrix(np.array([np.eye(4), np.diag([1.0, 1.0, 0.0, 1.0])])))


def test_squeezing_db_convention():
    assert squeezing_db(0.5) == pytest.approx(3.0103, abs=1e-4)
    assert squeezing_db(1.0) == 0.0
    with pytest.raises(ValueError):
        squeezing_db(0.0)
