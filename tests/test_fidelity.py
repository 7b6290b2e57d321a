"""Clone fidelities: formula behavior, closed forms, and invariances."""

import numpy as np
import pytest
from conftest import apply_all, random_ops

from ecloner import (
    DegenerateInputError,
    clone_state,
    discard_modes,
    displace,
    epr_source,
    global_ecloner,
    global_fidelity,
    linear_cloner,
    local_ecloner,
    local_fidelity,
    pure_mixed_fidelity,
    squeezed_vacuum,
    vacuum,
)
from ecloner import fidelity
from ecloner.circuits import machine_covariances
from ecloner.fidelity import VALUE_TOL, fidelity_from_cov
from ecloner.gaussian import PURE_REL_TOL

GRID = np.geomspace(0.01, 1.0, 100)


def test_identical_pure_states_have_unit_fidelity():
    state = displace(squeezed_vacuum(0.5, 2.0), (0.4, -1.0))
    assert pure_mixed_fidelity(state, state).value == pytest.approx(1.0, abs=1e-12)


def test_identical_three_mode_vacua_have_unit_fidelity():
    # the normalization 2**n differs from 2 * n only from three modes on
    assert pure_mixed_fidelity(vacuum(3), vacuum(3)).value == pytest.approx(1.0, abs=1e-12)


def test_coherent_state_clone_fidelity_is_two_thirds():
    clone = discard_modes(linear_cloner(vacuum(1), 0), [1])
    result = pure_mixed_fidelity(vacuum(1), clone)
    assert result.value == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert result.joint_det == pytest.approx(9.0, abs=1e-10)


def test_local_clone_fidelity_matches_closed_form_on_grid():
    for v_s in GRID:
        epr = epr_source(v_s)
        clones = local_ecloner(epr)
        for which in (1, 2):
            value = pure_mixed_fidelity(epr, clone_state(clones, which)).value
            assert value == pytest.approx(local_fidelity(v_s), abs=1e-10)


def test_global_clone_fidelity_is_four_ninths_on_grid():
    for v_s in GRID:
        epr = epr_source(v_s)
        clones = global_ecloner(epr, v_s)
        value = pure_mixed_fidelity(epr, clone_state(clones, 1)).value
        assert value == pytest.approx(4.0 / 9.0, abs=1e-10)
        assert value == pytest.approx(global_fidelity(v_s), abs=1e-10)


def test_global_joint_determinant_is_81_independent_of_squeezing():
    # A + B = 3 * (input cov) has eigenvalues 3v, 3/v doubled: det = 81.
    for v_s in (0.3, 0.07, 1.0):
        epr = epr_source(v_s)
        clones = global_ecloner(epr, v_s)
        result = pure_mixed_fidelity(epr, clone_state(clones, 1))
        assert result.joint_det == pytest.approx(81.0, abs=1e-8)
        assert result.value == pytest.approx(4.0 / 9.0, abs=1e-10)


def test_fidelities_coincide_at_coherent_input():
    assert local_fidelity(1.0) == pytest.approx(4.0 / 9.0, abs=1e-15)
    assert global_fidelity(1.0) == pytest.approx(4.0 / 9.0, abs=1e-15)


def test_known_squeezed_state_clones_at_coherent_fidelity():
    # Un-squeeze, clone the coherent state, re-squeeze: each branch clone of
    # the global machine copies its squeezed input at fidelity 2/3, so the
    # two-mode overlap of 4/9 agrees with the per-branch product.
    from ecloner import apply, squeeze_gate

    v_s = 0.4
    s = np.sqrt(v_s)
    squeezed = squeezed_vacuum(v_s, 1.0 / v_s)
    work = apply(squeeze_gate(1.0 / s, 0), squeezed)
    work = linear_cloner(work, 0)
    work = apply(squeeze_gate(s, 0), work)
    branch_clone = discard_modes(work, [1])
    value = pure_mixed_fidelity(squeezed, branch_clone).value
    assert value == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_local_fidelity_is_increasing_and_below_four_ninths():
    values = np.array([local_fidelity(v) for v in GRID])
    assert np.all(np.diff(values) > 0)
    assert np.all(values[:-1] < 4.0 / 9.0)
    assert local_fidelity(1e-9) < 1e-8  # vanishes with infinite squeezing


def test_displacement_term_matters_for_mismatched_means():
    reference = displace(vacuum(1), (1.0, 0.0))
    moved = displace(vacuum(1), (3.0, 0.0))
    expected = np.exp(-abs((1.0 - 3.0) / 2.0) ** 2)
    assert pure_mixed_fidelity(reference, moved).value == pytest.approx(expected, abs=1e-12)


def test_fidelity_bounds_are_inclusive(monkeypatch):
    # 0: a displacement far enough for exp to underflow
    assert fidelity_from_cov(np.eye(2), np.eye(2), np.array([100.0, 0.0])).value == 0.0
    # 1: identical vacua, with the rounding allowance set so the bound is exactly 1
    allowance = 1.0 - (1.0 + VALUE_TOL)
    monkeypatch.setattr(fidelity, "_pure_rounding", lambda cov: allowance)
    assert fidelity_from_cov(np.eye(2), np.eye(2)).value == 1.0


def test_unity_gain_clone_fidelity_ignores_input_displacement():
    delta = np.array([1.3, -0.4, 0.2, 2.0])
    epr = epr_source(0.5)
    shifted = displace(epr, delta)
    clones = local_ecloner(shifted)
    value = pure_mixed_fidelity(shifted, clone_state(clones, 1)).value
    assert value == pytest.approx(local_fidelity(0.5), abs=1e-10)


def test_mode_map_reorders_candidate_modes():
    epr = displace(epr_source(0.5), (1.0, 0.0, -2.0, 0.5))
    clones = local_ecloner(epr)
    ordered = clone_state(clones, 2)  # (1B, 2A) ordered to match the input
    direct = pure_mixed_fidelity(epr, ordered).value
    # Hand the same two modes over in the opposite order plus a fixing map.
    q = [2, 3, 0, 1]
    from ecloner import GaussianState

    swapped = GaussianState(ordered.mean[q], ordered.cov[np.ix_(q, q)])
    assert pure_mixed_fidelity(epr, swapped, mode_map=(1, 0)).value == pytest.approx(
        direct, abs=1e-12
    )


def test_fidelity_rejects_bad_inputs():
    mixed = squeezed_vacuum(2.0, 2.0)
    with pytest.raises(ValueError):
        pure_mixed_fidelity(mixed, vacuum(1))  # reference not pure
    with pytest.raises(ValueError):
        pure_mixed_fidelity(vacuum(1), vacuum(2))
    with pytest.raises(ValueError):
        pure_mixed_fidelity(vacuum(2), vacuum(2), mode_map=(0, 0))


def test_mode_map_error_names_the_range_it_must_permute():
    with pytest.raises(ValueError, match=r"^mode_map must be a permutation of 0\.\.1, got \[0, 0\]$"):
        pure_mixed_fidelity(vacuum(2), vacuum(2), mode_map=(0, 0))


@pytest.mark.parametrize(
    "a, b, delta, message",
    [
        (np.eye(4), np.eye(6), None, r"shapes differ: reference \(4, 4\), candidate \(6, 6\)$"),
        (np.eye(3), np.eye(3), None, r"^covariance must be \(\.\.\., 2n, 2n\), got shape \(3, 3\)$"),
        (np.eye(2), np.ones(2), None, r"^covariance must be \(\.\.\., 2n, 2n\), got shape \(2,\)$"),
        (np.eye(2), np.eye(2), np.zeros(3), r"^delta must be \(\.\.\., 2\), got shape \(3,\)$"),
        (np.eye(4), np.eye(4), 0.0, r"^delta must be \(\.\.\., 4\), got shape \(\)$"),
        (
            np.broadcast_to(np.eye(4), (3, 4, 4)),
            np.broadcast_to(np.eye(4), (2, 4, 4)),
            None,
            r"^stacks do not broadcast: reference \(3, 4, 4\), candidate \(2, 4, 4\), delta None$",
        ),
        (
            np.broadcast_to(np.eye(4), (3, 4, 4)),
            np.broadcast_to(np.eye(4), (3, 4, 4)),
            np.zeros((2, 4)),
            r"^stacks do not broadcast: reference \(3, 4, 4\), candidate \(3, 4, 4\), "
            r"delta \(2, 4\)$",
        ),
    ],
)
def test_fidelity_from_cov_rejects_mismatched_shapes(a, b, delta, message):
    with pytest.raises(ValueError, match=message):
        fidelity_from_cov(a, b, delta)


@pytest.mark.filterwarnings("error")
def test_determinant_past_the_float_range_is_reported_as_such():
    # det(A + B) of finite matrices overflows: no escaped warning, and no
    # claim that A + B is singular
    message = r"^det\(A \+ B\) leaves the float range at max\|A \+ B\| = 1e\+300$"
    with pytest.raises(ValueError, match=message):
        fidelity_from_cov(np.eye(2), 1e300 * np.eye(2))
    with pytest.raises(ValueError, match=message):
        fidelity_from_cov(np.eye(2), np.array([np.eye(2), 1e300 * np.eye(2)]))


@pytest.mark.parametrize("argument", ["reference_cov", "candidate_cov", "delta"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fidelity_from_cov_names_a_non_finite_argument(argument, bad):
    # in the second matrix of a stack; a NaN would read as a singular A + B,
    # an impure reference or an escaped fidelity further on
    arguments = {
        "reference_cov": np.stack([np.eye(4)] * 2),
        "candidate_cov": np.stack([np.eye(4)] * 2),
        "delta": np.zeros((2, 4)),
    }
    arguments[argument][1, ..., 2] = bad
    with pytest.raises(ValueError, match=rf"^{argument} must be finite, got {bad}$"):
        fidelity_from_cov(**arguments)


@pytest.mark.filterwarnings("error")
def test_a_far_displacement_has_fidelity_zero():
    # d^T (A + B)^-1 d overflows; no escaped warning
    assert fidelity_from_cov(np.eye(2), np.eye(2), (1e160, 0.0)).value == 0.0
    far = displace(vacuum(1), (1e160, 0.0))
    assert pure_mixed_fidelity(vacuum(1), far).value == 0.0
    # correlated modes whose terms d_i ((A + B)^-1 d)_i overflow with opposite
    # signs, which summed term by term give NaN
    epr = epr_source(0.1).cov
    assert fidelity_from_cov(epr, epr, (1e160, 0.0, -1e155, 0.0)).value == 0.0
    # at the largest finite displacements, of either sign
    assert fidelity_from_cov(np.eye(2), np.eye(2), (1.7e308, -1.7e308)).value == 0.0


@pytest.mark.filterwarnings("error")
def test_means_a_float_range_apart_have_fidelity_zero():
    # their difference overflows; no escaped warning, no error naming a delta
    # the caller never passed
    near, far = displace(vacuum(1), (1e308, 0.0)), displace(vacuum(1), (-1e308, 0.0))
    assert pure_mixed_fidelity(near, far).value == 0.0
    assert pure_mixed_fidelity(far, near).value == 0.0


def test_closed_form_domain_checks():
    for fn in (local_fidelity, global_fidelity):
        for bad in (0.0, 1.2, 1.5, np.nan):
            with pytest.raises(ValueError, match="squeezing variance"):
                fn(bad)


def test_fidelity_stays_in_unit_interval_on_randomized_pairs():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        reference = apply_all(random_ops(rng, 2, depth=4), vacuum(2))
        reference = displace(reference, rng.normal(scale=1.5, size=4))
        noisy = squeezed_vacuum(*(rng.uniform(1.0, 3.0, size=2)))
        base = vacuum(2) if rng.integers(2) else epr_source(float(rng.uniform(0.2, 1.0)))
        candidate = apply_all(random_ops(rng, 2, depth=4), base)
        candidate = displace(candidate, rng.normal(scale=1.5, size=4))
        value = pure_mixed_fidelity(reference, candidate).value
        assert 0.0 <= value <= 1.0 + 1e-12


def test_fidelity_is_invariant_under_joint_symplectic_and_displacement():
    rng = np.random.default_rng(321)
    epr = epr_source(0.5)
    clones = local_ecloner(epr)
    candidate = clone_state(clones, 1)
    baseline = pure_mixed_fidelity(epr, candidate).value
    for _ in range(100):
        ops = random_ops(rng, 2, depth=5)
        shift = rng.normal(scale=2.0, size=4)
        moved_ref = displace(apply_all(ops, epr), shift)
        moved_cand = displace(apply_all(ops, candidate), shift)
        value = pure_mixed_fidelity(moved_ref, moved_cand).value
        assert value == pytest.approx(baseline, abs=1e-10)


def test_stacked_fidelity_matches_scalar_calls_and_guards_every_matrix():
    grid = (0.1, 0.5, 1.0)
    references = np.array([epr_source(v).cov for v in grid])
    clones = [clone_state(local_ecloner(epr_source(v))) for v in grid]
    result = fidelity_from_cov(references, np.array([c.cov for c in clones]))
    assert result.value.shape == (3,)
    for idx, v in enumerate(grid):
        scalar = pure_mixed_fidelity(epr_source(v), clones[idx])
        assert result.value[idx] == pytest.approx(scalar.value, rel=1e-12)
        assert result.joint_det[idx] == pytest.approx(scalar.joint_det, rel=1e-12)
    impure = references.copy()
    impure[1] = 2.0 * np.eye(4)
    with pytest.raises(ValueError, match="pure"):
        fidelity_from_cov(impure, references)
    with pytest.raises(DegenerateInputError):
        fidelity_from_cov(references, np.array([references[0], -references[1], references[2]]))


@pytest.mark.parametrize("machine, v_min", [("local", 1e-6), ("global", 1e-4)])
def test_exact_source_has_unit_fidelity_with_itself_within_rounding(machine, v_min):
    # With absolute tolerances the exact source failed here: F escaped
    # 1 + VALUE_TOL at v_s up to 7.7e-3, and the purity test rejected it
    # below about 2.4e-4.  Both errors grow as eps * max|cov|**2.
    v_s = np.geomspace(v_min, 1.0, 400)
    source, _ = machine_covariances(machine, v_s)
    result = fidelity_from_cov(source, source)
    bound = VALUE_TOL + PURE_REL_TOL * np.max(np.abs(source), axis=(-2, -1)) ** 2
    assert np.all(np.abs(result.value - 1.0) <= bound)
    assert np.all(bound[v_s >= 1e-3] <= 2e-9)
