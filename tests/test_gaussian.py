"""Core state engine: constructors, gates, and structural invariants."""

import re
import warnings

import numpy as np
import pytest
from conftest import apply_all, random_ops

from ecloner import (
    UNITY_GAIN,
    CloneSet,
    GaussianState,
    SymplecticOp,
    UncertaintyViolation,
    append_vacuum,
    apply,
    beamsplitter,
    correlation_matrix_from_cov,
    discard_modes,
    displace,
    epr_source,
    fidelity_from_cov,
    linear_cloner,
    local_ecloner,
    phase_rotation,
    pure_mixed_fidelity,
    squeeze_gate,
    squeezed_vacuum,
    symplectic_eigenvalues,
    symplectic_form,
    vacuum,
)
from ecloner.circuits import _interleave, _source_blocks, machine_covariances
from ecloner import gaussian
from ecloner.gaussian import (
    PURE_MAX_ENTRY,
    PURE_REL_TOL,
    SPECTRAL_REL_TOL,
    SPECTRAL_TOL,
    SYMMETRY_TOL,
    SYMPLECTIC_TOL,
    _check_covariance,
    _is_pure,
    _require,
    _spectrum,
)


def test_vacuum_is_pure_with_unit_variance():
    state = vacuum(1)
    assert np.array_equal(state.mean, np.zeros(2))
    assert np.array_equal(state.cov, np.eye(2))
    assert state.is_pure()


def test_vacuum_two_modes_identity_cov():
    assert np.array_equal(vacuum(2).cov, np.eye(4))


def test_vacuum_symplectic_spectrum_is_unity():
    assert np.allclose(vacuum(3).symplectic_eigenvalues(), [1.0, 1.0, 1.0], atol=1e-12)


def test_vacuum_rejects_zero_modes():
    with pytest.raises(ValueError):
        vacuum(0)


def test_squeezed_vacuum_is_pure_when_product_is_one():
    state = squeezed_vacuum(0.5, 2.0)
    assert np.array_equal(state.cov, np.diag([0.5, 2.0]))
    assert state.is_pure()


def test_squeezed_vacuum_without_squeezing_is_vacuum():
    assert np.array_equal(squeezed_vacuum(1, 1).cov, vacuum(1).cov)


def test_squeezed_vacuum_rejects_uncertainty_violation():
    with pytest.raises(UncertaintyViolation):
        squeezed_vacuum(0.5, 1.0)


def test_squeezed_vacuum_allows_a_product_exactly_one_tolerance_short():
    # the bound is strict: a product of exactly 1 - SPECTRAL_TOL builds
    assert squeezed_vacuum(1.0, 1.0 - SPECTRAL_TOL).cov[1, 1] == 1.0 - SPECTRAL_TOL
    short = 1.0 - 1.5 * SPECTRAL_TOL
    with pytest.raises(UncertaintyViolation, match=f"^variance product {short} below"):
        squeezed_vacuum(1.0, short)


@pytest.mark.parametrize("v_plus, v_minus", [(0.0, 1.0), (-1.0, 2.0), (1.0, -0.5), (1.0, 0.0)])
def test_squeezed_vacuum_rejects_nonpositive_variance(v_plus, v_minus):
    with pytest.raises(ValueError, match="^variances must be positive and finite"):
        squeezed_vacuum(v_plus, v_minus)


def test_squeezed_vacuum_names_an_infinite_variance():
    for v_plus, v_minus in ((np.inf, 1.0), (1.0, np.inf)):
        with pytest.raises(ValueError, match="^variances must be positive and finite"):
            squeezed_vacuum(v_plus, v_minus)


def test_balanced_beamsplitter_forms_sum_and_difference():
    # Read the action off the means of displaced vacua.
    state = displace(vacuum(2), (3.0, 0.0, 1.0, 0.0))
    out = apply(beamsplitter(0.5, (0, 1)), state)
    root2 = np.sqrt(2.0)
    assert np.allclose(out.mean, [4.0 / root2, 0.0, 2.0 / root2, 0.0], atol=1e-12)


def test_fully_transmissive_beamsplitter_flips_second_mode():
    op = beamsplitter(1.0, (0, 1))
    assert np.allclose(op.matrix, np.diag([1.0, 1.0, -1.0, -1.0]), atol=1e-15)
    out = apply(op, vacuum(2))
    assert np.allclose(out.cov, np.eye(4), atol=1e-15)


def test_opaque_beamsplitter_swaps_the_modes():
    # t = 0 is the closed lower end of the transmittance range
    swap = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    assert np.array_equal(beamsplitter(0.0, (0, 1)).matrix, swap)


def test_beamsplitter_is_symplectic():
    op = beamsplitter(0.3, (0, 1))
    omega = symplectic_form(2)
    assert np.max(np.abs(op.matrix.T @ omega @ op.matrix - omega)) < 1e-12


@pytest.mark.parametrize("t", [-0.1, 1.1])
def test_beamsplitter_rejects_bad_transmittance(t):
    with pytest.raises(ValueError):
        beamsplitter(t, (0, 1))


def test_beamsplitter_rejects_duplicate_modes():
    with pytest.raises(ValueError):
        beamsplitter(0.5, (1, 1))


def test_squeeze_gate_unsqueezes_to_vacuum():
    v_s = 0.4
    state = squeezed_vacuum(v_s, 1.0 / v_s)
    out = apply(squeeze_gate(1.0 / np.sqrt(v_s), 0), state)
    assert np.allclose(out.cov, np.eye(2), atol=1e-12)


def test_squeeze_gate_identity_and_inverse_pair():
    assert np.array_equal(squeeze_gate(1.0, 0).matrix, np.eye(2))
    state = squeezed_vacuum(0.7, 1.0 / 0.7)
    round_trip = apply(squeeze_gate(0.5, 0), apply(squeeze_gate(2.0, 0), state))
    assert np.allclose(round_trip.cov, state.cov, atol=1e-12)


def test_squeeze_gate_rejects_nonpositive_factor():
    with pytest.raises(ValueError):
        squeeze_gate(0.0, 0)


@pytest.mark.parametrize("s_plus", [1e160, 1e-160, 1e154, 1e-154])
def test_squeeze_gate_rejects_factors_whose_square_leaves_the_normal_range(s_plus):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="s_plus"):
            apply(squeeze_gate(s_plus, 0), vacuum(1))


@pytest.mark.parametrize("s_plus", [1e153, 1e-153])
def test_squeeze_gate_at_the_edge_of_its_range_applies_without_warnings(s_plus):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = apply(squeeze_gate(s_plus, 0), vacuum(1))
    assert np.array_equal(np.diag(out.cov), [s_plus * s_plus, 1.0 / (s_plus * s_plus)])


@pytest.mark.parametrize("s_plus, outward", [(2.0**-511, 0.0), (2.0**511, np.inf)])
def test_squeeze_gate_range_ends_where_s_plus_squared_is_tiny_or_its_inverse(s_plus, outward):
    tiny = np.finfo(float).tiny
    assert s_plus * s_plus in (tiny, 1.0 / tiny)
    squeeze_gate(s_plus, 0)
    with pytest.raises(ValueError, match="s_plus"):
        squeeze_gate(np.nextafter(s_plus, outward), 0)


def test_phase_rotation_by_half_pi_swaps_quadratures():
    out = apply(phase_rotation(np.pi / 2, 0), squeezed_vacuum(0.25, 4.0))
    assert np.allclose(out.cov, np.diag([4.0, 0.25]), atol=1e-12)


@pytest.mark.parametrize(
    "s_plus, state",
    [
        (1e100, lambda: apply(squeeze_gate(1e100, 0), vacuum(1))),
        (1e150, lambda: squeezed_vacuum(1e10, 1e-10)),
    ],
    ids=["twice-1e100", "1e150-on-1e10"],
)
def test_apply_rejects_moments_past_the_float_range(s_plus, state):
    # Each gate is in range on its own; its product with the state is not.
    gate, before = squeeze_gate(s_plus, 0), state()
    with pytest.raises(ValueError, match=r"gate \[\[.*\]\] on modes \(0,\) .* float range"):
        apply(gate, before)


def test_apply_identity_leaves_state_unchanged():
    state = epr_source(0.5)
    out = apply(SymplecticOp(np.eye(4), (0, 1)), state)
    assert np.array_equal(out.cov, state.cov)
    assert np.array_equal(out.mean, state.mean)


def test_apply_builds_epr_arm_variance():
    # Balanced beamsplitter on orthogonally squeezed inputs.
    v_s = 0.3
    state = vacuum(2)
    state = apply(squeeze_gate(np.sqrt(v_s), 0), state)
    state = apply(squeeze_gate(1.0 / np.sqrt(v_s), 1), state)
    out = apply(beamsplitter(0.5, (0, 1)), state)
    arm = 0.5 * (v_s + 1.0 / v_s)
    assert out.cov[0, 0] == pytest.approx(arm, abs=1e-12)
    assert out.cov[1, 1] == pytest.approx(arm, abs=1e-12)
    assert np.allclose(out.cov, epr_source(v_s).cov, atol=1e-12)


def test_random_symplectic_preserves_purity_of_vacuum():
    rng = np.random.default_rng(11)
    for _ in range(50):
        state = apply_all(random_ops(rng, 3), vacuum(3))
        # numerical check through the |i Omega cov| spectrum
        eigs = np.abs(np.linalg.eigvals(1j * symplectic_form(3) @ state.cov))
        assert np.allclose(np.sort(eigs)[::2], 1.0, atol=1e-9)
        assert state.is_pure()


def test_apply_rejects_out_of_range_mode():
    with pytest.raises(ValueError):
        apply(beamsplitter(0.5, (0, 2)), vacuum(2))


def test_displace_shifts_mean_only():
    out = displace(vacuum(1), (2.0, -3.0))
    assert np.array_equal(out.mean, [2.0, -3.0])
    assert np.array_equal(out.cov, np.eye(2))


def test_displace_never_touches_second_moments():
    rng = np.random.default_rng(5)
    state = epr_source(0.25)
    for _ in range(20):
        shifted = displace(state, rng.normal(size=4))
        assert np.array_equal(shifted.cov, state.cov)


def test_displace_rejects_wrong_length():
    with pytest.raises(ValueError):
        displace(vacuum(2), (1.0, 2.0))


def test_displace_names_both_shapes():
    with pytest.raises(ValueError, match=r"^displacement must have shape \(2,\), got \(1, 2\)$"):
        displace(vacuum(1), np.zeros((1, 2)))


def test_append_vacuum_matches_larger_vacuum():
    out = append_vacuum(vacuum(1), 1)
    assert np.array_equal(out.cov, vacuum(2).cov)
    assert np.array_equal(out.mean, vacuum(2).mean)


def test_append_vacuum_edge_counts():
    state = epr_source(0.5)
    assert append_vacuum(state, 0) is state
    with pytest.raises(ValueError):
        append_vacuum(state, -1)


def test_discard_one_epr_arm_leaves_thermal_mode():
    out = discard_modes(epr_source(0.5), [1])
    assert np.allclose(out.cov, np.diag([1.25, 1.25]), atol=1e-12)
    assert out.num_modes == 1


def test_discard_then_append_commutes_on_disjoint_indices():
    state = displace(epr_source(0.6), (0.3, -0.1, 0.7, 0.2))
    a = append_vacuum(discard_modes(state, [1]), 1)
    b = discard_modes(append_vacuum(state, 1), [1])
    assert np.allclose(a.cov, b.cov, atol=1e-14)
    assert np.allclose(a.mean, b.mean, atol=1e-14)


def test_discard_rejects_bad_indices():
    state = vacuum(2)
    with pytest.raises(ValueError):
        discard_modes(state, [2])
    with pytest.raises(ValueError):
        discard_modes(state, [0, 0])
    with pytest.raises(ValueError):
        discard_modes(state, [0, 1])


def test_state_validation_rejects_asymmetric_cov():
    cov = np.eye(2)
    cov[0, 1] = 1e-6
    with pytest.raises(ValueError):
        GaussianState(np.zeros(2), cov)


def test_state_validation_rejects_uncertainty_violation():
    with pytest.raises(UncertaintyViolation):
        GaussianState(np.zeros(2), 0.5 * np.eye(2))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "build",
    [
        lambda: GaussianState(np.zeros(2), np.full((2, 2), NAN)),
        lambda: GaussianState(np.zeros(2), np.diag([INF, 1.0])),
        lambda: GaussianState(np.array([NAN, 0.0]), np.eye(2)),
        lambda: SymplecticOp(np.full((2, 2), NAN), (0,)),
        lambda: squeeze_gate(NAN, 0),
        lambda: squeeze_gate(INF, 0),
        lambda: phase_rotation(NAN, 0),
        lambda: squeezed_vacuum(NAN, 2.0),
        lambda: squeezed_vacuum(2.0, INF),
        lambda: displace(vacuum(1), (NAN, 0.0)),
    ],
    ids=[
        "cov-nan",
        "cov-inf",
        "mean-nan",
        "op-nan",
        "squeeze-nan",
        "squeeze-inf",
        "rotation-nan",
        "squeezed-vacuum-nan",
        "squeezed-vacuum-inf",
        "displace-nan",
    ],
)
def test_validation_rejects_non_finite_input(build):
    with pytest.raises(ValueError, match="finite"):
        build()


@pytest.mark.filterwarnings("error")
def test_a_mean_displaced_past_the_float_range_is_the_states_error():
    far = displace(vacuum(1), (1e308, 0.0))
    with pytest.raises(ValueError, match=r"^mean must be finite, got inf$"):
        displace(far, (1e308, 0.0))
    with pytest.raises(ValueError, match=r"^mean must be finite, got -inf$"):
        displace(displace(vacuum(1), (0.0, -1e308)), (0.0, -1e308))


def test_uncertainty_tolerance_scales_with_the_largest_entry():
    nu = 1.0 - 5.0 * SPECTRAL_TOL  # symplectic eigenvalue of both matrices below
    # at unit scale the deficit is far beyond rounding and is rejected
    with pytest.raises(UncertaintyViolation):
        _check_covariance(nu * np.eye(2))
    # with entries of 1e5 it is below SPECTRAL_REL_TOL * 1e5 and is accepted
    v = 1e-5
    assert 5.0 * SPECTRAL_TOL < SPECTRAL_REL_TOL / v
    _check_covariance(np.diag([nu * v, nu / v]))
    # for matrices of ordinary size the scaled term is negligible
    assert SPECTRAL_REL_TOL * 10.0 < 0.1 * SPECTRAL_TOL


def test_tolerances_are_inclusive(monkeypatch):
    # symmetry: an asymmetry of exactly SYMMETRY_TOL passes
    cov = np.array([[2.0, 0.0], [SYMMETRY_TOL, 2.0]])
    _check_covariance(cov)
    cov[1, 0] = np.nextafter(SYMMETRY_TOL, 1.0)
    with pytest.raises(ValueError, match="not symmetric"):
        _check_covariance(cov)
    # symplecticity: a defect of exactly SYMPLECTIC_TOL (the x2 column of p1)
    matrix = np.eye(4)
    matrix[1, 2] = SYMPLECTIC_TOL
    SymplecticOp(matrix, (0, 1))
    matrix[1, 2] = np.nextafter(SYMPLECTIC_TOL, 1.0)
    with pytest.raises(ValueError, match="not symplectic"):
        SymplecticOp(matrix, (0, 1))
    # purity is unresolvable from max|cov| = PURE_MAX_ENTRY on, that entry included
    with pytest.raises(ValueError, match="purity is not resolvable"):
        _is_pure(np.diag([PURE_MAX_ENTRY, 1.0 / PURE_MAX_ENTRY]))
    # the uncertainty bound, with the spectrum set on it and just below it
    def spectrum_at(value):
        monkeypatch.setattr(gaussian, "_spectrum", lambda cov, split=False: np.array([value]))

    bound = 1.0 - (SPECTRAL_TOL + SPECTRAL_REL_TOL * 1.0)
    spectrum_at(bound)
    _check_covariance(np.eye(2))
    spectrum_at(np.nextafter(bound, 0.0))
    with pytest.raises(UncertaintyViolation, match="uncertainty bound"):
        _check_covariance(np.eye(2))
    monkeypatch.undo()
    # purity, with an allowance that cancels SPECTRAL_TOL: |1 - 1| <= 0
    no_rounding = np.asarray(-SPECTRAL_TOL)
    monkeypatch.setattr(gaussian, "_pure_rounding", lambda cov, split=False: no_rounding)
    assert _spectrum(np.eye(2)) == 1.0 and _is_pure(np.eye(2))


def test_stacked_validation_names_the_offending_matrix():
    stack = np.array([np.eye(2), 2.0 * np.eye(2), 0.5 * np.eye(2)])
    with pytest.raises(UncertaintyViolation, match="point 2: .* 0.5"):
        _check_covariance(stack, lambda i: f"point {i}")
    stack[1, 0, 0] = NAN
    with pytest.raises(ValueError, match="point 1: .*non-finite"):
        _check_covariance(stack, lambda i: f"point {i}")
    asym = np.array([np.eye(2)] * 3)
    asym[2, 0, 1] = 1e-6
    with pytest.raises(ValueError, match="point 2: .*not symmetric"):
        _check_covariance(asym, lambda i: f"point {i}")
    _check_covariance(np.array([np.eye(2), 2.0 * np.eye(2)]))


def test_require_raises_at_the_first_failing_item_in_flat_order():
    ok = np.ones((2, 3), dtype=bool)
    ok[1, 1:] = False  # flat indices 4 and 5
    values = np.arange(6.0).reshape(2, 3) / 8
    named = []

    def where(i):
        named.append(i)
        return f"item {i}"

    with pytest.raises(UncertaintyViolation, match=r"^item 4: value 0\.5 \{not a field\}$"):
        _require(ok, "value {value} {{not a field}}", values, where, UncertaintyViolation)
    assert named == [4]
    with pytest.raises(ValueError, match=r"^no {value} here$"):
        _require(ok, "no {value} here")
    _require(np.ones((2, 3), dtype=bool), "unused", values, where)
    assert named == [4]


@pytest.mark.parametrize("cov", [1.0, np.ones(4), np.eye(3), np.ones((2, 4, 6))])
def test_symplectic_eigenvalues_reject_a_shape_that_is_not_a_covariance_stack(cov):
    message = rf"^covariance must be \(\.\.\., 2n, 2n\), got shape {re.escape(str(np.shape(cov)))}$"
    with pytest.raises(ValueError, match=message):
        symplectic_eigenvalues(cov)


@pytest.mark.parametrize(
    "call",
    [
        lambda index: vacuum(index),
        lambda index: append_vacuum(vacuum(1), index),
        lambda index: discard_modes(vacuum(3), [index]),
        lambda index: SymplecticOp(np.eye(2), (index,)),
        lambda index: linear_cloner(vacuum(2), index),
        lambda index: CloneSet(local_ecloner(vacuum(2)).state, (0, 3), (2, index), "local", 1.0),
        lambda index: CloneSet(local_ecloner(vacuum(2)).state, (0, 3), (index, 2), "local", 1.0),
        lambda index: correlation_matrix_from_cov(np.eye(6), (0, index)),
        lambda index: pure_mixed_fidelity(vacuum(2), vacuum(2), [index, 0]),
    ],
)
def test_mode_indices_and_counts_must_be_integers(call):
    call(np.int64(1))
    for index in (1.0, 1.5, 0.7, "1"):
        message = rf"must be an integer >= \d, got {re.escape(repr(index))}$"
        with pytest.raises(ValueError, match=message):
            call(index)


def test_stacked_symplectic_eigenvalues_match_per_matrix_calls():
    rng = np.random.default_rng(17)
    covs = []
    for _ in range(24):
        thermal = GaussianState(np.zeros(6), np.diag(np.repeat(rng.uniform(1.0, 3.0, 3), 2)))
        covs.append(apply_all(random_ops(rng, 3, depth=8), thermal).cov)
    covs = np.array(covs)
    expected = np.array([symplectic_eigenvalues(c) for c in covs])
    stacked = symplectic_eigenvalues(covs.reshape(4, 6, 6, 6))
    assert stacked.shape == (4, 6, 3)
    assert np.max(np.abs(stacked.reshape(24, 3) - expected)) <= 1e-13 * np.max(expected)
    # a matrix that is not positive definite gives NaN, alone or in a stack
    indefinite = np.diag([2.0, -0.5, 1.0, 1.0, 1.0, 1.0])
    mixed = symplectic_eigenvalues(np.array([covs[0], indefinite]))
    assert np.array_equal(mixed[0], symplectic_eigenvalues(covs[0]))
    assert np.isnan(mixed[1]).all() and np.isnan(symplectic_eigenvalues(indefinite)).all()
    # so does a matrix with non-finite entries, whose factor is NaN
    unknown = np.full((6, 6), np.nan)
    mixed = symplectic_eigenvalues(np.array([covs[0], unknown]))
    assert np.array_equal(mixed[0], symplectic_eigenvalues(covs[0]))
    assert np.isnan(mixed[1]).all() and np.isnan(symplectic_eigenvalues(unknown)).all()


def _hermitian_spectrum(cov):
    """The reference spectrum: the moduli of the eigenvalues of the complex
    Hermitian i L^T Omega L, one per degenerate pair."""
    chol = np.linalg.cholesky(cov)
    form = np.swapaxes(chol, -1, -2) @ symplectic_form(cov.shape[-1] // 2) @ chol
    return np.sort(np.abs(np.linalg.eigvalsh(1j * form)), axis=-1)[..., ::2]


# The real SVD against the Hermitian eigensolve; the bound, fixed before the
# run, is 64 eps of each matrix's largest entry.
REFERENCE_SPECTRUM_REL_TOL = 64 * np.finfo(float).eps


def _assert_matches_the_hermitian_spectrum(covs):
    deviation = np.max(np.abs(symplectic_eigenvalues(covs) - _hermitian_spectrum(covs)), axis=-1)
    scale = np.max(np.abs(covs), axis=(-2, -1))
    assert np.all(deviation <= REFERENCE_SPECTRUM_REL_TOL * scale)


@pytest.mark.parametrize(
    "gain", [UNITY_GAIN, 1.0, 0.5, (1.1, 1.7), 8.0], ids=["unity", "one", "half", "pair", "eight"]
)
@pytest.mark.parametrize("machine", ["local", "global"])
def test_spectrum_matches_the_hermitian_reference_on_both_machines(machine, gain):
    for covs in machine_covariances(machine, np.geomspace(1e-3, 1.0, 400), gain):
        _assert_matches_the_hermitian_spectrum(covs)


def test_spectrum_matches_the_hermitian_reference_on_random_states():
    rng = np.random.default_rng(27)
    by_modes = {n: [] for n in range(1, 5)}
    for _ in range(2000):
        n = int(rng.integers(1, 5))
        s = np.eye(2 * n)
        for op in random_ops(rng, n, depth=3 * n):
            s = op.expand(n) @ s
        cov = s @ np.diag(np.repeat(rng.uniform(1.0, 3.0, n), 2)) @ s.T
        by_modes[n].append(0.5 * (cov + cov.T))
    for covs in by_modes.values():
        _assert_matches_the_hermitian_spectrum(np.array(covs))


def test_covariance_that_is_not_positive_definite_is_rejected():
    # -cov has the symplectic moduli of cov, so the uncertainty bound alone
    # takes these for states with nu = 2 and nu = 3.
    for cov in (np.diag([-2.0, -2.0]), np.diag([3.0, 3.0, -3.0, -3.0])):
        with pytest.raises(UncertaintyViolation, match="^covariance matrix is not positive"):
            GaussianState(np.zeros(len(cov)), cov)
    stack = np.array([np.eye(4), np.diag([3.0, 3.0, -3.0, -3.0]), -np.eye(4)])
    with pytest.raises(UncertaintyViolation, match="^point 1: covariance matrix is not positive"):
        _check_covariance(stack, lambda i: f"point {i}")
    # Below about 6.7e-9 rounding mostly leaves the source without a
    # Cholesky factor, where its spectrum used to come out as garbage.
    for v_s in (1e-10, 1e-20, 1e-300):
        with pytest.raises(UncertaintyViolation, match="not positive definite"):
            epr_source(v_s)


def test_symplectic_op_rejects_non_symplectic_matrix():
    with pytest.raises(ValueError):
        SymplecticOp(2.0 * np.eye(2), (0,))


def test_symplecticity_of_builtin_ops_over_randomized_draws():
    rng = np.random.default_rng(42)
    omega2 = symplectic_form(2)
    omega1 = symplectic_form(1)
    for _ in range(1000):
        bs = beamsplitter(rng.uniform(), (0, 1)).matrix
        assert np.max(np.abs(bs.T @ omega2 @ bs - omega2)) < 1e-12
        sq = squeeze_gate(float(np.exp(rng.uniform(-2, 2))), 0).matrix
        assert np.max(np.abs(sq.T @ omega1 @ sq - omega1)) < 1e-12
        rot = phase_rotation(float(rng.uniform(0, 2 * np.pi)), 0).matrix
        assert np.max(np.abs(rot.T @ omega1 @ rot - omega1)) < 1e-12


def test_uncertainty_preserved_under_long_op_chains():
    rng = np.random.default_rng(99)
    for _ in range(30):
        v_plus = float(rng.uniform(0.2, 1.0))
        thermal_factor = float(rng.uniform(1.0, 3.0))
        state = squeezed_vacuum(v_plus, thermal_factor / v_plus)
        state = append_vacuum(state, 2)
        state = apply_all(random_ops(rng, 3, depth=10), state)
        state = discard_modes(state, [int(rng.integers(3))])
        assert symplectic_eigenvalues(state.cov).min() >= 1.0 - 1e-9


def test_purity_conserved_under_symplectics():
    rng = np.random.default_rng(7)
    for _ in range(30):
        state = apply_all(random_ops(rng, 2, depth=8), epr_source(0.4))
        assert state.is_pure()
        assert np.linalg.det(state.cov) == pytest.approx(1.0, rel=1e-9)


def test_purity_beyond_float64_resolution_raises_naming_the_largest_entry():
    # From max|cov| = PURE_MAX_ENTRY (2**24) the allowance 16 eps max|cov|**2
    # reaches 1, where a mixed state (nu = sqrt(2)) and sources whose nu
    # rounded to 6.5e7 and 7.6e11 read pure, and 1e-300 overflowed.  No
    # state holds the sources' covariances at 1e-20 and 1e-300 any more
    # (they are not positive definite), so they are checked as raw matrices.
    assert PURE_MAX_ENTRY == PURE_REL_TOL**-0.5
    cases = [
        (np.diag([2e8, 1e-8]), "2e+08"),
        (_interleave(_source_blocks(1e-20)), "5e+19"),
        (_interleave(_source_blocks(1e-300)), "5e+299"),
    ]
    with pytest.raises(UncertaintyViolation, match="not positive definite"):
        epr_source(1e-20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cov, largest in cases:
            with pytest.raises(ValueError, match=rf"max\|cov\| = {re.escape(largest)} "):
                _is_pure(cov)
        with pytest.raises(ValueError, match=r"max\|cov\| = 2e\+08 "):
            GaussianState(np.zeros(2), cases[0][0]).is_pure()
        assert not GaussianState(np.zeros(2), np.diag([2e6, 1e-6])).is_pure()
        # per matrix of a stack: the error names the first unresolvable one
        stack = np.stack([np.eye(2), np.diag([2e8, 5e-9]), np.diag([3e8, 1 / 3e8])])
        with pytest.raises(ValueError, match=r"max\|cov\| = 2e\+08 "):
            fidelity_from_cov(stack, stack)


def test_states_are_immutable():
    state = vacuum(1)
    with pytest.raises(ValueError):
        state.cov[0, 0] = 5.0
