"""Cloning circuits: EPR source, linear cloner, and both machines."""

import math
import re

import numpy as np
import pytest

from ecloner import (
    CloneSet,
    GaussianState,
    UNITY_GAIN,
    UncertaintyViolation,
    apply,
    beamsplitter,
    clone_state,
    discard_modes,
    displace,
    epr_source,
    global_ecloner,
    linear_cloner,
    local_ecloner,
    squeeze_gate,
    squeezed_vacuum,
    vacuum,
)
from ecloner.circuits import _check_clone_symmetry, machine_covariances
from ecloner.gaussian import (
    _quadrature_blocks,
    _split_symplectic_eigenvalues,
    symplectic_eigenvalues,
)

GRID = np.geomspace(0.02, 1.0, 50)


def _epr_blocks(v_s):
    a = 0.5 * (v_s + 1.0 / v_s)
    b = 0.5 * (v_s - 1.0 / v_s)
    return np.diag([a, a]), np.diag([b, -b])


def _expected_local_cov(v_s):
    # Signal structure duplicated over (1A, 2A, 1B, 2B) plus one unit of
    # uncorrelated noise per clone mode.
    arm, cross = _epr_blocks(v_s)
    expected = np.zeros((8, 8))
    arms = [0, 1, 0, 1]
    for i in range(4):
        for j in range(4):
            block = arm if arms[i] == arms[j] else cross
            expected[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = block
    return expected + np.eye(8)


def _expected_global_cov(v_s):
    # Modes (1A, 1B, 2A, 2B): within a clone both signal and swapped noise
    # contribute the cross block; across clones only the signal structure.
    arm, cross = _epr_blocks(v_s)
    e = np.zeros((8, 8))

    def put(i, j, block):
        e[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = block
        e[2 * j : 2 * j + 2, 2 * i : 2 * i + 2] = block

    for i in range(4):
        put(i, i, 2.0 * arm)
    put(0, 1, 2.0 * cross)  # clone-1 internal
    put(2, 3, 2.0 * cross)  # clone-2 internal
    put(0, 2, arm)  # 1A vs 2A share the epr1 signal
    put(1, 3, arm)  # 1B vs 2B share the epr2 signal
    put(0, 3, cross)
    put(1, 2, cross)
    return e


def test_epr_source_of_coherent_input_is_two_mode_vacuum():
    assert np.allclose(epr_source(1.0).cov, np.eye(4), atol=1e-12)


def test_epr_source_arm_variance_and_cross_correlation():
    state = epr_source(0.5)
    assert state.cov[0, 0] == pytest.approx(1.25, abs=1e-12)
    assert state.cov[0, 2] == pytest.approx(-0.75, abs=1e-12)
    assert state.cov[1, 3] == pytest.approx(0.75, abs=1e-12)


@pytest.mark.parametrize("v_s", [0.05, 0.3, 0.8, 1.0])
def test_epr_source_is_pure_for_any_squeezing(v_s):
    assert np.allclose(epr_source(v_s).symplectic_eigenvalues(), 1.0, atol=1e-9)


@pytest.mark.parametrize("v_s", [0.0, -0.3, 1.5])
def test_epr_source_rejects_out_of_range_variance(v_s):
    with pytest.raises(ValueError):
        epr_source(v_s)


def test_linear_cloner_on_coherent_state_gives_unit_noise_clones():
    out = linear_cloner(vacuum(1), 0)
    assert out.num_modes == 2
    # diag blocks: input variance + 1; cross block: the shared signal only,
    # since the two clones' noise terms are uncorrelated at unity gain
    expected = np.array(
        [
            [2.0, 0.0, 1.0, 0.0],
            [0.0, 2.0, 0.0, 1.0],
            [1.0, 0.0, 2.0, 0.0],
            [0.0, 1.0, 0.0, 2.0],
        ]
    )
    assert np.allclose(out.cov, expected, atol=1e-12)


def test_linear_cloner_adds_one_unit_to_thermal_input():
    thermal = GaussianState(np.zeros(2), 3.0 * np.eye(2))
    out = linear_cloner(thermal, 0)
    assert np.allclose(np.diag(out.cov), 4.0, atol=1e-12)


def test_linear_cloner_preserves_first_moments_at_unity_gain():
    rng = np.random.default_rng(3)
    for _ in range(20):
        delta = rng.normal(scale=3.0, size=2)
        out = linear_cloner(displace(vacuum(1), delta), 0)
        assert np.allclose(out.mean, np.concatenate([delta, delta]), atol=1e-12)


def test_linear_cloner_zero_gain_variance():
    # x_A = x/2 + n1/2 + n3/sqrt(2): V/4 + 1/4 + 1/2 per quadrature.
    thermal = GaussianState(np.zeros(2), 3.0 * np.eye(2))
    out = linear_cloner(thermal, 0, gain=0.0)
    assert np.allclose(np.diag(out.cov), 3.0 / 4 + 1.0 / 4 + 1.0 / 2, atol=1e-12)


def test_linear_cloner_accepts_gain_pair():
    out = linear_cloner(vacuum(1), 0, gain=(UNITY_GAIN, 0.0))
    assert out.cov[0, 0] == pytest.approx(2.0, abs=1e-12)
    assert out.cov[1, 1] == pytest.approx(1.0, abs=1e-12)
    scalar = linear_cloner(vacuum(1), 0, gain=1.4)
    assert np.array_equal(linear_cloner(vacuum(1), 0, gain=np.array(1.4)).cov, scalar.cov)


def test_linear_cloner_rejects_bad_mode_and_gain():
    with pytest.raises(ValueError):
        linear_cloner(vacuum(1), 1)
    for bad in (np.inf, (1.0, 2.0, 3.0), np.ones((2, 2))):
        with pytest.raises(ValueError, match="gain"):
            linear_cloner(vacuum(1), 0, gain=bad)


def test_linear_cloner_rejects_the_mode_one_past_the_last():
    # mode == num_modes must fail the range check, not a later gate
    with pytest.raises(ValueError, match="out of range"):
        linear_cloner(vacuum(2), mode=2)


def test_local_ecloner_matches_expected_output_at_half():
    clones = local_ecloner(epr_source(0.5))
    assert clones.machine == "local"
    assert clones.clone1 == (0, 3)
    assert clones.clone2 == (2, 1)
    assert clones.v_s == pytest.approx(0.5, abs=1e-9)
    assert np.allclose(np.diag(clones.state.cov), 2.25, atol=1e-12)
    assert np.allclose(clones.state.cov, _expected_local_cov(0.5), atol=1e-12)


@pytest.mark.parametrize("v_s", GRID)
def test_local_ecloner_adds_identity_keeping_cross_blocks(v_s):
    clones = local_ecloner(epr_source(v_s))
    assert np.allclose(clones.state.cov, _expected_local_cov(v_s), atol=1e-10)


def test_local_ecloner_on_coherent_input_gives_uncorrelated_thermal_pairs():
    clones = local_ecloner(epr_source(1.0))
    reduced = clone_state(clones, 1)
    assert np.allclose(reduced.cov, 2.0 * np.eye(4), atol=1e-12)
    reduced2 = clone_state(clones, 2)
    assert np.allclose(reduced2.cov, 2.0 * np.eye(4), atol=1e-12)


def test_local_ecloner_preserves_means_of_displaced_input():
    rng = np.random.default_rng(21)
    for _ in range(10):
        delta = rng.normal(scale=2.0, size=4)
        clones = local_ecloner(displace(epr_source(0.5), delta))
        # outputs ordered (1A, 2A, 1B, 2B): arm-1 mean, arm-2 mean, repeated
        expected = np.concatenate([delta, delta])
        assert np.allclose(clones.state.mean, expected, atol=1e-12)


def test_local_ecloner_rejects_wrong_mode_count():
    with pytest.raises(ValueError):
        local_ecloner(vacuum(3))


def test_global_ecloner_matches_expected_output_at_half():
    clones = global_ecloner(epr_source(0.5), 0.5)
    assert clones.machine == "global"
    assert clones.clone1 == (0, 1)
    assert clones.clone2 == (2, 3)
    assert np.allclose(np.diag(clones.state.cov), 2.5, atol=1e-12)
    cm = clone_state(clones, 1).cov
    assert cm[0, 2] == pytest.approx(-1.5, abs=1e-12)
    assert cm[1, 3] == pytest.approx(1.5, abs=1e-12)


@pytest.mark.parametrize("v_s", GRID)
def test_global_ecloner_covariance_over_grid(v_s):
    clones = global_ecloner(epr_source(v_s), v_s)
    assert np.allclose(clones.state.cov, _expected_global_cov(v_s), atol=1e-10)
    # each clone's correlation matrix doubles the input's
    assert np.allclose(clone_state(clones, 1).cov, 2.0 * epr_source(v_s).cov, atol=1e-10)
    assert np.allclose(clone_state(clones, 2).cov, 2.0 * epr_source(v_s).cov, atol=1e-10)


@pytest.mark.parametrize("v_s", [0.1, 0.5, 0.9])
def test_global_clone_noise_cross_correlation(v_s):
    # Within clone 1, the swapped noise terms contribute (v - 1/v)/2 on x
    # on top of the signal correlation of the same size.
    clones = global_ecloner(epr_source(v_s), v_s)
    signal = epr_source(v_s).cov[0, 2]
    noise_cross = clones.state.cov[0, 2] - signal
    assert noise_cross == pytest.approx(0.5 * (v_s - 1.0 / v_s), abs=1e-12)


def test_global_ecloner_preserves_means_of_displaced_input():
    delta = np.array([0.7, -0.4, 0.7, -0.4])
    clones = global_ecloner(displace(epr_source(0.3), delta), 0.3)
    assert np.allclose(clones.state.mean, np.tile([0.7, -0.4], 4), atol=1e-12)


def test_machines_coincide_for_coherent_input():
    local = local_ecloner(epr_source(1.0))
    glob = global_ecloner(epr_source(1.0), 1.0)
    assert np.allclose(local.state.cov, glob.state.cov, atol=1e-10)
    assert np.allclose(local.state.mean, glob.state.mean, atol=1e-12)


def test_global_ecloner_rejects_bad_inputs():
    with pytest.raises(ValueError):
        global_ecloner(vacuum(1), 0.5)
    with pytest.raises(ValueError):
        global_ecloner(epr_source(0.5), 1.5)
    with pytest.raises(ValueError):
        global_ecloner(epr_source(0.5), 0.0)


def test_global_ecloner_rejects_a_v_s_its_source_was_not_built_with():
    with pytest.raises(ValueError, match=r"v_s = 0\.1 does not match .* v_s = 0\.5"):
        global_ecloner(epr_source(0.5), 0.1)
    with pytest.raises(ValueError, match="does not match"):
        global_ecloner(epr_source(1e-3), 1e-3 * (1.0 + 1e-12))
    # a two-mode thermal state is no source: it is cloned at any v_s, as before
    thermal = GaussianState(np.zeros(4), 2.0 * np.eye(4))
    assert global_ecloner(thermal, 0.1).v_s == 0.1


def test_clone_set_rejects_non_partition_pairs():
    state = local_ecloner(epr_source(0.5)).state
    with pytest.raises(ValueError):
        CloneSet(state=state, clone1=(0, 1), clone2=(1, 2), machine="local", v_s=0.5)
    with pytest.raises(ValueError):
        CloneSet(state=state, clone1=(0, 1), clone2=(2, 3), machine="weird", v_s=0.5)


def test_clone_set_rejects_asymmetric_variances():
    # A 4-mode state whose "clones" have different variances.
    cov = np.diag([2.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0])
    state = GaussianState(np.zeros(8), cov)
    with pytest.raises(ValueError):
        CloneSet(state=state, clone1=(0, 1), clone2=(2, 3), machine="global", v_s=0.5)


def test_clone_state_orders_modes_by_pair():
    clones = local_ecloner(displace(epr_source(0.5), (1.0, 0.0, -2.0, 0.0)))
    first = clone_state(clones, 1)  # (1A, 2B)
    second = clone_state(clones, 2)  # (1B, 2A)
    assert np.allclose(first.mean, [1.0, 0.0, -2.0, 0.0], atol=1e-12)
    assert np.allclose(second.mean, [1.0, 0.0, -2.0, 0.0], atol=1e-12)


def test_local_ecloner_v_s_is_nan_for_non_epr_input():
    clones = local_ecloner(GaussianState(np.zeros(4), 2.0 * np.eye(4)))
    assert np.isnan(clones.v_s)


@pytest.mark.parametrize("v_s", [1e-4, 1e-3, 0.01, 0.5, 0.999, 1.0])
def test_local_ecloner_recovers_the_source_v_s(v_s):
    clones = local_ecloner(epr_source(v_s))
    assert abs(clones.v_s - v_s) <= 1e-12 * v_s
    assert 0.0 < clones.v_s <= 1.0


def test_local_ecloner_v_s_is_nan_for_mixed_state_near_a_source():
    mixed = GaussianState(np.zeros(4), epr_source(0.01).cov + 1e-4 * np.eye(4))
    assert np.isnan(local_ecloner(mixed).v_s)


def test_discarded_ancillas_leave_physical_clone_states():
    # The feedforward bookkeeping must still hand back valid Gaussian states.
    for v_s in (0.1, 0.6):
        clones = global_ecloner(epr_source(v_s), v_s)
        assert clones.state.symplectic_eigenvalues().min() >= 1.0 - 1e-9
    out = linear_cloner(squeezed_vacuum(0.2, 5.0), 0)
    assert out.symplectic_eigenvalues().min() >= 1.0 - 1e-9
    single = discard_modes(out, [1])
    assert single.cov[0, 0] == pytest.approx(1.2, abs=1e-12)


def _literal_epr_source(v_s):
    # the source as a chain of validated gates, one state per step
    s = math.sqrt(v_s)
    state = vacuum(2)
    state = apply(squeeze_gate(s, 0), state)
    state = apply(squeeze_gate(1.0 / s, 1), state)
    return apply(beamsplitter(0.5, (0, 1)), state)


def _literal_machine(machine, epr, v_s, gain):
    if machine == "local":
        work = linear_cloner(epr, 0, gain)  # (1A, arm2, 1B)
        return linear_cloner(work, 1, gain)  # (1A, 2A, 1B, 2B)
    s = math.sqrt(v_s)
    work = apply(beamsplitter(0.5, (0, 1)), epr)
    work = apply(squeeze_gate(1.0 / s, 0), work)
    work = apply(squeeze_gate(s, 1), work)
    work = linear_cloner(work, 0, gain)
    work = linear_cloner(work, 1, gain)
    work = apply(squeeze_gate(s, 0), work)
    work = apply(squeeze_gate(s, 2), work)
    work = apply(squeeze_gate(1.0 / s, 1), work)
    work = apply(squeeze_gate(1.0 / s, 3), work)
    work = apply(beamsplitter(0.5, (0, 1)), work)
    return apply(beamsplitter(0.5, (2, 3)), work)


def _deviation(compiled, literal):
    """Largest entry difference relative to the largest literal entry."""
    return np.max(np.abs(compiled - literal)) / np.max(np.abs(literal))


@pytest.mark.parametrize("gain", [UNITY_GAIN, 1.0, (1.1, 1.7)], ids=["unity", "one", "pair"])
@pytest.mark.parametrize("v_s", [1e-3, 0.01, 0.37, 0.5, 1.0])
@pytest.mark.parametrize("machine", ["local", "global"])
def test_compiled_machines_match_literal_gate_chain(machine, v_s, gain):
    delta = np.array([0.7, -1.3, 0.4, 2.1])
    literal_source = _literal_epr_source(v_s)
    assert _deviation(epr_source(v_s).cov, literal_source.cov) <= 1e-12
    epr = displace(epr_source(v_s), delta)
    if machine == "local":
        compiled = local_ecloner(epr, gain)
    else:
        compiled = global_ecloner(epr, v_s, gain)
    literal = _literal_machine(machine, displace(literal_source, delta), v_s, gain)
    assert _deviation(compiled.state.cov, literal.cov) <= 1e-12
    assert _deviation(compiled.state.mean, literal.mean) <= 1e-12
    # the stacked grid path evaluates the same compiled map
    source, clones = machine_covariances(machine, np.array([0.5, v_s]), gain)
    assert _deviation(source[1], literal_source.cov) <= 1e-12
    assert _deviation(clones[1], literal.cov) <= 1e-12


def test_machine_covariances_reject_bad_input():
    with pytest.raises(ValueError, match="machine"):
        machine_covariances("other", 0.5)
    with pytest.raises(ValueError, match="squeezing variance"):
        machine_covariances("global", np.array([0.5, 0.0]))
    with pytest.raises(ValueError, match="squeezing variance"):
        machine_covariances("local", np.array([np.nan, 0.5]))


@pytest.mark.parametrize(
    "v_s, first", [([0.5, 1e-9], "1e-09"), ([0.3, 1e-8, 1e-9], "1e-08")], ids=["one", "first"]
)
def test_machine_covariances_errors_name_the_first_failing_v_s(v_s, first):
    with pytest.raises(ValueError, match=f"v_s = {first}"):
        machine_covariances("global", np.array(v_s))


@pytest.mark.parametrize("machine", ["local", "global"])
@pytest.mark.parametrize("modes", [1, 3])
def test_ecloners_reject_inputs_that_are_not_two_modes(machine, modes):
    with pytest.raises(ValueError, match=f"{machine} machine expects a 2-mode input, got {modes}"):
        if machine == "local":
            local_ecloner(vacuum(modes))
        else:
            global_ecloner(vacuum(modes), 0.5)


def test_stacked_clone_symmetry_check_names_the_offending_point():
    good = local_ecloner(epr_source(0.5)).state.cov
    bad = good.copy()
    bad[0, 0] += 1e-6
    with pytest.raises(ValueError, match="point 2: clones are not symmetric"):
        blocks = _quadrature_blocks(np.array([good, good, bad]))
        _check_clone_symmetry(blocks, (0, 3), (2, 1), lambda i: f"point {i}")


# Every gate of both machines keeps x apart from p, so the engine solves an
# x problem and a p problem; the bound on the split spectrum, fixed before
# the run, is 1e3 eps of the largest entry (measured worst: 114 eps, global
# machine at gain 0.5).
SPLIT_SPECTRUM_REL_TOL = 1e3 * np.finfo(float).eps


@pytest.mark.parametrize("gain", [UNITY_GAIN, 1.0, 0.5, (1.1, 1.7)], ids=["unity", "one", "half", "pair"])
@pytest.mark.parametrize("machine", ["local", "global"])
def test_machines_never_mix_x_with_p(machine, gain):
    v_s = np.geomspace(1e-3, 1.0, 400)
    for cov in machine_covariances(machine, v_s, gain):
        assert np.all(cov[..., ::2, 1::2] == 0.0) and np.all(cov[..., 1::2, ::2] == 0.0)
        blocks = np.stack([cov[..., ::2, ::2], cov[..., 1::2, 1::2]], axis=-3)
        split = _split_symplectic_eigenvalues(blocks)
        deviation = np.max(np.abs(split - symplectic_eigenvalues(cov)), axis=-1)
        assert np.all(deviation <= SPLIT_SPECTRUM_REL_TOL * np.max(np.abs(cov), axis=(-2, -1)))


def test_split_spectrum_gives_nan_for_a_block_that_is_not_positive_definite():
    good = np.stack([np.diag([4.0, 0.25]), np.diag([0.25, 4.0])])
    bad = good.copy()
    bad[1, 1, 1] = -1.0
    nu = _split_symplectic_eigenvalues(np.array([good, bad]))
    assert np.array_equal(nu[0], [1.0, 1.0]) and np.isnan(nu[1]).all()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("machine", ["local", "global"])
@pytest.mark.parametrize("gain", [1e160, (1.0, 1e160), 1e307], ids=["1e160", "pair", "1e307"])
def test_clones_past_the_float_range_raise_naming_v_s_and_gain(machine, gain):
    # Under -W error: a ValueError that names the input, no escaped overflow.
    at = rf"v_s = 0\.5, gain = {re.escape(repr(gain))}"
    with pytest.raises(ValueError, match=rf"^{at}: the clones leave the float range$"):
        machine_covariances(machine, np.array([0.5, 0.2]), gain)
    with pytest.raises(ValueError, match=rf"^{at}: the clones leave the float range$"):
        if machine == "local":
            local_ecloner(epr_source(0.5), gain)
        else:
            global_ecloner(epr_source(0.5), 0.5, gain)


@pytest.mark.filterwarnings("error")
def test_linear_cloner_past_the_float_range_raises_naming_gain():
    with pytest.raises(ValueError, match=r"^gain = 1e\+160: the clones leave the float range$"):
        linear_cloner(vacuum(1), 0, 1e160)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("machine", ["local", "global"])
def test_source_past_the_float_range_is_named_as_the_cause(machine):
    # Below v_s of about 5.6e-309 the source's entries, ~1/v_s, overflow at
    # any gain; the first such v_s of a stack is named, and the source blamed.
    match = r"^v_s = 1e-310: the source leaves the float range$"
    with pytest.raises(ValueError, match=match):
        machine_covariances(machine, np.array([0.5, 1e-310, 1e-320]))
    with pytest.raises(ValueError, match=match):
        machine_covariances(machine, 1e-310, gain=1.0)
    with pytest.raises(ValueError, match=match):
        epr_source(1e-310)
    # Just above, the source is finite and the clones are what fail.
    with pytest.raises(ValueError, match=r"^v_s = 5\.6e-309(: covariance|, gain = )"):
        machine_covariances(machine, 5.6e-309)


def test_clone_validation_errors_name_the_gain():
    # rounding at entries ~gain^2/v_s is what fails, so the gain is named too
    message = r"^v_s = 0\.01, gain = 100000000\.0: covariance matrix is not positive definite$"
    with pytest.raises(UncertaintyViolation, match=message):
        machine_covariances("local", np.geomspace(0.01, 1.0, 50), 1e8)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "arm, cross",
    [(1e308, -9.5e307), (0.9 * np.finfo(float).max, -0.5 * np.finfo(float).max)],
    ids=["overflowing-label", "source-past-the-range"],
)
def test_ecloners_on_a_source_pattern_past_the_float_range_raise_naming_the_clones(arm, cross):
    # A valid state in the source's pattern whose inferred v_s either
    # overflows to 0 (1/(hypot(1, c) - c)) or is 1/max_float, where the
    # rebuilt source leaves the float range: the label is NaN, no warning
    # escapes, and the machines blame the clones.
    x, p = [[arm, cross], [cross, arm]], [[arm, -cross], [-cross, arm]]
    cov = np.zeros((4, 4))
    cov[0::2, 0::2], cov[1::2, 1::2] = x, p
    state = GaussianState(np.zeros(4), cov)
    gain = re.escape(repr(UNITY_GAIN))
    with pytest.raises(ValueError, match=rf"^v_s = nan, gain = {gain}: the clones leave"):
        local_ecloner(state)
    with pytest.raises(ValueError, match=rf"^v_s = 0\.5, gain = {gain}: the clones leave"):
        global_ecloner(state, 0.5)
