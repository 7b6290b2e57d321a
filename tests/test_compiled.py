"""The compiled form: exact analytic columns, the two certificates, and the per-point checks."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from closed_forms import CLOSED_FORMS, exact_columns

from ecloner import (
    circuits,
    cli,
    correlation_matrix_from_cov,
    epr_paradox,
    fidelity_from_cov,
    inseparability,
    machine_covariances,
)
from ecloner.circuits import CLONE_PAIRS, UNITY_GAIN, _certify_channel, _gain_pair, _machine_rows
from ecloner.exceptions import DegenerateInputError, UncertaintyViolation

def _grid(argv):
    """The grid of a CLI run, built as ``cli.run_sweep`` builds it."""
    args = cli.build_parser().parse_args(argv)
    grid = np.geomspace(args.v_min, 1.0, args.points)
    grid[-1] = 1.0
    return grid


@pytest.mark.parametrize(
    "argv", [[], ["--points", "200", "--v-min", "0.001"]], ids=["default", "floor"]
)
def test_analytic_columns_are_exact_to_rounding_at_unity_gain(argv):
    # The bound, fixed before the run: 4e-15 relative (the worst measured is
    # 1.8e-15, eps_global); the 0.10.0 engine missed by up to 1.1e-10 here.
    grid = _grid(argv)
    table = cli._analytic_records(grid, circuits._compile_run(UNITY_GAIN))
    for column, form in CLOSED_FORMS.items():
        for v_s, value in zip(grid, table[column]):
            exact = form(Fraction(v_s))
            error = abs(Fraction(value) - exact) / exact
            assert error <= Fraction(4e-15), (column, v_s, float(error))


def _covariance_criteria(machine, grid, gain):
    """The covariance-form criteria and fidelity of clone 1 on machine_covariances' states."""
    source, clones = machine_covariances(machine, grid, gain)
    pair = correlation_matrix_from_cov(clones, CLONE_PAIRS[machine][0])
    return inseparability(pair), epr_paradox(pair), fidelity_from_cov(source, pair.matrix).value


@pytest.mark.parametrize(
    "gain", [UNITY_GAIN, 0.5, 8.0, 0.0, (0.7, 1.9)], ids=["unity", "0.5", "8", "0", "pair"]
)
@pytest.mark.parametrize("machine", ["local", "global"])
def test_compiled_columns_match_the_covariance_criteria(machine, gain):
    # Every point is held to the exact closed forms.  The covariance-form
    # criteria subtract entries of size 1/v_s and lose about eps / v_s^2
    # (1.1e-12 at v_s = 0.01, gain 8), so they are the reference too from
    # v_s = 0.02 up, where they keep 12 digits.
    grid = np.geomspace(0.01, 1.0, 60)
    compiled = circuits._Compiled(machine, gain, circuits._source_rows()).columns(grid)
    names = ("inseparability", "epr_paradox", "fidelity")
    covariance = _covariance_criteria(machine, grid, gain)
    for idx, v_s in enumerate(grid):
        exact = exact_columns(machine, v_s, gain)
        for name, value, reference, form in zip(names, compiled, covariance, exact):
            assert abs(Decimal(value[idx]) - form) <= Decimal(1e-12) * form, (name, v_s)
            if v_s >= 0.02:
                assert abs(value[idx] - reference[idx]) <= 1e-12 * reference[idx], (name, v_s)


CHANNEL_GAINS = [0.0, cli.MIN_GAIN, 0.5, 1.0, UNITY_GAIN, 8.0, 40.0, cli.MAX_GAIN, (0.7, 1.9)]


@pytest.mark.parametrize("gain", CHANNEL_GAINS)
@pytest.mark.parametrize("machine", ["local", "global"])
def test_every_machine_is_certified_a_channel(machine, gain):
    # measurement and feedforward are physical at every gain
    _certify_channel(_machine_rows(machine, 1.0, *_gain_pair(gain)), machine, gain)


@pytest.mark.parametrize("gain", [0.5, UNITY_GAIN, 8.0])
@pytest.mark.parametrize("machine", ["local", "global"])
@pytest.mark.parametrize(
    "columns, factor", [(slice(2, None), 0.999), (slice(None, 2), 2.0)], ids=["N", "T"]
)
def test_a_hand_broken_channel_is_rejected_naming_the_machine_and_the_gain(
    machine, gain, columns, factor
):
    # N: the ancillas add 0.2% too little noise; T: the input is doubled with
    # the noise of the machine as it is
    rows = _machine_rows(machine, 1.0, *_gain_pair(gain))
    rows[..., columns] *= factor
    message = f"^{machine} machine at gain {gain!r} is not a Gaussian channel: "
    with pytest.raises(UncertaintyViolation, match=message.replace(".", r"\.")):
        _certify_channel(rows, machine, gain)


def test_a_hand_broken_source_chain_is_rejected(monkeypatch):
    # a gain of 1.001 on mode 0's x row: not symplectic, so no source is pure
    real = circuits._source_rows

    def broken():
        rows = real()
        rows[:, 0, 0] *= 1.001
        return rows

    monkeypatch.setattr(circuits, "_source_rows", broken)
    message = r"^local and global machines at gain 2\.0: the source is not pure: "
    with pytest.raises(UncertaintyViolation, match=message):
        cli.main(["--points", "3", "--gain", "2.0"])


@pytest.mark.parametrize("gain", ["0.5", "1.0", "8"])
def test_a_hand_broken_machine_chain_fails_the_run(gain, monkeypatch):
    # clone A's x row 0.1% short: less noise than any channel adds
    real = circuits._clone_rows

    def broken(rows, mode, ancillas, gx, gp):
        real(rows, mode, ancillas, gx, gp)
        rows[..., 0, mode, :] *= 0.999

    monkeypatch.setattr(circuits, "_clone_rows", broken)
    message = rf"^local machine at gain {float(gain)!r} is not a Gaussian channel: "
    with pytest.raises(UncertaintyViolation, match=message.replace(".", r"\.")):
        cli.main(["--points", "3", "--gain", gain])


def _corrupted(machine, attribute, change):
    compiled = circuits._Compiled(machine, UNITY_GAIN, circuits._source_rows())
    change(getattr(compiled, attribute))
    return compiled


@pytest.mark.parametrize("machine", ["local", "global"])
def test_asymmetric_clones_raise_naming_v_s_and_gain(machine):
    # clone 2's first mode (CloneSet order) carries 1e-6 more x variance
    mode = CLONE_PAIRS[machine][1][0]

    def change(variances):
        variances[:, 0, mode] *= 1.0 + 1e-6

    compiled = _corrupted(machine, "variances", change)
    message = rf"^v_s = 0\.5, gain = {UNITY_GAIN!r}: clones are not symmetric"
    with pytest.raises(ValueError, match=message):
        compiled.columns(np.array([0.5, 1.0]))


def test_a_conditioning_mode_without_variance_raises():
    # clone 1's second mode, and its match in clone 2, with no p variance
    def change(variances):
        variances[:, 1, [CLONE_PAIRS["local"][0][1], CLONE_PAIRS["local"][1][1]]] = 0.0

    compiled = _corrupted("local", "variances", change)
    with pytest.raises(DegenerateInputError, match=r"^v_s = 1\.0, gain = .*: the conditioning"):
        compiled.columns(np.array([1.0]))


@pytest.mark.parametrize("scale, escapes", [(2.0 / 3.0, False), (0.6, True)])
def test_a_fidelity_outside_the_unit_interval_raises(scale, escapes):
    # minors scaled by k scale the fidelity 4/9 by 1/k^2: 2/3 lifts it to 1
    # within rounding, which passes, and 0.6 to 1.23, which escapes
    compiled = _corrupted("global", "joint", lambda joint: joint.__imul__(scale))
    if not escapes:
        assert math.isclose(compiled.columns(np.array([1.0]))[2][0], 1.0, rel_tol=1e-15)
        return
    with pytest.raises(RuntimeError, match=r"^v_s = 1\.0, gain = .*: fidelity 1\.23.* escaped"):
        compiled.columns(np.array([1.0]))


def test_the_fidelity_bound_is_inclusive(monkeypatch):
    # the fidelity lifted to 1 within rounding, as above, and the bound
    # 1 + VALUE_TOL set exactly on it (f - 1 and 1 + (f - 1) are exact), then
    # one step below it
    compiled = _corrupted("global", "joint", lambda joint: joint.__imul__(2.0 / 3.0))
    fidelity = compiled.columns(np.array([1.0]))[2][0]
    monkeypatch.setattr(circuits, "VALUE_TOL", fidelity - 1.0)
    assert compiled.columns(np.array([1.0]))[2][0] == fidelity
    monkeypatch.setattr(circuits, "VALUE_TOL", np.nextafter(fidelity, 0.0) - 1.0)
    with pytest.raises(RuntimeError, match=r"^v_s = 1\.0, gain = .*: fidelity .* escaped"):
        compiled.columns(np.array([1.0]))

