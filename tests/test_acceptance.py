"""Acceptance suite: every headline result at its stated tolerance.

Each criterion prints one PASS/FAIL line; run with ``pytest -v -s`` to see
them inline.  Tolerances are pinned here and nowhere looser.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
from conftest import apply_all, random_ops

from ecloner import (
    GaussianState,
    clone_state,
    correlation_matrix,
    discard_modes,
    displace,
    epr_paradox,
    epr_source,
    estimate_criteria,
    global_ecloner,
    inseparability,
    linear_cloner,
    local_ecloner,
    local_fidelity,
    pure_mixed_fidelity,
    sample_circuit,
    squeezing_db,
    symplectic_eigenvalues,
    symplectic_form,
    vacuum,
)
from ecloner.circuits import UNITY_GAIN
from ecloner.cli import _bisect_crossing

GRID = np.geomspace(0.01, 1.0, 100)
EPS_ROOT = 2.0 - math.sqrt(3.0)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def _local_criteria(v_s):
    clones = local_ecloner(epr_source(v_s))
    cm = correlation_matrix(clones.state, clones.clone1)
    return inseparability(cm), epr_paradox(cm)


def _global_criteria(v_s):
    clones = global_ecloner(epr_source(v_s), v_s)
    cm = correlation_matrix(clones.state, clones.clone1)
    return inseparability(cm), epr_paradox(cm)


def test_criterion_1_local_inseparability():
    with criterion(1, "local machine inseparability equals v_s + 1 (1e-10, 100-point grid, <1s)"):
        start = time.perf_counter()
        for v_s in GRID:
            i_value, _ = _local_criteria(v_s)
            assert abs(i_value - (v_s + 1.0)) < 1e-10
        assert time.perf_counter() - start < 1.0


def test_criterion_2_global_inseparability_and_crossing():
    with criterion(2, "global inseparability equals 2 v_s (1e-10); crossing at 0.5 (3.01 dB)"):
        for v_s in GRID:
            i_value, _ = _global_criteria(v_s)
            assert abs(i_value - 2.0 * v_s) < 1e-10
        root = _bisect_crossing(0.001, 1.0, UNITY_GAIN)[0]
        assert abs(root - 0.5) <= 1e-9
        assert abs(squeezing_db(root) - 3.01) < 5e-3


def test_criterion_3_epr_paradox_values_and_crossing():
    with criterion(
        3, "paradox: local fixed at 4, global 16/(v+1/v)^2 (1e-10); crossing at 2-sqrt(3) (5.72 dB)"
    ):
        for v_s in GRID:
            _, eps_local = _local_criteria(v_s)
            assert abs(eps_local - 4.0) < 1e-10
            _, eps_global = _global_criteria(v_s)
            assert abs(eps_global - 16.0 / (v_s + 1.0 / v_s) ** 2) < 1e-10
        root = _bisect_crossing(0.001, 1.0, UNITY_GAIN)[1]
        assert abs(root - EPS_ROOT) <= 1e-9
        # the dB value matches the quoted 5.7 dB; the quoted v_s = 0.67 does not
        assert abs(squeezing_db(root) - 5.72) < 5e-3
        assert abs(squeezing_db(0.67) - 5.7) > 3.0


def test_criterion_4_fidelities():
    with criterion(
        4, "fidelities: circuit matches 4v/((v+2)(2v+1)) and 4/9 (1e-10); coherent clone 2/3 (1e-12)"
    ):
        for v_s in GRID:
            epr = epr_source(v_s)
            f_local = pure_mixed_fidelity(epr, clone_state(local_ecloner(epr))).value
            assert abs(f_local - 4.0 * v_s / ((v_s + 2.0) * (2.0 * v_s + 1.0))) < 1e-10
            f_global = pure_mixed_fidelity(epr, clone_state(global_ecloner(epr, v_s))).value
            assert abs(f_global - 4.0 / 9.0) < 1e-10
        assert abs(local_fidelity(1.0) - 4.0 / 9.0) < 1e-12
        coherent = vacuum(1)
        single = discard_modes(linear_cloner(coherent, 0), [1])
        assert abs(pure_mixed_fidelity(coherent, single).value - 2.0 / 3.0) < 1e-12


def test_criterion_5_machines_coincide_at_coherent_input():
    with criterion(5, "local and global outputs carry identical covariance at v_s = 1 (1e-10)"):
        local = local_ecloner(epr_source(1.0))
        glob = global_ecloner(epr_source(1.0), 1.0)
        assert np.max(np.abs(local.state.cov - glob.state.cov)) < 1e-10
        assert np.max(np.abs(local.state.mean - glob.state.mean)) < 1e-10


def test_criterion_6_oracle_equivalence():
    with criterion(
        6, "sampled covariance within 5 standard errors of analytic, 1e6 shots, both machines (<60s)"
    ):
        start = time.perf_counter()
        seed = 20240
        for v_s in (0.1, 0.25, 0.5, 0.75, 1.0):
            analytic = {
                "local": local_ecloner(epr_source(v_s)).state.cov,
                "global": global_ecloner(epr_source(v_s), v_s).state.cov,
            }
            for machine in ("local", "global"):
                seed += 1
                run = sample_circuit(machine, v_s, 0.0, 1_000_000, seed=seed)
                deviation = np.abs(run.estimated_cov - analytic[machine])
                assert np.all(deviation <= 5.0 * run.standard_errors)
                est = estimate_criteria(run)
                assert est.inseparability_err > 0 and est.epr_paradox_err > 0
        assert time.perf_counter() - start < 60.0


def test_criterion_7_property_suites():
    with criterion(
        7,
        "symplecticity 1e-12, uncertainty 1e-9, exact displacement invariance, "
        "fidelity in [0,1] + unitary invariance on 1000 cases (<30s)",
    ):
        start = time.perf_counter()
        rng = np.random.default_rng(2718)

        omega = symplectic_form(2)
        for _ in range(1000):
            for op in random_ops(rng, 2, depth=1):
                mat = op.expand(2)
                assert np.max(np.abs(mat.T @ omega @ mat - omega)) < 1e-12

        for _ in range(50):
            state = apply_all(random_ops(rng, 3, depth=8), vacuum(3))
            assert symplectic_eigenvalues(state.cov).min() >= 1.0 - 1e-9

        base = epr_source(0.4)
        cm = correlation_matrix(base, (0, 1))
        for _ in range(20):
            shifted = displace(base, rng.normal(scale=4.0, size=4))
            cm_shifted = correlation_matrix(shifted, (0, 1))
            assert np.array_equal(cm.matrix, cm_shifted.matrix)
            assert inseparability(cm) == inseparability(cm_shifted)
            assert epr_paradox(cm) == epr_paradox(cm_shifted)

        for _ in range(1000):
            reference = apply_all(random_ops(rng, 2, depth=3), vacuum(2))
            reference = displace(reference, rng.normal(scale=1.5, size=4))
            v1, v2 = rng.uniform(1.0, 2.5, size=2)
            thermal = GaussianState(np.zeros(4), np.diag([v1, v1, v2, v2]))
            candidate = apply_all(random_ops(rng, 2, depth=3), thermal)
            candidate = displace(candidate, rng.normal(scale=1.5, size=4))
            value = pure_mixed_fidelity(reference, candidate).value
            assert 0.0 <= value <= 1.0 + 1e-12
            ops = random_ops(rng, 2, depth=2)
            shift = rng.normal(scale=1.0, size=4)
            moved = pure_mixed_fidelity(
                displace(apply_all(ops, reference), shift),
                displace(apply_all(ops, candidate), shift),
            ).value
            assert abs(moved - value) < 1e-10

        assert time.perf_counter() - start < 30.0


def _input_referred_added_noise(gain):
    """Total clone noise referred to the cloner input.

    Clone variance minus the amplified signal, divided by the squared signal
    gain, summed over both clones and both quadratures of a coherent input.
    """
    cloned = linear_cloner(vacuum(1), 0, gain=gain)
    probe = linear_cloner(displace(vacuum(1), (1.0, 1.0)), 0, gain=gain)
    total = 0.0
    for idx in range(4):
        h = probe.mean[idx]
        total += (cloned.cov[idx, idx] - h * h) / (h * h)
    return total


def test_criterion_8_gain_optimality():
    with criterion(8, "input-referred added clone noise is minimized at g = sqrt(2) on [1, 2]"):
        gains = np.linspace(1.0, 2.0, 101)
        noises = np.array([_input_referred_added_noise(g) for g in gains])
        best = gains[np.argmin(noises)]
        assert abs(best - math.sqrt(2.0)) <= (gains[1] - gains[0])
        at_unity = _input_referred_added_noise(math.sqrt(2.0))
        assert abs(at_unity - 4.0) < 1e-12  # one unit per clone per quadrature
        assert np.all(noises >= at_unity - 1e-12)
