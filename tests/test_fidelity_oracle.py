"""Independent validation of the Gaussian overlap formula.

Two oracles pin the normalization of pure_mixed_fidelity before anything
else relies on it: the coherent-state overlap |<alpha|beta>|^2 =
exp(-|alpha-beta|^2), and a brute-force number-basis computation of
<psi|rho|psi> for single-mode states truncated at 60 photons.  The frozen
values below were produced by the number-basis oracle in this file and are
stable against raising the cutoff to 80.
"""

import numpy as np
import pytest

from ecloner import GaussianState, displace, pure_mixed_fidelity, vacuum

CUTOFF = 60  # max photon number
DIM = CUTOFF + 1


def _annihilation(dim=DIM):
    return np.diag(np.sqrt(np.arange(1, dim)), 1)


def _expm(generator):
    """exp(G) of an anti-Hermitian G, from the eigenbasis of the Hermitian -iG."""
    eigenvalues, vectors = np.linalg.eigh(-1j * generator)
    return (vectors * np.exp(1j * eigenvalues)) @ vectors.conj().T


def _displacement(x0, p0, dim=DIM):
    a = _annihilation(dim)
    alpha = (x0 + 1j * p0) / 2.0
    return _expm(alpha * a.conj().T - np.conj(alpha) * a)


def _squeezer(r, dim=DIM):
    a = _annihilation(dim)
    return _expm(0.5 * r * (a @ a - a.conj().T @ a.conj().T))


def _rotation(theta, dim=DIM):
    a = _annihilation(dim)
    return _expm(-1j * theta * (a.conj().T @ a))


def _thermal(nu, dim=DIM):
    nbar = (nu - 1.0) / 2.0
    if nbar == 0:
        weights = np.zeros(dim)
        weights[0] = 1.0
    else:
        k = np.arange(dim)
        weights = (nbar / (nbar + 1.0)) ** k / (nbar + 1.0)
    return np.diag(weights)


def _fock_mixed(nu, r, theta, mean, dim=DIM):
    unitary = _displacement(*mean, dim) @ _rotation(theta, dim) @ _squeezer(r, dim)
    return unitary @ _thermal(nu, dim) @ unitary.conj().T


def _fock_pure(r, theta, mean, dim=DIM):
    ket = np.zeros(dim)
    ket[0] = 1.0
    return _displacement(*mean, dim) @ _rotation(theta, dim) @ _squeezer(r, dim) @ ket


def _moment_cov(nu, r, theta):
    rot = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
    return rot @ np.diag([nu * np.exp(-2.0 * r), nu * np.exp(2.0 * r)]) @ rot.T


def _fock_moments(rho, dim=DIM):
    a = _annihilation(dim)
    x = a + a.conj().T
    p = 1j * (a.conj().T - a)
    mx = np.trace(x @ rho).real
    mp = np.trace(p @ rho).real
    vxx = np.trace(x @ x @ rho).real - mx * mx
    vpp = np.trace(p @ p @ rho).real - mp * mp
    vxp = 0.5 * np.trace((x @ p + p @ x) @ rho).real - mx * mp
    return np.array([mx, mp]), np.array([[vxx, vxp], [vxp, vpp]])


# (reference r, theta, mean), (candidate nu, r, theta, mean), frozen <psi|rho|psi>
CASES = [
    ((0.3, 0.0, (0.4, -0.2)), (1.8, 0.5, 0.7, (-0.3, 0.5)), 0.4667227439904708),
    ((0.0, 0.0, (1.0, 0.6)), (1.0, -0.25, 0.2, (0.15, -0.35)), 0.6151807715126757),
    ((-0.4, 1.1, (0.25, -0.5)), (1.35, 0.15, -0.4, (0.1, 0.2)), 0.7696994942118214),
]


@pytest.mark.parametrize("ref_params, cand_params, frozen", CASES)
def test_number_basis_oracle_reproduces_frozen_values(ref_params, cand_params, frozen):
    ref_r, ref_theta, ref_mean = ref_params
    psi = _fock_pure(ref_r, ref_theta, ref_mean)
    rho = _fock_mixed(*cand_params)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    value = (psi.conj() @ rho @ psi).real
    assert value == pytest.approx(frozen, abs=1e-12)


@pytest.mark.parametrize("ref_params, cand_params, frozen", CASES)
def test_oracle_states_have_the_intended_moments(ref_params, cand_params, frozen):
    # Sanity check of the oracle itself: the number-basis density matrix must
    # carry the mean and covariance the formula path is fed.
    nu, r, theta, mean = cand_params
    got_mean, got_cov = _fock_moments(_fock_mixed(nu, r, theta, mean))
    assert np.allclose(got_mean, mean, atol=1e-9)
    assert np.allclose(got_cov, _moment_cov(nu, r, theta), atol=1e-8)


@pytest.mark.parametrize("ref_params, cand_params, frozen", CASES)
def test_formula_matches_number_basis_oracle(ref_params, cand_params, frozen):
    ref_r, ref_theta, ref_mean = ref_params
    nu, r, theta, mean = cand_params
    reference = GaussianState(np.array(ref_mean), _moment_cov(1.0, ref_r, ref_theta))
    candidate = GaussianState(np.array(mean), _moment_cov(nu, r, theta))
    result = pure_mixed_fidelity(reference, candidate)
    assert result.value == pytest.approx(frozen, abs=1e-10)


@pytest.mark.parametrize(
    "a, b",
    [((0.0, 0.0), (1.2, -0.7)), ((0.5, 0.5), (0.5, 0.5)), ((-2.0, 1.0), (0.3, 0.4))],
)
def test_formula_matches_coherent_overlap(a, b):
    state_a = displace(vacuum(1), a)
    state_b = displace(vacuum(1), b)
    alpha = (a[0] + 1j * a[1]) / 2.0
    beta = (b[0] + 1j * b[1]) / 2.0
    expected = np.exp(-abs(alpha - beta) ** 2)
    assert pure_mixed_fidelity(state_a, state_b).value == pytest.approx(expected, abs=1e-12)
