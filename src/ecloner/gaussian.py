"""First- and second-moment representation of n-mode Gaussian states.

Quadratures are ordered (x1, p1, ..., xn, pn) and normalized so that the
vacuum has unit variance in both quadratures ([x, p] = 2i).  A state is a
mean vector plus a covariance matrix; lossless linear optics (beamsplitters,
squeezers, phase rotations) act as symplectic matrices S via

    mean -> S @ mean,    cov -> S @ cov @ S.T

Everything here is an immutable value; all operations are pure functions.
Covariance validation and the symplectic spectrum also accept stacks of
shape (..., 2n, 2n), so a whole parameter grid is checked in one call.
Inside the package both also take covariances that never mix x with p as
their (..., 2, n, n) x and p blocks (``_axes``); ``_quadrature_blocks`` and
``_interleave`` convert between the two layouts.  Either way the spectrum is
one real SVD.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .exceptions import UncertaintyViolation

# Tolerances: algebraic identities get double-precision headroom, spectral
# checks (eigenvalue-based) a little more slack for matrix chains.
SYMMETRY_TOL = 1e-12
SYMPLECTIC_TOL = 1e-12
SPECTRAL_TOL = 1e-9
# Rounding leaves a physical state's smallest symplectic eigenvalue short of
# 1 by up to about 1.2e3 eps times its largest entry (both machines, 120
# evenly spaced gains in [0.05, 40], 4000 v_s in [1e-3, 1]; 1.23e3 eps for
# the 2n-dim spectrum and the split one alike, 1.43e3 eps on 120 log-spaced
# gains); the uncertainty bound allows this much more per unit of max|cov|,
# about 7-8x that deficit.
SPECTRAL_REL_TOL = 1e4 * np.finfo(float).eps
# A pure state's covariance has condition number about max|cov|^2, and
# rounding moves its symplectic eigenvalues off 1 by up to 3.0 eps times
# that, and its fidelity with itself by up to 4.0 eps times that (the
# sources of both machines, 4000 v_s in [1e-7, 1] and [1e-4, 1]).  Purity
# and the fidelity's upper bound allow 16 eps * max|cov|^2 more.
PURE_REL_TOL = 16 * np.finfo(float).eps
# That allowance reaches 1 at this max|cov| (2**24): float64 cannot resolve
# purity from here on.
PURE_MAX_ENTRY = PURE_REL_TOL**-0.5


def symplectic_form(num_modes):
    """The commutation matrix: block diagonal with 2x2 blocks [[0, 1], [-1, 0]]."""
    omega = np.zeros((2 * num_modes, 2 * num_modes))
    for k in range(num_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


def _axes(split):
    """The axes of one covariance in a stack of interleaved (..., 2n, 2n)
    covariances or, when ``split``, of their (..., 2, n, n) x and p blocks."""
    return (-3, -2, -1) if split else (-2, -1)


def _spectrum(cov, split=False):
    """The symplectic spectrum, ascending, of each covariance of a stack in the
    layout ``split`` (``_axes``): (..., n) values, NaN for an item without a
    Cholesky factor or with a non-finite one.

    With the Cholesky factor L of an interleaved covariance, the values are
    the singular values of the real antisymmetric L^T Omega L, each of which
    appears twice.  Covariances that never mix x with p are given as their x
    and p blocks, with factors L_x and L_p; the spectrum is then the square
    root of that of cov_x cov_p, which is sigma(L_p^T L_x).  Either way one
    real SVD gives it.
    """
    try:
        chol = np.linalg.cholesky(cov)
        if split:
            lx, lp = chol[..., 0, :, :], chol[..., 1, :, :]
            return np.linalg.svd(np.swapaxes(lp, -1, -2) @ lx, compute_uv=False)[..., ::-1]
        form = np.swapaxes(chol, -1, -2) @ symplectic_form(cov.shape[-1] // 2) @ chol
        return np.linalg.svd(form, compute_uv=False)[..., ::-2]
    except np.linalg.LinAlgError:  # no Cholesky factor, or a NaN one: its SVD fails
        core = len(_axes(split))
        n = cov.shape[-1] if split else cov.shape[-1] // 2
        if cov.ndim == core:
            return np.full(n, np.nan)
        flat = cov.reshape((-1,) + cov.shape[-core:])
        values = np.array([_spectrum(item, split) for item in flat])
        return values.reshape(cov.shape[:-core] + (n,))


def symplectic_eigenvalues(cov):
    """Symplectic spectrum of a covariance matrix, sorted ascending.

    The values are the moduli of the eigenvalues of i*Omega@cov, which come
    in degenerate pairs; one representative per mode is returned.  A matrix
    describes a physical state iff every value is >= 1; it is pure iff every
    value equals 1.  A stack of shape (..., 2n, 2n) gives (..., n).

    For positive-definite input with Cholesky factor L, Omega@cov is similar
    to the real antisymmetric L^T Omega L, whose eigenvalues are +-i times
    the spectrum.  An antisymmetric matrix is normal, so its singular values
    are those moduli, each twice; a real SVD computes them backward-stably
    even for strong squeezing, where the non-normal i*Omega@cov eigenproblem
    loses many digits.  Every physical covariance is positive definite; any
    other matrix gives NaN values.
    """
    return _spectrum(_covariance_stack(cov))


def _quadrature_blocks(cov):
    """The (..., 2, n, n) x and p blocks of (..., 2n, 2n) covariances in
    (x1, p1, ...) order, as a view; axis -3 is the quadrature."""
    n = cov.shape[-1] // 2
    modes = cov.reshape(cov.shape[:-2] + (n, 2, n, 2))
    return np.moveaxis(np.diagonal(modes, axis1=-3, axis2=-1), -1, -3)


def _interleave(blocks):
    """The (..., 2n, 2m) matrix, in (x1, p1, ...) order, of (..., 2, n, m) x
    and p blocks; the inverse of ``_quadrature_blocks``."""
    *lead, _, n, m = blocks.shape
    out = np.zeros((*lead, n, 2, m, 2))
    for q in (0, 1):
        out[..., :, q, :, q] = blocks[..., q, :, :]
    return out.reshape(*lead, 2 * n, 2 * m)


def _quadratures(modes):
    """Row indices (x, p) of the listed modes, in order."""
    return np.array([q for m in modes for q in (2 * m, 2 * m + 1)], dtype=int)


def _check_v_s(v_s):
    """``v_s`` as a float array; a ValueError names its first entry outside (0, 1] (NaN too)."""
    v = np.asarray(v_s, dtype=float)
    _require((v > 0.0) & (v <= 1.0), "squeezing variance must lie in (0, 1], got {value}", v)
    return v


def _require(ok, message, values=None, where=None, error=ValueError):
    """Raise ``error`` at the first item, in flat order, where ``ok`` is False.

    ``message`` may hold ``{value}``, filled from ``values`` at that item, and
    ``where(i)`` names the item by its flat index i, ahead of the message.
    """
    ok = np.asarray(ok)
    if ok.all():
        return
    i = int(np.flatnonzero(~ok.ravel())[0])
    if values is not None:
        message = message.format(value=np.ravel(values)[i])
    raise error(message if where is None else f"{where(i)}: {message}")


def _integer_at_least(name, value, low):
    """``value`` as an exact integer no smaller than ``low``, else a ValueError naming it."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}") from None
    if value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value}")
    return value


def _covariance_stack(cov):
    """``cov`` as a float array of shape (..., 2n, 2n), else a ValueError naming its shape."""
    cov = np.asarray(cov, dtype=float)
    if cov.ndim < 2 or cov.shape[-1] != cov.shape[-2] or cov.shape[-1] % 2:
        raise ValueError(f"covariance must be (..., 2n, 2n), got shape {cov.shape}")
    return cov


def _scalar_or_array(value):
    """A float for a single matrix's result, the array itself for a stack's."""
    return float(value) if np.ndim(value) == 0 else value


def _pure_rounding(cov, split=False):
    """Per covariance of a stack in the layout ``split`` (``_axes``): the
    rounding allowed a pure state's spectrum.

    A ValueError names the first ``max|cov|`` of at least ``PURE_MAX_ENTRY``.
    """
    largest = np.max(np.abs(cov), axis=_axes(split))
    _require(
        ~(largest >= PURE_MAX_ENTRY),  # NaN is left to the callers' checks
        f"purity is not resolvable in float64 at max|cov| = {{value:.6g}} "
        f"(limit {PURE_MAX_ENTRY:.6g})",
        largest,
    )
    return PURE_REL_TOL * largest**2


def _is_pure(cov, split=False):
    """Per covariance of a stack in the layout ``split`` (``_axes``): every
    symplectic eigenvalue equals 1 within ``SPECTRAL_TOL`` plus
    ``PURE_REL_TOL * max|cov|**2``."""
    allowed = SPECTRAL_TOL + _pure_rounding(cov, split)
    deviation = np.abs(_spectrum(cov, split) - 1.0)
    return np.all(deviation <= allowed[..., None], axis=-1)


def _check_covariance(cov, where=None, split=False):
    """Validate a covariance matrix or a stack of them in the layout ``split``
    (``_axes``): (..., 2n, 2n) interleaved or (..., 2, n, n) x and p blocks.

    Every entry must be finite, every matrix symmetric within SYMMETRY_TOL
    and positive definite, and its symplectic eigenvalues >= 1 within
    SPECTRAL_TOL plus SPECTRAL_REL_TOL times its largest entry.  ``where`` maps
    the flat stack index of the first offending matrix to a phrase naming it
    in the error, for example the grid value the matrix was built from.
    """
    axes = _axes(split)
    finite = np.isfinite(cov).all(axis=axes)
    _require(finite, "covariance matrix has non-finite entries", where=where)
    asym = np.abs(cov - np.swapaxes(cov, -1, -2)).max(axis=axes)
    message = "covariance matrix is not symmetric (max asymmetry {value:.3e})"
    _require(asym <= SYMMETRY_TOL, message, asym, where)
    nu_min = _spectrum(cov, split).min(axis=-1)
    message = "covariance matrix is not positive definite"
    _require(~np.isnan(nu_min), message, where=where, error=UncertaintyViolation)
    tol = SPECTRAL_TOL + SPECTRAL_REL_TOL * np.abs(cov).max(axis=axes)
    message = "covariance violates the uncertainty bound: min symplectic eigenvalue {value}"
    _require(nu_min >= 1.0 - tol, message, nu_min, where, UncertaintyViolation)


@dataclass(frozen=True)
class GaussianState:
    """An n-mode Gaussian state: mean vector (2n,) and covariance (2n, 2n).

    Construction rejects non-finite entries and validates symmetry and
    positive definiteness of the covariance and the uncertainty bound (all
    symplectic eigenvalues >= 1 within SPECTRAL_TOL).  The arrays are copied
    and frozen, so states are safe to share between threads.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float)
        cov = np.array(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size == 0 or mean.size % 2 != 0:
            raise ValueError(f"mean must be a flat vector of even length, got shape {mean.shape}")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"cov shape {cov.shape} does not match mean length {mean.size}")
        _require(np.isfinite(mean), "mean must be finite, got {value}", mean)
        _check_covariance(cov)
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def num_modes(self):
        return self.mean.size // 2

    def symplectic_eigenvalues(self):
        return symplectic_eigenvalues(self.cov)

    def is_pure(self):
        """True when every symplectic eigenvalue equals 1 within SPECTRAL_TOL,
        plus the rounding of a pure covariance (``PURE_REL_TOL * max|cov|**2``).

        Raises ValueError from ``max|cov| >= PURE_MAX_ENTRY`` (about 1.68e7),
        where that rounding reaches 1.
        """
        return bool(_is_pure(self.cov))


@dataclass(frozen=True)
class SymplecticOp:
    """A linear phase-space map acting on an ordered subset of modes.

    ``matrix`` is 2m x 2m in the local (x1, p1, ..., xm, pm) ordering of the
    targeted modes; ``mode_indices`` lists which modes of a larger state the
    rows/columns refer to.  Symplecticity S.T @ Omega @ S = Omega is enforced
    at construction.
    """

    matrix: np.ndarray
    mode_indices: tuple

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=float)
        modes = np.atleast_1d(self.mode_indices).tolist()
        modes = tuple(_integer_at_least("mode index", m, 0) for m in modes)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.shape[0] % 2 != 0:
            raise ValueError(f"matrix must be square with even size, got {matrix.shape}")
        if len(modes) != matrix.shape[0] // 2:
            raise ValueError("mode_indices length does not match matrix size")
        if len(set(modes)) != len(modes):
            raise ValueError(f"mode indices must be distinct, got {modes}")
        _require(np.isfinite(matrix), "matrix must be finite, got {value}", matrix)
        omega = symplectic_form(len(modes))
        defect = np.max(np.abs(matrix.T @ omega @ matrix - omega))
        if not defect <= SYMPLECTIC_TOL:
            raise ValueError(f"matrix is not symplectic (defect {defect:.3e})")
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "mode_indices", modes)

    def expand(self, num_modes):
        """Embed into the full 2n x 2n space, identity on untouched modes."""
        if max(self.mode_indices) >= num_modes:
            raise ValueError(
                f"op targets mode {max(self.mode_indices)} but state has {num_modes} modes"
            )
        idx = _quadratures(self.mode_indices)
        full = np.eye(2 * num_modes)
        full[np.ix_(idx, idx)] = self.matrix
        return full


def vacuum(n):
    """The n-mode vacuum: zero mean, identity covariance (a pure state)."""
    n = _integer_at_least("number of modes", n, 1)
    return GaussianState(np.zeros(2 * n), np.eye(2 * n))


def squeezed_vacuum(v_plus, v_minus):
    """Single-mode state with cov diag(v_plus, v_minus) and zero mean.

    Pure when v_plus * v_minus == 1 (e.g. squeezed vacuum with v_plus < 1),
    mixed when the product exceeds 1.  A product below 1 is unphysical.
    """
    if not (0 < v_plus < math.inf and 0 < v_minus < math.inf):
        raise ValueError(f"variances must be positive and finite, got ({v_plus}, {v_minus})")
    if v_plus * v_minus < 1.0 - SPECTRAL_TOL:
        raise UncertaintyViolation(
            f"variance product {v_plus * v_minus} below the uncertainty bound 1"
        )
    return GaussianState(np.zeros(2), np.diag([float(v_plus), float(v_minus)]))


def beamsplitter(transmittance, modes):
    """Lossless beamsplitter of given intensity transmittance on a mode pair.

    Sign convention (identical for x and p):

        out1 = sqrt(t) * in1 + sqrt(1-t) * in2
        out2 = sqrt(1-t) * in1 - sqrt(t) * in2

    so the balanced case t = 1/2 sends the sum to output 1 and the
    difference to output 2, and the gate is its own inverse.
    """
    t = float(transmittance)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"transmittance must lie in [0, 1], got {t}")
    return SymplecticOp(_beamsplitter_matrix(t), tuple(modes))


def _beamsplitter_matrix(t):
    a, b = math.sqrt(t), math.sqrt(1.0 - t)
    return np.array([[a, 0, b, 0], [0, a, 0, b], [b, 0, -a, 0], [0, b, 0, -a]], dtype=float)


def squeeze_gate(s_plus, mode):
    """In-line squeezer diag(s_plus, 1/s_plus) on one mode's (x, p) block.

    Scales x by s_plus and p by 1/s_plus; squeeze_gate(1/s) undoes
    squeeze_gate(s).  A covariance picks up the factors s_plus**2 and
    1/s_plus**2, so both must be finite normal floats: s_plus lies within
    about [1.5e-154, 6.7e153].
    """
    s = float(s_plus)
    tiny = np.finfo(float).tiny
    if not (s > 0 and tiny <= s * s <= 1.0 / tiny):
        raise ValueError(
            "squeeze factor s_plus must be positive, with s_plus**2 and 1/s_plus**2 "
            f"finite normal floats, got {s!r}"
        )
    return SymplecticOp(np.diag([s, 1.0 / s]), (mode,))


def phase_rotation(theta, mode):
    """Phase-space rotation by theta on one mode; pi/2 swaps x and p."""
    theta = float(theta)
    _require(np.isfinite(theta), "theta must be finite, got {value}", theta)
    c, s = np.cos(theta), np.sin(theta)
    return SymplecticOp(np.array([[c, s], [-s, c]]), (mode,))


def _propagate(k, cov):
    """K [cov, 0; 0, 1] K^T, symmetrized: what a Heisenberg matrix K makes of ``cov``
    on its first columns and vacuum on the rest; stacks broadcast over leading axes."""
    t, ancillas = k[..., : cov.shape[-1]], k[..., cov.shape[-1] :]
    out = t @ cov @ np.swapaxes(t, -1, -2) + ancillas @ np.swapaxes(ancillas, -1, -2)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def _map_state(k, state, naming):
    """The validated state a Heisenberg matrix K makes of ``state``: mean K[:, :d] @ mean,
    covariance ``_propagate(K, cov)``.  Where these leave the float range, a
    ValueError carries the message ``naming()``, built only then."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean, cov = k[:, : state.mean.size] @ state.mean, _propagate(k, state.cov)
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise ValueError(naming())
    return GaussianState(mean, cov)


def apply(op, state):
    """Apply a symplectic op to a state, returning the transformed state.

    A gate whose factors are in range can still push the state's moments
    past the float range; that raises a ValueError naming both.
    """
    n = state.num_modes

    def naming():
        return (
            f"gate {op.matrix.tolist()} on modes {op.mode_indices} takes the {n}-mode state "
            f"with max |cov| {np.max(np.abs(state.cov)):.3g} and max |mean| "
            f"{np.max(np.abs(state.mean)):.3g} past the float range"
        )

    return _map_state(op.expand(n), state, naming)


def displace(state, delta):
    """Shift the mean by delta (length 2n); second moments are untouched."""
    delta = np.asarray(delta, dtype=float)
    if delta.shape != state.mean.shape:
        raise ValueError(f"displacement must have shape {state.mean.shape}, got {delta.shape}")
    _require(np.isfinite(delta), "displacement must be finite, got {value}", delta)
    # a mean past the float range is the state's error, not a warning
    with np.errstate(over="ignore"):
        mean = state.mean + delta
    return GaussianState(mean, state.cov)


def append_vacuum(state, k):
    """Tensor k fresh vacuum modes onto the end of the mode list."""
    k = _integer_at_least("number of modes to append", k, 0)
    if k == 0:
        return state
    n_old, n_new = 2 * state.num_modes, 2 * (state.num_modes + k)
    mean = np.zeros(n_new)
    mean[:n_old] = state.mean
    cov = np.eye(n_new)
    cov[:n_old, :n_old] = state.cov
    return GaussianState(mean, cov)


def discard_modes(state, indices):
    """Drop the listed modes (Gaussian partial trace over them)."""
    indices = [_integer_at_least("mode index", i, 0) for i in np.atleast_1d(indices).tolist()]
    n = state.num_modes
    if len(set(indices)) != len(indices):
        raise ValueError(f"duplicate mode indices: {indices}")
    if any(i >= n for i in indices):
        raise ValueError(f"mode indices {indices} out of range for {n} modes")
    if len(indices) == n:
        raise ValueError("cannot discard every mode")
    rows = _quadratures(indices)
    return GaussianState(
        np.delete(state.mean, rows),
        np.delete(np.delete(state.cov, rows, axis=0), rows, axis=1),
    )
