"""Overlap fidelity between a pure Gaussian reference and a mixed state.

For covariance matrices A (pure reference) and B (candidate) in the
vacuum-variance-1 convention, with mean difference d over n modes,

    F = 2^n * det(A + B)^(-1/2) * exp(-1/2 * d^T (A + B)^(-1) d)

reproduces <psi| rho |psi>.  The normalization is pinned by two independent
checks in the test suite: the coherent-state overlap exp(-|alpha - beta|^2)
and a brute-force number-basis overlap for single-mode states.  The formula
also runs on (..., 2n, 2n) stacks of covariance matrices, and, inside the
package, on the (..., 2, n, n) x and p blocks of covariances that never mix
x with p, where det(A + B) is the product of the blocks' determinants.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateInputError
from .gaussian import (
    _axes,
    _check_v_s,
    _covariance_stack,
    _integer_at_least,
    _is_pure,
    _pure_rounding,
    _quadratures,
    _require,
    _scalar_or_array,
)

VALUE_TOL = 1e-12


@dataclass(frozen=True)
class FidelityResult:
    """Fidelity value in [0, 1], up to rounding, plus det(A + B).

    For stacked input every field is an array of the stack's leading shape.
    """

    value: float
    joint_det: float


def pure_mixed_fidelity(reference, candidate, mode_map=None):
    """Overlap of a pure reference state with an arbitrary Gaussian state.

    Parameters
    ----------
    reference : GaussianState
        Must be pure (all symplectic eigenvalues 1).
    candidate : GaussianState
        Same number of modes as the reference.
    mode_map : sequence of int, optional
        ``mode_map[i]`` is the candidate mode compared against reference
        mode i; defaults to the identity pairing.

    Returns
    -------
    FidelityResult
    """
    n = reference.num_modes
    if candidate.num_modes != n:
        raise ValueError(
            f"mode counts differ: reference {n}, candidate {candidate.num_modes}"
        )
    if mode_map is None:
        mode_map = range(n)
    order = [_integer_at_least("mode_map entry", m, 0) for m in mode_map]
    if sorted(order) != list(range(n)):
        raise ValueError(f"mode_map must be a permutation of 0..{n - 1}, got {order}")
    q = _quadratures(order)
    with np.errstate(over="ignore"):  # means a float range apart: clamped, fidelity 0
        delta = np.nan_to_num(candidate.mean[q] - reference.mean)
    return fidelity_from_cov(reference.cov, candidate.cov[np.ix_(q, q)], delta)


def fidelity_from_cov(reference_cov, candidate_cov, delta=None):
    """Overlap fidelity from covariance matrices, stacked over leading axes.

    ``reference_cov`` (A) must be pure and ``candidate_cov`` (B) shares its
    size; either may be a (..., 2n, 2n) stack.  ``delta`` (..., 2n) is the
    candidate mean minus the reference mean, zero when None.  Every check of
    :func:`pure_mixed_fidelity` applies to each matrix of the stack.  A
    ValueError names an argument that holds a NaN or an infinite entry, and
    max|A + B| where det(A + B) leaves the float range.  A finite ``delta``
    whose exponent leaves the float range gives fidelity 0.

    Returns
    -------
    FidelityResult
        Floats for single matrices, arrays of the stack's leading shape
        otherwise.
    """
    a, b = _covariance_stack(reference_cov), _covariance_stack(candidate_cov)
    size = a.shape[-1]
    if b.shape[-1] != size:
        raise ValueError(f"covariance shapes differ: reference {a.shape}, candidate {b.shape}")
    if delta is not None:
        delta = np.asarray(delta, dtype=float)
        if delta.ndim < 1 or delta.shape[-1] != size:
            raise ValueError(f"delta must be (..., {size}), got shape {delta.shape}")
    try:
        np.broadcast_shapes(a.shape[:-2], b.shape[:-2], () if delta is None else delta.shape[:-1])
    except ValueError:
        shapes = f"reference {a.shape}, candidate {b.shape}, delta {getattr(delta, 'shape', None)}"
        raise ValueError(f"stacks do not broadcast: {shapes}") from None
    for name, value in (("reference_cov", a), ("candidate_cov", b), ("delta", delta)):
        if value is not None:
            _require(np.isfinite(value), name + " must be finite, got {value}", value)
    return _fidelity(a, b, delta, split=False)


def _fidelity(a, b, delta, split):
    """The fidelity and the checks of ``fidelity_from_cov`` on checked stacks:
    interleaved (..., 2n, 2n) covariances or, when ``split``, (..., 2, n, n)
    x and p blocks (``gaussian._axes``) with ``delta`` None."""
    _require(_is_pure(a, split), "reference state must be pure")
    joint = a + b
    with np.errstate(over="ignore", invalid="ignore"):
        det_joint = np.linalg.det(joint)
        if split:
            det_joint = det_joint[..., 0] * det_joint[..., 1]
    # an infinite determinant of finite matrices has overflowed; NaN is left
    # to the singular-matrix error
    if np.isinf(det_joint).any():
        message = "det(A + B) leaves the float range at max|A + B| = {value:.6g}"
        _require(~np.isinf(det_joint), message, np.max(np.abs(joint), axis=_axes(split)))
    regular = (det_joint > 0) & np.isfinite(det_joint)
    _require(regular, "A + B is singular (det {value})", det_joint, error=DegenerateInputError)
    exponent = 0.0
    if delta is not None:
        # delta / scale, with scale a power of 2 (exact), has entries below 2: only the
        # last factor can leave the float range, and a far delta's exponent is -inf
        scale = np.ldexp(1.0, np.frexp(np.max(np.abs(delta), axis=-1))[1] - 1)
        unit = delta / scale[..., None]
        solved = np.linalg.solve(joint, unit[..., None])[..., 0]
        with np.errstate(over="ignore"):
            exponent = -0.5 * np.sum(unit * solved, axis=-1) * scale * scale
    modes = a.shape[-1] if split else a.shape[-1] // 2
    value = 2.0**modes / np.sqrt(det_joint) * np.exp(exponent)
    # det(A + B) carries the rounding of the pure reference's spectrum
    inside = (value >= 0.0) & (value <= 1.0 + VALUE_TOL + _pure_rounding(a, split))
    _require(inside, "fidelity {value} escaped [0, 1]", value, error=RuntimeError)
    return FidelityResult(
        value=_scalar_or_array(value),
        joint_det=_scalar_or_array(det_joint),
    )


def local_fidelity(v_s):
    """Closed-form clone fidelity of the arm-by-arm machine: 4v/((v+2)(2v+1)).

    Increases from 0 (infinite squeezing) to 4/9 at v_s = 1, where the
    machine coincides with the global one.
    """
    v_s = float(_check_v_s(v_s))
    return 4.0 * v_s / ((v_s + 2.0) * (2.0 * v_s + 1.0))


def global_fidelity(v_s):
    """Clone fidelity of the whole-state machine: 4/9 for every v_s."""
    _check_v_s(v_s)
    return 4.0 / 9.0
