"""Correlation matrix of a mode pair and two-mode entanglement criteria.

Both criteria consume the second moments of the pair, never the state
itself, so analytically propagated and sampled moments run through
identical code.  Each criterion is a product of an x-quadrature factor and
a p-quadrature factor, so it is written once, on the pair's (..., 2, 2, 2)
x and p blocks (axis -3 the quadrature, the last two the modes x, y), a
view of interleaved moments: the public interleaved 4x4
``CorrelationMatrix``, or a (..., 4, 4) stack of them, and the oracle's
sampled pair moments.  A stack gives arrays of the leading shape, and a
single matrix runs through the same formulas.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateInputError
from .gaussian import (
    _covariance_stack,
    _integer_at_least,
    _quadrature_blocks,
    _quadratures,
    _require,
    _scalar_or_array,
)

_QUAD = {"+": 0, "-": 1}
_MODE = {"x": 0, "y": 1}


@dataclass(frozen=True)
class CorrelationMatrix:
    """Mean-subtracted symmetrized second moments of a mode pair.

    ``matrix`` is 4x4 in the ordering (x mode x-quad, x mode p-quad,
    y mode x-quad, y mode p-quad), or a (..., 4, 4) stack of such; entry
    lookup by quadrature labels {+, -} and mode labels {x, y} goes through
    :meth:`entry`.  Every check applies to every matrix of a stack.
    """

    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=float)
        _check_pair(matrix)
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    def entry(self, k, l, m, n):
        """C^{kl}_{mn} with k, l in {+, -} and m, n in {x, y}."""
        return self.matrix[..., 2 * _MODE[m] + _QUAD[k], 2 * _MODE[n] + _QUAD[l]]


def _check_pair(matrix):
    """The checks of a ``CorrelationMatrix`` on a (..., 4, 4) float stack, not copied."""
    if matrix.shape[-2:] != (4, 4):
        raise ValueError(f"correlation matrix must be 4x4, got {matrix.shape}")
    _require(np.isfinite(matrix), "correlation matrix has non-finite entries")
    symmetric = np.abs(matrix - np.swapaxes(matrix, -1, -2)) <= 1e-10
    _require(symmetric, "correlation matrix must be symmetric")
    variances = np.diagonal(matrix, axis1=-2, axis2=-1)
    _require(variances >= 0, "diagonal entries are variances and cannot be negative")


def correlation_matrix_from_cov(cov, pair):
    """Build the pair's correlation matrix from a full covariance matrix.

    ``cov`` may be a (..., 2n, 2n) stack, giving a stacked correlation matrix;
    any other shape raises ValueError.  The pair's block is taken as it is:
    an asymmetric one raises ValueError.
    """
    return CorrelationMatrix(_pair_moments(cov, pair))


def _pair_moments(cov, pair):
    """The (..., 4, 4) moments of a mode pair, gathered from (..., 2n, 2n)
    covariances; a ValueError names a bad shape or pair."""
    cov = _covariance_stack(cov)
    i, j = (_integer_at_least("mode index", m, 0) for m in pair)
    n = cov.shape[-1] // 2
    if i == j:
        raise ValueError(f"mode pair must be distinct, got ({i}, {j})")
    if not (i < n and j < n):
        raise ValueError(f"pair ({i}, {j}) out of range for {n} modes")
    q = _quadratures((i, j))
    return cov[..., q[:, None], q]


def correlation_matrix(state, pair):
    """Correlation matrix of two modes of a Gaussian state.

    The covariance matrix already holds the symmetrized second moments with
    mean products subtracted, so the entries are direct reads; the result is
    invariant under displacements by construction.
    """
    return correlation_matrix_from_cov(state.cov, pair)


def _inseparability(blocks):
    """``inseparability`` of a pair's (..., 2, 2, 2) x and p blocks; a NaN
    combination, which only overflow makes of finite blocks, is left to the
    caller's range check."""
    c = blocks[..., 0, 0] + blocks[..., 1, 1] - 2.0 * np.abs(blocks[..., 0, 1])
    for k in ("+", "-"):
        value = c[..., _QUAD[k]]
        # Impossible for a positive-semidefinite second-moment matrix.
        message = f"negative correlation combination {{value}} for quadrature {k}"
        _require(~(value < 0), message, value, error=RuntimeError)
    return 0.5 * np.sqrt(c[..., 0] * c[..., 1])


def _epr_paradox(blocks):
    """``epr_paradox`` of a pair's (..., 2, 2, 2) x and p blocks."""
    v_cond = blocks[..., 1, 1]
    for k in ("+", "-"):
        message = f"conditioning variance C^{k}{k}_yy is not positive"
        _require(v_cond[..., _QUAD[k]] > 0, message, error=DegenerateInputError)
    conditional = blocks[..., 0, 0] - np.abs(blocks[..., 0, 1]) ** 2 / v_cond
    return conditional[..., 0] * conditional[..., 1]


def _in_range(criterion, name, cm):
    """``criterion`` of ``cm``'s blocks, as a float or an array; a ValueError
    names max|C| of the first matrix where it leaves the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = criterion(_quadrature_blocks(cm.matrix))
    largest = np.max(np.abs(cm.matrix), axis=(-2, -1))
    message = f"{name} leaves the float range at max|C| = {{value:.6g}}"
    _require(np.isfinite(value), message, largest)
    return _scalar_or_array(value)


def inseparability(cm):
    """Product-form inseparability test; values below 1 certify entanglement.

    Returns (1/2) * sqrt(C+ * C-) with
    C(+/-) = C_xx + C_yy - 2|C_xy| per quadrature.  A pure two-mode squeezed
    state built from squeezing variance v gives exactly v; a two-mode vacuum
    gives 1.  Where the value leaves the float range (from entries of about
    1e154), a ValueError names the largest entry.
    """
    return _in_range(_inseparability, "inseparability", cm)


def epr_paradox(cm):
    """Product of conditional variances; values below 1 certify EPR steering.

    Mode x is conditioned on mode y:

        eps = (C++_xx - |C++_xy|^2 / C++_yy) * (C--_xx - |C--_xy|^2 / C--_yy)

    A correlation matrix of the swapped pair conditions y on x; for the
    symmetric states produced here the two directions coincide.  Where the
    value leaves the float range (from entries of about 1e155), a
    ValueError names the largest entry.
    """
    return _in_range(_epr_paradox, "epr_paradox", cm)


def squeezing_db(v_s):
    """Squeezing strength in dB: -10*log10(v_s); 3 dB is v_s = 1/2."""
    if not 0 < v_s < math.inf:
        raise ValueError(f"squeezing variance must be positive and finite, got {v_s}")
    return -10.0 * math.log10(v_s) + 0.0  # +0.0 turns -0.0 into 0.0
