"""Correlation matrix of a mode pair and two-mode entanglement criteria.

Both criteria consume the 4x4 second-moment matrix of the pair, never the
state itself, so analytically propagated and sampled matrices run through
identical code.  A correlation matrix may also hold a (..., 4, 4) stack;
the criteria then return arrays of the leading shape, and a single matrix
runs through the same formulas.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateInputError
from .gaussian import _covariance_stack, _integer_at_least, _quadratures, _require, _scalar_or_array

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
        if matrix.shape[-2:] != (4, 4):
            raise ValueError(f"correlation matrix must be 4x4, got {matrix.shape}")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("correlation matrix has non-finite entries")
        if not np.all(np.abs(matrix - np.swapaxes(matrix, -1, -2)) <= 1e-10):
            raise ValueError("correlation matrix must be symmetric")
        if not np.all(np.diagonal(matrix, axis1=-2, axis2=-1) >= 0):
            raise ValueError("diagonal entries are variances and cannot be negative")
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    def entry(self, k, l, m, n):
        """C^{kl}_{mn} with k, l in {+, -} and m, n in {x, y}."""
        return self.matrix[..., 2 * _MODE[m] + _QUAD[k], 2 * _MODE[n] + _QUAD[l]]


def correlation_matrix_from_cov(cov, pair):
    """Build the pair's correlation matrix from a full covariance matrix.

    ``cov`` may be a (..., 2n, 2n) stack, giving a stacked correlation matrix;
    any other shape raises ValueError.  The pair's block is taken as it is:
    an asymmetric one raises ValueError.
    """
    cov = _covariance_stack(cov)
    i, j = (_integer_at_least("mode index", m, 0) for m in pair)
    n = cov.shape[-1] // 2
    if i == j:
        raise ValueError(f"mode pair must be distinct, got ({i}, {j})")
    if not (i < n and j < n):
        raise ValueError(f"pair ({i}, {j}) out of range for {n} modes")
    q = _quadratures((i, j))
    return CorrelationMatrix(cov[..., q[:, None], q])


def correlation_matrix(state, pair):
    """Correlation matrix of two modes of a Gaussian state.

    The covariance matrix already holds the symmetrized second moments with
    mean products subtracted, so the entries are direct reads; the result is
    invariant under displacements by construction.
    """
    return correlation_matrix_from_cov(state.cov, pair)


def inseparability(cm):
    """Product-form inseparability test; values below 1 certify entanglement.

    Returns (1/2) * sqrt(C+ * C-) with
    C(+/-) = C_xx + C_yy - 2|C_xy| per quadrature.  A pure two-mode squeezed
    state built from squeezing variance v gives exactly v; a two-mode vacuum
    gives 1.
    """
    c = []
    for k in ("+", "-"):
        value = (
            cm.entry(k, k, "x", "x")
            + cm.entry(k, k, "y", "y")
            - 2.0 * np.abs(cm.entry(k, k, "x", "y"))
        )
        # Impossible for a positive-semidefinite second-moment matrix.
        message = f"negative correlation combination {{value}} for quadrature {k}"
        _require(value >= 0, message, value, error=RuntimeError)
        c.append(value)
    return _scalar_or_array(0.5 * np.sqrt(c[0] * c[1]))


def epr_paradox(cm):
    """Product of conditional variances; values below 1 certify EPR steering.

    Mode x is conditioned on mode y:

        eps = (C++_xx - |C++_xy|^2 / C++_yy) * (C--_xx - |C--_xy|^2 / C--_yy)

    A correlation matrix of the swapped pair conditions y on x; for the
    symmetric states produced here the two directions coincide.
    """
    eps = 1.0
    for k in ("+", "-"):
        v_cond = cm.entry(k, k, "y", "y")
        message = f"conditioning variance C^{k}{k}_yy is not positive"
        _require(v_cond > 0, message, error=DegenerateInputError)
        cross = cm.entry(k, k, "x", "y")
        eps = eps * (cm.entry(k, k, "x", "x") - np.abs(cross) ** 2 / v_cond)
    return _scalar_or_array(eps)


def squeezing_db(v_s):
    """Squeezing strength in dB: -10*log10(v_s); 3 dB is v_s = 1/2."""
    if not 0 < v_s < math.inf:
        raise ValueError(f"squeezing variance must be positive and finite, got {v_s}")
    return -10.0 * math.log10(v_s) + 0.0  # +0.0 turns -0.0 into 0.0
