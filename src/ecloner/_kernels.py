"""Literal circuits of the sampling oracle and the affine maps they define.

The literal circuit of one shot has 18 Gaussian inputs, one column each of
a row; only this module knows their layout:

    col 0..3   squeezed inputs       (sqz1 x, sqz1 p, sqz2 x, sqz2 p)
    col 4..5   shared displacement   (S+, S-) applied to both arms
    col 6..11  cloner-1 ancillas     (N1 x, N1 p, N2 x, N2 p, N3 x, N3 p)
    col 12..17 cloner-2 ancillas     (same layout)

Both machines are written once, as the literal per-shot circuit in
``literal_circuit``: beamsplitters, squeezers, homodyne readout and
feedforward applied quadrature by quadrature.  That circuit is affine in
its inputs, so ``affine_map`` runs it once for a whole block of sampling
runs, on the stacked unit vectors of every run, to get each run's map: 18
unit normals ``u`` in the columns above give the shot's outputs
``u @ M + offset``.  The displacement is one offset per run, not per-shot
noise, so it meets zero rows of ``M``, and
``offset = displacement @ response`` is the exact mean of every shot.  The
sampler never draws these 18 columns: it takes the law N(offset, M^T M) of
the outputs from ``M`` and draws the batch moments of that law.
"""

import operator

import numpy as np

SQRT2 = np.sqrt(2.0)
NOISE_COLUMNS = 18


def _cloner(q, n1, n2, n3, sign, gain):
    """One quadrature of a linear cloner: 50/50 tap, homodyne readout of
    tap + sign * n2 (x reads tap - n2, p reads tap + n2), feedforward with
    ``gain`` onto the kept beam, and a 50/50 output split into (A, B)."""
    tap = (q - n1) / SQRT2
    keep = (q + n1) / SQRT2
    read = (tap + sign * n2) / SQRT2
    out = keep + gain * read
    return (out + n3) / SQRT2, (out - n3) / SQRT2


def literal_circuit(machine, noise, s, gx, gp):
    """The outputs of ``machine`` for rows of the 18 input columns.

    ``s`` = sqrt(v_s), a scalar or one value per row, is read by the global
    machine only.  Mode order is (1A, 2A, 1B, 2B) for the local machine and
    (1A, 1B, 2A, 2B) for the global one.  The quadratures never mix, so the
    circuit runs once for x and once for p.
    """
    if machine not in ("local", "global"):
        raise ValueError(f"unknown machine {machine!r}")
    c = noise.T
    quadratures = []
    # (column offset, readout sign, gain, squeezer on branch 1, on branch 2):
    # the global machine un-squeezes x on branch 1 and p on branch 2
    for q, sign, gain, down, up in (
        (0, -1.0, gx, operator.truediv, operator.mul),
        (1, 1.0, gp, operator.mul, operator.truediv),
    ):
        e1 = (c[q] + c[q + 2]) / SQRT2 + c[q + 4]
        e2 = (c[q] - c[q + 2]) / SQRT2 + c[q + 4]
        if machine == "global":
            # disentangle, then un-squeeze both branches into coherent amplitudes
            e1, e2 = down((e1 + e2) / SQRT2, s), up((e1 - e2) / SQRT2, s)
        a1, b1 = _cloner(e1, c[q + 6], c[q + 8], c[q + 10], sign, gain)
        a2, b2 = _cloner(e2, c[q + 12], c[q + 14], c[q + 16], sign, gain)
        if machine == "global":
            # re-squeeze by the same amounts, then recombine the clones pairwise:
            # the slots of (1A, 2A, 1B, 2B) now hold (1A, 1B, 2A, 2B)
            a1, b1, a2, b2 = up(a1, s), up(b1, s), down(a2, s), down(b2, s)
            a1, a2 = (a1 + a2) / SQRT2, (a1 - a2) / SQRT2
            b1, b2 = (b1 + b2) / SQRT2, (b1 - b2) / SQRT2
        quadratures.append((a1, a2, b1, b2))
    return np.stack([value for pair in zip(*quadratures) for value in pair], axis=1)


def affine_map(machine, v_s, gx, gp):
    """The runs' maps ``(M, response)``: unit normals ``u`` give outputs
    ``u @ M + displacement @ response``.

    One call of the literal circuit, on the 18 unit vectors with rows 0-3
    scaled by the inputs' standard deviations sqrt(v_s, 1/v_s, 1/v_s, v_s),
    gives both: its rows 4-5, the response to the displacement columns, map
    ``displacement = (S+, S-)`` to the offset (2x8) and are zero in ``M``
    (18x8).  A stack of v_s is one call on the stacked (..., 18) rows and
    gives (..., 18, 8) and (..., 2, 8) stacks: every row runs through the
    circuit elementwise, so each map has the bits of its own call.
    """
    v_s = np.asarray(v_s, dtype=float)
    unit = np.broadcast_to(np.eye(NOISE_COLUMNS), v_s.shape + (NOISE_COLUMNS,) * 2).copy()
    scale = np.sqrt(np.stack([v_s, 1.0 / v_s, 1.0 / v_s, v_s], axis=-1))
    unit[..., :4, :] *= scale[..., None]
    s = np.repeat(np.sqrt(v_s).ravel(), NOISE_COLUMNS)
    transfer = literal_circuit(machine, unit.reshape(-1, NOISE_COLUMNS), s, gx, gp)
    transfer = transfer.reshape(v_s.shape + (NOISE_COLUMNS, 8))
    response = transfer[..., 4:6, :].copy()
    transfer[..., 4:6, :] = 0.0
    return transfer, response
