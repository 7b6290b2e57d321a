"""Shot-propagation kernel for the sampling oracle.

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
the outputs from ``M`` and draws 8 normals per shot.
"""

import numpy as np

SQRT2 = np.sqrt(2.0)
NOISE_COLUMNS = 18


def _cloner(x, p, n1x, n1p, n2x, n2p, n3x, n3p, gx, gp):
    # 50/50 tap, dual-homodyne readout, feedforward, 50/50 output split.
    x_tap = (x - n1x) / SQRT2
    x_keep = (x + n1x) / SQRT2
    read_x = (x_tap - n2x) / SQRT2
    x5 = x_keep + gx * read_x
    xa = (x5 + n3x) / SQRT2
    xb = (x5 - n3x) / SQRT2
    p_tap = (p - n1p) / SQRT2
    p_keep = (p + n1p) / SQRT2
    read_p = (p_tap + n2p) / SQRT2
    p5 = p_keep + gp * read_p
    pa = (p5 + n3p) / SQRT2
    pb = (p5 - n3p) / SQRT2
    return xa, pa, xb, pb


def literal_circuit(machine, noise, s, gx, gp):
    """The outputs of ``machine`` for rows of the 18 input columns.

    ``s`` = sqrt(v_s), a scalar or one value per row, is read by the global
    machine only.  Mode order is (1A, 2A, 1B, 2B) for the local machine and
    (1A, 1B, 2A, 2B) for the global one.
    """
    if machine not in ("local", "global"):
        raise ValueError(f"unknown machine {machine!r}")
    c = noise.T
    e1x = (c[0] + c[2]) / SQRT2 + c[4]
    e1p = (c[1] + c[3]) / SQRT2 + c[5]
    e2x = (c[0] - c[2]) / SQRT2 + c[4]
    e2p = (c[1] - c[3]) / SQRT2 + c[5]
    if machine == "global":
        # disentangle, then un-squeeze both branches into coherent amplitudes
        e1x, e2x = (e1x + e2x) / SQRT2 / s, (e1x - e2x) / SQRT2 * s
        e1p, e2p = (e1p + e2p) / SQRT2 * s, (e1p - e2p) / SQRT2 / s
    x1a, p1a, x1b, p1b = _cloner(e1x, e1p, c[6], c[7], c[8], c[9], c[10], c[11], gx, gp)
    x2a, p2a, x2b, p2b = _cloner(e2x, e2p, c[12], c[13], c[14], c[15], c[16], c[17], gx, gp)
    if machine == "global":
        # re-squeeze by the same amounts, then recombine the clones pairwise:
        # the slots of (1A, 2A, 1B, 2B) now hold (1A, 1B, 2A, 2B)
        x1a, p1a, x1b, p1b = x1a * s, p1a / s, x1b * s, p1b / s
        x2a, p2a, x2b, p2b = x2a / s, p2a * s, x2b / s, p2b * s
        x1a, x2a = (x1a + x2a) / SQRT2, (x1a - x2a) / SQRT2
        p1a, p2a = (p1a + p2a) / SQRT2, (p1a - p2a) / SQRT2
        x1b, x2b = (x1b + x2b) / SQRT2, (x1b - x2b) / SQRT2
        p1b, p2b = (p1b + p2b) / SQRT2, (p1b - p2b) / SQRT2
    return np.stack([x1a, p1a, x2a, p2a, x1b, p1b, x2b, p2b], axis=1)


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
