"""Shot-propagation kernel for the sampling oracle.

The literal circuit of one shot has 18 Gaussian inputs, one column each of
a row; only this module knows their layout:

    col 0..3   squeezed inputs       (sqz1 x, sqz1 p, sqz2 x, sqz2 p)
    col 4..5   shared displacement   (S+, S-) applied to both arms
    col 6..11  cloner-1 ancillas     (N1 x, N1 p, N2 x, N2 p, N3 x, N3 p)
    col 12..17 cloner-2 ancillas     (same layout)

Each machine is written once, as the literal per-shot circuit in
``propagate_local_numpy`` / ``propagate_global_numpy``: beamsplitters,
squeezers, homodyne readout and feedforward applied quadrature by
quadrature.  That circuit is affine in its inputs, so ``affine_map`` runs
it once for a whole block of sampling runs, on the stacked unit vectors of
every run, to get each run's map: 18 unit normals ``u`` in the columns
above give the shot's outputs ``u @ M + offset``.  The displacement is one
offset per run, not per-shot noise, so it meets zero rows of ``M``, and
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


def propagate_local_numpy(noise, gx, gp):
    c = noise.T
    e1x = (c[0] + c[2]) / SQRT2 + c[4]
    e1p = (c[1] + c[3]) / SQRT2 + c[5]
    e2x = (c[0] - c[2]) / SQRT2 + c[4]
    e2p = (c[1] - c[3]) / SQRT2 + c[5]
    x1a, p1a, x1b, p1b = _cloner(e1x, e1p, c[6], c[7], c[8], c[9], c[10], c[11], gx, gp)
    x2a, p2a, x2b, p2b = _cloner(e2x, e2p, c[12], c[13], c[14], c[15], c[16], c[17], gx, gp)
    # mode order (1A, 2A, 1B, 2B)
    return np.stack([x1a, p1a, x2a, p2a, x1b, p1b, x2b, p2b], axis=1)


def propagate_global_numpy(noise, s, gx, gp):
    c = noise.T
    e1x = (c[0] + c[2]) / SQRT2 + c[4]
    e1p = (c[1] + c[3]) / SQRT2 + c[5]
    e2x = (c[0] - c[2]) / SQRT2 + c[4]
    e2p = (c[1] - c[3]) / SQRT2 + c[5]
    # disentangle, then un-squeeze both branches into coherent amplitudes
    b1x = ((e1x + e2x) / SQRT2) / s
    b1p = ((e1p + e2p) / SQRT2) * s
    b2x = ((e1x - e2x) / SQRT2) * s
    b2p = ((e1p - e2p) / SQRT2) / s
    u1ax, u1ap, u1bx, u1bp = _cloner(b1x, b1p, c[6], c[7], c[8], c[9], c[10], c[11], gx, gp)
    u2ax, u2ap, u2bx, u2bp = _cloner(b2x, b2p, c[12], c[13], c[14], c[15], c[16], c[17], gx, gp)
    # re-squeeze by the same amount, recombine; mode order (1A, 1B, 2A, 2B)
    s1ax, s1ap = u1ax * s, u1ap / s
    s1bx, s1bp = u1bx * s, u1bp / s
    s2ax, s2ap = u2ax / s, u2ap * s
    s2bx, s2bp = u2bx / s, u2bp * s
    return np.stack(
        [
            (s1ax + s2ax) / SQRT2,
            (s1ap + s2ap) / SQRT2,
            (s1ax - s2ax) / SQRT2,
            (s1ap - s2ap) / SQRT2,
            (s1bx + s2bx) / SQRT2,
            (s1bp + s2bp) / SQRT2,
            (s1bx - s2bx) / SQRT2,
            (s1bp - s2bp) / SQRT2,
        ],
        axis=1,
    )


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
    rows = unit.reshape(-1, NOISE_COLUMNS)
    if machine == "local":
        transfer = propagate_local_numpy(rows, gx, gp)
    elif machine == "global":
        s = np.repeat(np.sqrt(v_s).ravel(), NOISE_COLUMNS)
        transfer = propagate_global_numpy(rows, s, gx, gp)
    else:
        raise ValueError(f"unknown machine {machine!r}")
    transfer = transfer.reshape(v_s.shape + (NOISE_COLUMNS, 8))
    response = transfer[..., 4:6, :].copy()
    transfer[..., 4:6, :] = 0.0
    return transfer, response
