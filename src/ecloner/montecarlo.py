"""Stochastic validation of the cloning circuits.

Every shot draws independent Gaussian quadrature noises for the two
squeezed inputs and all cloner ancillas and pushes them through the literal
circuit: the homodyne readouts are read off as classical numbers and fed
forward onto the kept beam.  The unknown displacement of the input state is
one pair (S+, S-) drawn per run, added to both arms of every shot, so it
shifts the estimated means while leaving covariance estimates untouched.
Moment estimates of the four output modes can then be compared entrywise
against the analytic covariance engine, which models the same feedforward
as a deterministic affine map.

A run makes one pass over its shots in chunks of at most ``CHUNK_SHOTS``
rows, drawn into one reused buffer from the run's single generator, so the
random stream is the one a single ``(shots, 18)`` draw would give.  Chunks
never straddle one of the ``NUM_BATCHES`` batches.  Each output row ``y``
is shifted by the first chunk's mean, ``z = y - shift``, and each batch keeps
only the Gram sums of the row ``(1, z, z*z)``: count, first, second and
fourth moments.  The run's mean, covariance and per-entry standard errors
follow exactly from the merged sums (the shifted-sum updates of Chan, Golub
& LeVeque, 1979), with no second pass and no array that grows with the shot
count: the traced peak of a call stays near 6 MB from a few hundred
thousand shots up.  The whole run is row 0 of one stack whose other rows
are its batches, so each moment formula, and each criterion in
``estimate_criteria``, is evaluated once for the run and its batches.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .circuits import CLONE_PAIRS, UNITY_GAIN, _gain_pair
from .criteria import correlation_matrix_from_cov, epr_paradox, inseparability

RNG_ALGORITHM = "numpy.random.default_rng (PCG64)"
NUM_BATCHES = 20
MIN_SHOTS = 100
CHUNK_SHOTS = 1 << 14


@dataclass(frozen=True)
class SampleRun:
    """Moment estimates from one sampling run over a 4-mode clone layout.

    ``estimated_cov`` and ``standard_errors`` are 8x8 (quadrature ordering
    x1, p1, ..., x4, p4); ``batch_means``/``batch_covs`` hold per-batch
    moments for batch-means error bars downstream.  ``rng_algorithm`` names
    the generator so runs can be reproduced exactly.
    """

    machine: str
    v_s: float
    displacement_variance: float
    shots: int
    seed: int
    rng_algorithm: str
    estimated_mean: np.ndarray
    estimated_cov: np.ndarray
    standard_errors: np.ndarray
    mean_standard_errors: np.ndarray
    batch_means: np.ndarray
    batch_covs: np.ndarray
    clone1: tuple
    clone2: tuple

    def __post_init__(self):
        asym = np.max(np.abs(self.estimated_cov - self.estimated_cov.T))
        if not asym <= 1e-12:
            raise ValueError("estimated covariance must be symmetric")
        if self.shots >= 2 and np.any(self.standard_errors <= 0):
            raise ValueError("standard errors must be positive for shots >= 2")


@dataclass(frozen=True)
class CriteriaEstimate:
    """Sampled entanglement criteria for one clone pair, with error bars."""

    inseparability: float
    inseparability_err: float
    epr_paradox: float
    epr_paradox_err: float
    pair: tuple
    batches: int


def _integer_at_least(name, value, low):
    """``value`` as an exact integer no smaller than ``low``, else a ValueError naming it."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}") from None
    if value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value}")
    return value


def sample_circuit(machine, v_s, displacement_variance, shots, seed, gain=UNITY_GAIN):
    """Sample the full machine circuit and estimate output moments.

    Parameters
    ----------
    machine : {"local", "global"}
    v_s : float
        Squeezing variance of the entangled source, in (0, 1].
    displacement_variance : float
        Finite, non-negative variance of the input state's unknown
        displacement pair (S+, S-), drawn once per run and shared by both
        arms (0 disables).
    shots : int
        Number of trajectories, at least 100.
    seed : int
        Non-negative integer seed for the generator named in
        ``RNG_ALGORITHM``.
    gain : float or (float, float)
        Feedforward gain of the internal cloners (defaults to unity gain).

    Returns
    -------
    SampleRun
        Mode ordering matches the analytic machines: (1A, 2A, 1B, 2B) for
        the local machine, (1A, 1B, 2A, 2B) for the global one.
    """
    if machine not in CLONE_PAIRS:
        raise ValueError(f"unknown machine {machine!r}")
    v_s = float(v_s)
    if not 0.0 < v_s <= 1.0:
        raise ValueError(f"squeezing variance must lie in (0, 1], got {v_s}")
    displacement_variance = float(displacement_variance)
    if not (math.isfinite(displacement_variance) and displacement_variance >= 0):
        raise ValueError(
            f"displacement_variance must be finite and non-negative, got {displacement_variance}"
        )
    shots = _integer_at_least("shots", shots, MIN_SHOTS)
    seed = _integer_at_least("seed", seed, 0)
    gx, gp = _gain_pair(gain)

    rng = np.random.default_rng(seed)
    # The state's displacement is a single unknown offset, not per-shot noise.
    s_plus, s_minus = rng.standard_normal(2) * np.sqrt(displacement_variance)
    scale = np.sqrt([v_s, 1.0 / v_s, 1.0 / v_s, v_s])
    transfer = _kernels.transfer(machine, v_s, gx, gp)

    bounds = np.linspace(0, shots, NUM_BATCHES + 1).astype(int)
    # A chunk never exceeds a batch, so small runs need smaller buffers.
    rows = min(CHUNK_SHOTS, int(np.max(np.diff(bounds))))
    noise = np.empty((rows, _kernels.NOISE_COLUMNS))
    # Per shot the row w = (1, z, z*z); gram[b] sums w^T w over batch b.
    work = np.empty((rows, 17))
    work[:, 0] = 1.0
    gram = np.zeros((NUM_BATCHES, 17, 17))
    shift = None
    for b in range(NUM_BATCHES):
        for start in range(bounds[b], bounds[b + 1], rows):
            n = min(rows, bounds[b + 1] - start)
            chunk = noise[:n]
            rng.standard_normal(out=chunk)
            chunk[:, 0:4] *= scale
            chunk[:, 4] = s_plus
            chunk[:, 5] = s_minus
            outputs = _kernels.propagate(chunk, transfer)
            if shift is None:
                shift = outputs.mean(axis=0)
            w = work[:n]
            np.subtract(outputs, shift, out=w[:, 1:9])
            del outputs  # the next chunk's product must not coexist with it
            np.square(w[:, 1:9], out=w[:, 9:])
            gram[b] += w.T @ w

    total = gram.sum(axis=0)
    # Row 0 is the whole run, rows 1..NUM_BATCHES its batches.
    sums = np.concatenate([total[None], gram])
    counts = sums[:, 0, 0]
    offsets = sums[:, 0, 1:9] / counts[:, None]
    means = shift + offsets
    # sum_k c_i c_j with c = y - mean = z - offset
    scatters = sums[:, 1:9, 1:9] - counts[:, None, None] * (
        offsets[:, :, None] * offsets[:, None, :]
    )
    covs = scatters / (counts - 1.0)[:, None, None]
    covs = 0.5 * (covs + covs.transpose(0, 2, 1))
    d, scatter, cov = offsets[0], scatters[0], covs[0]
    # Standard error of each covariance entry from the spread of the
    # per-shot products c_i * c_j; sum_k c_i^2 c_j^2 expanded about the shift.
    z2 = total[0, 9:]
    z2z = total[9:, 1:9] * d
    d2 = d * d
    quartic = (
        total[9:, 9:]
        - 2.0 * (z2z + z2z.T)
        + 4.0 * np.outer(d, d) * total[1:9, 1:9]
        + np.outer(z2, d2)
        + np.outer(d2, z2)
        - 3.0 * shots * np.outer(d2, d2)
    )
    prod_var = np.maximum(quartic / shots - (scatter / shots) ** 2, 0.0)
    standard_errors = np.sqrt(prod_var / shots)
    mean_standard_errors = np.sqrt(np.diag(cov) / shots)

    clone1, clone2 = CLONE_PAIRS[machine]
    return SampleRun(
        machine=machine,
        v_s=v_s,
        displacement_variance=displacement_variance,
        shots=shots,
        seed=seed,
        rng_algorithm=RNG_ALGORITHM,
        estimated_mean=means[0],
        estimated_cov=cov,
        standard_errors=standard_errors,
        mean_standard_errors=mean_standard_errors,
        batch_means=means[1:],
        batch_covs=covs[1:],
        clone1=clone1,
        clone2=clone2,
    )


def estimate_criteria(run, clone=1):
    """Evaluate both entanglement criteria on one clone pair of a run.

    Point estimates come from the full-run correlation matrix; error bars
    are batch-means standard errors over the ``NUM_BATCHES`` stored batches.
    The run and its batches are one stacked evaluation, and every guard of
    the criteria applies to each of their matrices.
    """
    n_batches = len(run.batch_covs)
    if n_batches < NUM_BATCHES:
        raise ValueError(
            f"need at least {NUM_BATCHES} batches for error bars, run has {n_batches}"
        )
    if clone not in (1, 2):
        raise ValueError(f"clone index must be 1 or 2, got {clone}")
    pair = run.clone1 if clone == 1 else run.clone2

    # Element 0 is the whole run, elements 1..n_batches its batches.
    covs = np.concatenate([run.estimated_cov[None], run.batch_covs])
    cm = correlation_matrix_from_cov(covs, pair)
    i_all = inseparability(cm)
    eps_all = epr_paradox(cm)

    return CriteriaEstimate(
        inseparability=float(i_all[0]),
        inseparability_err=float(i_all[1:].std(ddof=1) / np.sqrt(n_batches)),
        epr_paradox=float(eps_all[0]),
        epr_paradox_err=float(eps_all[1:].std(ddof=1) / np.sqrt(n_batches)),
        pair=pair,
        batches=n_batches,
    )
