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
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .circuits import UNITY_GAIN, _gain_pair
from .criteria import correlation_matrix_from_cov, epr_paradox, inseparability

RNG_ALGORITHM = "numpy.random.default_rng (PCG64)"
NUM_BATCHES = 20
MIN_SHOTS = 100

CLONE_PAIRS = {"local": ((0, 3), (2, 1)), "global": ((0, 1), (2, 3))}


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
    shots = int(shots)
    if shots < MIN_SHOTS:
        raise ValueError(f"need at least {MIN_SHOTS} shots, got {shots}")
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}") from None
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    gx, gp = _gain_pair(gain)

    rng = np.random.default_rng(seed)
    # The state's displacement is a single unknown offset, not per-shot noise.
    s_plus, s_minus = rng.standard_normal(2) * np.sqrt(displacement_variance)
    noise = rng.standard_normal((shots, _kernels.NOISE_COLUMNS))
    noise[:, 0:4] *= np.sqrt([v_s, 1.0 / v_s, 1.0 / v_s, v_s])
    noise[:, 4] = s_plus
    noise[:, 5] = s_minus

    outputs = _kernels.propagate(machine, noise, v_s, gx, gp)

    estimated_mean = outputs.mean(axis=0)
    centered = outputs - estimated_mean
    cov = centered.T @ centered / (shots - 1)
    cov = 0.5 * (cov + cov.T)
    # Standard error of each covariance entry from the spread of the
    # per-shot products z_i * z_j.
    prod_mean = centered.T @ centered / shots
    sq = centered**2
    prod_sq_mean = sq.T @ sq / shots
    prod_var = np.maximum(prod_sq_mean - prod_mean**2, 0.0)
    standard_errors = np.sqrt(prod_var / shots)
    mean_standard_errors = np.sqrt(np.diag(cov) / shots)

    bounds = np.linspace(0, shots, NUM_BATCHES + 1).astype(int)
    batch_means = np.empty((NUM_BATCHES, 8))
    batch_covs = np.empty((NUM_BATCHES, 8, 8))
    for b in range(NUM_BATCHES):
        chunk = outputs[bounds[b] : bounds[b + 1]]
        batch_means[b] = chunk.mean(axis=0)
        dev = chunk - batch_means[b]
        bcov = dev.T @ dev / (len(chunk) - 1)
        batch_covs[b] = 0.5 * (bcov + bcov.T)

    clone1, clone2 = CLONE_PAIRS[machine]
    return SampleRun(
        machine=machine,
        v_s=v_s,
        displacement_variance=displacement_variance,
        shots=shots,
        seed=seed,
        rng_algorithm=RNG_ALGORITHM,
        estimated_mean=estimated_mean,
        estimated_cov=cov,
        standard_errors=standard_errors,
        mean_standard_errors=mean_standard_errors,
        batch_means=batch_means,
        batch_covs=batch_covs,
        clone1=clone1,
        clone2=clone2,
    )


def estimate_criteria(run, clone=1, min_batches=20):
    """Evaluate both entanglement criteria on one clone pair of a run.

    Point estimates come from the full-run correlation matrix; error bars
    are batch-means standard errors over the stored batches (at least
    ``min_batches`` required).
    """
    if len(run.batch_covs) < min_batches:
        raise ValueError(
            f"need at least {min_batches} batches for error bars, run has {len(run.batch_covs)}"
        )
    if clone not in (1, 2):
        raise ValueError(f"clone index must be 1 or 2, got {clone}")
    pair = run.clone1 if clone == 1 else run.clone2

    cm = correlation_matrix_from_cov(run.estimated_cov, pair)
    i_hat = inseparability(cm)
    eps_hat = epr_paradox(cm)

    n_batches = len(run.batch_covs)
    i_batch = np.empty(n_batches)
    eps_batch = np.empty(n_batches)
    for b in range(n_batches):
        bcm = correlation_matrix_from_cov(run.batch_covs[b], pair)
        i_batch[b] = inseparability(bcm)
        eps_batch[b] = epr_paradox(bcm)
    i_err = i_batch.std(ddof=1) / np.sqrt(n_batches)
    eps_err = eps_batch.std(ddof=1) / np.sqrt(n_batches)

    return CriteriaEstimate(
        inseparability=float(i_hat),
        inseparability_err=float(i_err),
        epr_paradox=float(eps_hat),
        epr_paradox_err=float(eps_err),
        pair=pair,
        batches=n_batches,
    )
