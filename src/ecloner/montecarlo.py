"""Stochastic validation of the cloning circuits.

Every shot is one trajectory of the literal circuit: independent Gaussian
quadrature noises of the two squeezed inputs and all cloner ancillas pass
through it, the homodyne readouts are read off as classical numbers and fed
forward onto the kept beam.  The unknown displacement of the input state is
one pair (S+, S-) drawn per run and added to both arms of every shot.
Moment estimates of the four output modes can then be compared entrywise
against the analytic covariance engine, which models the same feedforward
as a deterministic affine map.

A run's affine map ``(M, offset)`` comes from the literal circuit
(``_kernels.affine_map``): unit normals ``u``, one per input of the
circuit, give the shot's outputs ``y = u @ M + offset``, the Gaussian law
N(offset, M^T M).  With the reduced QR ``M = Q R``, ``u @ Q`` is itself 8
unit normals, so a shot draws only 8 normals ``e`` and takes
``y = e @ R + offset``: the same law, even where ``M`` is rank-deficient.
The random stream is the 2 displacement normals, then 8 normals per shot
in shot order, drawn in chunks (``_chunk_plan``) from the run's one
generator.  Each of the ``NUM_BATCHES`` batches keeps only the Gram sums
of the row ``(1, z)`` with ``z = e @ R``, from which the run's moments
follow exactly (the shifted-sum updates of Chan, Golub & LeVeque, 1979),
with no second pass and no array that grows with the shot count.  ``z``
never sees the displacement, so the covariance estimates are exactly
independent of it.  The law of every shot is Gaussian by construction, so
the standard errors of the covariance estimates are the Gaussian
(Isserlis / Wishart) ones, taken from the run's own estimate.

A block of runs of one machine (``_block_moments``) shares one stacked
evaluation of the maps, QR factors, moments and checks, and draws its runs
one after another: a run has the same bits alone (``sample_circuit``) or
in any block (``sample_criteria``, which maps blocks over a thread pool).
"""

import math
import operator
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .circuits import CLONE_PAIRS, UNITY_GAIN, _gain_pair
from .criteria import correlation_matrix_from_cov, epr_paradox, inseparability
from .gaussian import _check_v_s

RNG_ALGORITHM = "numpy.random.default_rng (PCG64)"
NUM_BATCHES = 20
MIN_SHOTS = 100
# A chunk's e @ R product (4096 * 8 * 8 = 262144 multiply-adds) stays at
# OpenBLAS's single-thread limit (4 * 65536), so runs sampled on concurrent
# threads do not contend for one BLAS thread pool.
CHUNK_SHOTS = 1 << 12
# Runs whose moments and criteria are one stacked evaluation: a block's
# Gram stack is BLOCK_RUNS * (NUM_BATCHES + 1) * 9 * 9 floats (109 KB).
BLOCK_RUNS = 8


def _check_moments(v_s, shots, mean, cov, standard_errors, mean_standard_errors):
    """Reject a run's estimates that no sampled run gives, naming its v_s.

    Every argument but ``shots`` has a leading run axis; the first failing
    run raises.
    """

    def require(ok, message):
        ok = np.reshape(ok, (len(v_s), -1)).all(axis=1)
        if not ok.all():
            raise ValueError(f"run at v_s = {float(v_s[np.argmin(ok)])!r}: {message}")

    asym = np.abs(cov - np.swapaxes(cov, -1, -2))
    require(asym <= 1e-12, "estimated covariance must be symmetric")
    require(np.isfinite(mean), "estimated mean must be finite")
    if shots >= 2:
        for name, value in (
            ("standard_errors", standard_errors),
            ("mean_standard_errors", mean_standard_errors),
        ):
            message = f"{name} must be finite and positive for shots >= 2"
            require(np.isfinite(value) & (value > 0), message)


@dataclass(frozen=True)
class SampleRun:
    """Moment estimates from one sampling run over a 4-mode clone layout.

    ``estimated_cov`` and ``standard_errors`` are 8x8 (quadrature ordering
    x1, p1, ..., x4, p4).  ``standard_errors`` is the Gaussian-law standard
    error of each covariance entry, sqrt((C_ii C_jj + C_ij^2) / shots) with
    C = ``estimated_cov``: the sampled law is Gaussian by construction.
    ``batch_means``/``batch_covs`` hold per-batch moments for batch-means
    error bars downstream.  ``rng_algorithm`` names the generator so runs
    can be reproduced exactly.
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
        checked = (self.estimated_mean, self.estimated_cov)
        checked += (self.standard_errors, self.mean_standard_errors)
        _check_moments([self.v_s], self.shots, *(value[None] for value in checked))


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


def _check_inputs(machines, v_s, displacement_variance, shots, seeds):
    """The validated ``(v_s, displacement_variance, shots, seeds)``; ValueError names a bad one."""
    for machine in machines:
        if machine not in CLONE_PAIRS:
            raise ValueError(f"unknown machine {machine!r}")
    v_s = np.ravel(_check_v_s(v_s))
    displacement_variance = float(displacement_variance)
    if not (math.isfinite(displacement_variance) and displacement_variance >= 0):
        raise ValueError(
            f"displacement_variance must be finite and non-negative, got {displacement_variance}"
        )
    shots = _integer_at_least("shots", shots, MIN_SHOTS)
    seeds = [_integer_at_least("seed", seed, 0) for seed in seeds]
    return v_s, displacement_variance, shots, seeds


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
    v_s, displacement_variance, shots, seeds = _check_inputs(
        [machine], v_s, displacement_variance, shots, [seed]
    )
    moments = _block_moments(machine, v_s, displacement_variance, shots, seeds, gain)
    clone1, clone2 = CLONE_PAIRS[machine]
    return SampleRun(
        machine=machine,
        v_s=float(v_s[0]),
        displacement_variance=displacement_variance,
        shots=shots,
        seed=seeds[0],
        rng_algorithm=RNG_ALGORITHM,
        clone1=clone1,
        clone2=clone2,
        **{name: value[0] for name, value in moments.items()},
    )


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def sample_criteria(runs, shots, gain=UNITY_GAIN):
    """Both criteria of many runs, one per ``(machine, v_s, seed)`` of ``runs``.

    Returns a (4, len(runs)) array: the fields ``inseparability``,
    ``inseparability_err``, ``epr_paradox`` and ``epr_paradox_err`` of
    ``estimate_criteria(sample_circuit(machine, v_s, displacement_variance,
    shots, seed, gain))`` for each run, with the same bits at any
    displacement variance, which the covariance estimates never see.  The
    blocks (``_block_plan``) go to a thread pool with one worker per usable
    CPU.  The first failing run, in the order of ``runs``, raises.
    """
    machines = [run[0] for run in runs]
    v_s, _, shots, seeds = _check_inputs(
        machines, [run[1] for run in runs], 0.0, shots, [run[2] for run in runs]
    )
    workers = _usable_cpus()
    blocks = _block_plan(machines, workers)
    failed = threading.Event()

    def criteria(block):
        # Blocks start in order, so one that starts after a failure lies
        # behind the failing block, whose error is raised first.
        if failed.is_set():
            return None
        machine = machines[block.start]
        try:
            moments = _block_moments(machine, v_s[block], 0.0, shots, seeds[block], gain)
            pair = CLONE_PAIRS[machine][0]
            return _criteria_block(moments["estimated_cov"], moments["batch_covs"], pair)
        except BaseException:
            failed.set()
            raise

    from concurrent.futures import ThreadPoolExecutor  # imported by an oracle pass only

    values = np.empty((4, len(runs)))
    pool = ThreadPoolExecutor(max(1, min(workers, len(blocks))))
    try:
        for block, value in zip(blocks, pool.map(criteria, blocks)):
            values[:, block] = value
    finally:
        pool.shutdown(cancel_futures=True)  # blocks not yet started are dropped
    return values


def _block_plan(machines, workers):
    """Consecutive runs of one machine as slices of at most ``BLOCK_RUNS``
    runs, and of ``ceil(runs / workers)``, so every worker gets a block."""
    size = min(BLOCK_RUNS, -(-len(machines) // workers))
    blocks, start = [], 0
    for k in range(1, len(machines) + 1):
        if k == len(machines) or machines[k] != machines[start] or k - start == size:
            blocks.append(slice(start, k))
            start = k
    return blocks


def _chunk_plan(shots):
    """A run's chunks as ``(first batch, batches, rows each)`` triples.

    Adjacent whole batches of one size share a chunk while it stays within
    ``CHUNK_SHOTS`` rows; a batch of more rows is split into pieces of
    ``CHUNK_SHOTS`` rows, one chunk each.  A chunk's Gram sums are one
    stacked product.
    """
    sizes = np.diff(np.linspace(0, shots, NUM_BATCHES + 1).astype(int)).tolist()
    chunks = []
    for b, size in enumerate(sizes):
        if size > CHUNK_SHOTS:
            for start in range(0, size, CHUNK_SHOTS):
                chunks.append((b, 1, min(CHUNK_SHOTS, size - start)))
        elif chunks and chunks[-1][2] == size and (chunks[-1][1] + 1) * size <= CHUNK_SHOTS:
            chunks[-1] = (chunks[-1][0], chunks[-1][1] + 1, size)
        else:
            chunks.append((b, 1, size))
    return chunks


def _draw_run(chunks, seed, factor, gram):
    """Draw one run: add its per-batch Gram sums to ``gram``, return its 2 displacement normals.

    Per shot the row w = (1, z) with z = e @ factor; ``gram[b]`` sums
    w^T w over batch b.
    """
    rng = np.random.default_rng(seed)
    # The state's displacement is a single unknown offset, not per-shot noise.
    displacement = rng.standard_normal(2)
    rows = max(count * size for _, count, size in chunks)
    noise = np.empty((rows, 8))
    work = np.empty((rows, 9))
    work[:, 0] = 1.0
    for first, count, size in chunks:
        chunk, w = noise[: count * size], work[: count * size]
        rng.standard_normal(out=chunk)
        np.matmul(chunk, factor, out=w[:, 1:])
        stack = w.reshape(count, size, 9)
        gram[first : first + count] += np.swapaxes(stack, 1, 2) @ stack
    return displacement


def _block_moments(machine, v_s, displacement_variance, shots, seeds, gain):
    """The ``SampleRun`` arrays of runs at ``v_s[k]`` with ``seeds[k]``, stacked on axis 0."""
    gx, gp = _gain_pair(gain)
    transfer, response = _kernels.affine_map(machine, v_s, gx, gp)
    # transfer = Q @ factor with orthonormal Q, and u @ Q ~ N(0, I_8) for
    # u ~ N(0, I_18): 8 unit normals e give outputs e @ factor + offset
    # with the exact law of the 18-column circuit.
    factors = np.linalg.qr(transfer, mode="r")
    # Along axis 1, row 0 is the whole run, rows 1..NUM_BATCHES its batches.
    sums = np.zeros((len(seeds), 1 + NUM_BATCHES, 9, 9))
    chunks = _chunk_plan(shots)
    drawn = [_draw_run(chunks, *run) for run in zip(seeds, factors, sums[:, 1:])]
    displacement = np.array(drawn) * np.sqrt(displacement_variance)
    offset = (displacement[:, None] @ response)[:, 0]
    np.sum(sums[:, 1:], axis=1, out=sums[:, 0])

    counts = sums[..., 0, 0]
    mean_z = sums[..., 0, 1:] / counts[..., None]
    means = offset[:, None] + mean_z
    # sum_k c_i c_j with c = y - mean = z - mean_z
    scatters = sums[..., 1:, 1:] - counts[..., None, None] * (
        mean_z[..., :, None] * mean_z[..., None, :]
    )
    covs = scatters / (counts - 1.0)[..., None, None]
    covs = 0.5 * (covs + np.swapaxes(covs, -1, -2))
    cov = covs[:, 0]
    variances = np.diagonal(cov, axis1=1, axis2=2)
    # Gaussian law (Isserlis): Var(C_ij) = (C_ii C_jj + C_ij^2) / shots
    standard_errors = np.sqrt((variances[:, :, None] * variances[:, None, :] + cov**2) / shots)
    mean_standard_errors = np.sqrt(variances / shots)
    _check_moments(v_s, shots, means[:, 0], cov, standard_errors, mean_standard_errors)
    return {
        "estimated_mean": means[:, 0],
        "estimated_cov": cov,
        "standard_errors": standard_errors,
        "mean_standard_errors": mean_standard_errors,
        "batch_means": means[:, 1:],
        "batch_covs": covs[:, 1:],
    }


def _criteria_block(cov, batch_covs, pair):
    """Both criteria and their batch-means errors over a stack of runs, as (4, runs)."""
    n_batches = batch_covs.shape[1]
    # Along axis 1, element 0 is the whole run, elements 1..n_batches its batches.
    cm = correlation_matrix_from_cov(np.concatenate([cov[:, None], batch_covs], axis=1), pair)
    values = []
    for per_matrix in (inseparability(cm), epr_paradox(cm)):
        values += [per_matrix[:, 0], per_matrix[:, 1:].std(axis=1, ddof=1) / np.sqrt(n_batches)]
    return np.array(values)


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
    values = _criteria_block(run.estimated_cov[None], run.batch_covs[None], pair)[:, 0]
    i, i_err, eps, eps_err = (float(value) for value in values)
    return CriteriaEstimate(
        inseparability=i,
        inseparability_err=i_err,
        epr_paradox=eps,
        epr_paradox_err=eps_err,
        pair=pair,
        batches=n_batches,
    )
