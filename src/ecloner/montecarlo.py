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
unit normals ``e``, and ``y = e @ R + offset`` has the same law, even where
``M`` is rank-deficient.

The criteria read second moments only, so the oracle draws each of a run's
``NUM_BATCHES`` batches of n shots as its mean and scatter, never as shots.
For Gaussian ``e`` these are independent, the mean N(0, I/n) and the
scatter W = sum (e - mean)^T (e - mean) Wishart(I, n - 1), drawn as T^T T by
Bartlett's decomposition (Odell & Feiveson, JASA 61, 199, 1966): row i of
the upper-trapezoidal T, for i < min(n - 1, 8), holds sqrt(chi^2(n - 1 - i))
on the diagonal and unit normals right of it; its other rows are zero.
The run's moments of ``e`` follow exactly from its batches' (Chan, Golub &
LeVeque, 1979), and ``z = e @ R`` has the means ``mean @ R`` and the
covariances ``R^T C R`` of the means and covariances C of ``e``.  A run's
random stream is its 2 displacement normals, the 8 normals of each batch
mean in batch order, the chi^2 draws in (batch, row) order, then the
off-diagonal normals in (batch, row, column) order: 882 numbers at any
shot count from 180 up.  ``z`` never sees the
displacement, so the covariance estimates are exactly independent of it,
and their standard errors are the Gaussian (Isserlis / Wishart) ones, taken
from the run's own estimate.

A block of runs (``_block_moments``) shares one stacked evaluation of the
maps, QR factors and covariances; only a run's generator calls
(``_draw_run``) are its own, so a run has the same bits alone
(``sample_circuit``, the one caller that maps the means, adds the
displacement and takes standard errors) or in any block (``sample_criteria``).  A pass sets up
its shot layout, block buffers and one generator once (``_Blocks``), and
every block works in them in place.

A run's stream is still ``numpy.random.default_rng(seed)``'s, but numpy
does not build a generator per run: one call of a replica of numpy's
seeding (``_seeding``), which the tests check against numpy's own classes,
computes the PCG64 states of all of a pass's seeds, and each run sets its
state on the pass's generator.  ``spawn_seeds`` derives a pass's run seeds
from a master seed by the same replica.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .circuits import CLONE_PAIRS, UNITY_GAIN, _gain_pair, _naming_v_s
from .criteria import _check_pair, _epr_paradox, _inseparability, _pair_moments
from .gaussian import SYMMETRY_TOL, _check_v_s, _integer_at_least, _quadrature_blocks, _require

RNG_ALGORITHM = "numpy.random.default_rng (PCG64)"
NUM_BATCHES = 20
MIN_SHOTS = 100
# Runs whose draws, moments and criteria are one stacked evaluation.  A
# pass holds two (BLOCK_RUNS, NUM_BATCHES + 1, 8, 8) float stacks, 344 KB
# each at 32: the largest size tried (8 to 32) that keeps the CLI's peak
# RSS within 1% of 8-run blocks with per-block arrays (BENCH_20.json).
BLOCK_RUNS = 32


def _check_moments(run):
    """Reject a ``SampleRun``'s estimates that no sampled run gives, naming its v_s."""
    cov = run.estimated_cov
    checks = [
        (np.abs(cov - cov.T) <= SYMMETRY_TOL, "estimated covariance must be symmetric"),
        (np.isfinite(run.estimated_mean), "estimated mean must be finite"),
    ]
    if run.shots >= 2:
        for name in ("standard_errors", "mean_standard_errors"):
            value = getattr(run, name)
            message = f"{name} must be finite and positive for shots >= 2"
            checks.append((np.isfinite(value) & (value > 0), message))
    for ok, message in checks:
        _require(ok.all(), message, where=_naming_runs([run.v_s]))


def _naming_runs(v_s, gain=None):
    """The ``where`` of ``_require`` on a stack of runs at ``v_s``: "run at
    v_s = ...", then the gain unless it is None."""
    at = _naming_v_s(v_s, gain)
    return lambda i: f"run at {at(i)}"


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
        _check_moments(self)


@dataclass(frozen=True)
class CriteriaEstimate:
    """Sampled entanglement criteria for one clone pair, with error bars."""

    inseparability: float
    inseparability_err: float
    epr_paradox: float
    epr_paradox_err: float
    pair: tuple
    batches: int


def _check_runs(runs, shots):
    """The validated ``(machines, v_s, shots, seeds)`` of ``(machine, v_s, seed)``
    ``runs``, ``v_s`` an array; a ValueError names the first bad run or input."""
    machines, v_s, seeds = [], [], []
    for run in runs:
        try:
            machine, one_v_s, seed = run
        except (TypeError, ValueError):
            raise ValueError(f"a run must be a (machine, v_s, seed) triple, got {run!r}") from None
        if not isinstance(machine, str) or machine not in CLONE_PAIRS:
            raise ValueError(f"unknown machine {machine!r}")
        if np.ndim(one_v_s) != 0:
            raise ValueError(f"v_s must be one number, got {one_v_s!r}")
        machines.append(machine)
        v_s.append(one_v_s)
        seeds.append(seed)
    v_s = _check_v_s(np.array(v_s, dtype=float))
    shots = _integer_at_least("shots", shots, MIN_SHOTS)
    seeds = [_integer_at_least("seed", seed, 0) for seed in seeds]
    return machines, v_s, shots, seeds


def _replica():
    """``_seeding``, imported on first use: with no bytecode cache, compiling
    it at import raised the peak RSS of a sweep that samples nothing by 0.2 MB."""
    from . import _seeding

    return _seeding


def spawn_seeds(master_seed, count, key):
    """The seeds of ``count`` runs under ``key``:
    ``SeedSequence(master_seed, spawn_key=(i, key)).generate_state(1, np.uint64)[0]``
    for ``i`` in ``range(count)``, as a list of ints."""
    master_seed = _integer_at_least("master_seed", master_seed, 0)
    count = _integer_at_least("count", count, 0)
    key = _integer_at_least("key", key, 0)
    return _replica().spawn_seeds(master_seed, count, key)


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
        A ValueError names it where the run's covariance leaves the float
        range.

    Returns
    -------
    SampleRun
        Mode ordering matches the analytic machines: (1A, 2A, 1B, 2B) for
        the local machine, (1A, 1B, 2A, 2B) for the global one.
    """
    machines, v_s, shots, seeds = _check_runs([(machine, v_s, seed)], shots)
    displacement_variance = float(displacement_variance)
    in_domain = math.isfinite(displacement_variance) and displacement_variance >= 0
    message = "displacement_variance must be finite and non-negative, got {value}"
    _require(in_domain, message, displacement_variance)
    states = _replica().pcg64_states(seeds)
    blocks = _Blocks(shots, 1)
    factors, response, displacement, means = _block_moments(blocks, machines, v_s, states, gain)
    offset = displacement[:, None] * np.sqrt(displacement_variance) @ response
    with np.errstate(over="ignore", invalid="ignore"):
        means = (means @ factors)[0]
        means += offset[0]
    cov = blocks.covs[0, 0]
    roots = np.sqrt(np.diagonal(cov))
    # Gaussian law (Isserlis): Var(C_ij) = (C_ii C_jj + C_ij^2) / shots
    standard_errors = np.hypot(roots[:, None] * roots, cov) / math.sqrt(shots)
    clone1, clone2 = CLONE_PAIRS[machine]
    return SampleRun(
        machine=machine,
        v_s=float(v_s[0]),
        displacement_variance=displacement_variance,
        shots=shots,
        seed=seeds[0],
        rng_algorithm=RNG_ALGORITHM,
        estimated_mean=means[0],
        estimated_cov=cov,
        standard_errors=standard_errors,
        mean_standard_errors=roots / math.sqrt(shots),
        batch_means=means[1:],
        batch_covs=blocks.covs[0, 1:],
        clone1=clone1,
        clone2=clone2,
    )


def sample_criteria(runs, shots, gain=UNITY_GAIN):
    """Both criteria of each ``(machine, v_s, seed)`` of ``runs``, from one pass.

    Returns a (4, len(runs)) array: the fields ``inseparability``,
    ``inseparability_err``, ``epr_paradox`` and ``epr_paradox_err`` of
    ``estimate_criteria(sample_circuit(machine, v_s, displacement_variance,
    shots, seed, gain))`` for each run, with the same bits at any
    displacement variance, which the covariance estimates never see.  The
    runs are sampled in consecutive blocks of ``BLOCK_RUNS``, in order,
    which may hold runs of both machines, so the first failing run raises
    and no block behind it is drawn.
    """
    machines, v_s, shots, seeds = _check_runs(runs, shots)
    states = _replica().pcg64_states(seeds)
    values = np.empty((4, len(v_s)))
    blocks = _Blocks(shots, min(BLOCK_RUNS, len(v_s)))
    for start in range(0, len(v_s), BLOCK_RUNS):
        block = slice(start, start + BLOCK_RUNS)
        _block_moments(blocks, machines[block], v_s[block], states[block], gain)
        for machine, stretch in _stretches(machines[block]):
            moments = _pair_moments(blocks.covs[stretch], CLONE_PAIRS[machine][0])
            columns = slice(start + stretch.start, start + stretch.stop)
            values[:, columns] = _criteria_block(v_s[columns], gain, moments)
    return values


def _stretches(machines):
    """``(machine, slice)`` of each stretch of one machine's runs in ``machines``."""
    cuts = [k for k in range(1, len(machines)) if machines[k] != machines[k - 1]]
    return [(machines[a], slice(a, b)) for a, b in zip([0, *cuts], [*cuts, len(machines)])]


def _batch_sizes(shots):
    """Shots per batch: batch b holds shots ``b * shots // NUM_BATCHES`` up to
    ``(b + 1) * shots // NUM_BATCHES``, in exact integer arithmetic."""
    bounds = [shots * b // NUM_BATCHES for b in range(NUM_BATCHES + 1)]
    return [hi - lo for lo, hi in zip(bounds, bounds[1:])]


# A run's stream starts with its 2 displacement normals and the batch means'
# NUM_BATCHES * 8 normals, one generator call for both.
_NORMALS = 2 + NUM_BATCHES * 8
# Runs whose Bartlett factors are copied at a time, so that their squares
# take numpy's gemm route: its syrk route for T^T T costs 3-4x as much.  4
# (a 41 KB copy) costs 30 us more per 32-run block than 8, whose 82 KB copy
# raised the CLI's peak RSS by 0.2 MB more (BENCH_21.json).
_SQUARE_RUNS = 4


def _draw_run(rng, state, dof, row):
    """Set ``rng``'s PCG64 to ``state``, a ``(state, inc)`` pair, and write
    the run's generator calls into ``row`` in stream order: the ``_NORMALS``
    normals, chi^2(``dof``), then unit normals to the row's end."""
    lcg_state, inc = state
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": lcg_state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    rng.standard_normal(out=row[:_NORMALS])
    row[_NORMALS : _NORMALS + len(dof)] = rng.chisquare(dof)
    rng.standard_normal(out=row[_NORMALS + len(dof) :])


class _Blocks:
    """The shot layout of a pass and the buffers its blocks reuse.

    Set up once per pass for blocks of at most ``runs`` runs; a block of
    ``n`` runs works in the first ``n`` rows of every buffer and reads
    nothing an earlier block left behind.  ``e_covs`` and ``covs`` are
    (runs, NUM_BATCHES + 1, 8, 8) stacks, row 0 of axis 1 the whole run and
    rows 1..NUM_BATCHES its batches.  ``covs`` ends a block holding the
    run's and its batches' covariances of ``z``.  ``factor_copy`` holds
    ``_SQUARE_RUNS`` runs' Bartlett factors at a time, and ``rng`` is the
    pass's one generator.
    """

    def __init__(self, shots, runs):
        self.shots = shots
        self.counts = np.array(_batch_sizes(shots), dtype=float)
        # Row i of a batch's Bartlett factor is drawn where its chi^2 has
        # n - 1 - i > 0 degrees of freedom; the rows below are zero.
        dof = np.subtract.outer(self.counts - 1.0, np.arange(8))
        rows = dof > 0
        self.dof = dof[rows]
        # (batch, row, column) indices of the drawn entries, in stream order
        self.diagonal = np.nonzero(rows[..., None] & np.eye(8, dtype=bool))
        self.upper = np.nonzero(rows[..., None] & np.triu(np.ones((8, 8), dtype=bool), 1))
        # The degrees of freedom of the run's scatter and of its batches',
        # one per entry of a run's (NUM_BATCHES + 1, 8, 8) stack
        self.divisors = np.repeat(np.append(float(shots - 1), self.counts - 1.0), 8 * 8)
        # A run's stream: 882 numbers from 180 shots up, fewer below
        self.stream = _NORMALS + len(self.dof) + len(self.upper[0])
        self.e_covs = np.empty((runs, NUM_BATCHES + 1, 8, 8))
        self.covs = np.empty_like(self.e_covs)
        self.factor_copy = np.empty((min(runs, _SQUARE_RUNS), NUM_BATCHES, 8, 8))
        # every run sets its own state; numpy.random is imported here, not
        # with the package
        self.rng = np.random.default_rng(0)

    def draw(self, states):
        """Draw a run per PCG64 ``(state, inc)`` pair; returns
        each run's 2 displacement normals and its batches' means of ``e``,
        and leaves their scatters in rows 1..NUM_BATCHES of ``e_covs``."""
        n = len(states)
        # A run's stream is drawn into its own rows of e_covs (1344 numbers),
        # which the scatters overwrite once it is read; the Bartlett factors
        # are built in rows 1..NUM_BATCHES of covs.
        draws = self.e_covs[:n].reshape(n, -1)[:, : self.stream]
        bartlett, scatters = self.covs[:n, 1:], self.e_covs[:n, 1:]
        for state, row in zip(states, draws):
            _draw_run(self.rng, state, self.dof, row)
        displacement = draws[:, :2].copy()
        means = draws[:, 2:_NORMALS].reshape(n, NUM_BATCHES, 8) / np.sqrt(self.counts)[:, None]
        chi2 = draws[:, _NORMALS : _NORMALS + len(self.dof)]
        bartlett[...] = 0.0
        bartlett[(slice(None),) + self.diagonal] = np.sqrt(chi2, out=chi2)
        bartlett[(slice(None),) + self.upper] = draws[:, _NORMALS + len(self.dof) :]
        for start in range(0, n, _SQUARE_RUNS):
            chunk = slice(start, start + _SQUARE_RUNS)
            copy = self.factor_copy[: len(bartlett[chunk])]
            np.copyto(copy, bartlett[chunk])
            np.matmul(np.swapaxes(copy, -1, -2), bartlett[chunk], out=scatters[chunk])
        return displacement, means

    def assemble(self, v_s, gain, factors, means):
        """Leave in ``covs`` the covariances of ``z`` of runs from the batch moments of
        their 8 normals ``e``; returns the (runs, NUM_BATCHES + 1, 8) means of ``e``.

        ``means`` (runs, NUM_BATCHES, 8) holds each batch's mean of ``e``,
        and rows 1..NUM_BATCHES of ``e_covs`` its scatter, the sum of
        (e - mean)^T (e - mean) over the batch's shots.  The moments of
        ``e`` are combined first; ``z = e @ factors[k]`` then has means
        ``mean @ factors[k]`` and covariances ``factors[k]^T C factors[k]``,
        which a ValueError naming ``v_s`` and ``gain`` rejects past the float range.
        """
        n, counts, shots = len(means), self.counts, self.shots
        e_covs, covs = self.e_covs[:n], self.covs[:n]
        mean = counts @ means / float(shots)
        # Chan, Golub & LeVeque, in e-space, where no entry exceeds the shot
        # count: the run's scatter is the sum of its batches' plus the
        # scatter of their means about the run's mean.
        spread = means - mean[:, None]
        scatter = np.sum(e_covs[:, 1:], axis=1, out=e_covs[:, 0])
        scatter += np.swapaxes(spread, 1, 2) @ (counts[:, None] * spread)
        entries = e_covs.reshape(n, -1)
        entries /= self.divisors
        # A finite draw whose image is not finite has left the float range.
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(np.swapaxes(factors, 1, 2)[:, None], e_covs, out=covs)
            np.matmul(covs, factors[:, None], out=e_covs)
            np.add(e_covs, np.swapaxes(e_covs, -1, -2), out=covs)
            covs *= 0.5
        in_range = np.isfinite(covs).all(axis=(1, 2, 3))
        _require(in_range, "its covariance leaves the float range", where=_naming_runs(v_s, gain))
        return np.concatenate([mean[:, None], means], axis=1)


def _block_moments(blocks, machines, v_s, states, gain):
    """Leave in ``blocks.covs`` the covariances of ``z`` of runs of ``machines[k]`` at
    ``v_s[k]`` from PCG64 state ``states[k]``; returns their QR factors, displacement
    responses, displacement normals and means of ``e``, stacked on axis 0.  One
    affine map per ``_stretches``."""
    gx, gp = _gain_pair(gain)
    # An entry of M past the float range puts its output's variance there too.
    with np.errstate(over="ignore", invalid="ignore"):
        maps = [_kernels.affine_map(m, v_s[runs], gx, gp) for m, runs in _stretches(machines)]
    transfer, response = (np.concatenate(parts) for parts in zip(*maps))
    in_range = np.isfinite(transfer).all(axis=(1, 2))
    _require(in_range, "its covariance leaves the float range", where=_naming_runs(v_s, gain))
    # transfer = Q @ factor with orthonormal Q, and u @ Q ~ N(0, I_8) for
    # u ~ N(0, I_18): 8 unit normals e give outputs e @ factor + offset
    # with the exact law of the 18-column circuit.
    factors = np.linalg.qr(transfer, mode="r")
    displacement, means = blocks.draw(states)
    return factors, response, displacement, blocks.assemble(v_s, gain, factors, means)


def _criteria_block(v_s, gain, moments):
    """Both criteria and their batch-means errors over a stack of runs, as (4, runs).

    ``moments`` is a clone pair's (runs, 1 + batches, 4, 4) moments: along
    axis 1, element 0 is the whole run, elements 1.. its batches; the
    criteria read their x and p blocks.  A ValueError names the first run,
    by ``v_s`` and ``gain`` (unless None), where a criterion or its error
    leaves the float range.
    """
    root_n = np.sqrt(moments.shape[1] - 1)
    blocks = _quadrature_blocks(moments)
    values = []
    with np.errstate(over="ignore", invalid="ignore"):
        for per_matrix in (_inseparability(blocks), _epr_paradox(blocks)):
            values += [per_matrix[:, 0], per_matrix[:, 1:].std(axis=1, ddof=1) / root_n]
    values = np.array(values)
    in_range = np.isfinite(values).all(axis=0)
    _require(in_range, "its criteria leave the float range", where=_naming_runs(v_s, gain))
    return values


def estimate_criteria(run, clone=1):
    """Evaluate both entanglement criteria on one clone pair of a run.

    Point estimates come from the full-run correlation matrix; error bars
    are batch-means standard errors over the ``NUM_BATCHES`` stored batches.
    The run and its batches are one stacked evaluation, and every guard of
    the criteria applies to each of their matrices.  A ValueError names the
    run's v_s where a criterion or its error leaves the float range.
    """
    n_batches = len(run.batch_covs)
    if n_batches < NUM_BATCHES:
        raise ValueError(
            f"need at least {NUM_BATCHES} batches for error bars, run has {n_batches}"
        )
    if clone not in (1, 2):
        raise ValueError(f"clone index must be 1 or 2, got {clone}")
    pair = run.clone1 if clone == 1 else run.clone2
    covs = np.concatenate([run.estimated_cov[None], run.batch_covs])
    # a hand-built run's moments get every check of a CorrelationMatrix
    moments = _pair_moments(covs[None], pair)
    _check_pair(moments)
    values = _criteria_block([run.v_s], None, moments)
    i, i_err, eps, eps_err = (float(value) for value in values[:, 0])
    return CriteriaEstimate(
        inseparability=i,
        inseparability_err=i_err,
        epr_paradox=eps,
        epr_paradox_err=eps_err,
        pair=pair,
        batches=n_batches,
    )
