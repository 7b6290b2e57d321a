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
maps, QR factors, moments and checks; only a run's generator calls
(``_draw_run``) are its own, so a run has the same bits alone
(``sample_circuit``) or in any block (``sample_criteria``).  A pass sets up
its shot layout, block buffers and one generator once (``_Blocks``), and
every block works in them in place.

A run's stream is still ``numpy.random.default_rng(seed)``'s, but numpy
does not build a generator per run: ``_pcg64_states`` computes the states
of all of a pass's seeds at once, with a replica of numpy's seeding
(``_seeding``) that the tests check against numpy, and each run sets its
state on the pass's generator.  ``spawn_seeds`` derives a pass's run seeds
from a master seed by the same replica.  A pass of fewer than
``_REPLICA_SEEDS`` runs takes numpy's own classes, cheaper at that size.
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
# RSS within 1% of 8-run blocks with per-block arrays (README).
BLOCK_RUNS = 32


def _check_moments(v_s, shots, mean, cov, standard_errors, mean_standard_errors):
    """Reject a run's estimates that no sampled run gives, naming its v_s.

    Every argument but ``shots`` has a leading run axis; the first failing
    run raises.
    """
    asymmetry = np.abs(cov - np.swapaxes(cov, -1, -2))
    checks = [
        (asymmetry <= SYMMETRY_TOL, "estimated covariance must be symmetric"),
        (np.isfinite(mean), "estimated mean must be finite"),
    ]
    if shots >= 2:
        for name, value in (
            ("standard_errors", standard_errors),
            ("mean_standard_errors", mean_standard_errors),
        ):
            message = f"{name} must be finite and positive for shots >= 2"
            checks.append((np.isfinite(value) & (value > 0), message))
    for ok, message in checks:
        _require(np.reshape(ok, (len(v_s), -1)).all(axis=1), message, where=_naming_runs(v_s))


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


def _check_inputs(machine, v_s, displacement_variance, shots, seeds):
    """The validated ``(v_s, displacement_variance, shots, seeds)``; ValueError names a bad one."""
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
    if len(seeds) != len(v_s):
        raise ValueError(f"need one seed per v_s, got {len(seeds)} seeds for {len(v_s)} v_s")
    return v_s, displacement_variance, shots, seeds


# Fewer seeds than this are cheaper to hash with numpy's own SeedSequence and
# PCG64, one object per seed (12-14 us each), than with one evaluation of the
# replica (60-80 us at any count up to 16), on the machine of BENCH_21.json
_REPLICA_SEEDS = 8


def spawn_seeds(master_seed, count, key):
    """The seeds of ``count`` runs under ``key``:
    ``SeedSequence(master_seed, spawn_key=(i, key)).generate_state(1, np.uint64)[0]``
    for ``i`` in ``range(count)``, as a list of ints."""
    master_seed = _integer_at_least("master_seed", master_seed, 0)
    count = _integer_at_least("count", count, 0)
    key = _integer_at_least("key", key, 0)
    if count < _REPLICA_SEEDS:
        sequences = (np.random.SeedSequence(master_seed, spawn_key=(i, key)) for i in range(count))
        return [int(sequence.generate_state(1, np.uint64)[0]) for sequence in sequences]
    from . import _seeding  # see _pcg64_states

    return _seeding.spawn_seeds(master_seed, count, key)


def _pcg64_states(seeds):
    """The ``(state, inc)`` of ``np.random.PCG64(seed)`` for each seed.  The
    replica is imported on first use: with no bytecode cache, compiling it
    at import raised the peak RSS of a sweep that samples nothing by 0.2 MB."""
    if len(seeds) < _REPLICA_SEEDS:
        states = (np.random.PCG64(seed).state["state"] for seed in seeds)
        return [(state["state"], state["inc"]) for state in states]
    from . import _seeding

    return _seeding.pcg64_states(seeds)


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
    v_s, displacement_variance, shots, seeds = _check_inputs(
        machine, v_s, displacement_variance, shots, [seed]
    )
    states = _pcg64_states(seeds)
    moments = _block_moments(_Blocks(shots, 1), machine, v_s, displacement_variance, states, gain)
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


def sample_criteria(machine, v_s, seeds, shots, gain=UNITY_GAIN):
    """Both criteria of one run of ``machine`` per ``(v_s[k], seeds[k])``.

    Returns a (4, len(v_s)) array: the fields ``inseparability``,
    ``inseparability_err``, ``epr_paradox`` and ``epr_paradox_err`` of
    ``estimate_criteria(sample_circuit(machine, v_s[k], displacement_variance,
    shots, seeds[k], gain))`` for each run, with the same bits at any
    displacement variance, which the covariance estimates never see.  The
    runs are sampled in consecutive blocks of ``BLOCK_RUNS``, in order, so
    the first failing run raises and no block behind it is drawn.
    """
    v_s, _, shots, seeds = _check_inputs(machine, v_s, 0.0, shots, seeds)
    pair = CLONE_PAIRS[machine][0]
    values = np.empty((4, len(v_s)))
    blocks = _Blocks(shots, min(BLOCK_RUNS, len(v_s)))
    states = _pcg64_states(seeds)
    for start in range(0, len(v_s), BLOCK_RUNS):
        block = slice(start, start + BLOCK_RUNS)
        _block_moments(blocks, machine, v_s[block], 0.0, states[block], gain)
        covs = blocks.covs[: len(v_s[block])]
        values[:, block] = _criteria_block(v_s[block], gain, covs, pair)
    return values


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
        """Draw a run per PCG64 state (``_pcg64_states``); returns
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

    def assemble(self, v_s, gain, factors, offset, means):
        """The ``SampleRun`` arrays of runs from the batch moments of their 8 normals ``e``.

        ``means`` (runs, NUM_BATCHES, 8) holds each batch's mean of ``e``,
        and rows 1..NUM_BATCHES of ``e_covs`` its scatter, the sum of
        (e - mean)^T (e - mean) over the batch's shots.  The moments of
        ``e`` are combined first; ``z = e @ factors[k]`` then has means
        ``mean @ factors[k]`` and covariances ``factors[k]^T C factors[k]``.
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
        # A finite draw whose image is not finite has left the float range; a
        # NaN draw is left to the moment checks.
        drawn = np.isfinite(e_covs).all(axis=(1, 2, 3))
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(np.swapaxes(factors, 1, 2)[:, None], e_covs, out=covs)
            np.matmul(covs, factors[:, None], out=e_covs)
            np.add(e_covs, np.swapaxes(e_covs, -1, -2), out=covs)
            covs *= 0.5
            means = np.concatenate([mean[:, None], means], axis=1) @ factors
            means += offset[:, None]
        in_range = np.isfinite(covs).all(axis=(1, 2, 3)) | ~drawn
        _require(in_range, "its covariance leaves the float range", where=_naming_runs(v_s, gain))
        cov = covs[:, 0]
        roots = np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
        # Gaussian law (Isserlis): Var(C_ij) = (C_ii C_jj + C_ij^2) / shots
        standard_errors = np.hypot(roots[:, :, None] * roots[:, None, :], cov) / math.sqrt(shots)
        mean_standard_errors = roots / math.sqrt(shots)
        _check_moments(v_s, shots, means[:, 0], cov, standard_errors, mean_standard_errors)
        return {
            "estimated_mean": means[:, 0],
            "estimated_cov": cov,
            "standard_errors": standard_errors,
            "mean_standard_errors": mean_standard_errors,
            "batch_means": means[:, 1:],
            "batch_covs": covs[:, 1:],
        }


def _block_moments(blocks, machine, v_s, displacement_variance, states, gain):
    """The ``SampleRun`` arrays of runs at ``v_s[k]`` from PCG64 state ``states[k]``,
    stacked on axis 0."""
    gx, gp = _gain_pair(gain)
    # An entry of M past the float range puts its output's variance there too.
    with np.errstate(over="ignore", invalid="ignore"):
        transfer, response = _kernels.affine_map(machine, v_s, gx, gp)
    in_range = np.isfinite(transfer).all(axis=(1, 2))
    _require(in_range, "its covariance leaves the float range", where=_naming_runs(v_s, gain))
    # transfer = Q @ factor with orthonormal Q, and u @ Q ~ N(0, I_8) for
    # u ~ N(0, I_18): 8 unit normals e give outputs e @ factor + offset
    # with the exact law of the 18-column circuit.
    factors = np.linalg.qr(transfer, mode="r")
    displacement, means = blocks.draw(states)
    offset = (displacement[:, None] * np.sqrt(displacement_variance) @ response)[:, 0]
    return blocks.assemble(v_s, gain, factors, offset, means)


def _criteria_block(v_s, gain, covs, pair):
    """Both criteria and their batch-means errors over a stack of runs, as (4, runs).

    ``covs`` is (runs, 1 + batches, 2n, 2n): along axis 1, element 0 is the
    whole run, elements 1.. its batches.  The pair's 4x4 moments get every
    check of a ``CorrelationMatrix``, since a ``SampleRun`` may be built by
    hand, and the criteria read their x and p blocks.  A ValueError names
    the first run, by ``v_s`` and ``gain`` (unless None), where a criterion
    or its error leaves the float range.
    """
    root_n = np.sqrt(covs.shape[1] - 1)
    moments = _pair_moments(covs, pair)
    _check_pair(moments)
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
    values = _criteria_block([run.v_s], None, covs[None], pair)
    i, i_err, eps, eps_err = (float(value) for value in values[:, 0])
    return CriteriaEstimate(
        inseparability=i,
        inseparability_err=i_err,
        epr_paradox=eps,
        epr_paradox_err=eps_err,
        pair=pair,
        batches=n_batches,
    )
