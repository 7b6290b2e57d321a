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
covariances ``R^T C R`` of the means and covariances C of ``e``.  ``z``
never sees the displacement, so the covariance estimates are exactly
independent of it, and their standard errors are the Gaussian (Isserlis /
Wishart) ones, taken from the run's own estimate.

The columns of ``M`` are put in pair-first order before the QR: clone pair
1's four quadratures (in ``_quadratures`` order), then the other four.
``R`` and every Bartlett factor are upper triangular, and the merge of the
leading 4x4 block reads only the leading 4 mean components, so the pair's
run and batch covariances are ``R11^T C11 R11`` of the leading 4x4 blocks
and depend on those draws alone.  A run's random stream is two segments of
three generator calls each, every list in (batch, row, column) order:

- the pair segment: the 2 displacement normals with each batch's 4
  leading mean normals, the chi^2 of the 4 leading Bartlett rows, and the 6
  off-diagonal normals among them: 282 numbers from 100 shots up;
- the rest segment: each batch's other 4 mean normals, the other chi^2
  draws, and the other off-diagonal normals: 600 numbers from 180 shots up
  (fewer below, where a batch's last rows are zero).

``sample_criteria`` draws only the pair segment of each run and works on
(runs, NUM_BATCHES + 1, 4, 4) stacks.  ``sample_circuit`` draws both and
takes the pair block of its covariances from the same function
(``_block_moments``), so ``estimate_criteria`` of its run gives the pass's
bits by construction.  A block of runs shares one stacked evaluation of the
maps, QR factors and moments; only a run's generator calls (``_draw_run``)
are its own, so a run has the same bits alone or in any block.  A pass sets
up its shot layout, stream order and one generator once (``_Blocks``).

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
from .gaussian import (
    SYMMETRY_TOL,
    _check_v_s,
    _integer_at_least,
    _quadrature_blocks,
    _quadratures,
    _require,
)

RNG_ALGORITHM = "numpy.random.default_rng (PCG64)"
NUM_BATCHES = 20
MIN_SHOTS = 100
# Runs whose draws, moments and criteria are one stacked evaluation; a
# block's (BLOCK_RUNS, NUM_BATCHES + 1, 4, 4) float stacks are 86 KB each.
# 64 ran the 400-run pass of a 5000-shot CLI sweep 5-11% faster than 32
# (128 and 400 no faster than 64) but raised its peak RSS by 1.1 MB, where
# 32 keeps it at the level of the 8x8 blocks before.
BLOCK_RUNS = 32
# The components of each run's e-space that the pass draws: clone pair 1's
# four quadratures, which lead it
_PAIR = 4


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
    blocks = _Blocks(shots, full=True)
    factors, response, draws, pair = _block_moments(blocks, machines, v_s, states, gain)
    displacement, means, bartlett = draws
    covs, means = blocks.moments(means, bartlett, factors, v_s, gain)
    # the pass's bits for the clone pair, so that estimate_criteria gives them
    covs[:, :, :_PAIR, :_PAIR] = pair
    order = np.argsort(_pair_first(machine))  # back to (x1, p1, ..., x4, p4)
    covs = covs[0][:, order[:, None], order]
    offset = displacement[:, None] * np.sqrt(displacement_variance) @ response
    with np.errstate(over="ignore", invalid="ignore"):
        means = (means @ factors)[0][:, order]
        means += offset[0]
    cov = covs[0]
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
        batch_covs=covs[1:],
        clone1=clone1,
        clone2=clone2,
    )


def sample_criteria(runs, shots, gain=UNITY_GAIN):
    """Both criteria of each ``(machine, v_s, seed)`` of ``runs``, from one pass.

    Returns a (4, len(runs)) array: the fields ``inseparability``,
    ``inseparability_err``, ``epr_paradox`` and ``epr_paradox_err`` of
    ``estimate_criteria(sample_circuit(machine, v_s, displacement_variance,
    shots, seed, gain))`` for each run, with the same bits at any
    displacement variance, which the covariance estimates never see.  A
    run draws only its pair segment (282 numbers, see the module
    docstring), and every block's algebra, from the Bartlett squares to
    the range check, is on the clone pair's 4x4 blocks.  The runs are
    sampled in consecutive blocks of ``BLOCK_RUNS``, in order, which may
    hold runs of both machines, so the first failing run raises and no
    block behind it is drawn.
    """
    machines, v_s, shots, seeds = _check_runs(runs, shots)
    states = _replica().pcg64_states(seeds)
    values = np.empty((4, len(v_s)))
    blocks = _Blocks(shots)
    for start in range(0, len(v_s), BLOCK_RUNS):
        block = slice(start, start + BLOCK_RUNS)
        *_, pair = _block_moments(blocks, machines[block], v_s[block], states[block], gain)
        values[:, block] = _criteria_block(v_s[block], gain, pair)
    return values


def _stretches(machines):
    """``(machine, slice)`` of each stretch of one machine's runs in ``machines``."""
    cuts = [k for k in range(1, len(machines)) if machines[k] != machines[k - 1]]
    return [(machines[a], slice(a, b)) for a, b in zip([0, *cuts], [*cuts, len(machines)])]


def _pair_first(machine):
    """The 8 output quadratures of ``machine`` in pair-first order: clone pair
    1's four, in ``_quadratures`` order, then the others in order."""
    lead = _quadratures(CLONE_PAIRS[machine][0]).tolist()
    return np.array(lead + [q for q in range(8) if q not in lead])


def _batch_sizes(shots):
    """Shots per batch: batch b holds shots ``b * shots // NUM_BATCHES`` up to
    ``(b + 1) * shots // NUM_BATCHES``, in exact integer arithmetic."""
    bounds = [shots * b // NUM_BATCHES for b in range(NUM_BATCHES + 1)]
    return [hi - lo for lo, hi in zip(bounds, bounds[1:])]


def _draw_run(rng, state, calls, row):
    """Set ``rng``'s PCG64 to ``state``, a ``(state, inc)`` pair, and write
    the run's generator calls into ``row`` in stream order: for each
    ``(normals, chi2, dof, upper)`` of ``calls``, unit normals into
    ``row[normals]``, chi^2(``dof``) into ``row[chi2]``, then unit normals
    into ``row[upper]``."""
    lcg_state, inc = state
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": lcg_state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    for normals, chi2, dof, upper in calls:
        rng.standard_normal(out=row[normals])
        row[chi2] = rng.chisquare(dof)
        rng.standard_normal(out=row[upper])


class _Blocks:
    """The shot layout of a pass, the order of its runs' streams and its generator.

    A run's stream is its pair segment, and for ``full`` blocks its rest
    segment after it; each segment is one ``(normals, chi2, dof, upper)``
    of ``calls``, the spans of a run's row that its three generator calls
    fill (``_draw_run``).  ``draw`` gives each run's batch means and
    Bartlett factors of ``width`` components of ``e``, the pair's 4 or all
    8, and ``moments`` their covariances.  ``rng`` is the pass's one
    generator.
    """

    def __init__(self, shots, full=False):
        self.shots = shots
        self.counts = np.array(_batch_sizes(shots), dtype=float)
        self.width = width = 8 if full else _PAIR
        # Row i of a batch's Bartlett factor is drawn where its chi^2 has
        # n - 1 - i > 0 degrees of freedom, every pair row from MIN_SHOTS up;
        # the rows below are zero.
        dof = np.subtract.outer(self.counts - 1.0, np.arange(width))
        dof = np.broadcast_to(dof[..., None], dof.shape + (width,))
        diagonal = (dof > 0) & np.eye(width, dtype=bool)
        upper = (dof > 0) & np.triu(np.ones((width, width), dtype=bool), 1)
        lead = np.arange(width) < _PAIR
        pair = lead[:, None] & lead
        # Per segment, in stream order: the flat cells of a run's (NUM_BATCHES,
        # width) means and (NUM_BATCHES, width, width) Bartlett factors its
        # three calls draw (mean components, diagonals, entries right of
        # them) and the spans of the run's row they fill, after the 2
        # displacement normals.
        self.calls, self.takes, at = [], [], 2
        for columns, entries in [(lead, pair), (~lead, ~pair)][: 1 + full]:
            cells = [np.flatnonzero(np.broadcast_to(columns, dof.shape[:2]))]
            cells += [np.flatnonzero(drawn & entries) for drawn in (diagonal, upper)]
            spans = []
            for drawn in cells:
                spans.append(slice(at, at + len(drawn)))
                at += len(drawn)
            normals = slice(0 if not self.calls else spans[0].start, spans[0].stop)
            self.calls.append((normals, spans[1], dof[diagonal & entries], spans[2]))
            self.takes.append(list(zip(spans, cells)))
        self.stream = at
        # every run sets its own state; numpy.random is imported here, not
        # with the package
        self.rng = np.random.default_rng(0)

    def draw(self, states):
        """Draw a run per PCG64 ``(state, inc)`` pair; returns each run's 2
        displacement normals, its batches' means of ``e`` and their Bartlett
        factors, stacked on axis 0."""
        n, width = len(states), self.width
        rows = np.empty((n, self.stream))
        for state, row in zip(states, rows):
            _draw_run(self.rng, state, self.calls, row)
        means = np.empty((n, NUM_BATCHES * width))
        bartlett = np.zeros((n, NUM_BATCHES * width * width))
        for (mean_at, mean_cells), (chi2_at, diagonal), (upper_at, upper) in self.takes:
            means[:, mean_cells] = rows[:, mean_at]
            bartlett[:, diagonal] = np.sqrt(rows[:, chi2_at])
            bartlett[:, upper] = rows[:, upper_at]
        means = means.reshape(n, NUM_BATCHES, width) / np.sqrt(self.counts)[:, None]
        return rows[:, :2], means, bartlett.reshape(n, NUM_BATCHES, width, width)

    def moments(self, means, bartlett, factors, v_s, gain):
        """The covariances of ``z = e @ factors[k]`` of runs and their batches,
        and the means of ``e``, from their batches' moments of ``e``.

        ``means`` (runs, NUM_BATCHES, w) holds each batch's mean of ``e``
        and ``bartlett`` (runs, NUM_BATCHES, w, w) its Bartlett factor T,
        whose T^T T is the batch's scatter, the sum of (e - mean)^T (e -
        mean) over its shots.  Returns (runs, NUM_BATCHES + 1, w, w)
        covariances of ``z`` and (runs, NUM_BATCHES + 1, w) means of ``e``,
        along axis 1 the run, then its batches.  The moments of ``e`` are
        combined first; ``z`` then has covariances ``factors[k]^T C
        factors[k]``, which a ValueError naming ``v_s`` and ``gain`` rejects
        past the float range.
        """
        counts, shots = self.counts, self.shots
        n, width = means.shape[0], means.shape[-1]
        e_covs = np.empty((n, NUM_BATCHES + 1, width, width))
        # T^T T on a transposed copy, so that numpy takes its gemm route: its
        # syrk route for a matrix times its own transpose costs 3x as much
        np.matmul(np.swapaxes(bartlett, -1, -2).copy(), bartlett, out=e_covs[:, 1:])
        mean = counts @ means / float(shots)
        # Chan, Golub & LeVeque, in e-space, where no entry exceeds the shot
        # count: the run's scatter is the sum of its batches' plus the
        # scatter of their means about the run's mean.
        spread = means - mean[:, None]
        scatter = np.sum(e_covs[:, 1:], axis=1, out=e_covs[:, 0])
        scatter += np.swapaxes(spread, 1, 2) @ (counts[:, None] * spread)
        e_covs /= np.append(float(shots - 1), counts - 1.0)[:, None, None]
        # A finite draw whose image is not finite has left the float range.
        with np.errstate(over="ignore", invalid="ignore"):
            # R^T C R as (C R)^T R, C symmetric: each a product of a run's
            # stacked matrices, one BLAS call per run, not one per matrix
            half = e_covs.reshape(n, -1, width) @ factors
            half = np.swapaxes(half.reshape(e_covs.shape), -1, -2).reshape(n, -1, width) @ factors
            covs = half.reshape(e_covs.shape)
            covs = covs + np.swapaxes(covs, -1, -2)
            covs *= 0.5
        in_range = np.isfinite(covs).all(axis=(1, 2, 3))
        _require(in_range, "its covariance leaves the float range", where=_naming_runs(v_s, gain))
        return covs, np.concatenate([mean[:, None], means], axis=1)


def _block_moments(blocks, machines, v_s, states, gain):
    """Draw runs of ``machines[k]`` at ``v_s[k]`` from PCG64 state ``states[k]``.

    Returns their QR factors in pair-first order, their displacement
    responses, their draws (``_Blocks.draw``) and the (runs, NUM_BATCHES +
    1, 4, 4) covariances of ``z`` of their clone pair 1, stacked on axis
    0.  One affine map per ``_stretches``.
    """
    gx, gp = _gain_pair(gain)
    stretches = _stretches(machines)
    # An entry of M past the float range puts its output's variance there too.
    with np.errstate(over="ignore", invalid="ignore"):
        maps = [_kernels.affine_map(m, v_s[runs], gx, gp) for m, runs in stretches]
    transfer = np.concatenate([t[..., _pair_first(m)] for (m, _), (t, _) in zip(stretches, maps)])
    response = np.concatenate([r for _, r in maps])
    in_range = np.isfinite(transfer).all(axis=(1, 2))
    _require(in_range, "its covariance leaves the float range", where=_naming_runs(v_s, gain))
    # transfer = Q @ factor with orthonormal Q, and u @ Q ~ N(0, I_8) for
    # u ~ N(0, I_18): 8 unit normals e give outputs e @ factor + offset
    # with the exact law of the 18-column circuit.
    factors = np.linalg.qr(transfer, mode="r")
    draws = blocks.draw(states)
    _, means, bartlett = draws
    # the pair's leading blocks, laid out as a pass's own whatever the width
    # drawn, so that every run's pair has the pass's bits
    pair, _ = blocks.moments(
        np.ascontiguousarray(means[..., :_PAIR]),
        np.ascontiguousarray(bartlett[..., :_PAIR, :_PAIR]),
        factors[:, :_PAIR, :_PAIR],
        v_s,
        gain,
    )
    return factors, response, draws, pair


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
