"""Sampling oracle: determinism, kernel equivalence, and moment agreement."""

import dataclasses
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from ecloner import (
    RNG_ALGORITHM,
    DegenerateInputError,
    epr_source,
    estimate_criteria,
    global_ecloner,
    local_ecloner,
    sample_circuit,
)
from ecloner import _kernels, _seeding, circuits, cli, criteria, montecarlo
from ecloner.circuits import UNITY_GAIN
from ecloner.criteria import correlation_matrix_from_cov, epr_paradox, inseparability
from ecloner.gaussian import SYMMETRY_TOL

SHOTS = 100_000
# Unequal batches: with 61_237 shots each of the 20 holds 3061 or 3062 shots.
UNEQUAL_SHOTS = 61_237


def _analytic_cov(machine, v_s, gain=None):
    epr = epr_source(v_s)
    if machine == "local":
        clones = local_ecloner(epr) if gain is None else local_ecloner(epr, gain=gain)
    else:
        clones = (
            global_ecloner(epr, v_s) if gain is None else global_ecloner(epr, v_s, gain=gain)
        )
    return clones.state.cov


def _array_fields(run):
    return {
        f.name: getattr(run, f.name)
        for f in dataclasses.fields(run)
        if isinstance(getattr(run, f.name), np.ndarray)
    }


def _two_pass_moments(machine, v_s, displacement, drawn):
    """The moments of a run by their definitions, on a whole noise array.

    ``drawn`` holds 8 normals ``e`` per shot; ``e @ Q.T``, with ``Q`` the
    orthonormal factor of the run's map in pair-first order ``M = Q R``,
    lifts them to the 18 inputs of the literal circuit, where ``e @ Q.T @ M =
    e @ R``.
    """
    shots = len(drawn)
    transfer, _ = _kernels.affine_map(machine, v_s, UNITY_GAIN, UNITY_GAIN)
    noise = drawn @ np.linalg.qr(transfer[:, montecarlo._pair_first(machine)])[0].T
    noise[:, 0:4] *= np.sqrt([v_s, 1.0 / v_s, 1.0 / v_s, v_s])
    noise[:, 4:6] = displacement
    outputs = _kernels.literal_circuit(machine, noise, np.sqrt(v_s), UNITY_GAIN, UNITY_GAIN)

    mean = outputs.mean(axis=0)
    centered = outputs - mean
    cov = centered.T @ centered / (shots - 1)
    sq = centered**2
    prod_var = np.maximum(sq.T @ sq / shots - (centered.T @ centered / shots) ** 2, 0.0)
    batch_means, batch_covs = [], []
    for batch in np.split(outputs, np.cumsum(montecarlo._batch_sizes(shots))[:-1]):
        batch_means.append(batch.mean(axis=0))
        dev = batch - batch_means[-1]
        bcov = dev.T @ dev / (len(batch) - 1)
        batch_covs.append(0.5 * (bcov + bcov.T))
    return {
        "estimated_mean": mean,
        "estimated_cov": 0.5 * (cov + cov.T),
        "standard_errors": np.sqrt(prod_var / shots),
        "mean_standard_errors": np.sqrt(np.diag(cov) / shots),
        "batch_means": np.array(batch_means),
        "batch_covs": np.array(batch_covs),
    }


def test_identical_seed_gives_bit_identical_runs():
    a = sample_circuit("local", 0.5, 1.0, 1000, seed=77)
    b = sample_circuit("local", 0.5, 1.0, 1000, seed=77)
    for name, value in _array_fields(a).items():
        assert np.array_equal(value, getattr(b, name)), name
    assert a.rng_algorithm == RNG_ALGORITHM
    a = sample_circuit("global", 0.5, 1.0, UNEQUAL_SHOTS, seed=77)
    b = sample_circuit("global", 0.5, 1.0, UNEQUAL_SHOTS, seed=77)
    for name, value in _array_fields(a).items():
        assert np.array_equal(value, getattr(b, name)), name


def test_concurrent_runs_are_bit_identical_to_sequential_ones():
    # Each run owns its generator, so runs on threads that switch far more
    # often than usual give the same bits as run in turn.
    shots = UNEQUAL_SHOTS
    jobs = [("local", 0.3, 0.0, 81), ("global", 0.3, 1.0, 82)] * 2
    sequential = [sample_circuit(m, v, d, shots, seed=s) for m, v, d, s in jobs]
    start = threading.Barrier(len(jobs))
    concurrent = [None] * len(jobs)

    def worker(i):
        start.wait(timeout=30)
        machine, v_s, displacement_variance, seed = jobs[i]
        concurrent[i] = sample_circuit(machine, v_s, displacement_variance, shots, seed=seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for want, got in zip(sequential, concurrent):
        assert got is not None
        for name, value in _array_fields(want).items():
            assert np.array_equal(value, getattr(got, name)), name


# Seeds of every size SeedSequence treats apart: one, two, four and five or
# more 32-bit words (a spawned sequence pads its entropy to four).
MASTER_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**100 + 5, 2**130 + 9]
RUN_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
# Seed counts of a pass: none, one, the oracle workload's 5 per machine, and more
SEED_COUNTS = [0, 1, 5, 7, 8, 50]


@pytest.mark.parametrize("master_seed", MASTER_SEEDS)
@pytest.mark.parametrize("key", [0, 1, 2**40])
def test_spawned_seeds_are_numpy_seed_sequence_children(master_seed, key):
    expected = [
        int(np.random.SeedSequence(master_seed, spawn_key=(i, key)).generate_state(1, np.uint64)[0])
        for i in range(50)
    ]
    for count in SEED_COUNTS:
        assert montecarlo.spawn_seeds(master_seed, count, key) == expected[:count]


def test_generator_states_are_numpy_pcg64_states():
    spawned = montecarlo.spawn_seeds(2**130 + 9, 500, 1)
    seeds = RUN_SEEDS + [2**100 + 5, 2**130 + 9, 2**200] + spawned
    expected = [np.random.PCG64(seed).state["state"] for seed in seeds]
    expected = [(state["state"], state["inc"]) for state in expected]
    assert _seeding.pcg64_states(seeds) == expected
    for count in SEED_COUNTS:
        assert montecarlo._replica().pcg64_states(seeds[:count]) == expected[:count]


def _segment_dofs(shots):
    """The chi^2 degrees of freedom of a run's pair and rest segments, in
    (batch, row) order: row i of a batch of n shots has n - 1 - i, drawn
    where positive, and the pair's rows are the first 4."""
    dofs = [[n - 1.0 - i for i in range(8)] for n in montecarlo._batch_sizes(shots)]
    pair = [dof for rows in dofs for dof in rows[:4]]
    return pair, [dof for rows in dofs for dof in rows[4:] if dof > 0]


@pytest.mark.parametrize("seed", RUN_SEEDS + [2**130 + 9])
def test_a_run_draws_the_stream_of_default_rng(seed):
    # Six generator calls: the pair segment (2 displacement normals and 80
    # leading mean normals, 80 chi^2, 120 normals), then the rest segment
    # (80 mean normals, 80 chi^2, 440 normals).  The pass's generator has a
    # 32-bit draw buffered from an earlier run; setting the state must drop it.
    blocks = montecarlo._Blocks(2017, full=True)
    blocks.rng.integers(2**32, dtype=np.uint32)
    row = np.empty(blocks.stream)
    montecarlo._draw_run(blocks.rng, _seeding.pcg64_states([seed])[0], blocks.calls, row)
    pair_dof, rest_dof = _segment_dofs(2017)
    rng = np.random.default_rng(seed)
    expected = np.concatenate(
        [
            rng.standard_normal(2 + 80),
            rng.chisquare(pair_dof),
            rng.standard_normal(120),
            rng.standard_normal(80),
            rng.chisquare(rest_dof),
            rng.standard_normal(440),
        ]
    )
    assert len(row) == 882 and np.array_equal(row, expected)


@pytest.mark.parametrize("shots", [100, 2017, 5000])
def test_a_pass_draws_exactly_each_runs_pair_segment(monkeypatch, shots):
    # After each run the pass's generator is where default_rng(seed) is
    # after the pair segment's three calls, 282 numbers: nothing of the
    # rest segment is drawn.
    seeds = [3, 2**64 - 1, 2**130 + 9]
    real, after = montecarlo._draw_run, []

    def draw(rng, state, calls, row):
        real(rng, state, calls, row)
        after.append((len(row), rng.bit_generator.state["state"]))

    monkeypatch.setattr(montecarlo, "_draw_run", draw)
    montecarlo.sample_criteria([("local", 0.5, seed) for seed in seeds], shots)
    pair_dof, _ = _segment_dofs(shots)
    for seed, (drawn, state) in zip(seeds, after):
        rng = np.random.default_rng(seed)
        rng.standard_normal(2 + 80)
        rng.chisquare(pair_dof)
        rng.standard_normal(120)
        assert drawn == 282 and state == rng.bit_generator.state["state"]
    assert len(after) == len(seeds)


@pytest.mark.parametrize("machine", ["local", "global"])
@pytest.mark.parametrize("shots", [100, 2017])
def test_a_runs_rest_segment_leaves_its_pair_and_criteria_alone(monkeypatch, machine, shots):
    # The rest segment redrawn from another PCG64 state moves the run's other
    # moments but not one bit of its clone pair's or of its criteria.
    real, other = montecarlo._draw_run, _seeding.pcg64_states([99])[0]

    def redraw_rest(rng, state, calls, row):
        real(rng, state, calls[:1], row)
        real(rng, other, calls[1:], row)

    run = sample_circuit(machine, 0.3, 0.0, shots, seed=8)
    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "_draw_run", redraw_rest)
        redrawn = sample_circuit(machine, 0.3, 0.0, shots, seed=8)
    pair = montecarlo.CLONE_PAIRS[machine][0]
    covs = [np.concatenate([r.estimated_cov[None], r.batch_covs]) for r in (run, redrawn)]
    assert np.array_equal(*(criteria._pair_moments(c, pair) for c in covs))
    assert not np.array_equal(*covs)
    est = estimate_criteria(redrawn)
    values = montecarlo.sample_criteria([(machine, 0.3, 8)], shots)[:, 0]
    assert values.tolist() == [
        est.inseparability, est.inseparability_err, est.epr_paradox, est.epr_paradox_err
    ]
    assert estimate_criteria(run) == est


# One run's draws at 1000 shots from the PCG64 state of seed 2027, as numpy
# 2.4.6 gives them: the first three normals, the first chi^2, the last normal.
_CANARY_STATE = (55611647304757323001292636426646955892, 120608724771122158120179303604584792733)
_CANARY_DRAWS = {
    "first normals": [0.11091035840930463, -0.08375769594672197, -0.8041596859989614],
    "first chi^2": [55.70904875942323],
    "last normal": [-1.413101290996026],
}


def test_the_oracle_stream_is_the_one_the_golden_files_were_drawn_from():
    blocks = montecarlo._Blocks(1000, full=True)
    row = np.empty(blocks.stream)
    montecarlo._draw_run(blocks.rng, _CANARY_STATE, blocks.calls, row)
    first_chi2 = blocks.calls[0][1].start
    drawn = {
        "first normals": row[:3],
        "first chi^2": row[first_chi2 : first_chi2 + 1],
        "last normal": row[-1:],
    }
    for name, expected in _CANARY_DRAWS.items():
        assert np.allclose(drawn[name], expected, rtol=1e-12, atol=0.0), (
            f"{name}: drew {drawn[name].tolist()}, expected {expected}.  The likely cause is "
            f"numpy {np.__version__}: its Generator.standard_normal or Generator.chisquare "
            "stream on PCG64 differs from the one every mc_* golden field was drawn from"
        )


def test_bartlett_squares_are_the_factors_gram_matrices():
    # With identity QR factors the batch covariances are those of e, T^T T /
    # (n - 1) of the drawn factors T.  Each entry of T^T T is a dot product of
    # 8 terms, so any two summation orders differ by at most 2 * 8 eps |T_i|
    # |T_j| (Cauchy-Schwarz); the division adds one rounding.
    seeds = list(range(11))
    blocks = montecarlo._Blocks(2017, full=True)
    _, means, factors = blocks.draw(_seeding.pcg64_states(seeds))
    identity = np.broadcast_to(np.eye(8), (len(seeds), 8, 8))
    covs, _ = blocks.moments(means, factors, identity, np.full(len(seeds), 0.5), UNITY_GAIN)
    divisors = (blocks.counts - 1.0)[:, None, None]
    reference = np.einsum("...ki,...kj->...ij", factors, factors) / divisors
    norms = np.sqrt(np.einsum("...ki,...ki->...i", factors, factors))
    eps = np.finfo(float).eps
    bound = 16 * eps * norms[..., :, None] * norms[..., None, :] / divisors
    assert np.all(np.abs(covs[:, 1:] - reference) <= bound + eps * np.abs(reference))
    assert np.array_equal(covs, np.swapaxes(covs, -1, -2))


# 2**60 + 3: past 2**53, where a float grid of batch bounds drops shots.
@pytest.mark.parametrize("shots", [100, 2017, 5000, 81_920, 81_940, 1_000_000, 2**60 + 3])
def test_batch_sizes_cover_every_shot_once_in_order(shots):
    sizes = montecarlo._batch_sizes(shots)
    assert len(sizes) == montecarlo.NUM_BATCHES
    assert sum(sizes) == shots
    assert set(sizes) <= {shots // montecarlo.NUM_BATCHES, shots // montecarlo.NUM_BATCHES + 1}
    bounds = np.cumsum([0] + sizes).tolist()
    assert bounds == [shots * b // montecarlo.NUM_BATCHES for b in range(len(bounds))]


def test_a_run_past_2_pow_53_shots_estimates_its_exact_law():
    # The batch draws do not grow with the shot count, so 2**60 + 3 shots
    # cost what 100 do; the estimates sit within 5 standard errors of M^T M.
    run = sample_circuit("global", 0.5, 0.0, 2**60 + 3, seed=19)
    transfer, _ = _kernels.affine_map("global", 0.5, UNITY_GAIN, UNITY_GAIN)
    assert run.shots == 2**60 + 3
    assert np.all(np.abs(run.estimated_cov - transfer.T @ transfer) <= 5.0 * run.standard_errors)


def _runs(machine, v_s, seeds):
    """The ``(machine, v_s, seed)`` runs of ``machine`` at ``v_s[k]`` from ``seeds[k]``."""
    return [(machine, one_v_s, seed) for one_v_s, seed in zip(v_s, seeds)]


# (runs per segment, segments, blocks): the runs alternate machines in
# segments, one pass per segment; blocks are of one machine, each of at most
# BLOCK_RUNS runs.
@pytest.mark.parametrize(
    "points, segments, blocks",
    [
        (points, segments, segments * math.ceil(points / montecarlo.BLOCK_RUNS))
        for points, segments in [(2, 4), (5, 2), (5, 4), (7, 2), (13, 2), (40, 2), (200, 2)]
    ],
)
def test_block_plan_covers_every_run_once_in_order(monkeypatch, points, segments, blocks):
    real, plan = montecarlo._block_moments, []
    # each run's seed, known by its generator state
    seed_of = {np.random.PCG64(k).state["state"]["state"]: k for k in range(points * segments)}

    def spy(run_blocks, machines, v_s, states, gain):
        plan.append((set(machines), [seed_of[state] for state, _ in states]))
        return real(run_blocks, machines, v_s, states, gain)

    monkeypatch.setattr(montecarlo, "_block_moments", spy)

    def blocks_of(machines, points):
        plan.clear()
        seeds = list(range(len(machines)))
        for start in range(0, len(machines), points):
            segment = slice(start, start + points)
            v_s = np.full(len(machines[segment]), 0.5)
            montecarlo.sample_criteria(_runs(machines[start], v_s, seeds[segment]), 100)
        return list(plan)

    machines = [("local", "global")[s % 2] for s in range(segments) for _ in range(points)]
    plan_seen = blocks_of(machines, points)
    assert len(plan_seen) == blocks
    assert [k for _, block in plan_seen for k in block] == list(range(len(machines)))
    for machine, block in plan_seen:
        assert {machines[k] for k in block} == machine
        assert 0 < len(block) <= montecarlo.BLOCK_RUNS
    assert blocks_of(["local", "global", "local"], 1) == [
        ({"local"}, [0]), ({"global"}, [1]), ({"local"}, [2])
    ]


def _two_machine_runs(v_s, first_seed):
    """The local then the global machine's runs at ``v_s``, with consecutive seeds."""
    seeds = range(first_seed, first_seed + 2 * len(v_s))
    return _runs("local", v_s, seeds[: len(v_s)]) + _runs("global", v_s, seeds[len(v_s) :])


@pytest.mark.parametrize("points", [5, 40])
def test_a_two_machine_pass_hashes_its_generator_states_in_one_call(monkeypatch, points):
    real, calls = _seeding.pcg64_states, []

    def spy(seeds):
        calls.append(list(seeds))
        return real(seeds)

    monkeypatch.setattr(_seeding, "pcg64_states", spy)
    runs = _two_machine_runs(np.geomspace(0.05, 1.0, points), 11)
    values = montecarlo.sample_criteria(runs, 1000)
    assert calls == [list(range(11, 11 + 2 * points))]
    alone = [montecarlo.sample_criteria(runs[:points], 1000)]
    alone.append(montecarlo.sample_criteria(runs[points:], 1000))
    assert np.array_equal(values, np.hstack(alone))


# One two-machine pass: its blocks take BLOCK_RUNS runs in order whatever
# machine they belong to, so one block straddles the machines unless the
# local runs fill whole blocks (32 points).
@pytest.mark.parametrize("points", [2, 5, 16, 29, 32, 40, 200])
def test_a_two_machine_pass_takes_every_run_once_in_blocks(monkeypatch, points):
    real, plan, pairs, criteria = montecarlo._block_moments, [], [], []
    seed_of = {np.random.PCG64(k).state["state"]["state"]: k for k in range(2 * points)}

    def spy(run_blocks, machines, v_s, states, gain):
        plan.append((list(machines), [seed_of[state] for state, _ in states]))
        pairs.append(real(run_blocks, machines, v_s, states, gain)[-1])
        return (None, None, None, pairs[-1])

    def criteria_spy(v_s, gain, moments):
        # the criteria read the clone pair's moments of the block just drawn
        assert moments is pairs[-1]
        criteria.append(len(v_s))
        return real_criteria(v_s, gain, moments)

    real_criteria = montecarlo._criteria_block
    monkeypatch.setattr(montecarlo, "_block_moments", spy)
    monkeypatch.setattr(montecarlo, "_criteria_block", criteria_spy)
    runs = _two_machine_runs(np.full(points, 0.5), 0)
    assert montecarlo.sample_criteria(runs, 100).shape == (4, 2 * points)
    assert len(plan) == math.ceil(2 * points / montecarlo.BLOCK_RUNS)
    assert [k for _, block in plan for k in block] == list(range(2 * points))
    machine_of = ["local"] * points + ["global"] * points
    for machines, block in plan:
        assert machines == [machine_of[k] for k in block]
        assert 0 < len(block) <= montecarlo.BLOCK_RUNS
    # one stacked evaluation of the criteria per block, whatever its machines
    assert criteria == [len(block) for _, block in plan]


def test_a_block_straddling_the_machines_gives_each_run_its_own_bits():
    # BLOCK_RUNS - 3 points: the first block holds every local run and the
    # global machine's first 3.
    points, shots = montecarlo.BLOCK_RUNS - 3, 2017
    v_s = np.geomspace(0.05, 1.0, points)
    runs = _two_machine_runs(v_s, 400)
    values = montecarlo.sample_criteria(runs, shots)
    assert values.shape == (4, 2 * points)
    for k, (machine, one_v_s, seed) in enumerate(runs):
        est = estimate_criteria(sample_circuit(machine, one_v_s, 0.0, shots, seed))
        assert values[:, k].tolist() == [
            est.inseparability, est.inseparability_err, est.epr_paradox, est.epr_paradox_err
        ]


# A run whose draws hold a NaN fails the covariances' range check.
_NAN_RUN_AT_0_3 = (
    rf"^run at v_s = 0\.3, gain = {re.escape(repr(UNITY_GAIN))}: "
    r"its covariance leaves the float range$"
)


def test_a_two_machine_pass_raises_at_its_first_failing_run(monkeypatch):
    # A NaN draw in a global run of the straddling first block, and one in
    # the second block: the first raises the range check, naming its v_s,
    # and the second block is never drawn.
    points = montecarlo.BLOCK_RUNS - 3
    local_v_s, global_v_s = np.full(points, 0.5), np.full(points, 0.5)
    global_v_s[1] = 0.3
    seeds = list(range(5, 5 + 2 * points))
    runs = _runs("local", local_v_s, seeds[:points]) + _runs("global", global_v_s, seeds[points:])
    failing = (seeds[points + 1], seeds[-1])
    real, drawn = montecarlo._draw_run, []
    by_state = {np.random.PCG64(seed).state["state"]["state"]: seed for seed in seeds}

    def draw(rng, state, calls, row):
        seed = by_state[state[0]]
        drawn.append(seed)
        real(rng, state, calls, row)
        if seed in failing:
            row[2 : calls[0][0].stop] = np.nan  # the batch means

    monkeypatch.setattr(montecarlo, "_draw_run", draw)
    with pytest.raises(ValueError, match=_NAN_RUN_AT_0_3):
        montecarlo.sample_criteria(runs, 1000)
    assert drawn == seeds[: montecarlo.BLOCK_RUNS]


@pytest.mark.parametrize("machine", ["local", "global"])
def test_a_pass_samples_every_run_once_in_order_across_blocks(machine):
    # Three blocks, the last of 3 runs: every column is its own single run.
    runs = 2 * montecarlo.BLOCK_RUNS + 3
    v_s, seeds = np.geomspace(0.05, 1.0, runs), range(200, 200 + runs)
    values = montecarlo.sample_criteria(_runs(machine, v_s, seeds), 2017)
    assert values.shape == (4, runs)
    for k, (one_v_s, seed) in enumerate(zip(v_s, seeds)):
        est = estimate_criteria(sample_circuit(machine, one_v_s, 0.0, 2017, seed))
        assert values[:, k].tolist() == [
            est.inseparability, est.inseparability_err, est.epr_paradox, est.epr_paradox_err
        ]


# 100 shots: batches of 5, whose Bartlett factors have 4 drawn rows; 2017
# shots: unequal batches of 100 and 101.  Blocks of 3 and of BLOCK_RUNS runs
# end in a shorter block, which must read no row the block before it left.
@pytest.mark.parametrize("shots", [100, 2017])
def test_criteria_do_not_depend_on_the_block_size(monkeypatch, shots):
    runs = montecarlo.BLOCK_RUNS + 3
    v_s, seeds = np.geomspace(0.02, 1.0, runs), range(300, 300 + runs)
    machines, passes = ("local", "global"), []
    for size in (1, 3, montecarlo.BLOCK_RUNS, runs + 1):
        monkeypatch.setattr(montecarlo, "BLOCK_RUNS", size)
        passes.append([montecarlo.sample_criteria(_runs(m, v_s, seeds), shots) for m in machines])
    for values in passes:
        for one_machine, want in zip(values, passes[0]):
            assert one_machine.shape == (4, runs) and np.array_equal(one_machine, want)


def test_a_run_is_one_machine_v_s_and_seed():
    # sample_circuit samples one run: a list of v_s is named as the bad v_s
    for bad in ([0.5, 0.3], np.array([0.5]), [[0.5]]):
        with pytest.raises(ValueError, match=r"^v_s must be one number, got "):
            sample_circuit("global", bad, 0.0, 1000, 1)
        with pytest.raises(ValueError, match=r"^v_s must be one number, got "):
            montecarlo.sample_criteria([("local", 0.5, 1), ("global", bad, 2)], 1000)
    # a run of a pass is a (machine, v_s, seed) triple
    for bad in (("local", 0.5), ("local", 0.5, 1, 2), 0.5, None):
        message = rf"^a run must be a \(machine, v_s, seed\) triple, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            montecarlo.sample_criteria([("local", 0.5, 1), bad], 1000)
    # no runs, no criteria
    assert montecarlo.sample_criteria([], 1000).shape == (4, 0)


def test_a_bad_v_s_in_a_grid_is_named_alone():
    grid = np.geomspace(0.01, 1.0, 200)
    grid[57] = 1.5
    message = r"^squeezing variance must lie in \(0, 1\], got 1\.5$"
    with pytest.raises(ValueError, match=message):
        circuits.machine_covariances("global", grid)
    with pytest.raises(ValueError, match=message):
        montecarlo.sample_criteria(_runs("global", grid, range(200)), 1000)


def _wishart_moment_bounds(m, samples):
    """5-sigma bounds on the sample mean and variance of each entry of W ~ Wishart_8(I, m).

    E W_ij = m delta_ij and Var W_ij = m (1 + delta_ij).  Fourth cumulants:
    W_ii ~ chi^2(m) has 48 m; an off-diagonal entry is a sum of m products
    of independent unit normals, each of fourth moment 9, so 6 m.  Over
    ``samples`` draws the sample variance then has variance
    (kappa_4 + 2 Var^2) / samples, to first order.
    """
    eye = np.eye(8)
    variance = m * (1.0 + eye)
    kappa4 = np.where(eye == 1.0, 48.0 * m, 6.0 * m)
    mean_bound = 5.0 * np.sqrt(variance / samples)
    variance_bound = 5.0 * np.sqrt((kappa4 + 2.0 * variance**2) / samples)
    return m * eye, variance, mean_bound, variance_bound


# 100 shots: batches of 5, scatters of rank m = 4 < 8; 5000 shots: m = 249.
@pytest.mark.parametrize("shots, m", [(100, 4), (5000, 249)])
def test_batch_scatters_follow_the_wishart_law(shots, m):
    seeds = range(500)
    samples = len(seeds) * montecarlo.NUM_BATCHES
    mean, variance, mean_bound, variance_bound = _wishart_moment_bounds(m, samples)
    blocks = montecarlo._Blocks(shots, full=True)
    displacement, means, factors = blocks.draw(_seeding.pcg64_states(seeds))
    assert displacement.shape == (len(seeds), 2) and means.shape == (len(seeds), 20, 8)
    w = np.einsum("...ki,...kj->...ij", factors, factors).reshape(samples, 8, 8)
    assert np.array_equal(w, np.swapaxes(w, 1, 2))
    assert np.all(np.abs(w.mean(axis=0) - mean) <= mean_bound)
    assert np.all(np.abs(w.var(axis=0, ddof=1) - variance) <= variance_bound)
    if m < 8:
        assert np.all(np.linalg.matrix_rank(w) == m)


@pytest.mark.parametrize("machine", ["local", "global"])
@pytest.mark.parametrize("gain", [UNITY_GAIN, (1.1, 1.7)], ids=["unity", "pair"])
def test_stacked_affine_map_is_bit_identical_to_per_point_calls(machine, gain):
    gx, gp = (gain, gain) if np.isscalar(gain) else gain
    v_s = np.geomspace(1e-3, 1.0, 200)
    transfer, response = _kernels.affine_map(machine, v_s, gx, gp)
    assert transfer.shape == (200, _kernels.NOISE_COLUMNS, 8) and response.shape == (200, 2, 8)
    for k, one_v_s in enumerate(v_s):
        single = _kernels.affine_map(machine, one_v_s, gx, gp)
        assert np.array_equal(transfer[k], single[0]) and np.array_equal(response[k], single[1])


# 2017 and 61237 shots: unequal batches (100 and 101, 3061 and 3062 shots).
@pytest.mark.parametrize("shots", [2017, 5000, UNEQUAL_SHOTS])
@pytest.mark.parametrize("machine", ["local", "global"])
@pytest.mark.parametrize("gain", [UNITY_GAIN, (1.1, 1.7)], ids=["unity", "pair"])
@pytest.mark.parametrize("displacement_variance", [0.0, 3.0])
def test_stacked_runs_are_bit_identical_to_single_runs(
    monkeypatch, shots, machine, gain, displacement_variance
):
    v_s, seeds = [0.02, 0.3, 1.0], [5, 6, 7]
    factors, response, draws, pair = montecarlo._block_moments(
        montecarlo._Blocks(shots, full=True),
        [machine] * len(v_s),
        np.array(v_s),
        _seeding.pcg64_states(seeds),
        gain,
    )
    criteria = montecarlo.sample_criteria(_runs(machine, v_s, seeds), shots, gain)

    def run_k_of_the_block(k):
        # sample_circuit on the stacked block's maps, draws and pair covariances for run k
        row = slice(k, k + 1)
        return lambda *args: (factors[row], response[row], [d[row] for d in draws], pair[row])

    for k, (one_v_s, seed) in enumerate(zip(v_s, seeds)):
        run = sample_circuit(machine, one_v_s, displacement_variance, shots, seed, gain=gain)
        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "_block_moments", run_k_of_the_block(k))
            from_block = sample_circuit(machine, one_v_s, displacement_variance, shots, seed, gain)
        fields = _array_fields(run)
        assert len(fields) == 6
        for name, value in fields.items():
            assert np.array_equal(value, getattr(from_block, name)), name
        est = estimate_criteria(run)
        expected = [est.inseparability, est.inseparability_err]
        expected += [est.epr_paradox, est.epr_paradox_err]
        assert criteria[:, k].tolist() == expected


def test_stacked_criteria_on_threads_match_the_serial_pass():
    # Both machines, each over more than one block, sampled by passes on 3
    # user threads at once whose threads switch far more often than usual.
    v_s = np.geomspace(0.05, 1.0, montecarlo.BLOCK_RUNS + 3)
    seeds = range(100, 100 + len(v_s))

    def both_passes():
        runs = [_runs(machine, v_s, seeds) for machine in ("local", "global")]
        passes = [montecarlo.sample_criteria(one_machine, 2017) for one_machine in runs]
        return np.concatenate(passes, axis=1)

    serial = both_passes()
    start, threaded = threading.Barrier(3), [None] * 3

    def worker(i):
        start.wait(timeout=30)
        threaded[i] = both_passes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert serial.shape == (4, 2 * len(v_s))
    for values in threaded:
        assert values is not None and np.array_equal(serial, values)
    for machine, k in (("local", 0), ("global", len(v_s) - 1)):
        est = estimate_criteria(sample_circuit(machine, v_s[k], 0.0, 2017, seeds[k]))
        column = k + len(v_s) * (machine == "global")
        assert serial[:, column].tolist() == [
            est.inseparability, est.inseparability_err, est.epr_paradox, est.epr_paradox_err
        ]


def test_stacked_error_names_the_first_failing_run(monkeypatch):
    # A NaN draw in the first block and one in the second: the first block
    # raises its range check, and the second block is never drawn.
    v_s = [0.02, 0.3] + [0.5] * montecarlo.BLOCK_RUNS
    seeds = list(range(5, 5 + len(v_s)))
    real, drawn = montecarlo._draw_run, []
    # each run is known by its generator state
    by_state = {np.random.PCG64(seed).state["state"]["state"]: seed for seed in seeds}

    def draw(rng, state, calls, row):
        seed = by_state[state[0]]
        drawn.append(seed)
        real(rng, state, calls, row)
        if seed in (6, seeds[-1]):
            row[2 : calls[0][0].stop] = np.nan  # the batch means

    monkeypatch.setattr(montecarlo, "_draw_run", draw)
    with pytest.raises(ValueError, match=_NAN_RUN_AT_0_3):
        montecarlo.sample_criteria(_runs("global", v_s, seeds), 1000)
    assert drawn == seeds[: montecarlo.BLOCK_RUNS]
    with pytest.raises(ValueError, match="unknown machine 'sideways'"):
        montecarlo.sample_criteria([("sideways", 0.5, 9)], 1000)
    with pytest.raises(ValueError, match="unknown machine 'sideways'"):
        _kernels.affine_map("sideways", 0.5, UNITY_GAIN, UNITY_GAIN)


@pytest.mark.parametrize("machine", ["local", "global"])
@pytest.mark.parametrize("displacement_variance", [0.0, 1e4])
def test_streamed_moments_match_two_pass_definition(monkeypatch, machine, displacement_variance):
    # An explicit (shots, 8) array of normals: its batches' e-space means and
    # scatters, the latter as T^T T of their upper Cholesky factors T, merged
    # and mapped by sample_circuit, against the moments of the same array
    # pushed through the literal circuit.
    shots, v_s = UNEQUAL_SHOTS, 0.3
    rng = np.random.default_rng(71)
    normals = rng.standard_normal(2)
    displacement = normals * np.sqrt(displacement_variance)
    drawn = rng.standard_normal((shots, 8))
    batches = np.split(drawn, np.cumsum(montecarlo._batch_sizes(shots))[:-1])
    means = np.array([batch.mean(axis=0) for batch in batches])
    scatters = np.array([(batch - mean).T @ (batch - mean) for batch, mean in zip(batches, means)])

    def draw(blocks, states):
        return normals[None], means[None], np.swapaxes(np.linalg.cholesky(scatters), -1, -2)[None]

    monkeypatch.setattr(montecarlo._Blocks, "draw", draw)
    run = _array_fields(sample_circuit(machine, v_s, displacement_variance, shots, seed=0))
    expected = _two_pass_moments(machine, v_s, displacement, drawn)
    assert run.keys() == expected.keys()
    for name, value in run.items():
        want = expected[name]
        assert value.shape == want.shape and value.dtype == want.dtype, name
        if name != "standard_errors":
            assert np.max(np.abs(value - want)) <= 1e-12 * np.max(np.abs(want)), name
    # The standard errors are the Gaussian-law (Isserlis) ones of the run's
    # own covariance estimate C: Var(C_ij) = (C_ii C_jj + C_ij^2) / shots.
    cov = run["estimated_cov"]
    variances = np.diag(cov)
    isserlis = np.sqrt((np.outer(variances, variances) + cov**2) / shots)
    assert np.max(np.abs(run["standard_errors"] - isserlis)) <= 1e-15 * np.max(isserlis)
    # Against the empirical spread of the per-shot products c_i c_j (the
    # two-pass quartic).  For unit-variance Gaussian x, y with correlation
    # r, the eighth moments give, to first order in 1/n over n shots,
    # Var(quartic variance) = (8 + 40 r^2 + 8 r^4) / n, its covariance with
    # the Isserlis variance (1 + r^2) equal to that one's variance
    # (4 + 24 r^2 + 4 r^4) / n, and so Var(ratio of the two variances)
    # = (4 + 16 r^2 + 4 r^4) / (n (1 + r^2)^2), at most 6 / n (at r = 1).
    # The ratio of standard errors, its square root, has SD <= sqrt(1.5 / n):
    # 0.0049 at UNEQUAL_SHOTS; the bound is 5 of that.
    ratio = run["standard_errors"] / expected["standard_errors"]
    assert np.max(np.abs(ratio - 1.0)) <= 5.0 * np.sqrt(1.5 / shots)


def test_peak_memory_does_not_grow_with_shots():
    # The first call of a process also pays numpy's one-time set-up.
    sample_circuit("global", 0.5, 0.0, montecarlo.MIN_SHOTS, seed=3)
    peaks = []
    for shots in (400_000, 1_200_000, 10**12):
        tracemalloc.start()
        try:
            sample_circuit("global", 0.5, 0.0, shots, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 16e6
    assert max(peaks) - min(peaks) < 1e6


@pytest.mark.parametrize("machine", ["local", "global"])
@pytest.mark.parametrize("v_s", [1e-3, 0.01, 0.5, 1.0])
@pytest.mark.parametrize("gain", [np.sqrt(2.0), 0.0, (1.1, 1.7)], ids=["unity", "zero", "pair"])
def test_linear_map_matches_literal_per_shot_circuit(machine, v_s, gain):
    gx, gp = (gain, gain) if np.isscalar(gain) else gain
    displacement = np.array([3.0, -1.7])
    unit = np.random.default_rng(61).standard_normal((2000, _kernels.NOISE_COLUMNS))
    noise = unit.copy()
    noise[:, 0:4] *= np.sqrt([v_s, 1.0 / v_s, 1.0 / v_s, v_s])
    noise[:, 4:6] = displacement
    literal = _kernels.literal_circuit(machine, noise, np.sqrt(v_s), gx, gp)
    transfer, response = _kernels.affine_map(machine, v_s, gx, gp)
    mapped = unit @ transfer + displacement @ response
    assert transfer.shape == (_kernels.NOISE_COLUMNS, 8) and response.shape == (2, 8)
    assert mapped.shape == literal.shape == (2000, 8)
    # Relative bound: rounding in the literal circuit grows like 1/sqrt(v_s).
    assert np.max(np.abs(mapped - literal)) <= 1e-13 * np.max(np.abs(literal))
    # The sampler draws through this factor: same output covariance M^T M.
    factor = np.linalg.qr(transfer, mode="r")
    exact = transfer.T @ transfer
    assert factor.shape == (8, 8)
    assert np.max(np.abs(factor.T @ factor - exact)) <= 1e-13 * np.max(np.abs(exact))


@pytest.mark.parametrize("machine", ["local", "global"])
@pytest.mark.parametrize(
    "gain",
    [UNITY_GAIN, 1.0, 0.5, 2.5, (1.1, 1.7), (1.7, 1.1)],
    ids=["unity", "one", "half", "2.5", "pair", "swapped"],
)
def test_engine_covariance_is_the_oracle_law(machine, gain):
    # No sampling: the oracle's outputs are exactly N(offset, M^T M), so the
    # engine's clone covariance must equal M^T M up to rounding.  The worst
    # case measured over this grid is 2.1e-15 relative.
    v_s = np.geomspace(1e-3, 1.0, 200)
    transfer, _ = _kernels.affine_map(machine, v_s, *circuits._gain_pair(gain))
    law = np.swapaxes(transfer, -1, -2) @ transfer
    _, cov = circuits.machine_covariances(machine, v_s, gain)
    error = np.max(np.abs(cov - law), axis=(-2, -1))
    assert np.all(error <= 1e-13 * np.max(np.abs(cov), axis=(-2, -1)))


@pytest.mark.parametrize("machine", ["local", "global"])
@pytest.mark.parametrize("v_s", [0.25, 1.0])
def test_sampled_covariance_matches_analytic_engine(machine, v_s):
    seed = 1000 * (machine == "global") + int(100 * v_s)
    run = sample_circuit(machine, v_s, 0.0, SHOTS, seed=seed)
    expected = _analytic_cov(machine, v_s)
    assert np.all(np.abs(run.estimated_cov - expected) <= 5.0 * run.standard_errors)


@pytest.mark.parametrize("machine", ["local", "global"])
def test_standard_errors_calibrated_against_exact_oracle_moments(machine):
    # Each run's outputs have the exact covariance M^T M of its own map, so
    # (estimate - M^T M) / standard error should be N(0, 1) over seeds.
    # Bounds are ~5 sigma of that law for 200 seeds.
    v_s, seeds = 0.3, 200
    transfer, _ = _kernels.affine_map(machine, v_s, UNITY_GAIN, UNITY_GAIN)
    exact = transfer.T @ transfer
    upper = np.triu_indices(8)
    z = np.array(
        [
            ((run.estimated_cov - exact) / run.standard_errors)[upper]
            for run in (sample_circuit(machine, v_s, 0.0, 5000, seed=s) for s in range(seeds))
        ]
    )
    assert z.shape == (seeds, 36)
    assert np.max(np.abs(z.mean(axis=0))) <= 0.35
    sd = z.std(axis=0, ddof=1)
    assert np.all((sd >= 0.75) & (sd <= 1.25))


@pytest.mark.parametrize("machine", ["local", "global"])
def test_criteria_error_bars_calibrated_against_exact_oracle_moments(machine):
    # With the exact covariance M^T M of the run's map, the ratio
    # (sampled - exact criterion) / batch-means error follows Student t
    # with NUM_BATCHES - 1 = 19 degrees of freedom: SD sqrt(19/17) = 1.057
    # and kurtosis 3 + 6/15.  Over 200 seeds the sample mean has SD
    # 1.057/sqrt(200) and the sample SD has SD ~ 1.057 sqrt((3.4 - 1)/800);
    # the bounds are 5 of those.
    v_s, seeds, shots = 0.3, 200, 5000
    dof = montecarlo.NUM_BATCHES - 1
    sd_t = np.sqrt(dof / (dof - 2.0))
    kurtosis = 3.0 + 6.0 / (dof - 4.0)
    mean_bound = 5.0 * sd_t / np.sqrt(seeds)
    sd_bound = 5.0 * sd_t * np.sqrt((kurtosis - 1.0) / (4.0 * seeds))
    transfer, _ = _kernels.affine_map(machine, v_s, UNITY_GAIN, UNITY_GAIN)
    estimates = [
        estimate_criteria(sample_circuit(machine, v_s, 0.0, shots, seed=s)) for s in range(seeds)
    ]
    exact_cm = correlation_matrix_from_cov(transfer.T @ transfer, estimates[0].pair)
    exact = {"inseparability": inseparability(exact_cm), "epr_paradox": epr_paradox(exact_cm)}
    for name, value in exact.items():
        t = np.array([(getattr(e, name) - value) / getattr(e, f"{name}_err") for e in estimates])
        assert abs(t.mean()) <= mean_bound, name
        assert abs(t.std(ddof=1) - sd_t) <= sd_bound, name


def test_sampled_covariance_is_displacement_independent():
    # The shots' outputs are e @ R + offset and only the offset sees the
    # displacement, so the second moments are bit-identical at any size of it.
    plain = sample_circuit("global", 0.5, 0.0, 20_000, seed=9)
    for displacement_variance in (10.0, 1e4, 1e200):
        shifted = sample_circuit("global", 0.5, displacement_variance, 20_000, seed=9)
        for name in ("estimated_cov", "standard_errors", "mean_standard_errors", "batch_covs"):
            assert np.array_equal(getattr(plain, name), getattr(shifted, name)), name
        assert np.all(np.isfinite(shifted.estimated_mean))


def test_estimated_means_follow_the_drawn_displacement():
    run = sample_circuit("local", 0.5, 4.0, SHOTS, seed=7)
    s_plus, s_minus = np.random.default_rng(7).standard_normal(2) * 2.0
    expected = np.tile([s_plus, s_minus], 4)
    assert np.all(np.abs(run.estimated_mean - expected) <= 5.0 * run.mean_standard_errors)


def test_estimated_means_vanish_without_displacement():
    run = sample_circuit("global", 0.5, 0.0, SHOTS, seed=13)
    assert np.all(np.abs(run.estimated_mean) <= 5.0 * run.mean_standard_errors)


def test_unit_noise_clones_at_coherent_input():
    run = sample_circuit("local", 1.0, 0.0, SHOTS, seed=3)
    diag = np.diag(run.estimated_cov)
    diag_err = np.diag(run.standard_errors)
    assert np.all(np.abs(diag - 2.0) <= 5.0 * diag_err)


def test_zero_gain_clone_variance_agrees_with_analytic_map():
    run = sample_circuit("local", 1.0, 0.0, SHOTS, seed=31, gain=0.0)
    expected = _analytic_cov("local", 1.0, gain=0.0)
    assert np.allclose(np.diag(expected), 1.0, atol=1e-12)  # 1/4 + 1/4 + 1/2
    assert np.all(np.abs(run.estimated_cov - expected) <= 5.0 * run.standard_errors)


def test_standard_errors_shrink_like_inverse_root_shots():
    small = sample_circuit("local", 0.5, 0.0, 10_000, seed=17)
    large = sample_circuit("local", 0.5, 0.0, 100_000, seed=18)
    ratio = small.standard_errors / large.standard_errors
    expected = np.sqrt(10.0)
    assert np.all(ratio > expected / 1.5)
    assert np.all(ratio < expected * 1.5)


def test_estimate_criteria_near_global_crossing():
    run = sample_circuit("global", 0.5, 0.0, SHOTS, seed=23)
    est = estimate_criteria(run)
    assert est.pair == (0, 1)
    assert abs(est.inseparability - 1.0) <= 5.0 * est.inseparability_err
    assert abs(est.epr_paradox - 2.56) <= 5.0 * est.epr_paradox_err
    assert est.inseparability_err > 0
    assert est.batches == 20


def test_estimate_criteria_local_paradox_is_four():
    run = sample_circuit("local", 0.3, 0.0, SHOTS, seed=29)
    est = estimate_criteria(run)
    assert est.pair == (0, 3)
    assert abs(est.epr_paradox - 4.0) <= 5.0 * est.epr_paradox_err
    assert abs(est.inseparability - 1.3) <= 5.0 * est.inseparability_err


def test_estimate_criteria_is_displacement_invariant_within_errors():
    plain = estimate_criteria(sample_circuit("global", 0.4, 0.0, 50_000, seed=41))
    shifted = estimate_criteria(sample_circuit("global", 0.4, 10.0, 50_000, seed=43))
    band = 5.0 * np.hypot(plain.inseparability_err, shifted.inseparability_err)
    assert abs(plain.inseparability - shifted.inseparability) <= band
    band = 5.0 * np.hypot(plain.epr_paradox_err, shifted.epr_paradox_err)
    assert abs(plain.epr_paradox - shifted.epr_paradox) <= band


def test_estimate_criteria_on_second_clone_pair():
    run = sample_circuit("local", 0.5, 0.0, 50_000, seed=47)
    est1 = estimate_criteria(run, clone=1)
    est2 = estimate_criteria(run, clone=2)
    assert est2.pair == (2, 1)
    band = 5.0 * np.hypot(est1.inseparability_err, est2.inseparability_err)
    assert abs(est1.inseparability - est2.inseparability) <= band


def test_sample_circuit_input_validation():
    with pytest.raises(ValueError):
        sample_circuit("local", 0.5, 0.0, 99, seed=1)
    for bad in ("sideways", ["local"], None):
        with pytest.raises(ValueError, match=rf"^unknown machine {re.escape(repr(bad))}$"):
            sample_circuit(bad, 0.5, 0.0, 1000, seed=1)
    for bad in (0.0, 1.5, np.nan):
        with pytest.raises(ValueError, match="squeezing variance"):
            sample_circuit("local", bad, 0.0, 1000, seed=1)
    with pytest.raises(ValueError):
        sample_circuit("local", 0.5, -1.0, 1000, seed=1)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="displacement_variance"):
            sample_circuit("local", 0.5, bad, 1000, seed=1)
    for bad in (None, 1.5, -1):
        with pytest.raises(ValueError, match="seed"):
            sample_circuit("local", 0.5, 0.0, 1000, seed=bad)
    for bad in (np.inf, np.nan, 150.9, "1000", None):
        with pytest.raises(ValueError, match="shots"):
            sample_circuit("local", 0.5, 0.0, bad, seed=1)
    assert sample_circuit("local", 0.5, 0.0, np.int64(1000), seed=1).shots == 1000


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("machine", ["local", "global"])
@pytest.mark.parametrize("gain", [1e200, (1.0, 1e160), 1e307], ids=["1e200", "pair", "1e307"])
def test_covariance_past_the_float_range_raises_naming_gain(machine, gain):
    # Under -W error: a ValueError that names the gain, no escaped overflow.
    message = rf"^run at v_s = 0\.5, gain = {re.escape(repr(gain))}: .* float range"
    with pytest.raises(ValueError, match=message):
        sample_circuit(machine, 0.5, 0.0, 5000, 1, gain=gain)
    with pytest.raises(ValueError, match=message):
        montecarlo.sample_criteria([(machine, 0.5, 1)], 5000, gain)


@pytest.mark.filterwarnings("error")
def test_covariance_near_the_float_range_is_estimated_at_any_shot_count():
    # Variances near 1e300 over 10**12 shots: the scatter sums, 1e312 in
    # plain units, stay in range, and the estimates match M^T M.
    gain = 1e150
    run = sample_circuit("local", 0.5, 0.0, 10**12, 1, gain=gain)
    transfer, _ = _kernels.affine_map("local", 0.5, gain, gain)
    exact = transfer.T @ transfer
    assert np.max(exact) > 1e299
    assert np.all(np.abs(run.estimated_cov - exact) <= 5.0 * run.standard_errors)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gain", [1e39, 1e60, 1e150])
def test_criteria_past_the_float_range_raise_naming_gain(gain):
    # The covariance is in range, but the batch spread of epr_paradox, which
    # grows as the fourth power of the gain, or the criteria are not.
    message = rf"^run at v_s = 0\.5, gain = {re.escape(repr(gain))}: its criteria leave"
    with pytest.raises(ValueError, match=message):
        montecarlo.sample_criteria([("local", 0.5, 1)], 5000, gain)
    run = sample_circuit("local", 0.5, 0.0, 5000, 1, gain=gain)
    with pytest.raises(ValueError, match=r"^run at v_s = 0\.5: its criteria leave"):
        estimate_criteria(run)


@pytest.mark.filterwarnings("error")
def test_criteria_of_a_run_at_tiny_v_s_raise_naming_it():
    run = sample_circuit("local", 1e-300, 0.0, 5000, 1)
    with pytest.raises(ValueError, match=r"^run at v_s = 1e-300: its criteria leave"):
        estimate_criteria(run)


def test_estimate_criteria_needs_enough_batches():
    run = sample_circuit("local", 0.5, 0.0, 1000, seed=51)
    truncated = dataclasses.replace(
        run, batch_means=run.batch_means[:10], batch_covs=run.batch_covs[:10]
    )
    with pytest.raises(ValueError):
        estimate_criteria(truncated)
    with pytest.raises(ValueError):
        estimate_criteria(run, clone=3)


def test_estimate_criteria_names_a_bad_clone_pair_of_a_hand_built_run():
    run = sample_circuit("global", 0.5, 0.0, 1000, seed=51)
    with pytest.raises(ValueError, match=r"^pair \(0, 9\) out of range for 4 modes$"):
        estimate_criteria(dataclasses.replace(run, clone1=(0, 9)))
    with pytest.raises(ValueError, match=r"^mode pair must be distinct, got \(1, 1\)$"):
        estimate_criteria(dataclasses.replace(run, clone1=(1, 1)))


def _per_matrix_criteria(run, pair):
    """The criteria estimate by one scalar call per matrix."""
    values = []
    for cov in (run.estimated_cov, *run.batch_covs):
        cm = correlation_matrix_from_cov(cov, pair)
        values.append((inseparability(cm), epr_paradox(cm)))
    i_all, eps_all = np.array(values).T
    root_n = np.sqrt(len(run.batch_covs))
    return {
        "inseparability": i_all[0],
        "inseparability_err": i_all[1:].std(ddof=1) / root_n,
        "epr_paradox": eps_all[0],
        "epr_paradox_err": eps_all[1:].std(ddof=1) / root_n,
    }


@pytest.mark.parametrize("machine", ["local", "global"])
@pytest.mark.parametrize("clone", [1, 2])
@pytest.mark.parametrize("displacement_variance", [0.0, 1e4])
def test_stacked_criteria_match_per_matrix_reference(machine, clone, displacement_variance):
    run = sample_circuit(machine, 0.3, displacement_variance, 5000, seed=59)
    est = estimate_criteria(run, clone=clone)
    pair = run.clone1 if clone == 1 else run.clone2
    assert est.pair == pair and est.batches == montecarlo.NUM_BATCHES
    for name, want in _per_matrix_criteria(run, pair).items():
        assert abs(getattr(est, name) - want) <= 1e-12 * abs(want), name


@pytest.mark.parametrize("batch", [0, montecarlo.NUM_BATCHES - 1])
def test_stacked_criteria_check_every_batch_matrix(batch):
    run = sample_circuit("global", 0.5, 0.0, 5000, seed=61)
    x, y = (2 * m for m in run.clone1)  # x quadratures of the pair's modes

    def with_batch_cov(edit):
        covs = run.batch_covs.copy()
        edit(covs[batch])
        return dataclasses.replace(run, batch_covs=covs)

    def nan_entry(cov):
        cov[x, y] = cov[y, x] = np.nan

    def zero_conditioning_variance(cov):
        cov[y, :] = cov[:, y] = 0.0

    with pytest.raises(ValueError, match="non-finite"):
        estimate_criteria(with_batch_cov(nan_entry))
    with pytest.raises(DegenerateInputError):
        estimate_criteria(with_batch_cov(zero_conditioning_variance))


def test_moments_are_checked_once_per_run_and_never_in_the_cli_pass(monkeypatch, tmp_path):
    # sample_circuit checks its run once, as a SampleRun; estimate_criteria
    # checks a run's pair moments, which may be built by hand; the CLI's
    # pass, whose covariances are range-checked and symmetric by
    # construction, calls neither check.
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls.append(f"{module.__name__}.{name}")
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    spy(montecarlo, "_check_moments")
    spy(montecarlo, "_check_pair")
    spy(criteria, "_check_pair")  # a CorrelationMatrix's check
    run = sample_circuit("global", 0.5, 1.0, 1000, seed=3)
    assert calls == ["ecloner.montecarlo._check_moments"]
    estimate_criteria(run)
    assert calls == ["ecloner.montecarlo._check_moments", "ecloner.montecarlo._check_pair"]
    # both machines, each over two blocks
    calls.clear()
    points = str(montecarlo.BLOCK_RUNS + 3)
    argv = ["--points", points, "--mc-shots", "1000", "--output", str(tmp_path / "out.csv")]
    assert cli.main(argv) == 0
    assert calls == []


def test_sample_run_invariants():
    run = sample_circuit("global", 0.7, 1.0, 1000, seed=53)
    assert np.array_equal(run.estimated_cov, run.estimated_cov.T)
    assert np.all(run.standard_errors > 0)
    assert np.all(run.mean_standard_errors > 0)
    assert run.clone1 == (0, 1) and run.clone2 == (2, 3)
    assert run.shots == 1000 and run.seed == 53
    with pytest.raises(ValueError, match="symmetric"):
        dataclasses.replace(run, estimated_cov=np.full((8, 8), np.nan))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="estimated mean"):
            dataclasses.replace(run, estimated_mean=np.full(8, bad))
    for name, shape in (("standard_errors", (8, 8)), ("mean_standard_errors", (8,))):
        for bad in (np.nan, np.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match=name):
                dataclasses.replace(run, **{name: np.full(shape, bad)})
    # a single shot has no error bars: zero ones pass there, not from 2 shots
    zero = {"standard_errors": np.zeros((8, 8)), "mean_standard_errors": np.zeros(8)}
    dataclasses.replace(run, shots=1, **zero)
    with pytest.raises(ValueError, match="standard_errors must be finite and positive"):
        dataclasses.replace(run, shots=2, **zero)
    # the symmetry tolerance is inclusive
    cov = run.estimated_cov.copy()
    cov[0, 1], cov[1, 0] = 0.0, SYMMETRY_TOL
    dataclasses.replace(run, estimated_cov=cov)
    cov[1, 0] = np.nextafter(SYMMETRY_TOL, 1.0)
    with pytest.raises(ValueError, match="estimated covariance must be symmetric"):
        dataclasses.replace(run, estimated_cov=cov)
