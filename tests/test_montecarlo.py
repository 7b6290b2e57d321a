"""Sampling oracle: determinism, kernel equivalence, and moment agreement."""

import dataclasses
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
from ecloner import _kernels, circuits, montecarlo
from ecloner.circuits import UNITY_GAIN
from ecloner.criteria import correlation_matrix_from_cov, epr_paradox, inseparability

SHOTS = 100_000
# A chunk size that divides no batch: with 61_237 shots each of the 20
# batches holds 3061 or 3062 shots, i.e. three full chunks and a partial one.
SMALL_CHUNK = 997
MULTI_CHUNK_SHOTS = 61_237


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


def _two_pass_moments(machine, v_s, displacement_variance, shots, seed):
    """The moments of a run by their definitions, on the whole noise array.

    The run's stream is 8 normals ``e`` per shot; ``e @ Q.T``, with ``Q``
    the orthonormal factor of the run's map ``M = Q R``, lifts them to the
    18 inputs of the literal circuit, where ``e @ Q.T @ M = e @ R``.
    """
    rng = np.random.default_rng(seed)
    s_plus, s_minus = rng.standard_normal(2) * np.sqrt(displacement_variance)
    drawn = rng.standard_normal((shots, 8))
    transfer, _ = _kernels.affine_map(machine, v_s, UNITY_GAIN, UNITY_GAIN)
    noise = drawn @ np.linalg.qr(transfer)[0].T
    noise[:, 0:4] *= np.sqrt([v_s, 1.0 / v_s, 1.0 / v_s, v_s])
    noise[:, 4] = s_plus
    noise[:, 5] = s_minus
    outputs = _kernels.literal_circuit(machine, noise, np.sqrt(v_s), UNITY_GAIN, UNITY_GAIN)

    mean = outputs.mean(axis=0)
    centered = outputs - mean
    cov = centered.T @ centered / (shots - 1)
    sq = centered**2
    prod_var = np.maximum(sq.T @ sq / shots - (centered.T @ centered / shots) ** 2, 0.0)
    bounds = np.linspace(0, shots, montecarlo.NUM_BATCHES + 1).astype(int)
    batch_means, batch_covs = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        batch = outputs[lo:hi]
        batch_means.append(batch.mean(axis=0))
        dev = batch - batch_means[-1]
        bcov = dev.T @ dev / (hi - lo - 1)
        batch_covs.append(0.5 * (bcov + bcov.T))
    return {
        "estimated_mean": mean,
        "estimated_cov": 0.5 * (cov + cov.T),
        "standard_errors": np.sqrt(prod_var / shots),
        "mean_standard_errors": np.sqrt(np.diag(cov) / shots),
        "batch_means": np.array(batch_means),
        "batch_covs": np.array(batch_covs),
    }


def test_identical_seed_gives_bit_identical_runs(monkeypatch):
    a = sample_circuit("local", 0.5, 1.0, 1000, seed=77)
    b = sample_circuit("local", 0.5, 1.0, 1000, seed=77)
    for name, value in _array_fields(a).items():
        assert np.array_equal(value, getattr(b, name)), name
    assert a.rng_algorithm == RNG_ALGORITHM
    monkeypatch.setattr(montecarlo, "CHUNK_SHOTS", SMALL_CHUNK)
    a = sample_circuit("global", 0.5, 1.0, MULTI_CHUNK_SHOTS, seed=77)
    b = sample_circuit("global", 0.5, 1.0, MULTI_CHUNK_SHOTS, seed=77)
    for name, value in _array_fields(a).items():
        assert np.array_equal(value, getattr(b, name)), name


def test_concurrent_runs_are_bit_identical_to_sequential_ones():
    # Each run owns its generator and buffers, so runs on threads that
    # switch far more often than usual give the same bits as run in turn.
    shots = 3 * montecarlo.NUM_BATCHES * montecarlo.CHUNK_SHOTS // 2 + 7
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


@pytest.mark.parametrize("shots", [100, 2017, 5000, 81_920, 81_940, 1_000_000])
def test_chunk_plan_covers_every_batch_once_in_order(shots):
    sizes = np.diff(np.linspace(0, shots, montecarlo.NUM_BATCHES + 1).astype(int))
    covered, order = np.zeros(montecarlo.NUM_BATCHES, dtype=int), []
    for first, count, size in montecarlo._chunk_plan(shots):
        assert count * size <= montecarlo.CHUNK_SHOTS
        covered[first : first + count] += size
        order += range(first, first + count)
    assert covered.tolist() == sizes.tolist()
    assert order == sorted(order)


# (points per machine, workers, blocks): 2 x 2 runs on 4 workers are 4
# blocks of one run; 5 x 2 on 2 workers two of 5; 200 x 2 blocks of BLOCK_RUNS.
@pytest.mark.parametrize(
    "points, workers, blocks",
    [(2, 4, 4), (5, 2, 2), (5, 4, 4), (7, 1, 2), (13, 3, 4), (40, 2, 10), (200, 2, 50)],
)
def test_block_plan_covers_every_run_once_in_order(points, workers, blocks):
    machines = ["local"] * points + ["global"] * points
    plan = montecarlo._block_plan(machines, workers)
    assert len(plan) == blocks
    assert [k for block in plan for k in range(block.start, block.stop)] == list(range(2 * points))
    cap = min(montecarlo.BLOCK_RUNS, -(-2 * points // workers))
    for block in plan:
        assert len(set(machines[block])) == 1
        assert 0 < block.stop - block.start <= cap
    assert montecarlo._block_plan(["local", "global", "local"], 1) == [
        slice(0, 1), slice(1, 2), slice(2, 3)
    ]


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


# 2017 shots: unequal batches (100 and 101 shots) packed whole into chunks;
# MULTI_CHUNK_SHOTS with SMALL_CHUNK: every batch split into pieces.
@pytest.mark.parametrize("shots", [2017, 5000, MULTI_CHUNK_SHOTS])
@pytest.mark.parametrize("machine", ["local", "global"])
@pytest.mark.parametrize("gain", [UNITY_GAIN, (1.1, 1.7)], ids=["unity", "pair"])
@pytest.mark.parametrize("displacement_variance", [0.0, 3.0])
def test_stacked_runs_are_bit_identical_to_single_runs(
    monkeypatch, shots, machine, gain, displacement_variance
):
    if shots == MULTI_CHUNK_SHOTS:
        monkeypatch.setattr(montecarlo, "CHUNK_SHOTS", SMALL_CHUNK)
    v_s, seeds = [0.02, 0.3, 1.0], [5, 6, 7]
    stacked = montecarlo._block_moments(
        machine, np.array(v_s), displacement_variance, shots, seeds, gain
    )
    runs = [(machine, one_v_s, seed) for one_v_s, seed in zip(v_s, seeds)]
    criteria = montecarlo.sample_criteria(runs, shots, gain)
    for k, (one_v_s, seed) in enumerate(zip(v_s, seeds)):
        run = sample_circuit(machine, one_v_s, displacement_variance, shots, seed, gain=gain)
        fields = _array_fields(run)
        assert fields.keys() == stacked.keys()
        for name, value in fields.items():
            assert np.array_equal(value, stacked[name][k]), name
        est = estimate_criteria(run)
        expected = [est.inseparability, est.inseparability_err]
        expected += [est.epr_paradox, est.epr_paradox_err]
        assert criteria[:, k].tolist() == expected


def test_stacked_criteria_on_threads_match_the_serial_pass(monkeypatch):
    # Both machines, each over more than one block, on one and on 3 workers
    # whose threads switch far more often than usual.
    v_s = np.geomspace(0.05, 1.0, montecarlo.BLOCK_RUNS + 3)
    runs = [(machine, x, 100 + k) for machine in ("local", "global") for k, x in enumerate(v_s)]
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
    serial = montecarlo.sample_criteria(runs, 2017)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = montecarlo.sample_criteria(runs, 2017)
    finally:
        sys.setswitchinterval(interval)
    assert serial.shape == (4, len(runs))
    assert np.array_equal(serial, threaded)
    for k in (0, len(v_s), len(runs) - 1):
        machine, one_v_s, seed = runs[k]
        est = estimate_criteria(sample_circuit(machine, one_v_s, 0.0, 2017, seed))
        assert serial[:, k].tolist() == [
            est.inseparability, est.inseparability_err, est.epr_paradox, est.epr_paradox_err
        ]


def test_stacked_error_names_the_first_failing_run(monkeypatch):
    runs = [("global", 0.02, 5), ("global", 0.3, 6), ("local", 0.5, 7), ("local", 1.0, 8)]
    real = montecarlo._draw_run

    def draw(chunks, seed, factor, gram):
        normals = real(chunks, seed, factor, gram)
        if seed in (6, 8):
            gram[:] = np.nan
        return normals

    monkeypatch.setattr(montecarlo, "_draw_run", draw)
    first_failure = r"^run at v_s = 0\.3: estimated covariance"
    with pytest.raises(ValueError, match=first_failure):
        montecarlo.sample_criteria(runs, 1000)
    # one block per machine, each on its own worker
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    with pytest.raises(ValueError, match=first_failure):
        montecarlo.sample_criteria(runs, 1000)
    with pytest.raises(ValueError, match="unknown machine 'sideways'"):
        montecarlo.sample_criteria(runs + [("sideways", 0.5, 9)], 1000)
    with pytest.raises(ValueError, match="unknown machine 'sideways'"):
        _kernels.affine_map("sideways", 0.5, UNITY_GAIN, UNITY_GAIN)


@pytest.mark.parametrize("machine", ["local", "global"])
@pytest.mark.parametrize("displacement_variance", [0.0, 1e4])
def test_streamed_moments_match_two_pass_definition(monkeypatch, machine, displacement_variance):
    monkeypatch.setattr(montecarlo, "CHUNK_SHOTS", SMALL_CHUNK)
    run = sample_circuit(machine, 0.3, displacement_variance, MULTI_CHUNK_SHOTS, seed=71)
    expected = _two_pass_moments(machine, 0.3, displacement_variance, MULTI_CHUNK_SHOTS, 71)
    fields = _array_fields(run)
    assert fields.keys() == expected.keys()
    for name, value in fields.items():
        want = expected[name]
        assert value.shape == want.shape and value.dtype == want.dtype, name
        if name != "standard_errors":
            assert np.max(np.abs(value - want)) <= 1e-12 * np.max(np.abs(want)), name
    # The standard errors are the Gaussian-law (Isserlis) ones of the run's
    # own covariance estimate C: Var(C_ij) = (C_ii C_jj + C_ij^2) / shots.
    variances = np.diag(run.estimated_cov)
    isserlis = np.sqrt((np.outer(variances, variances) + run.estimated_cov**2) / run.shots)
    assert np.max(np.abs(run.standard_errors - isserlis)) <= 1e-15 * np.max(isserlis)
    # Against the empirical spread of the per-shot products c_i c_j (the
    # two-pass quartic).  For unit-variance Gaussian x, y with correlation
    # r, the eighth moments give, to first order in 1/n over n shots,
    # Var(quartic variance) = (8 + 40 r^2 + 8 r^4) / n, its covariance with
    # the Isserlis variance (1 + r^2) equal to that one's variance
    # (4 + 24 r^2 + 4 r^4) / n, and so Var(ratio of the two variances)
    # = (4 + 16 r^2 + 4 r^4) / (n (1 + r^2)^2), at most 6 / n (at r = 1).
    # The ratio of standard errors, its square root, has SD <= sqrt(1.5 / n):
    # 0.0049 at MULTI_CHUNK_SHOTS; the bound is 5 of that.
    ratio = run.standard_errors / expected["standard_errors"]
    assert np.max(np.abs(ratio - 1.0)) <= 5.0 * np.sqrt(1.5 / MULTI_CHUNK_SHOTS)


def test_peak_memory_does_not_grow_with_shots():
    # The first call of a process also pays numpy's one-time set-up.
    sample_circuit("global", 0.5, 0.0, montecarlo.MIN_SHOTS, seed=3)
    peaks = []
    for shots in (400_000, 1_200_000):
        assert shots >= montecarlo.NUM_BATCHES * montecarlo.CHUNK_SHOTS
        tracemalloc.start()
        try:
            sample_circuit("global", 0.5, 0.0, shots, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 16e6
    assert abs(peaks[1] - peaks[0]) < 1e6


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
    with pytest.raises(ValueError):
        sample_circuit("sideways", 0.5, 0.0, 1000, seed=1)
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


def test_estimate_criteria_needs_enough_batches():
    run = sample_circuit("local", 0.5, 0.0, 1000, seed=51)
    truncated = dataclasses.replace(
        run, batch_means=run.batch_means[:10], batch_covs=run.batch_covs[:10]
    )
    with pytest.raises(ValueError):
        estimate_criteria(truncated)
    with pytest.raises(ValueError):
        estimate_criteria(run, clone=3)


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
