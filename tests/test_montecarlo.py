"""Sampling oracle: determinism, kernel equivalence, and moment agreement."""

import dataclasses
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
from ecloner import _kernels, montecarlo
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
    """The moments of a run by their definitions, on the whole noise array."""
    rng = np.random.default_rng(seed)
    s_plus, s_minus = rng.standard_normal(2) * np.sqrt(displacement_variance)
    noise = rng.standard_normal((shots, _kernels.NOISE_COLUMNS))
    noise[:, 0:4] *= np.sqrt([v_s, 1.0 / v_s, 1.0 / v_s, v_s])
    noise[:, 4] = s_plus
    noise[:, 5] = s_minus
    if machine == "local":
        outputs = _kernels.propagate_local_numpy(noise, UNITY_GAIN, UNITY_GAIN)
    else:
        outputs = _kernels.propagate_global_numpy(noise, np.sqrt(v_s), UNITY_GAIN, UNITY_GAIN)

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
        assert np.max(np.abs(value - want)) <= 1e-12 * np.max(np.abs(want)), name


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
    rng = np.random.default_rng(61)
    noise = rng.standard_normal((2000, _kernels.NOISE_COLUMNS))
    noise[:, 0:4] *= np.sqrt([v_s, 1.0 / v_s, 1.0 / v_s, v_s])
    noise[:, 4:6] *= 3.0
    if machine == "local":
        literal = _kernels.propagate_local_numpy(noise, gx, gp)
    else:
        literal = _kernels.propagate_global_numpy(noise, np.sqrt(v_s), gx, gp)
    mapped = _kernels.propagate(noise, _kernels.transfer(machine, v_s, gx, gp))
    assert mapped.shape == literal.shape == (2000, 8)
    # Relative bound: rounding in the literal circuit grows like 1/sqrt(v_s).
    assert np.max(np.abs(mapped - literal)) <= 1e-13 * np.max(np.abs(literal))


@pytest.mark.parametrize("machine", ["local", "global"])
@pytest.mark.parametrize("v_s", [0.25, 1.0])
def test_sampled_covariance_matches_analytic_engine(machine, v_s):
    seed = 1000 * (machine == "global") + int(100 * v_s)
    run = sample_circuit(machine, v_s, 0.0, SHOTS, seed=seed)
    expected = _analytic_cov(machine, v_s)
    assert np.all(np.abs(run.estimated_cov - expected) <= 5.0 * run.standard_errors)


def test_sampled_covariance_is_displacement_independent():
    plain = sample_circuit("global", 0.5, 0.0, 20_000, seed=9)
    shifted = sample_circuit("global", 0.5, 10.0, 20_000, seed=9)
    assert np.allclose(plain.estimated_cov, shifted.estimated_cov, atol=1e-10)


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
    with pytest.raises(ValueError):
        sample_circuit("local", 1.5, 0.0, 1000, seed=1)
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
