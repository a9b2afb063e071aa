"""The estimator: cu normalisation, robust timeline, latency read-off."""

import numpy as np
import pytest

from ledgerlib.estimator import latency_metrics, normalised_ticks, robust_timeline


def test_normalised_ticks_use_the_bracketing_calibrations():
    ticks = [2.0, 2.0, 2.0, 6.0, 6.0]
    cals = [1.0, 1.0, 3.0]  # groups of 3 ticks: brackets (1+1)/2 and (1+3)/2
    assert normalised_ticks(ticks, cals, 3).tolist() == [2.0, 2.0, 2.0, 3.0, 3.0]


def test_normalised_ticks_reject_a_wrong_calibration_count():
    with pytest.raises(ValueError):
        normalised_ticks([1.0] * 5, [1.0, 1.0], 3)


def test_uniform_machine_slowdown_cancels():
    rng = np.random.default_rng(0)
    ticks = rng.uniform(1.0, 2.0, size=40)
    cals = np.full(11, 0.5)
    base = normalised_ticks(ticks, cals, 4)
    slowed = normalised_ticks(ticks * 1.7, cals * 1.7, 4)
    assert np.allclose(base, slowed)


def test_robust_timeline_is_immune_to_a_spike_in_one_pass():
    rng = np.random.default_rng(1)
    truth = rng.uniform(1.0, 3.0, size=60)
    passes = [truth * rng.uniform(0.99, 1.01, size=60) for _ in range(5)]
    clean = robust_timeline(passes)
    passes[2] = passes[2].copy()
    passes[2][17] *= 10.0
    spiked = robust_timeline(passes)
    assert abs(spiked[17] - clean[17]) / clean[17] < 0.02
    assert np.array_equal(np.delete(spiked, 17), np.delete(clean, 17))
    # A plain mean over passes would have moved tick 17 by about 180 %.
    assert np.mean(passes, axis=0)[17] > 2.5 * clean[17]


def test_robust_timeline_needs_equal_tick_counts():
    with pytest.raises(ValueError):
        robust_timeline([np.ones(4), np.ones(5)])


def test_latency_metrics_read_prefix_sums():
    timeline = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    # Request 0: due tick 0, tokens at ticks 1, 2, 4.  Request 1 was
    # aborted and contributes nothing.
    metrics = latency_metrics(
        timeline,
        due_ticks=[0, 1],
        token_ticks=[[1, 2, 4], [2]],
        work_tokens=[10, 7],
        finished=[True, False],
    )
    assert metrics["ttft_p50"] == 3.0  # ticks 0..1
    assert metrics["latency_p50"] == 15.0  # ticks 0..4
    assert metrics["itl_p50"] == pytest.approx((3.0 + 9.0) / 2)
    assert metrics["tok_per"] == pytest.approx(10 / 15.0)
    assert (metrics["requests_n"], metrics["gaps_n"]) == (1, 2)


def test_latency_counts_from_the_due_tick_not_the_first_service():
    timeline = np.ones(6)
    early = latency_metrics(timeline, [0], [[4, 5]], [3], [True])
    late = latency_metrics(timeline, [3], [[4, 5]], [3], [True])
    assert early["ttft_p50"] == 5.0 and late["ttft_p50"] == 2.0
