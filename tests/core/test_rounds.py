"""Unit tests for the convergence-rate theory (bounds, thresholds, round counts)."""

from __future__ import annotations

import pytest

from repro.core.rounds import (
    async_byzantine_bounds,
    async_crash_bounds,
    max_faults_async_byzantine,
    max_faults_async_crash,
    max_faults_sync_byzantine,
    max_faults_sync_crash,
    max_faults_witness,
    rounds_to_epsilon,
    sync_byzantine_bounds,
    sync_crash_bounds,
    witness_bounds,
)


class TestResilienceThresholds:
    def test_async_crash_threshold_is_minority(self):
        assert max_faults_async_crash(3) == 1
        assert max_faults_async_crash(4) == 1
        assert max_faults_async_crash(5) == 2
        assert max_faults_async_crash(7) == 3

    def test_async_byzantine_threshold_is_one_fifth(self):
        assert max_faults_async_byzantine(5) == 0
        assert max_faults_async_byzantine(6) == 1
        assert max_faults_async_byzantine(10) == 1
        assert max_faults_async_byzantine(11) == 2
        assert max_faults_async_byzantine(16) == 3

    def test_witness_threshold_is_one_third(self):
        assert max_faults_witness(3) == 0
        assert max_faults_witness(4) == 1
        assert max_faults_witness(7) == 2
        assert max_faults_witness(10) == 3

    def test_sync_thresholds(self):
        assert max_faults_sync_crash(4) == 3
        assert max_faults_sync_byzantine(4) == 1
        assert max_faults_sync_byzantine(7) == 2

    def test_witness_strictly_better_than_direct_byzantine(self):
        # The follow-on witness technique tolerates strictly more faults than
        # the direct asynchronous Byzantine algorithm for every n > 5.
        for n in range(6, 40):
            assert max_faults_witness(n) >= max_faults_async_byzantine(n)
        assert max_faults_witness(16) > max_faults_async_byzantine(16)


class TestAsyncCrashBounds:
    def test_contraction_at_n_3t_plus_1(self):
        for t in range(1, 6):
            bounds = async_crash_bounds(3 * t + 1, t)
            assert bounds.contraction == pytest.approx(1.0 / 3.0)
            assert bounds.resilience_ok

    def test_contraction_at_threshold(self):
        bounds = async_crash_bounds(2 * 3 + 1, 3)  # n = 2t + 1
        assert bounds.contraction == pytest.approx(0.5)
        assert bounds.resilience_ok

    def test_below_threshold_not_ok(self):
        bounds = async_crash_bounds(4, 2)  # t >= n/2
        assert not bounds.resilience_ok

    def test_contraction_improves_with_larger_n(self):
        contractions = [async_crash_bounds(n, 1).contraction for n in range(3, 12)]
        assert contractions == sorted(contractions, reverse=True)
        assert contractions[-1] < contractions[0]

    def test_sample_size_is_n_minus_t(self):
        bounds = async_crash_bounds(10, 3)
        assert bounds.sample_size == 7
        assert bounds.reduce_j == 0
        assert bounds.select_k == 3


class TestAsyncByzantineBounds:
    def test_contraction_at_n_5t_plus_1(self):
        for t in range(1, 5):
            bounds = async_byzantine_bounds(5 * t + 1, t)
            assert bounds.contraction == pytest.approx(0.5)
            assert bounds.resilience_ok

    def test_below_threshold_not_ok(self):
        assert not async_byzantine_bounds(5, 1).resilience_ok
        assert not async_byzantine_bounds(10, 2).resilience_ok

    def test_reduction_and_selection_parameters(self):
        bounds = async_byzantine_bounds(11, 2)
        assert bounds.sample_size == 9
        assert bounds.reduce_j == 2
        assert bounds.select_k == 4

    def test_contraction_never_better_than_crash(self):
        # With the same (n, t), tolerating Byzantine faults can only slow
        # convergence down.
        for n in range(6, 25):
            t = max_faults_async_byzantine(n)
            if t == 0:
                continue
            assert async_byzantine_bounds(n, t).contraction >= async_crash_bounds(n, t).contraction


class TestSyncBounds:
    def test_sync_crash_contraction(self):
        bounds = sync_crash_bounds(4, 1)
        assert bounds.contraction == pytest.approx(1.0 / 4.0)

    def test_sync_byzantine_contraction_at_n_3t_plus_1(self):
        for t in range(1, 5):
            bounds = sync_byzantine_bounds(3 * t + 1, t)
            assert bounds.contraction == pytest.approx(0.5)

    def test_sync_beats_async_for_same_configuration(self):
        # The synchronous algorithms converge at least as fast per round.
        for t in range(1, 4):
            n = 3 * t + 1
            assert sync_crash_bounds(n, t).contraction <= async_crash_bounds(n, t).contraction
        for t in range(1, 4):
            n = 5 * t + 1
            assert (
                sync_byzantine_bounds(n, t).contraction
                <= async_byzantine_bounds(n, t).contraction
            )


class TestWitnessBounds:
    def test_contraction_is_one_half(self):
        assert witness_bounds(4, 1).contraction == 0.5
        assert witness_bounds(100, 33).contraction == 0.5

    def test_resilience(self):
        assert witness_bounds(4, 1).resilience_ok
        assert witness_bounds(7, 2).resilience_ok
        assert not witness_bounds(6, 2).resilience_ok


class TestRoundsToEpsilon:
    def test_exact_powers(self):
        assert rounds_to_epsilon(8.0, 1.0, 0.5) == 3
        assert rounds_to_epsilon(9.0, 1.0, 1.0 / 3.0) == 2

    def test_already_converged(self):
        assert rounds_to_epsilon(0.5, 1.0, 0.5) == 0
        assert rounds_to_epsilon(0.0, 1.0, 0.5) == 0

    def test_non_exact_ratio_rounds_up(self):
        assert rounds_to_epsilon(10.0, 1.0, 0.5) == 4

    def test_result_is_sufficient(self):
        for spread in (1.0, 3.7, 100.0, 1e6):
            for eps in (1.0, 0.1, 1e-3):
                for contraction in (0.5, 1.0 / 3.0, 0.25):
                    rounds = rounds_to_epsilon(spread, eps, contraction)
                    assert spread * contraction**rounds <= eps * (1 + 1e-9)
                    if rounds > 0:
                        assert spread * contraction ** (rounds - 1) > eps * (1 - 1e-9)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            rounds_to_epsilon(1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            rounds_to_epsilon(1.0, 0.1, 1.5)

    def test_bounds_rounds_for_helper(self):
        bounds = async_crash_bounds(4, 1)
        assert bounds.rounds_for(1.0, 0.05) == rounds_to_epsilon(1.0, 0.05, bounds.contraction)


class TestArgumentValidation:
    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            async_crash_bounds(4, -1)

    def test_non_positive_n_rejected(self):
        with pytest.raises(ValueError):
            async_crash_bounds(0, 0)

    def test_doctests(self):
        import doctest

        import repro.core.rounds as module

        failures, _ = doctest.testmod(module)
        assert failures == 0


class TestApproximationStepBlock:
    """The array kernel both round-level engines share.

    Deeper coverage (including Byzantine parameters and the engines built on
    top) lives in ``tests/sim/test_ndbatch.py``; here the kernel itself is
    pinned against the scalar step it applies to every execution.
    """

    def test_block_equals_scalar_map(self):
        np = pytest.importorskip("numpy")

        from repro.core.rounds import approximation_step, approximation_step_block

        bounds = async_crash_bounds(10, 3)  # m = 7, j = 0, k = 3
        rng = np.random.default_rng(11)
        samples = rng.uniform(0.0, 1.0, size=(5, 4, 7))
        block = approximation_step_block(samples, bounds)
        assert block.shape == (5, 4)
        for e in range(5):
            for q in range(4):
                scalar = approximation_step(list(samples[e, q]), bounds)
                assert abs(block[e, q] - scalar) <= 1e-12

    def test_single_axis_input(self):
        pytest.importorskip("numpy")
        from repro.core.rounds import approximation_step, approximation_step_block

        bounds = sync_crash_bounds(5, 1)
        sample = [0.9, 0.1, 0.5, 0.3, 0.7]
        assert float(approximation_step_block(sample, bounds)) == pytest.approx(
            approximation_step(sample, bounds)
        )

    def test_float32_dtype_runs_the_kernel_in_float32(self):
        np = pytest.importorskip("numpy")
        from repro.core.rounds import approximation_step_block

        bounds = async_crash_bounds(5, 1)  # m = 4
        samples = np.random.default_rng(7).random((3, 5, 4))
        result = approximation_step_block(samples, bounds, dtype="float32")
        assert result.dtype == np.float32
        reference = approximation_step_block(samples, bounds)
        assert reference.dtype == np.float64
        np.testing.assert_allclose(result, reference, rtol=1e-6, atol=1e-6)
        # The multiset may sit on any axis at either dtype.
        moved = approximation_step_block(
            np.moveaxis(samples, -1, 1), bounds, dtype="float32", axis=1
        )
        np.testing.assert_array_equal(moved, result)
