import numpy as np
import pytest

from minmatrix import (
    CovEstimate,
    SimConfig,
    covariance_deviation,
    min_matrix_float,
    simulate_covariance,
)


class TestConfigValidation:
    def test_valid(self):
        SimConfig(n=3, m=10, sigma=0.5, seed=1, dist="uniform")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0, "m": 10},
            {"n": 3, "m": 1},
            {"n": 3, "m": 10, "sigma": 0.0},
            {"n": 3, "m": 10, "sigma": -1.0},
            {"n": 3, "m": 10, "dist": "cauchy"},
            {"n": 3, "m": 10, "chunks": 0},
            {"n": 3, "m": 10, "sigma": float("inf")},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)


class TestSimulate:
    def test_degenerate_rademacher_is_exact(self):
        est = simulate_covariance(SimConfig(n=1, m=50, sigma=1.0, dist="rademacher"))
        assert est.matrix.tolist() == [[1.0]]
        assert covariance_deviation(est) == 0.0

    def test_deterministic_for_fixed_seed_and_chunks(self):
        cfg = SimConfig(n=5, m=4000, seed=11, chunks=4)
        a = simulate_covariance(cfg)
        b = simulate_covariance(cfg)
        assert np.array_equal(a.matrix, b.matrix)

    def test_seed_changes_result(self):
        a = simulate_covariance(SimConfig(n=5, m=4000, seed=11))
        b = simulate_covariance(SimConfig(n=5, m=4000, seed=12))
        assert not np.array_equal(a.matrix, b.matrix)

    def test_symmetric(self):
        est = simulate_covariance(SimConfig(n=6, m=3000, seed=3))
        assert np.array_equal(est.matrix, est.matrix.T)
        assert np.all(np.diag(est.matrix) >= 0)

    @pytest.mark.parametrize("dist", ["rademacher", "uniform", "gaussian"])
    def test_scale_equivariance(self, dist):
        base = simulate_covariance(SimConfig(n=6, m=2000, sigma=1.0, seed=9, dist=dist))
        scaled = simulate_covariance(SimConfig(n=6, m=2000, sigma=2.0, seed=9, dist=dist))
        assert np.allclose(scaled.matrix, 4.0 * base.matrix, rtol=1e-12, atol=0.0)

    def test_uneven_chunk_split_covers_all_samples(self):
        # 103 = 8 * 12 + 7: a dropped or repeated path would move the entry off 1.
        est = simulate_covariance(SimConfig(n=1, m=103, dist="rademacher", chunks=8))
        assert est.matrix.tolist() == [[1.0]]

    def test_close_to_min_matrix_at_moderate_sample_size(self):
        est = simulate_covariance(SimConfig(n=8, m=200000, sigma=1.0, seed=42))
        assert covariance_deviation(est) <= 0.2

    def test_deviation_shrinks_with_sample_size(self):
        small = simulate_covariance(SimConfig(n=8, m=2000, sigma=1.0, seed=42))
        large = simulate_covariance(SimConfig(n=8, m=200000, sigma=1.0, seed=42))
        assert covariance_deviation(large) < covariance_deviation(small)


class TestDeviation:
    def test_exact_target_is_zero(self):
        cfg = SimConfig(n=4, m=10, sigma=3.0)
        est = CovEstimate(matrix=9.0 * min_matrix_float(4), config=cfg)
        assert covariance_deviation(est) == 0.0

    def test_zero_matrix_worst_entry(self):
        cfg = SimConfig(n=2, m=10)
        est = CovEstimate(matrix=np.zeros((2, 2)), config=cfg)
        assert covariance_deviation(est) == 2.0
