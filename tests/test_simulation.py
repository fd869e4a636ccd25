import math
import sys
import tracemalloc

import numpy as np
import pytest

from minmatrix import (
    CovEstimate,
    SimConfig,
    covariance_deviation,
    simulate_covariance,
)


def min_matrix_float(n):
    """The min matrix as a float array: the target the estimate approaches."""
    idx = np.arange(1, n + 1)
    return np.minimum.outer(idx, idx).astype(float)


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
            {"n": 3, "m": 10, "sigma": float("nan")},
            {"n": 3, "m": 10, "sigma": -float("inf")},
            {"n": 3, "m": 10, "sigma": float("inf")},
            {"n": 3, "m": 10, "seed": -1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    def test_n_limit(self):
        # The accumulator is n x n: 4096 is accepted (and never run here),
        # one more is refused with a message that names the option.
        assert SimConfig(n=4096, m=2).n == 4096
        for n in (4097, 10**20):
            with pytest.raises(ValueError, match=f"^--n must be <= 4096, got {n}: "):
                SimConfig(n=n, m=2)

    def test_m_limit(self):
        # 2**28 paths are accepted (and never run here), one more is
        # refused with a message that names the option.
        assert SimConfig(n=8, m=2**28).m == 2**28
        for m in (2**28 + 1, 2**63, 10**20):
            with pytest.raises(ValueError, match=f"^--m must be <= 268435456, got {m}: "):
                SimConfig(n=8, m=m)

    @pytest.mark.parametrize("n", [8, 64, 4096])
    def test_path_cost_limit(self, n):
        # m * n**2 up to 2**34 is accepted (and never run here): 2**28 paths
        # at n = 8, 2**22 at 64, 2**10 at 4096. One path more is refused;
        # at n = 8 the m limit refuses it first.
        m = 2**34 // n**2
        assert SimConfig(n=n, m=m).m == m
        message = "--m must be <= 268435456" if n == 8 else (
            f"--m times --n squared must be <= 17179869184, got m={m + 1}, n={n}: "
        )
        with pytest.raises(ValueError, match=f"^{message}"):
            SimConfig(n=n, m=m + 1)


class TestChunks:
    @pytest.mark.parametrize(
        "n, m, chunks",
        [(3, 5, 5), (8, 200000, 8), (8, 2_000_000, 62)],
    )
    def test_count_follows_m_and_n(self, n, m, chunks):
        # 8 chunks, at most one per path, until a chunk passes 2**18 steps.
        assert SimConfig(n=n, m=m).chunks == chunks

    def test_fewer_paths_than_eight_chunks_run(self):
        est = simulate_covariance(SimConfig(n=3, m=5))
        assert est.matrix.shape == (3, 3)

    @pytest.mark.parametrize("dist", ["rademacher", "uniform", "gaussian"])
    def test_memory_is_bounded_at_a_million_paths(self, dist):
        # Eight chunks of 125,000 paths would hold 8 MB of steps each; the
        # derived count keeps a chunk near 2 MiB.
        simulate_covariance(SimConfig(n=2, m=10, dist=dist))  # imports numpy
        tracemalloc.start()
        try:
            simulate_covariance(SimConfig(n=8, m=1_000_000, dist=dist))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


def reference_covariance(cfg):
    """The estimate with a fresh step array per chunk, drawn by rng.normal,
    rng.integers and rng.uniform and summed by np.cumsum: the oracle for
    the one reused step buffer."""
    root = np.random.SeedSequence(cfg.seed)
    base, extra = divmod(cfg.m, cfg.chunks)
    total = np.zeros((cfg.n, cfg.n))
    for index, child in enumerate(root.spawn(cfg.chunks)):
        rng = np.random.default_rng(child)
        size = (base + (1 if index < extra else 0), cfg.n)
        if cfg.dist == "rademacher":
            steps = cfg.sigma * (2.0 * rng.integers(0, 2, size=size) - 1.0)
        elif cfg.dist == "uniform":
            half_width = cfg.sigma * np.sqrt(3.0)
            steps = rng.uniform(-half_width, half_width, size=size)
        else:
            steps = rng.normal(0.0, cfg.sigma, size=size)
        paths = np.cumsum(steps, axis=1)
        total += paths.T @ paths
    matrix = total / cfg.m
    return (matrix + matrix.T) / 2.0


class TestStepBuffer:
    @pytest.mark.parametrize("dist", ["rademacher", "uniform", "gaussian"])
    @pytest.mark.parametrize(
        "n, m, sigma",
        # One path; fewer paths than 8 chunks; an uneven split with
        # sigma != 1; 9 chunks, the last ones a path shorter.
        [(1, 103, 3.0), (3, 5, 0.5), (5, 4003, 2.5), (2, 1_100_001, 0.7)],
    )
    def test_bit_identical_to_a_fresh_array_per_chunk(self, dist, n, m, sigma):
        cfg = SimConfig(n=n, m=m, sigma=sigma, seed=n + m, dist=dist)
        est = simulate_covariance(cfg)
        assert est.matrix.tobytes() == reference_covariance(cfg).tobytes()

    @pytest.mark.parametrize("n, m", [(512, 5000), (300, 20001)])
    def test_in_place_finish_is_bit_identical(self, n, m):
        # One product buffer for every chunk, the division in place and the
        # row-by-row symmetrization give the floats of the three-line
        # formula with fresh arrays; tobytes also tells -0.0 from 0.0,
        # which np.array_equal does not.
        cfg = SimConfig(n=n, m=m, seed=n)
        matrix, reference = simulate_covariance(cfg).matrix, reference_covariance(cfg)
        assert np.array_equal(matrix, reference)
        assert matrix.tobytes() == reference.tobytes()

    def test_two_n_by_n_arrays_at_most(self):
        # The estimate and one product buffer, beside a chunk of steps and
        # the finiteness check's n x n booleans: no product per chunk,
        # quotient or transpose sum is made besides, which held at least
        # four n x n float arrays at once.
        cfg = SimConfig(n=512, m=2000)
        simulate_covariance(SimConfig(n=2, m=10))  # imports numpy
        tracemalloc.start()
        try:
            simulate_covariance(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        step_bytes = -(-cfg.m // cfg.chunks) * cfg.n * 8
        assert peak < 2.5 * cfg.n**2 * 8 + step_bytes, peak

    @pytest.mark.parametrize("dist, chunks_held", [("gaussian", 1.25), ("rademacher", 2.25), ("uniform", 2.25)])
    def test_one_buffer_serves_every_chunk(self, dist, chunks_held):
        # Gaussian steps are drawn into the buffer itself; the other two
        # hold one draw's temporary beside it. A fresh array per chunk
        # also kept the previous chunk alive during the next draw.
        cfg = SimConfig(n=8, m=200_000, dist=dist)
        step_bytes = -(-cfg.m // cfg.chunks) * cfg.n * 8
        simulate_covariance(SimConfig(n=2, m=10, dist=dist))  # imports numpy
        tracemalloc.start()
        try:
            simulate_covariance(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < chunks_held * step_bytes


class TestSigmaRange:
    # sigma^2 must be a normal float: sqrt(sys.float_info.min) is about
    # 1.49e-154. m * n * sigma^2 must be finite: at n = 3 and m = 10,
    # sqrt(sys.float_info.max / 30) is about 2.45e153.
    @pytest.mark.parametrize("sigma", [1.5e-154, 2.4e153])
    def test_accepted_inside_the_bounds(self, sigma):
        SimConfig(n=3, m=10, sigma=sigma)

    @pytest.mark.parametrize("sigma", [1.4e-154, 1e-160, 1e-200, 5e-324])
    def test_subnormal_square_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma\\^2 must be a normal float"):
            SimConfig(n=3, m=10, sigma=sigma)

    @pytest.mark.parametrize("sigma", [2.5e153, 1e160, sys.float_info.max])
    def test_overflowing_scale_rejected(self, sigma):
        with pytest.raises(ValueError, match="m \\* n \\* sigma\\^2 must be finite"):
            SimConfig(n=3, m=10, sigma=sigma)

    def test_scale_bound_counts_samples_and_length(self):
        SimConfig(n=3, m=10**6, sigma=1e150)
        with pytest.raises(ValueError, match="must be finite"):
            SimConfig(n=3, m=10**6, sigma=1e151)
        with pytest.raises(ValueError, match="must be finite"):
            SimConfig(n=3 * 10**6, m=10, sigma=1e151)
        with pytest.raises(ValueError, match="must be finite"):
            SimConfig(n=3, m=10**400)  # m * n does not convert to a float

    @pytest.mark.parametrize("dist", ["rademacher", "uniform", "gaussian"])
    def test_smallest_sigma_runs(self, dist):
        est = simulate_covariance(SimConfig(n=3, m=10, sigma=1.5e-154, dist=dist))
        assert np.isfinite(est.matrix).all()
        assert math.isfinite(covariance_deviation(est))

    def test_largest_sigma_runs(self):
        # Just inside the bound: these Rademacher draws sum to finite floats.
        est = simulate_covariance(SimConfig(n=3, m=10, sigma=2.4e153, dist="rademacher"))
        assert math.isfinite(covariance_deviation(est))

    def test_overflowing_draw_raises(self):
        # The bound keeps the mean of the summed squares, m * n * sigma^2,
        # finite; these Gaussian draws sum past the largest float.
        cfg = SimConfig(n=3, m=10, sigma=2.4e153, dist="gaussian")
        with pytest.raises(ValueError, match="overflows a float"):
            simulate_covariance(cfg)


class TestSimulate:
    def test_degenerate_rademacher_is_exact(self):
        est = simulate_covariance(SimConfig(n=1, m=50, sigma=1.0, dist="rademacher"))
        assert est.matrix.tolist() == [[1.0]]
        assert covariance_deviation(est) == 0.0

    def test_deterministic_for_fixed_seed_and_chunks(self):
        cfg = SimConfig(n=5, m=4000, seed=11)
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
        est = simulate_covariance(SimConfig(n=1, m=103, dist="rademacher"))
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

    @pytest.mark.parametrize("n, m, sigma", [(8, 2000, 1.0), (37, 1001, 2.5), (300, 20001, 0.3)])
    def test_row_by_row_equals_the_whole_array_formula(self, n, m, sigma):
        est = simulate_covariance(SimConfig(n=n, m=m, sigma=sigma, seed=m))
        whole = float(np.max(np.abs(est.matrix / sigma**2 - min_matrix_float(n))))
        assert covariance_deviation(est) == whole

    def test_a_nan_entry_is_the_deviation(self):
        matrix = min_matrix_float(3)
        matrix[2, 1] = np.nan
        assert math.isnan(covariance_deviation(CovEstimate(matrix=matrix, config=SimConfig(n=3, m=10))))
