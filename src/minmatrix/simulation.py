"""Monte-Carlo check that the min matrix is a random-walk covariance.

A walk X_t = e_1 + ... + e_t with independent zero-mean steps of common
variance sigma^2 has Cov(X_i, X_j) = sigma^2 * min(i, j). This module
estimates the covariance empirically and measures the deviation from
that target. It is the only part of the package that uses floating
point; everything else is exact. Paths are drawn in chunks sized from m
and n, so memory stays bounded for every m without a setting, and one
step buffer serves every chunk.

numpy is imported inside the functions that compute: importing this
module, and so the package and its CLI, loads no numpy until a
simulation runs. No other module uses numpy.
"""

import math
import sys
from dataclasses import dataclass

from . import DIM_LIMIT, DISTRIBUTIONS

_CHUNK_STEPS = 2**18  # steps per chunk past 8 chunks: 2 MiB of float64

# Largest m a config accepts: the largest power of two at which `simulate
# --n 8` ended within 60 s on a 2-vCPU x86-64 host (Python 3.11, numpy
# 2.4): 2**27 took 29 s, 2**28 58 s. A path costs more as n grows, about
# n**2 for its outer product, so a config also keeps m * n**2 within
# _M_LIMIT * 8**2 = 2**34, the cost of 2**28 paths at n = 8. At the other
# end, 2**10 paths at n = 4096, simulate_covariance took 2.7-3.3 s in
# process, with a peak RSS of 294 MB: the 128 MiB estimate and one 128 MiB
# product buffer (same host, one pinned CPU, three runs).
_M_LIMIT = 1 << 28


@dataclass(frozen=True)
class SimConfig:
    """Parameters of a covariance estimation run.

    Reproducibility contract: results are a deterministic function of
    the config. Each of the `chunks` chunks of paths draws from its own
    spawned substream: 8 chunks (m if m < 8) while m * n <= 2**21, and
    about 2**18 steps a chunk above that. n is at most 4096 (DIM_LIMIT), m
    at most 2**28 (_M_LIMIT), and m * n**2 at most 2**34.
    """

    n: int
    m: int
    sigma: float = 1.0
    seed: int = 0
    dist: str = "gaussian"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"process length must be >= 1, got {self.n}")
        if self.m < 2:
            raise ValueError(f"sample count must be >= 2, got {self.m}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")
        # The estimate is divided by sigma^2, and its sums over m paths
        # reach about m * n * sigma^2: both must be finite normal floats.
        if self.sigma * self.sigma < sys.float_info.min:
            raise ValueError(f"sigma^2 must be a normal float, got sigma={self.sigma}")
        try:
            scale = self.m * self.n * self.sigma * self.sigma
        except OverflowError:  # m * n itself is past the largest float
            scale = math.inf
        if not math.isfinite(scale):
            raise ValueError(
                f"m * n * sigma^2 must be finite, got m={self.m}, n={self.n}, sigma={self.sigma}"
            )
        if self.n > DIM_LIMIT:
            raise ValueError(
                f"--n must be <= {DIM_LIMIT}, got {self.n}: "
                f"simulate accumulates an n x n covariance matrix"
            )
        if self.m > _M_LIMIT:
            raise ValueError(
                f"--m must be <= {_M_LIMIT}, got {self.m}: "
                f"simulate draws m paths, and 2**28 of them take about a minute at --n 8"
            )
        if self.dist not in DISTRIBUTIONS:
            raise ValueError(f"dist must be one of {DISTRIBUTIONS}, got {self.dist!r}")
        if self.m * self.n * self.n > _M_LIMIT * 8 * 8:
            raise ValueError(
                f"--m times --n squared must be <= {_M_LIMIT * 8 * 8}, got m={self.m}, n={self.n}: "
                f"a path costs about n**2, and 2**28 paths take about a minute at --n 8"
            )

    @property
    def chunks(self):
        """At least 8 chunks, or enough for _CHUNK_STEPS steps a chunk, but
        at most m, so that every chunk draws a path."""
        return min(self.m, max(8, -(-self.m * self.n // _CHUNK_STEPS)))


@dataclass(frozen=True)
class CovEstimate:
    """Empirical covariance matrix with the config that produced it."""

    matrix: "numpy.ndarray"
    config: SimConfig


def _draw_steps(rng, steps, sigma, dist):
    """Fill ``steps`` with the chunk's steps. Each distribution writes the
    same floats as a fresh draw of its shape: sigma * N(0, 1) is what
    rng.normal(0, sigma) computes, and 2 * sigma * b - sigma for a bit b
    is exactly -sigma or sigma."""
    import numpy as np

    if dist == "rademacher":
        np.multiply(rng.integers(0, 2, size=steps.shape), 2.0 * sigma, out=steps)
        steps -= sigma
    elif dist == "uniform":
        half_width = sigma * np.sqrt(3.0)
        steps[...] = rng.uniform(-half_width, half_width, size=steps.shape)
    else:
        rng.standard_normal(out=steps)
        steps *= sigma


def simulate_covariance(cfg):
    """Estimate the covariance of the cumulative-sum process.

    Steps are generated with exactly zero mean, so the estimator is the
    uncentered (1/m) * sum of outer products. Chunk accumulators are
    merged by plain summation; the result depends on the config only.

    One step buffer, sized for the largest chunk, serves every chunk: each
    draw writes into it and the paths are summed in place, column by
    column, in the order np.cumsum(axis=1) adds. Every float is the one a
    fresh array per chunk would hold, so results are bit-identical to it.
    Beside the estimate, one n x n buffer takes each chunk's product, and
    the division and the symmetrization run in place.
    """
    import numpy as np

    root = np.random.SeedSequence(cfg.seed)
    base, extra = divmod(cfg.m, cfg.chunks)
    buffer = np.empty((base + (1 if extra else 0), cfg.n))
    product = np.empty((cfg.n, cfg.n))
    matrix = np.zeros((cfg.n, cfg.n))
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for index in range(cfg.chunks):
            count = base + (1 if index < extra else 0)
            rng = np.random.default_rng(root.spawn(1)[0])  # the children of spawn(chunks)
            paths = buffer[:count]
            _draw_steps(rng, paths, cfg.sigma, cfg.dist)
            for j in range(1, cfg.n):  # partial sums along each path
                paths[:, j] += paths[:, j - 1]
            matrix += np.matmul(paths.T, paths, out=product)
        np.divide(matrix, cfg.m, out=matrix)
        # Kill float round-off asymmetry: (a[i, j] + a[j, i]) / 2 on both
        # sides, row by row. Row i right of the diagonal and column i below
        # it are untouched by earlier rows, and addition commutes, so each
        # entry is the float that (matrix + matrix.T) / 2.0 holds.
        for i in range(cfg.n):
            matrix[i, i:] = matrix[i:, i] = (matrix[i, i:] + matrix[i:, i]) / 2.0
    if not np.isfinite(matrix).all():
        # SimConfig bounds the entries' mean, m * n * sigma^2; a draw can
        # still overflow near that bound.
        raise ValueError(f"covariance estimate overflows a float at sigma={cfg.sigma}")
    return CovEstimate(matrix=matrix, config=cfg)


def covariance_deviation(est):
    """Max absolute entrywise gap between the sigma^2-normalized estimate
    and the min matrix, row by row: row i of the min matrix is min(i, j),
    so no n x n array beside the estimate is made."""
    import numpy as np

    scale = est.config.sigma**2
    columns = np.arange(1.0, est.config.n + 1)
    gaps = [np.max(np.abs(row / scale - np.minimum(columns, i))) for i, row in enumerate(est.matrix, 1)]
    return float(np.max(gaps))
