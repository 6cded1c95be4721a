"""Numeric characterizations of the exploration and exploitation agents.

A normal approximation to squared distances between spherical Gaussian draws
yields a closed-form expected acquisition rate for the low-density agent,
plus the separation constants beyond which that rate saturates. Monte Carlo
routines check the closed form against exact window computations and expose
the threshold agent's refusal to settle as clusters move apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# the count _ld_ratios reproduces in bulk; perfbench's tracer wraps this name
from .agents import local_sparsity  # noqa: F401
from .core import distances_to, gram_distances
from .learner import LearnerConfig, fit_logistic

__all__ = [
    "TheoryParams",
    "McEstimate",
    "RalSweepConfig",
    "squared_distance_moments",
    "expected_ld_acquisition",
    "mc_ld_acquisition",
    "solve_m2",
    "mc_ral_nonconvergence",
]

_QUAD_NODES = 4001
_BISECT_STEPS = 200
_CHUNK_FLOATS = 1 << 15  # 256 kB per array of a Monte Carlo chunk, which stays in cache


def _require_finite(config, names) -> None:
    """Reject a NaN or infinite setting, naming it."""
    for name in names:
        value = getattr(config, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class TheoryParams:
    """Geometry of the window-vs-incoming-sample comparison.

    The window holds draws from one spherical Gaussian; the incoming sample
    comes from another whose center sits ``center_dist_sq`` away (squared).
    """

    dim: int = 15
    window: int = 20
    sparsity_level: float = 0.05
    sigma_window_sq: float = 1.0
    sigma_incoming_sq: float = 1.0
    center_dist_sq: float = 0.0
    margin_slack: float = 1.05
    draws: int = 10_000
    seed: int = 0

    def __post_init__(self):
        _require_finite(self, ("sigma_window_sq", "sigma_incoming_sq",
                               "center_dist_sq", "margin_slack"))
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        if self.window < 2:
            raise ValueError("window must hold at least two points")
        if not 0.0 < self.sparsity_level <= 1.0:
            raise ValueError("sparsity level must lie in (0, 1]")
        if self.sigma_window_sq <= 0.0 or self.sigma_incoming_sq <= 0.0:
            raise ValueError("variances must be positive")
        if self.center_dist_sq < 0.0:
            raise ValueError("squared center distance must be nonnegative")
        if self.margin_slack <= 1.0:
            raise ValueError("margin slack must exceed 1")


def squared_distance_moments(center_dist_sq: float, var_a: float, var_b: float,
                             q: int) -> tuple[float, float]:
    """Normal-approximation moments of ‖a − b‖² for spherical Gaussian a, b.

    ``center_dist_sq`` is the squared distance between the two means; each
    point has isotropic variance ``var_a`` and ``var_b`` over ``q`` features.
    """
    if var_a <= 0.0 or var_b <= 0.0:
        raise ValueError("variances must be positive")
    if center_dist_sq < 0.0 or q < 1:
        raise ValueError("need nonnegative center distance and q >= 1")
    pooled = var_a + var_b
    mean = center_dist_sq + pooled * q
    variance = 4.0 * pooled * center_dist_sq + 2.0 * q * pooled * pooled
    return mean, variance


def _quadrature(params: TheoryParams, nodes: int) -> float:
    from scipy.special import ndtr  # imported on first use: a stream run never loads scipy

    q, big_l = params.dim, params.window
    m_within, v_within = squared_distance_moments(
        0.0, params.sigma_window_sq, params.sigma_window_sq, q)
    m_cross, v_cross = squared_distance_moments(
        params.center_dist_sq, params.sigma_window_sq, params.sigma_incoming_sq, q)
    s_within = math.sqrt(v_within)
    s_cross = math.sqrt(v_cross)
    settings = (f"sigma_window_sq={params.sigma_window_sq}, "
                f"sigma_incoming_sq={params.sigma_incoming_sq}, "
                f"center_dist_sq={params.center_dist_sq}, dim={q}")
    if not all(0.0 < s < math.inf for s in (s_within, s_cross)):
        raise ValueError(f"squared-distance spread is zero or not finite at {settings}")
    y = np.linspace(m_cross - 8.0 * s_cross, m_cross + 8.0 * s_cross, nodes)
    if not np.all(np.diff(y) > 0.0):
        raise ValueError(f"quadrature nodes collapse below the float spacing at {settings}")
    cdf_within = ndtr((y - m_within) / s_within)
    density = np.exp(-0.5 * ((y - m_cross) / s_cross) ** 2) / (s_cross * math.sqrt(2.0 * math.pi))
    inner = float(np.trapezoid(cdf_within ** (big_l - 1) * density, y))
    return big_l * inner / (big_l * params.sparsity_level)


def expected_ld_acquisition(params: TheoryParams) -> float:
    """Closed-form expected acquisition rate of the low-density agent.

    Under the normal approximation, each window member is beaten by the
    incoming sample with the same probability, so the expected sparsity count
    is the window size times one CDF-power integral. The result is the raw
    expectation of count / (L * sparsity_level); it may exceed 1 because the
    executable agent clips only the per-sample vote.
    """
    coarse = _quadrature(params, (_QUAD_NODES + 1) // 2)
    fine = _quadrature(params, _QUAD_NODES)
    if not math.isfinite(fine) or abs(fine - coarse) > 1e-6 * max(1.0, abs(fine)):
        raise ArithmeticError("quadrature did not converge; widen the node grid")
    return fine


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean and standard error, raw and with the vote clip."""

    mean: float
    se: float
    clipped_mean: float
    clipped_se: float


def _ld_ratios(params: TheoryParams) -> np.ndarray:
    """Each draw's sparsity count over the vote scale ``L * sparsity_level``.

    A draw is L window points and one incoming sample, consumed from the
    generator in that order.  The draws come in chunks, whose distances come
    from the window's own :func:`gram_distances` and :func:`distances_to`, so
    each count is the :func:`local_sparsity` of the window
    :meth:`SlidingWindow.from_points` builds from the draw with the sample
    pushed, bit for bit.
    """
    rng = np.random.default_rng(params.seed)
    q, big_l = params.dim, params.window
    offset = np.zeros(q)
    offset[0] = math.sqrt(params.center_dist_sq)
    s_window = math.sqrt(params.sigma_window_sq)
    s_incoming = math.sqrt(params.sigma_incoming_sq)
    scale = big_l * params.sparsity_level
    chunk = max(1, _CHUNK_FLOATS // (big_l * (big_l + q + 1)))

    ratios = np.empty(params.draws)
    for lo in range(0, params.draws, chunk):
        draws = rng.standard_normal((min(chunk, params.draws - lo), big_l + 1, q))
        pts = draws[:, :big_l] * s_window
        x = draws[:, big_l] * s_incoming + offset
        to_new = distances_to(pts, x[:, None, :])
        # distances are never negative, so the zero diagonal leaves every
        # member's farthest co-member distance in place
        counts = np.count_nonzero(gram_distances(pts).max(axis=2) < to_new, axis=1)
        ratios[lo:lo + len(draws)] = counts / scale
    return ratios


def mc_ld_acquisition(params: TheoryParams) -> McEstimate:
    """Monte Carlo oracle for :func:`expected_ld_acquisition`.

    Draws real windows and incoming samples and counts each window's exact
    local sparsity against its sample, so it carries none of the closed
    form's normal approximation.  The count is the one the low-density agent
    takes from a window bulk-built from the L draws with the sample pushed;
    all draws are counted at once, chunk by chunk, with no window built.
    """
    if params.draws < 1000:
        raise ValueError("need at least 1000 draws for a stable estimate")
    ratios = _ld_ratios(params)
    clipped = np.minimum(ratios, 1.0)
    root = math.sqrt(params.draws)
    return McEstimate(
        mean=float(ratios.mean()),
        se=float(ratios.std(ddof=1) / root),
        clipped_mean=float(clipped.mean()),
        clipped_se=float(clipped.std(ddof=1) / root),
    )


def solve_m2(params: TheoryParams) -> tuple[float, float]:
    """Separation constants beyond which expected acquisition saturates.

    M1 bounds the expected farthest-co-member squared distance (a Gumbel
    expected-maximum expression with a slack multiplier keeping the bound
    strict); M2 is the squared center distance at which incoming samples beat
    that bound often enough, found by bisection on a monotone scalar equation.
    """
    if params.sparsity_level >= 0.5:
        raise ValueError("sparsity level must stay below 0.5 for a monotone equation")
    if params.window < 3:
        raise ValueError("need a window of at least 3 for the expected-maximum quantiles")
    from scipy.special import erfinv, ndtri  # see _quadrature

    q, big_l = params.dim, params.window
    m_within, v_within = squared_distance_moments(
        0.0, params.sigma_window_sq, params.sigma_window_sq, q)
    s_within = math.sqrt(v_within)
    lo_q = ndtri(1.0 - 1.0 / (big_l - 1))
    hi_q = ndtri(1.0 - math.exp(-1.0) / (big_l - 1))
    expected_max = m_within + s_within * (lo_q + np.euler_gamma * (hi_q - lo_q))
    m1 = params.margin_slack * expected_max

    pooled = params.sigma_window_sq + params.sigma_incoming_sq
    z = erfinv(1.0 - 2.0 * params.sparsity_level)

    def gap(m2: float) -> float:
        spread = math.sqrt(2.0 * (4.0 * pooled * m2 + 2.0 * q * pooled * pooled))
        return m2 + z * spread + pooled * q - m1

    if gap(0.0) >= 0.0:
        return m1, 0.0
    hi = 1.0
    while gap(hi) < 0.0:
        hi *= 2.0
        if hi > 1e30:
            raise ArithmeticError("no sign change found for the separation equation")
    lo = 0.0
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    m2 = 0.5 * (lo + hi)
    if abs(gap(m2)) > 1e-6:
        raise ArithmeticError("bisection did not reach the residual tolerance")
    return m1, m2


@dataclass(frozen=True)
class RalSweepConfig:
    """Setup for probing the threshold agent's behavior at long range.

    Each resampled pool holds two classes split along the last feature axis;
    incoming samples drift away along the first axis, orthogonal to the ideal
    decision boundary, so their predicted certainty hinges on fit noise.
    """

    dim: int = 15
    pool_size: int = 40
    n_pools: int = 30
    draws: int = 200
    threshold: float = 0.95
    class_offset: float = 1.0
    sigma_pool_sq: float = 1.0
    sigma_incoming_sq: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _require_finite(self, ("class_offset", "sigma_pool_sq", "sigma_incoming_sq"))
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        if self.pool_size < 4:
            raise ValueError("pool must hold at least 4 samples")
        if self.n_pools < 2 or self.draws < 1:
            raise ValueError("need at least two pools and one draw per pool")
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("threshold must lie in (0, 1]")
        if self.class_offset <= 0.0:
            raise ValueError("class offset must be positive")
        if self.sigma_pool_sq <= 0.0 or self.sigma_incoming_sq <= 0.0:
            raise ValueError("variances must be positive")


def mc_ral_nonconvergence(config: RalSweepConfig,
                          distance_grid) -> tuple[np.ndarray, np.ndarray]:
    """Mean and dispersion of the threshold agent's vote along a distance sweep.

    For each squared center distance, logistic models are refit on fresh
    two-class pools and queried on remote samples; the returned dispersion
    staying flat (instead of shrinking) is the non-convergence signature.
    """
    grid = np.asarray(distance_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("distance grid must be 1-d with at least two points")
    if np.any(grid < 0.0):
        raise ValueError("squared distances must be nonnegative")
    rng = np.random.default_rng(config.seed)
    q = config.dim
    half = config.pool_size // 2
    labels = np.concatenate([np.zeros(half, dtype=int),
                             np.ones(config.pool_size - half, dtype=int)])
    class_shift = np.zeros(q)
    class_shift[-1] = config.class_offset
    s_pool = math.sqrt(config.sigma_pool_sq)
    s_in = math.sqrt(config.sigma_incoming_sq)
    fit_cfg = LearnerConfig()

    means = np.empty(grid.size)
    stds = np.empty(grid.size)
    for g, dist_sq in enumerate(grid):
        center = np.zeros(q)
        center[0] = math.sqrt(dist_sq)
        votes = np.empty((config.n_pools, config.draws))
        for r in range(config.n_pools):
            pool = rng.standard_normal((config.pool_size, q)) * s_pool
            pool += np.where(labels[:, None] == 1, class_shift, -class_shift)
            model = fit_logistic(pool, labels, fit_cfg)
            if model.degenerate_class is not None:
                raise ValueError("pool collapsed to a single class")
            x = rng.standard_normal((config.draws, q)) * s_in + center
            proba = model.predict_proba_batch(x)
            certainty = proba.max(axis=1)
            votes[r] = (certainty < config.threshold).astype(float)
        means[g] = votes.mean()
        stds[g] = votes.std(ddof=1)
    return means, stds
