"""Numeric characterizations of the exploration and exploitation agents.

A normal approximation to squared distances between spherical Gaussian draws
yields a closed-form expected acquisition rate for the low-density agent,
plus the separation constants beyond which that rate saturates. A Monte
Carlo estimate from exact window computations checks the closed form; the
``verify-theory`` command runs both along a grid of center distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# the count _ld_ratios reproduces in bulk; perfbench's tracer wraps this name
from .agents import local_sparsity  # noqa: F401
from .core import distances_to, gram_distances
# perfbench's tracer looks this name up here, so it stays though nothing calls it
from .learner import fit_logistic  # noqa: F401

__all__ = [
    "TheoryParams",
    "McEstimate",
    "squared_distance_moments",
    "expected_ld_acquisition",
    "mc_ld_acquisition",
    "solve_m2",
]

_QUAD_NODES = 4001
_MIN_DRAWS = 1000
_CHUNK_FLOATS = 1 << 15  # 256 kB per array of a Monte Carlo chunk, which stays in cache


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
        for name in ("sigma_window_sq", "sigma_incoming_sq", "center_dist_sq", "margin_slack"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
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


def _settings(params: TheoryParams) -> str:
    """The settings that place the quadrature nodes, for error messages."""
    return (f"sigma_window_sq={params.sigma_window_sq}, "
            f"sigma_incoming_sq={params.sigma_incoming_sq}, "
            f"center_dist_sq={params.center_dist_sq}, dim={params.dim}")


def _quadrature(params: TheoryParams, nodes: int) -> float:
    from scipy.special import ndtr  # imported on first use: a stream run never loads scipy

    q, big_l = params.dim, params.window
    m_within, v_within = squared_distance_moments(
        0.0, params.sigma_window_sq, params.sigma_window_sq, q)
    m_cross, v_cross = squared_distance_moments(
        params.center_dist_sq, params.sigma_window_sq, params.sigma_incoming_sq, q)
    s_within = math.sqrt(v_within)
    s_cross = math.sqrt(v_cross)
    if not all(0.0 < s < math.inf for s in (s_within, s_cross)):
        raise ValueError(f"squared-distance spread is zero or not finite at {_settings(params)}")
    y = np.linspace(m_cross - 8.0 * s_cross, m_cross + 8.0 * s_cross, nodes)
    if not np.all(np.diff(y) > 0.0):
        raise ValueError("quadrature nodes collapse below the float spacing at "
                         f"{_settings(params)}")
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
        raise ArithmeticError("quadrature did not converge: the node grid does not "
                              f"resolve the window's distance CDF at {_settings(params)}")
    return fine


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean and its standard error."""

    mean: float
    se: float


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
    if params.draws < _MIN_DRAWS:
        raise ValueError(f"need at least {_MIN_DRAWS} draws for a stable estimate")
    ratios = _ld_ratios(params)
    return McEstimate(mean=float(ratios.mean()),
                      se=float(ratios.std(ddof=1) / math.sqrt(params.draws)))


def solve_m2(params: TheoryParams) -> tuple[float, float]:
    """Separation constants beyond which expected acquisition saturates.

    M1 bounds the expected farthest-co-member squared distance (a Gumbel
    expected-maximum expression with a slack multiplier keeping the bound
    strict); M2 is the squared center distance at which incoming samples beat
    that bound often enough, the root of a quadratic in the distance spread.
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
    # with P the pooled variance, c = m1 − P·q and the spread s = sqrt(8·P·m2 + b),
    # the equation m2 + z·s + P·q = m1 is s² + 8·P·z·s − b − 8·P·c = 0
    b = 4.0 * q * pooled * pooled
    if z * math.sqrt(b) + pooled * q - m1 >= 0.0:
        return m1, 0.0
    # the positive root, written without the cancellation in −4·P·z + sqrt(·)
    c = m1 - pooled * q
    s = (b + 8.0 * pooled * c) / (4.0 * pooled * z
                                   + math.sqrt(16.0 * pooled * pooled * z * z + b + 8.0 * pooled * c))
    return m1, (s * s - b) / (8.0 * pooled)
