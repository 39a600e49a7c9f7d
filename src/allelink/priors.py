"""Partition priors parameterized through cluster-size counts.

Two families.  The Ewens-Pitman prior (the partition law of the Dirichlet
process) serves as an unconstrained baseline.  The beta-binomial allelic
prior draws the size counts top-down from a hard cap: the count of
cap-sized clusters is binomial with a Beta-mixed success probability, each
smaller size is binomial given the records left over, and the singleton
count absorbs the remainder.  Every draw therefore respects both counting
identities and no cluster can ever exceed the cap.

Both families put the uniform distribution on the set partitions sharing a
given size-count vector, so densities factor as (class-uniform term) x
(size-count term).  Reallocation weights for one record follow from the
ratio of size-count densities before and after the move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import lgamma, log
from typing import Sequence, Union

import numpy as np

from .partitions import (
    AllelicPartition,
    LinkageStructure,
    canonicalize,
    log_allelic_class_size,
    to_allelic,
)

NEG_INF = float("-inf")

# Beta means are clamped away from {0, 1} during calibration so that the
# derived shapes stay finite.
_MEAN_FLOOR = 1e-6


@dataclass(frozen=True)
class EppParams:
    """Concentration of the Ewens-Pitman partition prior."""

    theta: float

    def __post_init__(self):
        if not self.theta > 0:
            raise ValueError("theta must be positive")


@dataclass(frozen=True)
class BbapParams:
    """Size cap plus Beta shapes (a_t, b_t) for the size-t cluster count, t = 2..cap."""

    cap: int
    a: tuple[float, ...]
    b: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "cap", int(self.cap))
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        object.__setattr__(self, "b", tuple(float(v) for v in self.b))
        if self.cap < 2:
            raise ValueError("cap must be at least 2")
        if len(self.a) != self.cap - 1 or len(self.b) != self.cap - 1:
            raise ValueError("need one (a_t, b_t) pair per size t = 2..cap")
        if any(v <= 0 for v in self.a) or any(v <= 0 for v in self.b):
            raise ValueError("Beta shapes must be positive")

    def shapes(self, size: int) -> tuple[float, float]:
        return self.a[size - 2], self.b[size - 2]


PriorParams = Union[EppParams, BbapParams]


@dataclass(frozen=True)
class CalibrationSpec:
    """Target cluster-size profile used to elicit beta-binomial shapes.

    family is one of "geometric" (parameter p), "negbin" (parameters r, p)
    or "explicit" (probabilities pi for sizes 2..cap; the size-1 mass is
    the complement).  cv sets the spread of every Beta through the same
    mean/shape relation used for the two-size closed form.
    """

    family: str
    cap: int
    cv: float
    p: float | None = None
    r: float | None = None
    pi: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.family not in ("geometric", "negbin", "explicit"):
            raise ValueError(f"unknown calibration family '{self.family}'")
        if self.cap < 2:
            raise ValueError("cap must be at least 2")
        if not self.cv > 0:
            raise ValueError("cv must be positive")
        if self.family == "geometric":
            if self.p is None or not 0 < self.p < 1:
                raise ValueError("geometric calibration needs p in (0, 1)")
        elif self.family == "negbin":
            if self.r is None or self.r <= 0:
                raise ValueError("negbin calibration needs r > 0")
            if self.p is None or not 0 < self.p < 1:
                raise ValueError("negbin calibration needs p in (0, 1)")
        else:
            if self.pi is None or len(self.pi) != self.cap - 1:
                raise ValueError("explicit calibration needs pi for sizes 2..cap")
            object.__setattr__(self, "pi", tuple(float(v) for v in self.pi))
            if any(v < 0 for v in self.pi):
                raise ValueError("explicit pi entries must be non-negative")
            if sum(self.pi) >= 1:
                raise ValueError("explicit pi must leave positive mass on singletons")


# ---------------------------------------------------------------------------
# size-count densities
#
# Low-level entry points take a vector indexed by cluster size (entry 0
# unused) so the sampler can evaluate them without building objects.


def _log_beta_binomial(k: int, trials: int, a: float, b: float) -> float:
    return (
        lgamma(trials + 1) - lgamma(k + 1) - lgamma(trials - k + 1)
        + lgamma(k + a) + lgamma(trials - k + b) - lgamma(trials + a + b)
        + lgamma(a + b) - lgamma(a) - lgamma(b)
    )


def log_allelic_counts(size_counts: Sequence[int], n: int, params: PriorParams) -> float:
    """Log density of a by-size count vector under either prior family.

    size_counts[s] is the number of size-s clusters; entry 0 is ignored.
    Returns -inf outside the support (counts above the cap, counts beyond
    the feasible trials at any size, or totals that do not sum to n).
    """
    if isinstance(params, BbapParams):
        return _log_allelic_counts_bbap(size_counts, n, params)
    return _log_allelic_counts_epp(size_counts, n, params)


def _log_allelic_counts_bbap(size_counts: Sequence[int], n: int, params: BbapParams) -> float:
    top = len(size_counts) - 1
    for s in range(params.cap + 1, top + 1):
        if size_counts[s] > 0:
            return NEG_INF
    remaining = n
    out = 0.0
    for t in range(params.cap, 1, -1):
        trials = remaining // t
        r_t = int(size_counts[t]) if t <= top else 0
        if r_t < 0 or r_t > trials:
            return NEG_INF
        a_t, b_t = params.shapes(t)
        out += _log_beta_binomial(r_t, trials, a_t, b_t)
        remaining -= t * r_t
    r_1 = int(size_counts[1]) if top >= 1 else 0
    if r_1 != remaining:
        # the singleton count is determined by the larger sizes
        return NEG_INF
    return out


def _log_allelic_counts_epp(size_counts: Sequence[int], n: int, params: EppParams) -> float:
    theta = params.theta
    total = 0
    out = lgamma(n + 1) - (lgamma(theta + n) - lgamma(theta))
    counts = np.asarray(size_counts)
    # ascending sizes with a nonzero count, so the float sum keeps its order
    for s in (np.flatnonzero(counts[1:]) + 1).tolist():
        r_s = int(counts[s])
        if r_s < 0:
            return NEG_INF
        total += s * r_s
        out += r_s * log(theta) - r_s * log(s) - lgamma(r_s + 1)
    if total != n:
        return NEG_INF
    return out


def _by_size(r: AllelicPartition) -> list[int]:
    return [0] + list(r.counts)


def log_density_epp_allelic(r: AllelicPartition, params: EppParams) -> float:
    """Log probability of the size counts under the Ewens-Pitman prior."""
    return _log_allelic_counts_epp(_by_size(r), r.n, params)


def log_density_epp_linkage(xi: LinkageStructure, params: EppParams) -> float:
    """Ewens-Pitman log density of a canonical linkage structure."""
    theta = params.theta
    out = lgamma(theta) - lgamma(xi.n + theta) + xi.n_clusters * log(theta)
    for s in xi.cluster_sizes():
        out += lgamma(s)
    return out


def log_density_bbap_allelic(r: AllelicPartition, params: BbapParams) -> float:
    """Log probability of the size counts under the beta-binomial allelic prior.

    Counts at sizes above the cap, counts exceeding the feasible number of
    trials at any size, or an inconsistent singleton count give -inf.
    """
    return _log_allelic_counts_bbap(_by_size(r), r.n, params)


def log_density_bbap_linkage(xi: LinkageStructure, params: BbapParams) -> float:
    """Beta-binomial allelic log density of a canonical linkage structure.

    Factors as the uniform within-class term times the size-count density;
    -inf whenever some cluster exceeds the cap.
    """
    if xi.max_cluster_size() > params.cap:
        return NEG_INF
    r = to_allelic(xi, cap=params.cap)
    return -log_allelic_class_size(r) + log_density_bbap_allelic(r, params)


# ---------------------------------------------------------------------------
# sampling


def _draw_size_counts(params: BbapParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a by-size count vector top-down from the cap."""
    counts = np.zeros(params.cap + 1, dtype=np.int64)
    remaining = n
    for t in range(params.cap, 1, -1):
        trials = remaining // t
        a_t, b_t = params.shapes(t)
        theta_t = rng.beta(a_t, b_t)
        counts[t] = rng.binomial(trials, theta_t)
        remaining -= t * counts[t]
    counts[1] = remaining
    return counts


def sample_prior(params: PriorParams, n: int, rng: np.random.Generator) -> LinkageStructure:
    """Draw a canonical linkage structure from the prior.

    The beta-binomial family draws size counts first and then assigns the
    records to cluster slots through a uniform permutation, which is a
    uniform draw within the allelic class.  The Ewens-Pitman family uses
    the standard sequential seating construction.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if isinstance(params, EppParams):
        return _sample_epp(params.theta, n, rng)
    counts = _draw_size_counts(params, n, rng)
    perm = rng.permutation(n)
    raw = np.empty(n, dtype=np.int64)
    label = 0
    pos = 0
    for s in range(1, params.cap + 1):
        for _ in range(int(counts[s])):
            raw[perm[pos:pos + s]] = label
            label += 1
            pos += s
    return canonicalize(raw)


def _sample_epp(theta: float, n: int, rng: np.random.Generator) -> LinkageStructure:
    labels = [1]
    sizes = [1]
    for i in range(1, n):
        u = rng.random() * (theta + i)
        cum = 0.0
        target = -1
        for k, s in enumerate(sizes):
            cum += s
            if u < cum:
                target = k
                break
        if target < 0:
            sizes.append(1)
            labels.append(len(sizes))
        else:
            sizes[target] += 1
            labels.append(target + 1)
    return LinkageStructure(tuple(labels))


def sample_count_matrix(
    params: PriorParams, n: int, draws: int, rng: np.random.Generator, cap: int | None = None
) -> np.ndarray:
    """Size-count vectors from repeated prior draws, one row per draw.

    Monte-Carlo stand-in for the per-size count moments, whose closed forms
    nest too deeply to be practical beyond the largest size.
    """
    if cap is None:
        cap = params.cap if isinstance(params, BbapParams) else n
    out = np.zeros((draws, cap), dtype=np.int64)
    for d in range(draws):
        xi = sample_prior(params, n, rng)
        for s in xi.cluster_sizes():
            out[d, s - 1] += 1
    return out


def prior_count_moments(
    params: PriorParams, n: int, draws: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo mean and variance of the per-size cluster counts."""
    mat = sample_count_matrix(params, n, draws, rng)
    return mat.mean(axis=0), mat.var(axis=0, ddof=1)


# ---------------------------------------------------------------------------
# calibration


def _beta_shapes_for_mean(mean: float, cv: float) -> tuple[float, float]:
    a = (1.0 - mean * (1.0 - cv * cv)) / (cv * cv)
    b = a * (1.0 - mean) / mean
    return a, b


def calibrate_m2(pi: float, gamma: float) -> tuple[float, float]:
    """Beta shapes for the pair-count probability at cap 2.

    pi is the prior duplication probability (the Beta mean), gamma the
    spread knob; requires pi (1 - gamma^2) < 1 so the first shape stays
    positive.
    """
    if not 0 < pi < 1:
        raise ValueError("pi must lie in (0, 1)")
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    if not pi * (1.0 - gamma * gamma) < 1.0:
        raise ValueError("infeasible: pi (1 - gamma^2) must be below 1")
    a, b = _beta_shapes_for_mean(pi, gamma)
    if a <= 0 or b <= 0:
        raise ValueError("infeasible gamma for the requested mean")
    return a, b


def size_target_distribution(spec: CalibrationSpec) -> np.ndarray:
    """Target distribution of the size of a random cluster, indexed by size.

    Family mass is truncated to sizes 1..cap and renormalized; the explicit
    family provides sizes 2..cap directly and the singleton mass is the
    complement.  Entry 0 is zero.
    """
    g = np.zeros(spec.cap + 1)
    sizes = np.arange(1, spec.cap + 1)
    if spec.family == "geometric":
        g[1:] = spec.p * (1.0 - spec.p) ** (sizes - 1)
    elif spec.family == "negbin":
        # number-of-failures form: support starts at 0, truncated to >= 1
        lg = (
            np.array([lgamma(s + spec.r) - lgamma(s + 1) for s in sizes])
            - lgamma(spec.r)
            + spec.r * math.log(spec.p)
            + sizes * math.log1p(-spec.p)
        )
        g[1:] = np.exp(lg)
    else:
        g[1] = 1.0 - sum(spec.pi)
        g[2:] = spec.pi
    total = g.sum()
    if total <= 0:
        raise ValueError("calibration family has no mass on sizes 1..cap")
    return g / total


def calibrate_recursive(spec: CalibrationSpec, n: int) -> BbapParams:
    """Elicit (a_t, b_t) for every size by descending moment matching.

    Working from the cap down, the expected count of size-t clusters is set
    to match the target size profile; each Beta mean is that count divided
    by the plug-in trial count (records not yet claimed by larger sizes,
    divided by t), and the spread comes from the shared cv.  At cap 2 this
    reduces exactly to calibrate_m2.
    """
    if n < spec.cap:
        raise ValueError("need at least cap records to calibrate")
    g = size_target_distribution(spec)
    mean_size = float(np.arange(len(g)) @ g)
    expected_clusters = n / mean_size
    a = np.empty(spec.cap - 1)
    b = np.empty(spec.cap - 1)
    nu = float(n)
    for t in range(spec.cap, 1, -1):
        trials = math.floor(nu / t)
        target = expected_clusters * g[t]
        if trials <= 0:
            mean = _MEAN_FLOOR
        else:
            mean = min(max(target / trials, _MEAN_FLOOR), 1.0 - _MEAN_FLOOR)
        a_t, b_t = _beta_shapes_for_mean(mean, spec.cv)
        if a_t <= 0 or b_t <= 0:
            raise ValueError(f"infeasible cv for size {t}: derived shapes not positive")
        a[t - 2] = a_t
        b[t - 2] = b_t
        nu -= t * target
    return BbapParams(cap=spec.cap, a=tuple(a), b=tuple(b))


def singleton_moments_m2(n: int, a2: float, b2: float) -> tuple[float, float]:
    """Exact mean and variance of the singleton count at cap 2."""
    if a2 <= 0 or b2 <= 0:
        raise ValueError("Beta shapes must be positive")
    half = n // 2
    mean = n - 2.0 * half * a2 / (a2 + b2)
    var = 4.0 * half * (a2 + b2 + half) * a2 * b2 / ((a2 + b2) ** 2 * (a2 + b2 + 1.0))
    return mean, var


# ---------------------------------------------------------------------------
# reallocation weights


def _realloc_log_factors(
    size_counts: Sequence[int], n_minus: int, params: PriorParams
) -> tuple[np.ndarray, float]:
    """Log prior weight for moving one extra record into the reduced state.

    Returns (join, new): join[s] applies to any existing cluster currently
    of size s, new to a fresh singleton.  Entries stay -inf at the cap and,
    under bbap, for sizes with no clusters.  Weights multiply the class-change
    factor by the size-count density ratio after/before the move, in closed
    form: under EPP, the seating weights s and theta times a common ratio.
    Under bbap, joining a size-s cluster leaves one more record for each
    size t > s + 1 (one more trial when t divides them), adds a cluster at
    s + 1 and takes a cluster and a trial from s, so one top-down pass gives
    every weight in O(cap).
    """
    if isinstance(params, EppParams):
        counts = np.asarray(size_counts, dtype=np.int64)
        if (counts[1:] < 0).any() or int(counts @ np.arange(len(counts))) != n_minus:
            raise ValueError("reduced state lies outside the prior support")
        c = log(n_minus + 1) - log(n_minus + params.theta)
        join = np.append(NEG_INF, np.log(np.arange(1, n_minus + 1)) + c)
        return join, log(params.theta) + c
    cap = params.cap
    counts = [int(c) for c in size_counts] + [0] * (cap + 1 - len(size_counts))
    join = np.full(cap + 1, NEG_INF)
    above = 0.0  # sum of the new-record ratios over sizes above t + 1
    g_up, gain_up = 0.0, NEG_INF  # at t + 1: new-record ratio, one-more-cluster ratio
    left = n_minus  # records in clusters of size <= t
    for t in range(cap, 1, -1):
        r, m = counts[t], left // t  # count and trials at size t
        if not 0 <= r <= m:
            raise ValueError("reduced state lies outside the prior support")
        a, b = params.shapes(t)
        if r and t < cap:
            # the class factor's log(r_{t+1} + 1) and log(r_t) cancel here
            join[t] = log(t + 1) + above + gain_up - log(m) + log(m - 1 + a + b) - log(r - 1 + a)
        above += g_up
        if (left + 1) % t == 0:
            g_up = log(m + 1) - log(m + 1 - r) + log(m - r + b) - log(m + a + b)
            gain_up = log(m + 1) + log(r + a) - log(m + a + b)
        else:
            g_up = 0.0
            gain_up = log(m - r) + log(r + a) - log(m - r - 1 + b) if r < m else NEG_INF
        left -= t * r
    # the singleton count is determined by the larger sizes, and none exceeds the cap
    if counts[1] != left or any(counts[cap + 1 :]):
        raise ValueError("reduced state lies outside the prior support")
    if left:
        join[1] = log(2) - log(left) + above + gain_up
    return join, log(left + 1) + above + g_up


def reallocation_weights(reduced: LinkageStructure, params: PriorParams) -> np.ndarray:
    """Unnormalized prior weights for inserting one record into a reduced state.

    One entry per existing cluster in label order plus a final entry for a
    new singleton cluster.  Clusters already at the cap get weight zero.
    """
    sizes = reduced.cluster_sizes()
    join, new = _realloc_log_factors(np.bincount(sizes), reduced.n, params)
    return np.array([math.exp(join[s]) for s in sizes] + [math.exp(new)])
