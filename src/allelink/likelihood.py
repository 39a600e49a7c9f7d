"""Categorical distortion likelihood and its conjugate updates.

Each record field either copies its entity's true value or, with a
per-field distortion probability, is an independent categorical draw from
the field's reference distribution (fixed at the smoothed empirical
frequencies of the data).  Latent entity attributes and distortion
probabilities have closed-form full conditionals once binary distortion
indicators are introduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_SMOOTHING = 0.01


def beta_from_mean_sd(mean: float, sd: float) -> tuple[float, float]:
    """Beta shapes with the requested mean and standard deviation."""
    if not 0 < mean < 1:
        raise ValueError("mean must lie in (0, 1)")
    var = sd * sd
    if var <= 0 or var >= mean * (1.0 - mean):
        raise ValueError("sd must satisfy 0 < sd^2 < mean (1 - mean)")
    nu = mean * (1.0 - mean) / var - 1.0
    return mean * nu, (1.0 - mean) * nu


@dataclass(frozen=True)
class LikelihoodConfig:
    """Distortion prior and frequency smoothing settings.

    psi_fixed pins the distortion probabilities instead of resampling them;
    scalar values broadcast across fields.
    """

    psi_prior_mean: float = 0.01
    psi_prior_sd: float = 0.01
    smoothing_eps: float = DEFAULT_SMOOTHING
    psi_fixed: float | tuple[float, ...] | None = None

    def __post_init__(self):
        if self.psi_fixed is None:
            beta_from_mean_sd(self.psi_prior_mean, self.psi_prior_sd)
        if self.smoothing_eps < 0:
            raise ValueError("smoothing_eps must be non-negative")

    def prior_shapes(self, n_fields: int) -> tuple[np.ndarray, np.ndarray]:
        a, b = beta_from_mean_sd(self.psi_prior_mean, self.psi_prior_sd)
        return np.full(n_fields, a), np.full(n_fields, b)

    def fixed_psi(self, n_fields: int) -> np.ndarray | None:
        if self.psi_fixed is None:
            return None
        psi = np.asarray(self.psi_fixed, dtype=float)
        if psi.ndim == 0:
            psi = np.full(n_fields, float(psi))
        if psi.shape != (n_fields,):
            raise ValueError("psi_fixed must be a scalar or one value per field")
        if np.any(psi < 0) or np.any(psi > 1):
            raise ValueError("psi_fixed entries must lie in [0, 1]")
        return psi


def empirical_freqs(
    values: np.ndarray, cardinalities: tuple[int, ...], eps: float = DEFAULT_SMOOTHING
) -> list[np.ndarray]:
    """Smoothed per-field category frequencies: (count + eps) / (n + eps D).

    The smoothing keeps every category's probability strictly positive so
    unseen values never produce -inf likelihoods.
    """
    n, n_fields = values.shape
    if n == 0:
        raise ValueError("cannot build frequencies from an empty table")
    out = []
    for f in range(n_fields):
        d = cardinalities[f]
        counts = np.bincount(values[:, f], minlength=d).astype(float)
        out.append((counts + eps) / (n + eps * d))
    return out


@dataclass
class Dataset:
    """Integer-coded record table plus field metadata and reference frequencies."""

    values: np.ndarray
    cardinalities: tuple[int, ...]
    field_names: tuple[str, ...]
    freqs: list[np.ndarray] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def n_fields(self) -> int:
        return self.values.shape[1]

    def log_freqs(self) -> list[np.ndarray]:
        return [np.log(f) for f in self.freqs]


def make_dataset(
    values: np.ndarray,
    cardinalities: tuple[int, ...] | None = None,
    field_names: tuple[str, ...] | None = None,
    eps: float = DEFAULT_SMOOTHING,
) -> Dataset:
    values = np.asarray(values, dtype=np.int64)
    if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
        raise ValueError("values must be a non-empty records-by-fields table")
    if np.any(values < 0):
        raise ValueError("category codes must be non-negative")
    if cardinalities is None:
        cardinalities = tuple(int(values[:, f].max()) + 1 for f in range(values.shape[1]))
    else:
        cardinalities = tuple(int(d) for d in cardinalities)
        for f, d in enumerate(cardinalities):
            if values[:, f].max() >= d:
                raise ValueError(f"field {f} has codes outside its cardinality {d}")
    if field_names is None:
        field_names = tuple(f"field{f}" for f in range(values.shape[1]))
    freqs = empirical_freqs(values, cardinalities, eps)
    return Dataset(values, cardinalities, tuple(field_names), freqs)


@dataclass
class DistortionState:
    """Per-field distortion probabilities and their Beta prior."""

    psi: np.ndarray
    prior_a: np.ndarray
    prior_b: np.ndarray


# ---------------------------------------------------------------------------
# field likelihoods


def record_loglik(
    x: np.ndarray, y: np.ndarray, psi: np.ndarray, freqs: list[np.ndarray]
) -> float:
    """Log likelihood of one record given its entity's attributes."""
    out = 0.0
    for f in range(len(freqs)):
        p = psi[f] * freqs[f][x[f]]
        if x[f] == y[f]:
            p += 1.0 - psi[f]
        if p <= 0.0:
            return float("-inf")
        out += np.log(p)
    return float(out)


def entity_logliks(
    x: np.ndarray, entities: np.ndarray, psi: np.ndarray, freqs: list[np.ndarray]
) -> np.ndarray:
    """record_loglik of one record against every entity row at once."""
    total = np.zeros(entities.shape[0])
    with np.errstate(divide="ignore"):
        for f in range(len(freqs)):
            p = psi[f] * freqs[f][x[f]] + (1.0 - psi[f]) * (entities[:, f] == x[f])
            total += np.log(p)
    return total


def new_cluster_marginal_loglik(x: np.ndarray, freqs: list[np.ndarray]) -> float:
    """Likelihood of a record with its entity integrated out.

    Averaging the record likelihood over entity values drawn from the
    reference frequencies collapses to the frequency of the observed value,
    independent of the distortion probability.
    """
    return float(sum(np.log(freqs[f][x[f]]) for f in range(len(freqs))))


def draw_singleton_entity(
    x: np.ndarray, psi: np.ndarray, freqs: list[np.ndarray], rng: np.random.Generator
) -> np.ndarray:
    """Entity attributes from the full conditional given a single record.

    The conditional is a two-part mixture: copy the observed value with
    probability 1 - psi, otherwise draw from the reference frequencies.
    """
    y = np.array(x, dtype=np.int64, copy=True)
    for f in range(len(freqs)):
        if rng.random() < psi[f]:
            y[f] = rng.choice(len(freqs[f]), p=freqs[f])
    return y


# ---------------------------------------------------------------------------
# conjugate updates


def resample_entities(
    values: np.ndarray,
    assignments: np.ndarray,
    n_clusters: int,
    psi: np.ndarray,
    freqs: list[np.ndarray],
    rng: np.random.Generator,
) -> np.ndarray:
    """Redraw every entity attribute from its categorical full conditional.

    Fields are conditionally independent given the linkage, so each is
    updated from its own cluster-by-category match counts.
    """
    n_fields = values.shape[1]
    out = np.empty((n_clusters, n_fields), dtype=np.int64)
    for f in range(n_fields):
        fr = freqs[f]
        d = len(fr)
        with np.errstate(divide="ignore"):
            gain = np.log((1.0 - psi[f]) + psi[f] * fr) - np.log(psi[f] * fr)
        counts = np.zeros((n_clusters, d))
        np.add.at(counts, (assignments, values[:, f]), 1.0)
        with np.errstate(invalid="ignore"):
            # zero-count cells may pair an infinite gain with zero; masked out
            logits = np.log(fr)[None, :] + np.where(counts > 0, counts * gain[None, :], 0.0)
        gumbel = rng.gumbel(size=(n_clusters, d))
        out[:, f] = np.argmax(logits + gumbel, axis=1)
    return out


def resample_distortion(
    values: np.ndarray,
    entity_rows: np.ndarray,
    freqs: list[np.ndarray],
    state: DistortionState,
    rng: np.random.Generator,
) -> DistortionState:
    """Redraw indicators then distortion probabilities from their conditionals.

    A mismatch between record and entity forces the indicator on; matches
    toggle it with the posterior odds of a coincidental agreement.  The
    probabilities are then Beta with the indicator totals added.
    """
    n, n_fields = values.shape
    mismatch = values != entity_rows
    theta_x = np.empty((n, n_fields))
    for f in range(n_fields):
        theta_x[:, f] = freqs[f][values[:, f]]
    scaled = state.psi[None, :] * theta_x
    p_on = scaled / (scaled + (1.0 - state.psi)[None, :])
    indicators = mismatch | (rng.random((n, n_fields)) < p_on)
    on = indicators.sum(axis=0)
    psi = rng.beta(state.prior_a + on, state.prior_b + n - on)
    return DistortionState(psi, state.prior_a, state.prior_b)
