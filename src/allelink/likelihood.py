"""Categorical distortion likelihood and its conjugate updates.

Each record field either copies its entity's true value or, with a
per-field distortion probability, is an independent categorical draw from
the field's reference distribution (fixed at the smoothed empirical
frequencies of the data).  Latent entity attributes and distortion
probabilities have closed-form full conditionals once binary distortion
indicators are introduced.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_SMOOTHING = 0.01
# fields per agree/disagree pattern table chunk (2^8 entries per chunk)
PATTERN_CHUNK_FIELDS = 8


def beta_from_mean_sd(mean: float, sd: float) -> tuple[float, float]:
    """Beta shapes with the requested mean and standard deviation."""
    if not 0 < mean < 1:
        raise ValueError("mean must lie in (0, 1)")
    var = sd * sd
    if not 0 < var < mean * (1.0 - mean):
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
        elif not all(0 <= p <= 1 for p in np.atleast_1d(self.psi_fixed)):
            raise ValueError("psi_fixed entries must lie in [0, 1]")
        if not self.smoothing_eps >= 0:
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

    @functools.cached_property
    def record_freqs(self) -> np.ndarray:
        """Reference frequency of every record's observed value, records by
        fields; a constant of the data, computed once."""
        return _record_freqs(self.values, self.freqs)


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


@dataclass(frozen=True)
class DistortionState:
    """Per-field distortion probabilities and their Beta prior; frozen, as a
    chain rebuilds its pattern tables only for a new state."""

    psi: np.ndarray
    prior_a: np.ndarray
    prior_b: np.ndarray


# ---------------------------------------------------------------------------
# field likelihoods


def _record_freqs(values: np.ndarray, freqs: list[np.ndarray]) -> np.ndarray:
    """Reference frequency of every record's observed value, records by fields."""
    out = np.empty(values.shape)
    for f in range(values.shape[1]):
        out[:, f] = freqs[f][values[:, f]]
    return out


def record_loglik(
    x: np.ndarray,
    y: np.ndarray,
    psi: np.ndarray,
    freqs: list[np.ndarray],
    x_freqs: np.ndarray | None = None,
) -> float | np.ndarray:
    """Log likelihood of a record given its entity's attributes.

    x and y hold fields on their last axis and broadcast against each other
    over the leading ones, so one call scores many record-entity pairs;
    every pair's field terms are added one at a time in field order, as for
    a single pair.  x_freqs, if given, holds the reference frequency of
    each of x's values (rows of Dataset.record_freqs), which are otherwise
    looked up in freqs.
    """
    if x_freqs is None:
        x_freqs = np.stack([freqs[f][x[..., f]] for f in range(len(freqs))], axis=-1)
    scaled = psi * x_freqs
    with np.errstate(divide="ignore"):
        terms = np.log(np.where(x == y, scaled + (1.0 - psi), scaled))
    out = terms[..., 0]
    for f in range(1, terms.shape[-1]):
        out = out + terms[..., f]
    return float(out) if out.ndim == 0 else out


def pattern_tables(record_freqs: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Log likelihood of every record under every agree/disagree pattern,
    from the records' reference frequencies (Dataset.record_freqs).

    Under the distortion model a field contributes log(psi theta_x + 1 - psi)
    when the entity agrees with the record and log(psi theta_x) when it does
    not, so a record's likelihood against any entity depends only on which
    fields agree.  Entry [i, c, code] sums, in field order, the terms of
    chunk c's fields for record i with agreement bits `code`; a single
    chunk (F <= PATTERN_CHUNK_FIELDS) therefore holds record_loglik's value
    bit for bit.
    """
    n, n_fields = record_freqs.shape
    n_chunks = -(-n_fields // PATTERN_CHUNK_FIELDS)
    bits = np.arange(1 << min(n_fields, PATTERN_CHUNK_FIELDS))
    scaled = psi[None, :] * record_freqs
    with np.errstate(divide="ignore"):
        miss = np.log(scaled)
        hit = np.log(scaled + (1.0 - psi)[None, :])
    out = np.zeros((n, n_chunks, len(bits)))
    for f in range(n_fields):
        chunk, bit = divmod(f, PATTERN_CHUNK_FIELDS)
        agree = ((bits >> bit) & 1).astype(bool)
        out[:, chunk, :] += np.where(agree[None, :], hit[:, f, None], miss[:, f, None])
    return out


class AgreementPlanes:
    """Which cluster slots hold each (field, value), as pattern-code bits.

    Row offsets[f] + v holds field f's bit of its pattern chunk,
    1 << (f % 8) in chunk f // 8, at every slot whose entity has value v in
    field f, and 0 elsewhere; a slot without a cluster is 0 in every row.
    OR-ing a record's rows of one chunk gives that chunk's pattern code
    against every slot.  Taking fields in order, a field gets rows if the
    total row count still fits in 8 C 2^min(F, 8), the bytes per record of
    the pattern tables, so the planes never take more memory than the
    tables.  A field that does not fit, such as a column of identifiers, is
    compared against the entity column instead.
    """

    def __init__(self, cardinalities: tuple[int, ...], n_slots: int):
        n_fields = len(cardinalities)
        n_chunks = -(-n_fields // PATTERN_CHUNK_FIELDS)
        budget = 8 * n_chunks * (1 << min(n_fields, PATTERN_CHUNK_FIELDS))
        self.offsets = np.full(n_fields, -1, dtype=np.intp)
        n_rows = 0
        for f, d in enumerate(cardinalities):
            if n_rows + d <= budget:
                self.offsets[f] = n_rows
                n_rows += d
        self._planed = np.flatnonzero(self.offsets >= 0)
        self._planed_offsets = self.offsets[self._planed]
        self._bits = (1 << (self._planed % PATTERN_CHUNK_FIELDS)).astype(np.uint8)
        self.planes = np.zeros((n_rows, n_slots), dtype=np.uint8)
        # per chunk: its span of a record's rows, and (field, bit) of its compared fields
        chunk_of = np.arange(n_fields) // PATTERN_CHUNK_FIELDS
        self.chunks = []
        for c in range(n_chunks):
            lo, hi = np.searchsorted(chunk_of[self._planed], [c, c + 1])
            compared = np.flatnonzero((self.offsets < 0) & (chunk_of == c))
            self.chunks.append(
                (
                    slice(int(lo), int(hi)),
                    [(int(g), 1 << (int(g) % PATTERN_CHUNK_FIELDS)) for g in compared],
                )
            )

    def record_rows(self, values: np.ndarray) -> np.ndarray:
        """Plane row of each planed field's value; records by planed fields."""
        return self._planed_offsets + values[:, self._planed]

    def set_slot(self, slot: int, entity: np.ndarray) -> None:
        self.planes[self._planed_offsets + entity[self._planed], slot] = self._bits

    def clear_slot(self, slot: int, entity: np.ndarray) -> None:
        self.planes[self._planed_offsets + entity[self._planed], slot] = 0

    def move_slot(self, src: int, dst: int) -> None:
        """Slot dst takes slot src's entity, and src is left empty."""
        self.planes[:, dst] = self.planes[:, src]
        self.planes[:, src] = 0

    def fill(self, entities: np.ndarray) -> None:
        """Planes of exactly these entities, one per slot from slot 0."""
        self.planes[:] = 0
        slots = np.arange(len(entities))[:, None]
        self.planes[self.record_rows(entities), slots] = self._bits


def entity_logliks(
    x: np.ndarray,
    entities: np.ndarray,
    planes: AgreementPlanes,
    rows: np.ndarray,
    table: np.ndarray,
) -> np.ndarray:
    """record_loglik of one record, or of each record of a block, against
    every entity row at once.

    planes holds exactly these entities in slots 0..K-1.  For one record, x
    is its values, rows its row of planes.record_rows and table its row of
    pattern_tables, C chunks by 2^min(F, 8) patterns, and the result has K
    entries.  For a block of r records every argument but entities and
    planes gains a leading axis of length r, and so does the result.  Chunk
    subtotals are added in chunk order.
    """
    k = len(entities)
    block = x.ndim == 2
    if block:
        # each record reads its own rows of the tables, flattened
        flat = table.reshape(-1)
        starts = np.arange(0, flat.size, flat.size // len(table))[:, None]
    out = None
    for c, (span, compared) in enumerate(planes.chunks):
        codes = np.bitwise_or.reduce(planes.planes.take(rows[..., span], axis=0), axis=-2)
        codes = codes[..., :k]
        for f, bit in compared:
            codes[entities[:, f] == x[..., f, None]] |= bit
        if block:
            index = codes.astype(np.intp)
            index += starts + c * table.shape[-1] if c else starts
            part = flat.take(index)
        else:
            part = table[c].take(codes)
        out = part if out is None else out + part
    return out


def new_cluster_marginal_loglik(
    x: np.ndarray, freqs: list[np.ndarray]
) -> float | np.ndarray:
    """Likelihood of a record with its entity integrated out.

    Averaging the record likelihood over entity values drawn from the
    reference frequencies collapses to the frequency of the observed value,
    independent of the distortion probability.  x is one record or a
    records-by-fields table (one value per row).
    """
    return sum(np.log(freqs[f][x[..., f]]) for f in range(len(freqs)))


def draw_singleton_entity(
    x: np.ndarray, psi: np.ndarray, freqs: list[np.ndarray], rng: np.random.Generator
) -> np.ndarray:
    """Entity attributes from the full conditional given a single record.

    The conditional is a two-part mixture: copy the observed value with
    probability 1 - psi, otherwise draw from the reference frequencies.
    Each field takes a uniform, and a distorted field then a second one,
    read as rng.choice(d, p=freqs[f]) reads it: the first value whose
    normalized cumulative frequency lies above it.  The first F uniforms
    come in one block; almost always none is below its psi, and the record
    is the entity.
    """
    first = rng.random(len(freqs))
    y = np.array(x, dtype=np.int64, copy=True)
    if not np.count_nonzero(first < psi):
        return y
    # the block holds the first F uniforms of the per-field order; later
    # ones are drawn as they are needed
    uniforms = itertools.chain(first.tolist(), iter(rng.random, None))
    for f in range(len(freqs)):
        if next(uniforms) < psi[f]:
            cdf = freqs[f].cumsum()
            cdf /= cdf[-1]
            y[f] = cdf.searchsorted(next(uniforms), "right")
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
    updated from its own cluster-by-category match counts.  Each field's
    value is the argmax of its logits plus K x d Gumbels, the draws of
    rng.gumbel(size=(K, d)) bit for bit (see _gumbel_argmax).
    """
    n_fields = values.shape[1]
    out = np.empty((n_clusters, n_fields), dtype=np.int64)
    # every field's categories in one vector, so that log theta and the
    # per-match gain take one pass for all fields
    widths = [len(fr) for fr in freqs]
    ends = np.cumsum(widths).tolist()
    fr_all = np.concatenate(freqs)
    psi_all = np.repeat(psi, widths)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_fr_all = np.log(fr_all)
        gain_all = np.log((1.0 - psi_all) + psi_all * fr_all) - np.log(psi_all * fr_all)
        for f in range(n_fields):
            d = widths[f]
            log_fr, gain = log_fr_all[ends[f] - d : ends[f]], gain_all[ends[f] - d : ends[f]]
            x = values[:, f]
            # flat (cluster, category) cell of each record: the cells with count > 0
            cells = assignments * d + x
            counts = np.bincount(cells, minlength=n_clusters * d)
            logits = np.empty((n_clusters, d))
            logits[:] = log_fr
            logits.reshape(-1)[cells] = log_fr[x] + counts.take(cells) * gain[x]
            u = _gumbel_uniforms(rng, n_clusters * d).reshape(n_clusters, d)
            out[:, f] = _gumbel_argmax(logits, u)
    return out


# a row's vectorized argmax stands only if no other cell comes within this
# relative margin of it, far above the last-bit error of numpy's log
_GUMBEL_MARGIN = 1e-9


def _gumbel_uniforms(rng: np.random.Generator, size: int) -> np.ndarray:
    """The size doubles rng.gumbel(size=size) transforms, leaving rng in the
    state rng.gumbel would: it maps a double u to -log(-log(1 - u)) and
    redraws a zero, so zeros are dropped and replaced from the next draw."""
    u = rng.random(size)
    if size and u.min() == 0.0:
        u = u[u != 0.0]
        while len(u) < size:
            more = rng.random(size - len(u))
            u = np.concatenate((u, more[more != 0.0]))
    return u


def _gumbel_argmax(logits: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise argmax of logits + G, where G = -log(-log(1 - u)) with libm's
    log, as rng.gumbel computes it.

    numpy's vectorized log may differ from libm's in the last bit, so a
    row's argmax from it stands only if no other cell of the row comes
    within _GUMBEL_MARGIN of it, relative to its size; any other row is
    recomputed with math.log, which is libm's log.  A row whose top is +inf
    takes its first infinite cell either way, as np.argmax does.  Call it
    with invalid floating-point operations ignored.
    """
    k, d = logits.shape
    z = np.subtract(1.0, u)
    np.log(z, out=z)
    np.negative(z, out=z)
    np.log(z, out=z)
    np.subtract(logits, z, out=z)
    choice = z.argmax(axis=1)
    top = z.reshape(-1).take(choice + np.arange(0, k * d, d))
    # no top lies below its bar, so a row is sure when its d - 1 other
    # cells do; an infinite top's bar is NaN, which no cell lies below
    below = z < (top - _GUMBEL_MARGIN * (1.0 + np.abs(top)))[:, None]
    if np.count_nonzero(below) != k * (d - 1):
        unsure = (below.sum(axis=1) != d - 1) & (top != np.inf)
        for r in np.flatnonzero(unsure).tolist():
            g = [math.log(-math.log(1.0 - v)) for v in u[r].tolist()]
            choice[r] = np.argmax(logits[r] - np.array(g))
    return choice


def resample_distortion(
    values: np.ndarray,
    entity_rows: np.ndarray,
    record_freqs: np.ndarray,
    state: DistortionState,
    rng: np.random.Generator,
) -> DistortionState:
    """Redraw indicators then distortion probabilities from their conditionals.

    A mismatch between record and entity forces the indicator on; matches
    toggle it with the posterior odds of a coincidental agreement.  The
    probabilities are then Beta with the indicator totals added.
    record_freqs is the records' reference frequencies (Dataset.record_freqs).
    """
    n, n_fields = values.shape
    mismatch = values != entity_rows
    scaled = state.psi[None, :] * record_freqs
    p_on = scaled / (scaled + (1.0 - state.psi)[None, :])
    indicators = mismatch | (rng.random((n, n_fields)) < p_on)
    on = indicators.sum(axis=0)
    psi = rng.beta(state.prior_a + on, state.prior_b + n - on)
    return DistortionState(psi, state.prior_a, state.prior_b)
