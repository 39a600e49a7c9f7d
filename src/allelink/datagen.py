"""Synthetic ground truth generation and CSV ingestion.

A scenario draws cluster sizes i.i.d. from a configurable size law,
instantiates one latent entity per cluster with uniform attribute values,
then emits one distorted record per cluster slot: each field copies the
entity's value or, with the distortion probability, is redrawn uniformly.
Records are shuffled so file order carries no linkage signal.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .partitions import LinkageStructure, canonicalize

DEFAULT_CARDINALITIES = (2, 12, 31, 51, 6)


class DataError(ValueError):
    """Bad or missing input data (files, truth columns, malformed tables)."""


@dataclass(frozen=True)
class ScenarioSpec:
    """Cluster-size law, distortion level, and field schema for one scenario."""

    name: str
    n_clusters: int
    sizes: tuple[int, ...]
    weights: tuple[float, ...]
    psi: tuple[float, ...]
    cardinalities: tuple[int, ...]
    seed: int = 0

    def __post_init__(self):
        if self.n_clusters < 1:
            raise ValueError("need at least one cluster")
        if len(self.sizes) != len(self.weights) or not self.sizes:
            raise ValueError("sizes and weights must align and be non-empty")
        if any(s < 1 for s in self.sizes):
            raise ValueError("cluster sizes start at 1")
        if any(w < 0 for w in self.weights) or sum(self.weights) <= 0:
            raise ValueError("weights must be non-negative with positive total")
        if len(self.psi) != len(self.cardinalities):
            raise ValueError("need one distortion probability per field")
        if any(not 0 <= p <= 1 for p in self.psi):
            raise ValueError("distortion probabilities must lie in [0, 1]")
        if any(d < 2 for d in self.cardinalities):
            raise ValueError("fields need at least two categories")

    @property
    def n_fields(self) -> int:
        return len(self.cardinalities)

    def size_probs(self) -> np.ndarray:
        w = np.asarray(self.weights, dtype=float)
        return w / w.sum()


def _preset_law(scenario_id: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
    uniform6 = tuple(1.0 / 6.0 for _ in range(6))
    geometric6 = tuple(0.5 ** s for s in range(1, 7))
    geo_norm = tuple(w / sum(geometric6) for w in geometric6)
    if scenario_id == 1:
        return tuple(range(1, 7)), uniform6
    if scenario_id == 2:
        return tuple(range(1, 7)), geo_norm
    if scenario_id == 3:
        return (1, 2, 3, 4, 5), (0.1, 0.3, 0.3, 0.2, 0.1)
    if scenario_id == 4:
        return (1, 2, 3, 4, 5), (0.1, 0.2, 0.4, 0.2, 0.1)
    if scenario_id == 5:
        mixed = tuple(0.5 * u + 0.5 * g for u, g in zip(uniform6, geo_norm))
        return tuple(range(1, 7)), mixed
    raise ValueError(f"unknown scenario id {scenario_id}; presets are 1..5")


def scenario_preset(
    scenario_id: int,
    n_clusters: int = 200,
    psi: float | tuple[float, ...] = 0.05,
    cardinalities: tuple[int, ...] = DEFAULT_CARDINALITIES,
    seed: int = 0,
) -> ScenarioSpec:
    """One of the five built-in size laws with the default field schema."""
    sizes, weights = _preset_law(scenario_id)
    if np.isscalar(psi):
        psi = tuple(float(psi) for _ in cardinalities)
    return ScenarioSpec(
        name=f"scenario{scenario_id}",
        n_clusters=n_clusters,
        sizes=sizes,
        weights=weights,
        psi=tuple(psi),
        cardinalities=tuple(cardinalities),
        seed=seed,
    )


def generate_truth(
    spec: ScenarioSpec, rng: np.random.Generator | None = None
) -> tuple[LinkageStructure, np.ndarray]:
    """Draw cluster sizes and entity attributes; returns (truth, entities).

    Records come out grouped by entity; pair with distort_records to get
    shuffled observations.
    """
    rng = np.random.default_rng(spec.seed) if rng is None else rng
    sizes = rng.choice(np.asarray(spec.sizes), size=spec.n_clusters, p=spec.size_probs())
    labels: list[int] = []
    for k, s in enumerate(sizes):
        labels.extend([k + 1] * int(s))
    entities = np.empty((spec.n_clusters, spec.n_fields), dtype=np.int64)
    for f, d in enumerate(spec.cardinalities):
        entities[:, f] = rng.integers(0, d, size=spec.n_clusters)
    return LinkageStructure(tuple(labels)), entities


def distort_records(
    truth: LinkageStructure,
    entities: np.ndarray,
    spec: ScenarioSpec,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, LinkageStructure]:
    """Copy-or-redraw each field, then shuffle records with labels attached."""
    rng = np.random.default_rng(spec.seed + 1) if rng is None else rng
    n = truth.n
    rows = np.asarray(truth.assignments) - 1
    values = entities[rows].copy()
    for f, d in enumerate(spec.cardinalities):
        hit = rng.random(n) < spec.psi[f]
        redrawn = rng.integers(0, d, size=n)
        values[hit, f] = redrawn[hit]
    perm = rng.permutation(n)
    shuffled_truth = canonicalize(np.asarray(truth.assignments)[perm])
    return values[perm], shuffled_truth


def simulate(spec: ScenarioSpec) -> tuple[np.ndarray, LinkageStructure, np.ndarray]:
    """Full generation pass: (record values, shuffled truth, entity table)."""
    rng = np.random.default_rng(spec.seed)
    truth, entities = generate_truth(spec, rng)
    values, shuffled_truth = distort_records(truth, entities, spec, rng)
    return values, shuffled_truth, entities


# ---------------------------------------------------------------------------
# CSV I/O

TRUTH_COLUMN = "truth_id"


def write_records_csv(
    path,
    values: np.ndarray,
    field_names: tuple[str, ...],
    truth: LinkageStructure | None = None,
) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = list(field_names) + ([TRUTH_COLUMN] if truth is not None else [])
        writer.writerow(header)
        for i in range(values.shape[0]):
            row = [int(v) for v in values[i]]
            if truth is not None:
                row.append(truth.assignments[i])
            writer.writerow(row)


def load_records_csv(path) -> tuple[np.ndarray, tuple[str, ...], LinkageStructure | None]:
    """Read a record table; categories are dictionary-encoded in file order.

    A header row is required.  A truth_id column, when present, is split
    off and canonicalized.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot open dataset '{path}': {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"dataset '{path}' is empty; a header row is required")
        rows = [row for row in reader if row]
    if not rows:
        raise DataError(f"dataset '{path}' has a header but no records")
    truth_idx = header.index(TRUTH_COLUMN) if TRUTH_COLUMN in header else None
    field_cols = [c for c in range(len(header)) if c != truth_idx]
    if not field_cols:
        raise DataError(f"dataset '{path}' has no attribute fields")
    codebooks: list[dict[str, int]] = [{} for _ in field_cols]
    values = np.empty((len(rows), len(field_cols)), dtype=np.int64)
    truth_raw: list[str] = []
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"dataset '{path}' row {r + 2} has {len(row)} cells, expected {len(header)}")
        for out_c, c in enumerate(field_cols):
            book = codebooks[out_c]
            cell = row[c]
            if cell not in book:
                book[cell] = len(book)
            values[r, out_c] = book[cell]
        if truth_idx is not None:
            truth_raw.append(row[truth_idx])
    names = tuple(header[c] for c in field_cols)
    truth = canonicalize(truth_raw) if truth_idx is not None else None
    return values, names, truth
