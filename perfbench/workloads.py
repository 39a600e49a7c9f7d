"""Seeded inputs and CLI configs for the four benchmark workloads.

Inputs come from the benchmark's own generator, never from the package:
the size histogram of every dataset is fixed (the scenario-2 law's expected
counts), so the record count does not change with the seed, and the seed
only decides entity values, distortion, record order and the sampler seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

CARDINALITIES = (2, 12, 31, 51, 6)  # the package's default field schema
PSI = 0.01  # per-field distortion of the scenario-2 acceptance workload
CAP = 9
SIZE_LAW = tuple(0.5 ** s for s in range(1, 7))  # scenario 2: geometric, sizes 1..6

ESTIMATE_SAMPLES = 500
ESTIMATE_AMBIGUOUS = 40
ESTIMATE_MOVE_P = (0.02, 0.1)
ESTIMATE_LOSSES = ("binder", "vi", "nid")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the timed CLI command
    entities: int
    prior: str = "bbap"
    chains: int = 2
    iterations: int = 0
    burn_in: int = 0
    move_mix: float = 0.9
    check_every: int = 100
    snapshot_stride: int = 10


WORKLOADS = {
    w.name: w
    for w in (
        Workload("s2-bbap", "run", 200, iterations=400, burn_in=200),
        Workload("s2-epp", "run", 200, prior="epp", iterations=400, burn_in=200),
        # every sweep a full pass: at the default mix a 30-second run holds
        # about 370 sweeps, its pass count is Binomial(N, 0.1) (about +-16 %)
        # and passes take most of the time, so the mix alone would move the
        # wall time by more than any bound worth keeping
        Workload("scale-bbap", "run", 1900, chains=1, iterations=8, burn_in=4,
                 move_mix=0.0, check_every=4, snapshot_stride=2),
        Workload("s2-estimate", "estimate", 200),
    )
}


def size_histogram(entities: int) -> np.ndarray:
    """Entity count per size 1..6: the scenario-2 law's expected counts,
    rounded by largest remainder so they sum to `entities`."""
    w = np.asarray(SIZE_LAW) / sum(SIZE_LAW)
    exact = entities * w
    counts = np.floor(exact).astype(np.int64)
    short = entities - int(counts.sum())
    counts[np.argsort(-(exact - counts), kind="stable")[:short]] += 1
    return counts


def truth_labels(entities: int, rng: np.random.Generator) -> np.ndarray:
    """0-based entity label of every record, records in random order."""
    sizes = np.repeat(np.arange(1, 7), size_histogram(entities))
    labels = np.repeat(np.arange(entities), sizes)
    return labels[rng.permutation(len(labels))]


def records(entities: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Distorted categorical records and their true entity labels.

    Each field copies the entity's value or, with probability PSI, is
    redrawn uniformly (which may give back the same value)."""
    labels = truth_labels(entities, rng)
    attrs = np.column_stack([rng.integers(0, d, entities) for d in CARDINALITIES])
    values = attrs[labels]
    for f, d in enumerate(CARDINALITIES):
        hit = rng.random(len(labels)) < PSI
        values[hit, f] = rng.integers(0, d, int(hit.sum()))
    return values, labels


def epp_theta(n: int, entities: int) -> float:
    """theta with prior expected cluster count theta log(1 + n/theta) = entities."""
    lo, hi = 1e-6, 1e9
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if mid * math.log1p(n / mid) < entities:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def canonical(labels: np.ndarray) -> np.ndarray:
    """Labels 1..K in order of first appearance."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(1, len(first) + 1)
    return rank[inverse]


def posterior_samples(
    labels: np.ndarray, rng: np.random.Generator, n_samples: int = ESTIMATE_SAMPLES,
    n_ambiguous: int = ESTIMATE_AMBIGUOUS,
) -> np.ndarray:
    """Synthetic posterior: the truth with ambiguous records moved.

    Each ambiguous record comes from its own true cluster of size >= 2 and
    has its own alternative cluster, which holds no ambiguous record; in
    every sample it sits in the alternative with its own probability in
    ESTIMATE_MOVE_P, independently of the others, conditioned on at least
    one record being moved (so the greedy search never starts at the truth
    and always takes two sweeps). Every co-clustering probability is then
    either above 0.9 or below 0.1, so the truth is the partition obtained
    by thresholding at one half.
    """
    sizes = np.bincount(labels)
    owners = rng.choice(np.flatnonzero(sizes >= 2), n_ambiguous, replace=False)
    alternatives = rng.choice(
        np.setdiff1d(np.arange(len(sizes)), owners), n_ambiguous, replace=False
    )
    movers = np.array([rng.choice(np.flatnonzero(labels == c)) for c in owners])
    p = rng.uniform(*ESTIMATE_MOVE_P, n_ambiguous)
    out = np.tile(labels, (n_samples, 1))
    moved = rng.random((n_samples, n_ambiguous)) < p
    unmoved = ~moved.any(axis=1)
    while unmoved.any():
        moved[unmoved] = rng.random((int(unmoved.sum()), n_ambiguous)) < p
        unmoved = ~moved.any(axis=1)
    for a in range(n_ambiguous):
        out[moved[:, a], movers[a]] = alternatives[a]
    return np.array([canonical(row) for row in out])


@dataclass
class Inputs:
    """Files and references for one (workload, seed) pair."""

    root: str
    config_path: str
    labels: np.ndarray  # true entity of every record
    cli_seed: int
    samples: np.ndarray | None = None  # s2-estimate only


def make_inputs(wl: Workload, seed: int, root: str) -> Inputs:
    """Write the workload's input files under root and return their paths."""
    ss = np.random.SeedSequence([seed, sorted(WORKLOADS).index(wl.name)])
    rng = np.random.default_rng(ss)
    cli_seed = int(ss.generate_state(1)[0])
    os.makedirs(root, exist_ok=True)
    config_path = os.path.join(root, "config.json")
    if wl.command == "estimate":
        labels = truth_labels(wl.entities, rng)
        samples = posterior_samples(labels, rng)
        with open(os.path.join(root, "xi_snapshots.csv"), "w") as fh:
            for it, row in enumerate(samples):
                fh.write(",".join(map(str, [0, it, *row.tolist()])) + "\n")
        config = {
            "output_dir": root,
            "seed": cli_seed,
            "estimation": {"losses": list(ESTIMATE_LOSSES), "samples_used": len(samples)},
        }
        with open(config_path, "w") as fh:
            json.dump(config, fh)
        return Inputs(root, config_path, labels, cli_seed, samples)

    values, labels = records(wl.entities, rng)
    data_path = os.path.join(root, "records.csv")
    with open(data_path, "w") as fh:
        fh.write(",".join([f"field{f}" for f in range(len(CARDINALITIES))] + ["truth_id"]) + "\n")
        for row, label in zip(values.tolist(), labels.tolist()):
            fh.write(",".join(map(str, row)) + f",e{label}\n")
    if wl.prior == "epp":
        prior = {"family": "epp", "theta": epp_theta(len(labels), wl.entities)}
    else:
        prior = {"family": "bbap", "cap": CAP, "calibration": {"family": "geometric", "p": 0.5}}
    config = {
        "dataset": data_path,
        "output_dir": root,
        "seed": cli_seed,
        "prior": prior,
        "sampler": {
            "iterations": wl.iterations,
            "burn_in": wl.burn_in,
            "chains": wl.chains,
            "move_mix": wl.move_mix,
            "check_every": wl.check_every,
            "snapshot_stride": wl.snapshot_stride,
        },
    }
    with open(config_path, "w") as fh:
        json.dump(config, fh)
    return Inputs(root, config_path, labels, cli_seed)
