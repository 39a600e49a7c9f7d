"""Command-line pipeline: simulate, calibrate, sample-prior, run, estimate,
evaluate, summarize.

Every command works out of one output directory per run, writes a manifest
with the resolved config, its hash, and library versions, and removes any
partial outputs if it fails.  Exit codes: 0 success, 2 config error,
3 data error, 4 runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from . import datagen, estimation, evaluation, mcmc, parallel, priors
from .config import COMMANDS, ConfigError, RunConfig, parse_config
from .datagen import DataError
from .likelihood import Dataset, make_dataset
from .partitions import LinkageStructure

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


def _resolve_dataset(cfg: RunConfig) -> tuple[Dataset, LinkageStructure | None]:
    """Load the CSV table or regenerate the scenario (seeded, so exact)."""
    if cfg.dataset is not None:
        values, names, truth = datagen.load_records_csv(cfg.dataset)
        return make_dataset(values, field_names=names, eps=cfg.likelihood.smoothing_eps), truth
    if cfg.scenario is None:
        raise ConfigError("command needs a 'dataset' path or a 'scenario' block")
    values, truth, _ = datagen.simulate(cfg.scenario)
    return make_dataset(values, cfg.scenario.cardinalities,
                        eps=cfg.likelihood.smoothing_eps), truth


def _config_hash(resolved: dict) -> str:
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class _RunDir:
    """Tracks files written by one command so failures can clean up."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.written: list[str] = []

    def path(self, name: str) -> str:
        full = os.path.join(self.root, name)
        self.written.append(full)
        return full

    def discard_partial(self) -> None:
        for full in self.written:
            try:
                os.remove(full)
            except OSError:
                pass


def _write_manifest(rundir: _RunDir, cfg: RunConfig) -> None:
    # imported here, for its version alone: the program runs no scipy code,
    # and every command would otherwise pay for the import before it starts
    import scipy

    manifest = {
        "command": cfg.command,
        "config": cfg.resolved,
        "config_hash": _config_hash(cfg.resolved),
        "seed": cfg.seed,
        "versions": {
            "allelink": __version__,
            "python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    with open(rundir.path("manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _prior_summary_tsv(rundir: _RunDir, name: str, params, n: int, draws: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    mat = priors.sample_count_matrix(params, n, draws, rng)
    qs = np.percentile(mat, (5, 25, 50, 75, 95), axis=0).T
    with open(rundir.path(name), "w") as fh:
        fh.write("size\tq05\tq25\tq50\tq75\tq95\n")
        for s in range(mat.shape[1]):
            fh.write("\t".join([str(s + 1)] + [repr(float(v)) for v in qs[s]]) + "\n")


def _cmd_simulate(cfg: RunConfig, rundir: _RunDir) -> None:
    if cfg.scenario is None:
        raise ConfigError("simulate needs a 'scenario' block")
    values, truth, _ = datagen.simulate(cfg.scenario)
    names = tuple(f"field{f}" for f in range(values.shape[1]))
    datagen.write_records_csv(rundir.path("records.csv"), values, names, truth)


def _cmd_calibrate(cfg: RunConfig, rundir: _RunDir) -> None:
    if cfg.prior.family != "bbap":
        raise ConfigError("calibrate only applies to the bbap prior family")
    dataset, _ = _resolve_dataset(cfg)
    params = cfg.prior.build(dataset.n)
    with open(rundir.path("prior_params.json"), "w") as fh:
        json.dump({"cap": params.cap, "a": list(params.a), "b": list(params.b)},
                  fh, sort_keys=True, indent=2)
        fh.write("\n")
    _prior_summary_tsv(rundir, "prior_summary.tsv", params, dataset.n, cfg.draws, cfg.seed)


def _cmd_sample_prior(cfg: RunConfig, rundir: _RunDir) -> None:
    dataset, _ = _resolve_dataset(cfg)
    params = cfg.prior.build(dataset.n)
    _prior_summary_tsv(rundir, "prior_summary.tsv", params, dataset.n, cfg.draws, cfg.seed)


def _cmd_run(cfg: RunConfig, rundir: _RunDir) -> None:
    dataset, truth = _resolve_dataset(cfg)
    params = cfg.prior.build(dataset.n)
    trace = mcmc.run_chain(cfg.sampler, dataset, params, cfg.likelihood, truth)
    mcmc.write_trace_jsonl(trace, rundir.path("trace.jsonl"))
    mcmc.write_snapshots_csv(trace, rundir.path("xi_snapshots.csv"))


def _load_snapshots(cfg: RunConfig) -> np.ndarray:
    """The last samples_used snapshots by iteration, then chain, as one
    (S, n) label matrix."""
    rows = mcmc.read_snapshots_csv(os.path.join(cfg.output_dir, "xi_snapshots.csv"))
    take = min(cfg.estimation.samples_used, len(rows))
    # stable, so rows with the same iteration and chain keep their file order
    return rows[np.lexsort((rows[:, 0], rows[:, 1]))[-take:], 2:]


# the nid search takes longest and binder's least: started first, the long
# searches do not end up sharing a process
_SEARCH_ORDER = ("nid", "vi", "binder")


def _cmd_estimate(cfg: RunConfig, rundir: _RunDir) -> None:
    samples = _load_snapshots(cfg)
    losses = sorted(cfg.estimation.losses, key=_SEARCH_ORDER.index)

    def search(task: int, checkpoint) -> tuple[LinkageStructure, float]:
        loss = losses[task]
        estimate = estimation.greedy_epl(samples, loss, cfg.estimation.greedy(cfg.seed))
        return estimate, estimation.expected_posterior_loss(estimate, samples, loss)

    results = dict(zip(losses, parallel.run_tasks(search, len(losses), "estimate")))
    for loss in cfg.estimation.losses:
        estimate, epl = results[loss]
        with open(rundir.path(f"estimate_{loss}.csv"), "w") as fh:
            fh.write(",".join(map(str, estimate.assignments)) + "\n")
        with open(rundir.path(f"estimate_{loss}.json"), "w") as fh:
            json.dump({"kind": loss, "epl": epl, "K": estimate.n_clusters},
                      fh, sort_keys=True)
            fh.write("\n")


def _read_estimate(cfg: RunConfig, loss: str, n: int) -> LinkageStructure | None:
    """The estimate of one loss, or None if it has no file; a malformed
    row, one of other than n records or a second row raises DataError."""
    path = os.path.join(cfg.output_dir, f"estimate_{loss}.csv")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        line, rest = fh.readline(), fh.read()
    try:
        if rest:
            raise ValueError("more than one row")
        estimate = LinkageStructure(tuple(int(v) for v in line.strip().split(",")))
        if estimate.n != n:
            raise ValueError(f"{estimate.n} records, expected {n}")
    except ValueError as exc:
        raise DataError(f"estimate file '{path}': {exc}") from exc
    return estimate


def _cmd_evaluate(cfg: RunConfig, rundir: _RunDir) -> None:
    _, truth = _resolve_dataset(cfg)
    if truth is None:
        raise DataError("no ground truth: dataset has no truth_id column")
    trace_path = os.path.join(cfg.output_dir, "trace.jsonl")
    reports = []
    if os.path.exists(trace_path):
        trace = mcmc.read_trace_jsonl(trace_path, truth.n)
        if "fnr" not in trace.rows[0]:
            trace.snapshots = mcmc.read_snapshots_csv(
                os.path.join(cfg.output_dir, "xi_snapshots.csv"), truth.n)
        reports.append(evaluation.posterior_report(trace, truth).to_dict())
    for loss in cfg.estimation.losses:
        estimate = _read_estimate(cfg, loss, truth.n)
        if estimate is None:
            continue
        report = evaluation.point_estimate_report(estimate, truth).to_dict()
        report["kind"] = loss
        reports.append(report)
    if not reports:
        raise DataError("nothing to evaluate: no trace or estimates in the output directory")
    with open(rundir.path("metrics.json"), "w") as fh:
        json.dump({"reports": reports}, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _cmd_summarize(cfg: RunConfig, rundir: _RunDir) -> None:
    dataset, truth = _resolve_dataset(cfg)
    trace = mcmc.read_trace_jsonl(os.path.join(cfg.output_dir, "trace.jsonl"), dataset.n)
    summary = evaluation.summarize_trace(trace, truth)
    evaluation.write_summary_tsv(summary, rundir.path("summary.tsv"))
    evaluation.write_k_table_tsv(summary, rundir.path("k_distribution.tsv"))


_DISPATCH = {
    "simulate": _cmd_simulate,
    "calibrate": _cmd_calibrate,
    "sample-prior": _cmd_sample_prior,
    "run": _cmd_run,
    "estimate": _cmd_estimate,
    "evaluate": _cmd_evaluate,
    "summarize": _cmd_summarize,
}


def execute(cfg: RunConfig) -> str:
    """Run one command; returns the output directory. Partial files are
    removed if the command fails."""
    rundir = _RunDir(cfg.output_dir)
    try:
        _DISPATCH[cfg.command](cfg, rundir)
        _write_manifest(rundir, cfg)
    except BaseException:
        rundir.discard_partial()
        raise
    return rundir.root


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="allelink",
        description="Bayesian deduplication of categorical records",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--config", help="JSON config document or a previous manifest")
        p.add_argument("--output-dir", dest="output_dir")
        p.add_argument("--dataset")
        p.add_argument("--seed", type=int)
        p.add_argument("--iterations", type=int, dest="sampler.iterations")
        p.add_argument("--burn-in", type=int, dest="sampler.burn_in")
        p.add_argument("--chains", type=int, dest="sampler.chains")
        p.add_argument("--cap", type=int, dest="prior.cap")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "config") and value is not None
    }
    try:
        cfg = parse_config(args.config, command=args.command, overrides=overrides)
        execute(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
