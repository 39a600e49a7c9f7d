"""allelink benchmark: one workload per process, driven through the CLI entry point.

    python3 perfbench/run.py --workload s2-bbap --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's own src/. The workload's inputs are written from --seed, then
the workload's CLI command (`allelink run` or `allelink estimate`) is
called in-process through allelink.cli.main, again and again, until the
next round would end after --seconds. Every round's output files are
checked against the benchmark's own recomputation (checks.py).

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced rounds, wraps the layers' public names during the traced ones
(tracer.py), and prints the per-layer metrics together with the tracing
overhead. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from types import SimpleNamespace  # noqa: E402

# numpy's BLAS runs on one thread unless the caller says otherwise, so the
# figures do not depend on how busy the machine's other cores are
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import checks  # noqa: E402
import numpy as np  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, tail  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
SETUP_REPEATS = 3


def import_program() -> SimpleNamespace:
    """Import allelink from this checkout's src/ and nowhere else."""
    package = os.path.join(SRC, "allelink")
    if not os.path.isfile(os.path.join(package, "cli.py")):
        raise SystemExit(f"perfbench: no program sources at {package}")
    sys.path.insert(0, SRC)
    from allelink import cli, config, datagen, estimation, likelihood, mcmc, priors

    if os.path.dirname(os.path.abspath(cli.__file__)) != package:
        raise SystemExit(f"perfbench: allelink was imported from {cli.__file__}, not {package}")
    return SimpleNamespace(cli=cli, config=config, datagen=datagen, estimation=estimation,
                           likelihood=likelihood, mcmc=mcmc, priors=priors)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# traced layers


def install_spans(tracer, prog) -> None:
    """Wrap each layer's public names where their callers look them up."""
    cli, mcmc, lik, est = prog.cli, prog.mcmc, prog.likelihood, prog.estimation
    chain = mcmc.ChainState
    wrap = tracer.wrap

    def chaperone_useful(args):
        state = args[0]
        before = state.assign.copy()

        def after():
            if not np.array_equal(before, state.assign):
                tracer.counters["chaperone_useful"] += 1

        return after

    wrap(cli, "parse_config", "config.parse_config")
    wrap(cli, "execute", "cli.execute")
    wrap(cli, "make_dataset", "likelihood.make_dataset")
    wrap(prog.datagen, "load_records_csv", "datagen.load_records_csv")
    wrap(prog.config, "calibrate_recursive", "priors.calibrate_recursive")
    wrap(mcmc, "run_chain", "mcmc.run_chain")
    wrap(mcmc.PairSampler, "__init__", "mcmc.PairSampler.__init__")
    wrap(mcmc.PairSampler, "sample", "mcmc.PairSampler.sample")
    wrap(chain, "__init__", "mcmc.ChainState.__init__")
    wrap(mcmc, "reallocation_pass", "mcmc.reallocation_pass")
    wrap(mcmc, "chaperones_step", "mcmc.chaperones_step", observe=chaperone_useful)
    for method in ("reallocate_record", "restricted_reallocate", "log_joint", "linkage",
                   "consistency_check"):
        wrap(chain, method, f"mcmc.ChainState.{method}")
    for name in ("entity_logliks", "draw_singleton_entity", "resample_entities",
                 "resample_distortion"):
        wrap(lik, name, f"likelihood.{name}")
    wrap(prog.priors, "log_allelic_counts", "priors.log_allelic_counts")
    for name in ("write_trace_jsonl", "write_snapshots_csv", "read_snapshots_csv"):
        wrap(mcmc, name, f"mcmc.{name}")
    wrap(est, "greedy_epl", lambda args: f"estimation.greedy_epl.{args[1]}")
    wrap(est, "expected_posterior_loss",
         lambda args: f"estimation.expected_posterior_loss.{args[2]}")


END_TO_END = (("command_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
# metric, span, unit, whether the span is frequent enough for a tail percentile
TIMINGS = (
    ("mcmc.reallocation_pass_ms", "mcmc.reallocation_pass", "ms", True),
    ("mcmc.reallocate_record_us", "mcmc.ChainState.reallocate_record", "us", True),
    ("likelihood.entity_logliks_us", "likelihood.entity_logliks", "us", True),
    ("priors.log_allelic_counts_us", "priors.log_allelic_counts", "us", True),
    ("mcmc.chaperones_step_us", "mcmc.chaperones_step", "us", True),
    ("mcmc.restricted_reallocate_us", "mcmc.ChainState.restricted_reallocate", "us", True),
    ("mcmc.log_joint_us", "mcmc.ChainState.log_joint", "us", True),
    ("mcmc.linkage_us", "mcmc.ChainState.linkage", "us", True),
    ("mcmc.consistency_check_ms", "mcmc.ChainState.consistency_check", "ms", True),
    ("likelihood.resample_entities_ms", "likelihood.resample_entities", "ms", True),
    ("likelihood.resample_distortion_ms", "likelihood.resample_distortion", "ms", True),
    ("mcmc.pair_sampler_sample_us", "mcmc.PairSampler.sample", "us", True),
    ("mcmc.pair_sampler_init_ms", "mcmc.PairSampler.__init__", "ms", False),
    ("mcmc.write_trace_jsonl_ms", "mcmc.write_trace_jsonl", "ms", False),
    ("mcmc.write_snapshots_csv_ms", "mcmc.write_snapshots_csv", "ms", False),
    ("datagen.load_records_csv_ms", "datagen.load_records_csv", "ms", False),
    ("priors.calibrate_recursive_ms", "priors.calibrate_recursive", "ms", False),
    ("mcmc.read_snapshots_csv_ms", "mcmc.read_snapshots_csv", "ms", False),
    *((f"estimation.greedy_epl_s.{k}", f"estimation.greedy_epl.{k}", "s", False)
      for k in workloads.ESTIMATE_LOSSES),
    *((f"estimation.expected_posterior_loss_s.{k}", f"estimation.expected_posterior_loss.{k}",
       "s", False) for k in workloads.ESTIMATE_LOSSES),
)
SCALE = {"s": 1e-9, "ms": 1e-6, "us": 1e-3}
# per-layer metrics that are not a span's timing; per command unless named otherwise
EXTRA_LAYER_METRICS = (
    ("likelihood.entity_logliks_calls", "count"),
    ("priors.log_allelic_counts_calls_per_sweep", "count"),
    ("mcmc.full_passes", "count"),
    ("mcmc.chaperone_steps", "count"),
    ("mcmc.chaperone_useful_steps", "count"),
    ("mcmc.chaperone_useful_ratio", "ratio"),
    ("likelihood.draw_singleton_entity_calls", "count"),
    ("mcmc.run_chain_self_ms_per_kept", "ms"),
    ("cli.uncovered_ms", "ms"),
    ("cli.uncovered_pct", "%"),
    ("trace.untraced_command_s", "s"),
    ("trace.traced_command_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans_per_command", "count"),
    ("process.peak_rss_mb", "MB"),
)


def layer_metrics(tracer, spans, wl, traced_walls, untraced_walls, rss_untraced):
    """Per-layer metrics from the traced rounds; a layer with no calls reads 0."""
    commands = max(len(traced_walls), 1)
    out: dict[str, tuple[float, str]] = {}

    def calls(span):
        return len(tracer.durations(span, spans))

    for metric, span, unit, has_tail in TIMINGS:
        values = tracer.durations(span, spans) * SCALE[unit]
        out[f"{metric}.p50"] = (float(np.median(values)) if len(values) else 0.0, unit)
        if has_tail:
            t = tail(values)
            out[f"{metric}.tail"] = (t if t is not None else 0.0, unit)
        out[f"{metric}.n"] = (len(values), "count")

    sweeps = commands * wl.chains * wl.iterations
    kept = commands * wl.chains * (wl.iterations - wl.burn_in)
    steps = calls("mcmc.chaperones_step")
    useful = tracer.counters["chaperone_useful"]
    run_chain_self = tracer.durations("mcmc.run_chain", spans, self_time=True).sum()
    root = tracer.durations("cli.main", spans)
    root_self = tracer.durations("cli.main", spans, self_time=True)
    untraced = statistics.median(untraced_walls) if untraced_walls else 0.0
    traced = statistics.median(traced_walls) if traced_walls else 0.0
    extra = {
        "likelihood.entity_logliks_calls": calls("likelihood.entity_logliks") / commands,
        "priors.log_allelic_counts_calls_per_sweep":
            calls("priors.log_allelic_counts") / sweeps if sweeps else 0.0,
        "mcmc.full_passes": calls("mcmc.reallocation_pass") / commands,
        "mcmc.chaperone_steps": steps / commands,
        "mcmc.chaperone_useful_steps": useful / commands,
        "mcmc.chaperone_useful_ratio": useful / steps if steps else 0.0,
        "likelihood.draw_singleton_entity_calls":
            calls("likelihood.draw_singleton_entity") / commands,
        "mcmc.run_chain_self_ms_per_kept": run_chain_self * 1e-6 / kept if kept else 0.0,
        "cli.uncovered_ms": float(np.median(root_self)) * 1e-6 if len(root) else 0.0,
        "cli.uncovered_pct": float(np.median(100.0 * root_self / root)) if len(root) else 0.0,
        "trace.untraced_command_s": untraced,
        "trace.traced_command_s": traced,
        "trace.overhead_pct": 100.0 * (traced / untraced - 1.0) if untraced else 0.0,
        "trace.spans_per_command": len(spans["name_id"]) / commands,
        "process.peak_rss_mb": rss_untraced,
    }
    out.update({name: (extra[name], unit) for name, unit in EXTRA_LAYER_METRICS})
    return out


def span_table(tracer, spans, commands: int) -> list[str]:
    """Per-span totals and self times per traced command, largest self time first."""
    rows = []
    for name in tracer.names:
        dur = tracer.durations(name, spans)
        own = tracer.durations(name, spans, self_time=True)
        rows.append((own.sum(), name, len(dur), dur.sum(), float(np.median(dur)) if len(dur) else 0))
    lines = [f"{'span':48s} {'calls/cmd':>10s} {'total ms/cmd':>13s} {'self ms/cmd':>12s} {'p50 us':>10s}"]
    for own, name, n, total, p50 in sorted(rows, reverse=True):
        lines.append(f"{name:48s} {n / commands:10.1f} {total * 1e-6 / commands:13.2f} "
                     f"{own * 1e-6 / commands:12.2f} {p50 * 1e-3:10.1f}")
    return lines


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    parser = argparse.ArgumentParser(description="allelink benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    prog = import_program()
    import_s = time.perf_counter() - _T0
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    run_dir = os.path.join(OUT, f"{wl.name}-seed{args.seed}-pid{os.getpid()}")
    try:
        generate = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            inputs = workloads.make_inputs(wl, args.seed, run_dir)
            generate.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(generate)
        return measure(args, prog, wl, inputs, setup_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, prog, wl, inputs, setup_s) -> int:
    cap = workloads.CAP if wl.prior == "bbap" else None
    reference = None
    tracer = Tracer()
    walls = {False: [], True: []}
    attempted = failed = 0
    failures: list[str] = []
    notes: set[str] = set()
    rss_untraced = 0.0
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and attempted % 2 == 1
        round_start = time.perf_counter()
        argv = [wl.command, "--config", inputs.config_path]
        if wl.command == "run":
            argv += ["--seed", str(inputs.cli_seed + attempted)]
        if traced:
            install_spans(tracer, prog)
            try:
                t = time.perf_counter()
                code = tracer.call("cli.main", prog.cli.main, argv)
                wall = time.perf_counter() - t
            finally:
                tracer.restore()
        else:
            t = time.perf_counter()
            code = prog.cli.main(argv)
            wall = time.perf_counter() - t
            rss_untraced = rss_untraced or peak_rss_mb()
        attempted += 1
        if code != 0:
            failed += 1
        else:
            walls[traced].append(wall)
            if wl.command == "run":
                failures += checks.check_run(inputs.root, inputs.labels, wl.chains,
                                             wl.iterations, wl.burn_in, wl.snapshot_stride, cap)
            else:
                reference = reference or checks.EstimateReference(inputs.samples)
                fails, seen = checks.check_estimate(inputs.root, reference,
                                                    workloads.ESTIMATE_LOSSES)
                failures += fails
                notes.update(seen)
        now = time.perf_counter()
        both_kinds = not args.trace or attempted >= 2
        if both_kinds and now - start + (now - round_start) > args.seconds:
            break

    lines = [f"workload {wl.name} seed {args.seed}: {attempted} commands, {failed} failed, "
             f"{'correct' if not failures else 'INCORRECT'}"]
    lines += [f"  check failed: {msg}" for msg in failures[:20]]
    lines += [f"  note: {msg}" for msg in sorted(notes)]
    if args.trace:
        spans = tracer.arrays()
        os.makedirs(OUT, exist_ok=True)
        tracer.save(os.path.join(OUT, f"spans-{wl.name}-seed{args.seed}.npz"))
        metrics = layer_metrics(tracer, spans, wl, walls[True], walls[False],
                                rss_untraced)
        lines += span_table(tracer, spans, max(len(walls[True]), 1))
        lines += [f"  missing (not wrapped): {name}" for name in tracer.missing]
    else:
        command_s = statistics.median(walls[False]) if walls[False] else 0.0
        values = {"command_s": command_s, "peak_rss_mb": peak_rss_mb(), "setup_s": setup_s}
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        lines.append(f"  rounds: {', '.join(f'{w:.3f}' for w in walls[False])} s")
        if wl.command == "run" and command_s:
            lines.append(f"  sweeps_per_s {wl.chains * wl.iterations / command_s:.2f} sweeps/s")
        else:
            lines.append(f"  estimate_s {command_s:.4f} s")
    lines += [f"  {name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
