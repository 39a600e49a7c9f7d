import json
import multiprocessing
import os

import pytest

from allelink import mcmc
from allelink.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_RUNTIME, main
from allelink.config import ConfigError, parse_config


def write_config(tmp_path, body, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def pipeline_config(tmp_path, **extra):
    body = {
        "scenario": {"id": 2, "clusters": 30, "psi": 0.02, "seed": 5},
        "prior": {"family": "bbap", "cap": 6, "calibration": {"family": "geometric", "p": 0.5}},
        "sampler": {
            "iterations": 260,
            "burn_in": 60,
            "chains": 2,
            "snapshot_stride": 2,
            "check_every": 100,
        },
        "estimation": {"losses": ["binder", "vi"], "samples_used": 150, "sweeps": 30},
        "output_dir": str(tmp_path / "out"),
        "seed": 7,
    }
    body.update(extra)
    return body


class TestParseConfig:
    def test_minimal_with_defaults(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "dataset": "records.csv",
                "prior": {"family": "bbap", "cap": 15},
                "output_dir": "out",
            },
        )
        cfg = parse_config(path, command="run")
        assert cfg.sampler.iterations == 20_000
        assert cfg.sampler.burn_in == 10_000
        assert cfg.sampler.chains == 2
        assert cfg.prior.calibration.p == 0.5
        assert cfg.prior.calibration.cv == 0.25
        assert cfg.likelihood.psi_prior_mean == 0.01
        assert cfg.likelihood.psi_prior_sd == 0.01
        assert cfg.estimation.samples_used == 2000

    def test_unknown_key_named(self, tmp_path):
        path = write_config(tmp_path, {"pirior": {}, "output_dir": "o", "dataset": "d"})
        with pytest.raises(ConfigError, match="pirior"):
            parse_config(path, command="run")

    def test_nested_unknown_key_named(self, tmp_path):
        path = write_config(
            tmp_path,
            {"prior": {"family": "bbap", "cap": 4, "capp": 3}, "output_dir": "o", "dataset": "d"},
        )
        with pytest.raises(ConfigError, match="prior.capp"):
            parse_config(path, command="run")

    def test_zero_cv_rejected(self, tmp_path):
        path = write_config(
            tmp_path,
            {"prior": {"family": "bbap", "cap": 4, "cv": 0.0}, "output_dir": "o", "dataset": "d"},
        )
        with pytest.raises(ConfigError, match="cv"):
            parse_config(path, command="run")

    def test_document_must_be_an_object(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(["run"]))
        with pytest.raises(ConfigError, match="config document must be a JSON object"):
            parse_config(str(path), command="run")

    def test_override_into_a_non_object_block_named(self, tmp_path):
        path = write_config(tmp_path, {"sampler": "fast", "output_dir": "o", "dataset": "d"})
        with pytest.raises(ConfigError, match="'sampler' must be a JSON object"):
            parse_config(path, command="run", overrides={"sampler.iterations": 5})

    def test_missing_cap_rejected(self, tmp_path):
        path = write_config(
            tmp_path, {"prior": {"family": "bbap"}, "output_dir": "o", "dataset": "d"}
        )
        with pytest.raises(ConfigError, match="cap"):
            parse_config(path, command="run")

    def test_overrides_win(self, tmp_path):
        path = write_config(
            tmp_path,
            {"dataset": "d", "prior": {"family": "bbap", "cap": 5}, "output_dir": "o", "seed": 1},
        )
        cfg = parse_config(
            path, command="run", overrides={"seed": 9, "sampler.iterations": 50, "sampler.burn_in": 10}
        )
        assert cfg.seed == 9
        assert cfg.sampler.iterations == 50

    def test_bad_command(self):
        with pytest.raises(ConfigError, match="command"):
            parse_config(None, command="explode", overrides={"output_dir": "o", "dataset": "d"})

    def test_scenario_validation(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "scenario": {"id": 2, "sizes": [1, 2], "weights": [0.5, 0.5]},
                "prior": {"family": "bbap", "cap": 4},
                "output_dir": "o",
            },
        )
        with pytest.raises(ConfigError, match="sizes"):
            parse_config(path, command="run")

    def test_explicit_scenario(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "scenario": {"sizes": [1, 2], "weights": [0.7, 0.3], "clusters": 10,
                             "psi": 0.01, "cardinalities": [3, 3]},
                "prior": {"family": "bbap", "cap": 3},
                "output_dir": "o",
            },
        )
        cfg = parse_config(path, command="simulate")
        assert cfg.scenario.sizes == (1, 2)
        assert cfg.scenario.cardinalities == (3, 3)

    def test_epp_prior(self, tmp_path):
        path = write_config(
            tmp_path,
            {"prior": {"family": "epp", "theta": 2.0}, "output_dir": "o", "dataset": "d"},
        )
        cfg = parse_config(path, command="run")
        assert cfg.prior.family == "epp"
        params = cfg.prior.build(10)
        assert params.theta == 2.0

    def test_informed_calibration_file(self, tmp_path):
        pi_path = tmp_path / "pi.json"
        pi_path.write_text(json.dumps({"pi": [0.2, 0.1]}))
        path = write_config(
            tmp_path,
            {
                "prior": {
                    "family": "bbap",
                    "cap": 3,
                    "calibration": {"family": "informed", "path": "pi.json"},
                },
                "output_dir": "o",
                "dataset": "d",
            },
        )
        cfg = parse_config(path, command="run")
        assert cfg.prior.calibration.family == "explicit"
        assert cfg.prior.calibration.pi == (0.2, 0.1)


class TestPipeline:
    def test_full_pipeline_emits_artifacts(self, tmp_path):
        config_path = write_config(tmp_path, pipeline_config(tmp_path))
        out = tmp_path / "out"
        for command in ("simulate", "calibrate", "sample-prior", "run", "estimate",
                        "evaluate", "summarize"):
            assert main([command, "--config", config_path]) == EXIT_OK
        expected = [
            "records.csv", "prior_params.json", "prior_summary.tsv",
            "trace.jsonl", "xi_snapshots.csv",
            "estimate_binder.csv", "estimate_binder.json",
            "estimate_vi.csv", "estimate_vi.json",
            "metrics.json", "summary.tsv", "k_distribution.tsv", "manifest.json",
        ]
        for name in expected:
            assert (out / name).exists(), name
        metrics = json.loads((out / "metrics.json").read_text())
        sources = {r["source"] for r in metrics["reports"]}
        assert sources == {"posterior-average", "point-estimate"}
        for report in metrics["reports"]:
            assert 0.0 <= report["fnr"] <= 1.0
            assert 0.0 <= report["fdr"] <= 1.0
            assert 0.0 <= report["js"] <= 1.0

    def test_manifest_rerun_reproduces_outputs(self, tmp_path):
        config_path = write_config(tmp_path, pipeline_config(tmp_path))
        assert main(["run", "--config", config_path]) == EXIT_OK
        out = tmp_path / "out"
        trace_first = (out / "trace.jsonl").read_bytes()
        manifest_path = str(out / "manifest.json")
        rerun_dir = tmp_path / "rerun"
        assert main(["run", "--config", manifest_path, "--output-dir", str(rerun_dir)]) == EXIT_OK
        assert (rerun_dir / "trace.jsonl").read_bytes() == trace_first
        assert (rerun_dir / "xi_snapshots.csv").read_bytes() == (out / "xi_snapshots.csv").read_bytes()

    def test_run_then_estimate_deterministic(self, tmp_path):
        config_path = write_config(tmp_path, pipeline_config(tmp_path))
        outs = []
        for name in ("a", "b"):
            target = tmp_path / name
            assert main(["run", "--config", config_path, "--output-dir", str(target)]) == EXIT_OK
            assert main(["estimate", "--config", config_path, "--output-dir", str(target)]) == EXIT_OK
            outs.append(target)
        for fname in ("trace.jsonl", "xi_snapshots.csv", "estimate_binder.csv", "estimate_vi.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_evaluate_without_truth_is_data_error(self, tmp_path, capsys):
        csv_path = tmp_path / "plain.csv"
        csv_path.write_text("a,b\n0,1\n0,1\n1,0\n1,1\n")
        body = pipeline_config(tmp_path)
        del body["scenario"]
        body["dataset"] = str(csv_path)
        body["prior"]["cap"] = 3
        body["sampler"] = {"iterations": 40, "burn_in": 10, "chains": 1, "check_every": 20}
        config_path = write_config(tmp_path, body)
        assert main(["run", "--config", config_path]) == EXIT_OK
        code = main(["evaluate", "--config", config_path])
        assert code == EXIT_DATA
        assert "no ground truth" in capsys.readouterr().err

    def test_estimate_without_run_cleans_partial_outputs(self, tmp_path):
        body = pipeline_config(tmp_path, output_dir=str(tmp_path / "fresh"))
        config_path = write_config(tmp_path, body)
        assert main(["estimate", "--config", config_path]) == EXIT_DATA
        out = tmp_path / "fresh"
        assert not list(out.glob("*")), list(out.glob("*"))

    def test_config_error_exit_code(self, tmp_path):
        config_path = write_config(tmp_path, {"output_dir": "o"})
        assert main(["run", "--config", config_path]) == EXIT_CONFIG

    def test_commands_do_not_mutate_inputs(self, tmp_path):
        body = pipeline_config(tmp_path)
        body["sampler"] = {"iterations": 30, "burn_in": 5, "chains": 1, "check_every": 20}
        config_path = write_config(tmp_path, body)
        assert main(["simulate", "--config", config_path]) == EXIT_OK
        records = (tmp_path / "out" / "records.csv").read_bytes()
        config_bytes = (tmp_path / "config.json").read_bytes()
        body2 = dict(body, dataset=str(tmp_path / "out" / "records.csv"))
        del body2["scenario"]
        config2 = write_config(tmp_path, body2, name="config2.json")
        assert main(["run", "--config", config2]) == EXIT_OK
        assert (tmp_path / "out" / "records.csv").read_bytes() == records
        assert (tmp_path / "config.json").read_bytes() == config_bytes

    @pytest.mark.parametrize(
        "block, value, key",
        [
            ("prior", {"family": "bbap", "cap": "abc"}, "prior.cap"),
            ("estimation", {"max_clusters": "abc"}, "estimation.max_clusters"),
            ("estimation", {"max_clusters": 0}, "estimation.max_clusters"),
            ("likelihood", {"psi_fixed": "abc"}, "likelihood.psi_fixed"),
            ("prior", {"family": "bbap", "cap": 6, "calibration": {"p": "x"}},
             "prior.calibration.p"),
            ("prior", {"family": "bbap", "cap": 6,
                       "calibration": {"family": "negbin", "r": "x", "p": 0.5}},
             "prior.calibration.r"),
            ("estimation", {"losses": 5}, "'estimation.losses' must be a list"),
            ("estimation", {"losses": "vi"}, "'estimation.losses' must be a list"),
            ("sampler", "fast", "'sampler' must be a JSON object"),
            ("prior", {"family": "bbap", "cap": 6, "calibration": "geometric"},
             "'prior.calibration' must be a JSON object"),
            ("scenario", {"sizes": [1, 2], "weights": [0.5, 0.5], "psi": "x"}, "scenario.psi"),
            ("scenario", {"sizes": 5, "weights": [1.0]}, "scenario.sizes"),
            ("dataset", 5, "'dataset' must be a path string"),
            ("output_dir", 5, "'output_dir'"),
            ("prior", {"family": "bbap", "cap": 4,
                       "calibration": {"family": "informed", "path": 5}},
             "'prior.calibration.path'"),
        ],
    )
    def test_malformed_value_is_config_error_naming_key(self, tmp_path, capsys, block, value, key):
        body = pipeline_config(tmp_path)
        body[block] = value
        config_path = write_config(tmp_path, body)
        assert main(["run", "--config", config_path]) == EXIT_CONFIG
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0,1,1,2,x", "invalid literal for int()"),
            ("0,1,2,1,1", "labels 1..K"),
            ("0,1,1,2,1,2", "4 records, expected 3"),
        ],
        ids=["non-integer", "non-canonical", "other-record-count"],
    )
    def test_malformed_snapshot_row_is_data_error(self, tmp_path, capsys, row, message):
        out = tmp_path / "out"
        out.mkdir()
        (out / "xi_snapshots.csv").write_text(f"0,0,1,1,2\n{row}\n")
        config_path = write_config(tmp_path, pipeline_config(tmp_path))
        assert main(["estimate", "--config", config_path]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "xi_snapshots.csv' line 2" in err and message in err

    def test_empty_snapshot_file_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "xi_snapshots.csv").write_text("")
        config_path = write_config(tmp_path, pipeline_config(tmp_path))
        assert main(["estimate", "--config", config_path]) == EXIT_DATA
        assert "xi_snapshots.csv' holds no samples" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["summarize", "evaluate"])
    @pytest.mark.parametrize(
        "rows, message",
        [
            (["not json"], "trace.jsonl' line 2: Expecting value"),
            ([json.dumps({"iter": 1, "K": 2, "r": [1, 1], "psi": [0.01], "logJoint": -1.0})],
             "trace.jsonl' line 2: no key 'chain'"),
            (None, "trace.jsonl' holds no rows"),
        ],
        ids=["not-json", "missing-key", "empty"],
    )
    def test_malformed_trace_is_data_error(self, tmp_path, capsys, command, rows, message):
        out = tmp_path / "out"
        out.mkdir()
        good = {"iter": 0, "chain": 0, "K": 2, "r": [1, 1], "psi": [0.01], "logJoint": -1.0}
        lines = [] if rows is None else [json.dumps(good)] + rows
        (out / "trace.jsonl").write_text("".join(line + "\n" for line in lines))
        config_path = write_config(tmp_path, pipeline_config(tmp_path))
        assert main([command, "--config", config_path]) == EXIT_DATA
        assert message in capsys.readouterr().err

    def test_estimate_evaluates_each_loss_once(self, tmp_path, monkeypatch):
        from allelink import estimation

        out = tmp_path / "out"
        out.mkdir()
        rows = ["0,0,1,1,2,3,3,4", "0,2,1,2,2,3,3,4", "1,0,1,1,2,3,4,4", "1,2,1,1,1,2,2,3"]
        (out / "xi_snapshots.csv").write_text("".join(row + "\n" for row in rows))
        body = pipeline_config(tmp_path)
        body["estimation"]["losses"] = ["binder", "vi", "nid"]
        config_path = write_config(tmp_path, body)
        calls = []
        loss = estimation.expected_posterior_loss

        def counting_loss(candidate, samples, kind):
            calls.append(kind)
            return loss(candidate, samples, kind)

        monkeypatch.setattr(estimation, "expected_posterior_loss", counting_loss)
        assert main(["estimate", "--config", config_path]) == EXIT_OK
        assert calls == ["binder", "vi", "nid"]

    def test_rates_in_trace_leave_snapshots_unread(self, tmp_path):
        # the trace's own error rates are what evaluate and summarize
        # report, so a damaged snapshot file changes nothing
        body = pipeline_config(tmp_path)
        body["sampler"] = {"iterations": 40, "burn_in": 10, "chains": 1,
                           "snapshot_stride": 2, "check_every": 20}
        config_path = write_config(tmp_path, body)
        out = tmp_path / "out"
        assert main(["run", "--config", config_path]) == EXIT_OK
        assert '"fnr"' in (out / "trace.jsonl").read_text()
        outputs = {"evaluate": "metrics.json", "summarize": "summary.tsv"}
        before = {}
        for command, name in outputs.items():
            assert main([command, "--config", config_path]) == EXIT_OK
            before[name] = (out / name).read_bytes()
        (out / "xi_snapshots.csv").write_text("0,0,1,1,x\n")
        for command, name in outputs.items():
            assert main([command, "--config", config_path]) == EXIT_OK
            assert (out / name).read_bytes() == before[name]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_failed_chain_exits_runtime_whatever_the_cpu_count(
        self, tmp_path, capsys, monkeypatch, cpus
    ):
        if cpus > 1 and "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        parent = os.getpid()

        def fails(state):
            # with two usable CPUs only the worker's chain fails
            if cpus == 1 or os.getpid() != parent:
                raise RuntimeError("cluster sizes out of sync with assignments")

        monkeypatch.setattr(mcmc.ChainState, "consistency_check", fails)
        config_path = write_config(tmp_path, pipeline_config(tmp_path))
        assert main(["run", "--config", config_path]) == EXIT_RUNTIME
        assert capsys.readouterr().err == "error: cluster sizes out of sync with assignments\n"
        assert not (tmp_path / "out" / "trace.jsonl").exists()
        assert multiprocessing.active_children() == []
