import json
import multiprocessing
import os
from dataclasses import fields

import pytest

from allelink import config, datagen, mcmc
from allelink.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_RUNTIME, _config_hash, main
from allelink.config import COMMANDS, ConfigError, EstimationConfig, parse_config
from allelink.likelihood import LikelihoodConfig
from allelink.partitions import LinkageStructure, matched_pairs

NAN, INF = float("nan"), float("inf")


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


def write_trace_without_rates(tmp_path) -> tuple[str, int]:
    """Three hand-made trace rows for the pipeline config's truth, with no
    error rates; returns the config's path and the truth's record count."""
    out = tmp_path / "out"
    out.mkdir()
    config_path = write_config(tmp_path, pipeline_config(tmp_path))
    n = datagen.simulate(parse_config(config_path, "summarize").scenario)[1].n
    rows = [{"iter": it, "chain": 0, "K": n - it, "r": [n - 2 * it, it], "psi": [0.01],
             "logJoint": -1.0} for it in range(3)]
    (out / "trace.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
    return config_path, n


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

    def test_integral_float_is_an_integer(self, tmp_path):
        body = pipeline_config(tmp_path)
        body["sampler"]["iterations"] = 1e4
        cfg = parse_config(write_config(tmp_path, body), command="run")
        assert cfg.sampler.iterations == 10_000 and type(cfg.sampler.iterations) is int

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

    @pytest.mark.parametrize(
        "block, cls, from_top_level",
        [
            ("likelihood", LikelihoodConfig, set()),
            ("sampler", mcmc.SamplerConfig, {"seed"}),
            ("estimation", EstimationConfig, set()),
        ],
    )
    def test_block_keys_are_the_dataclass_fields(self, tmp_path, block, cls, from_top_level):
        names = {f.name for f in fields(cls)} - from_top_level
        assert all(f.type in config._CASTERS for f in fields(cls))
        # every field is a key (null takes the default), and the manifest
        # writes exactly those keys
        body = {block: dict.fromkeys(names), "output_dir": "o", "dataset": "d"}
        cfg = parse_config(write_config(tmp_path, body), command="run")
        assert set(cfg.resolved[block]) == names
        for key in from_top_level | {"unknown"}:
            body[block] = {key: 1}
            with pytest.raises(ConfigError, match=f"unknown config key '{block}.{key}'"):
                parse_config(write_config(tmp_path, body), command="run")


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

    def test_manifest_of_every_command_parses_to_its_config(self, tmp_path):
        # every likelihood, sampler and estimation key set away from its default
        body = pipeline_config(
            tmp_path,
            likelihood={"psi_prior_mean": 0.02, "psi_prior_sd": 0.015, "smoothing_eps": 0.05,
                        "psi_fixed": [0.01, 0.02, 0.03, 0.02, 0.01]},
            sampler={"iterations": 60, "burn_in": 20, "thin": 2, "chains": 1, "move_mix": 0.5,
                     "chaperone_floor": 0.2, "inner_sweeps": 3, "snapshot_stride": 3,
                     "check_every": 30},
            estimation={"losses": ["vi", "binder"], "samples_used": 20, "sweeps": 10,
                        "max_clusters": 80},
        )
        config_path = write_config(tmp_path, body)
        for command in COMMANDS:
            assert main([command, "--config", config_path]) == EXIT_OK, command
            manifest_path = tmp_path / "out" / "manifest.json"
            manifest = json.loads(manifest_path.read_text())
            cfg = parse_config(str(manifest_path))
            assert cfg.command == command
            assert json.loads(json.dumps(cfg.resolved)) == manifest["config"]
            assert _config_hash(cfg.resolved) == manifest["config_hash"]

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
            # integer keys take integral numbers only: nothing is truncated
            ("sampler", {"iterations": 260, "burn_in": 60, "thin": 2.5},
             "'sampler.thin': 2.5 is not an integer"),
            ("sampler", {"iterations": 260, "burn_in": 60, "chains": True},
             "'sampler.chains': True is not an integer"),
            ("estimation", {"samples_used": 0.5},
             "'estimation.samples_used': 0.5 is not an integer"),
            ("estimation", {"losses": []}, "'estimation.losses' must name at least one loss"),
            ("estimation", {"losses": ["vi", "vi"]},
             "'estimation.losses' names a loss more than once"),
            ("seed", -1, "'seed': -1 is negative"),
            ("scenario", {"id": 2, "clusters": 30, "psi": 0.02, "seed": -3},
             "'scenario.seed': -3 is negative"),
            ("likelihood", {"psi_fixed": 1.5}, "likelihood: psi_fixed entries must lie in [0, 1]"),
            ("likelihood", {"psi_fixed": [0.1, 0.1, -0.5, 0.1, 0.1]},
             "likelihood: psi_fixed entries must lie in [0, 1]"),
            # json reads NaN and Infinity; no float key takes them
            ("sampler", {"iterations": 260, "burn_in": 60, "chaperone_floor": NAN},
             "'sampler.chaperone_floor': nan is not a finite number"),
            ("sampler", {"iterations": 260, "burn_in": 60, "chaperone_floor": INF},
             "'sampler.chaperone_floor': inf is not a finite number"),
            ("likelihood", {"smoothing_eps": NAN},
             "'likelihood.smoothing_eps': nan is not a finite number"),
            ("likelihood", {"smoothing_eps": INF},
             "'likelihood.smoothing_eps': inf is not a finite number"),
            ("likelihood", {"psi_prior_sd": NAN},
             "'likelihood.psi_prior_sd': nan is not a finite number"),
            ("likelihood", {"psi_prior_mean": -INF},
             "'likelihood.psi_prior_mean': -inf is not a finite number"),
            ("likelihood", {"psi_fixed": [0.1, NAN, 0.1, 0.1, 0.1]},
             "'likelihood.psi_fixed': nan is not a finite number"),
            ("prior", {"family": "epp", "theta": NAN}, "'prior.theta': nan is not a finite number"),
            ("prior", {"family": "epp", "theta": INF}, "'prior.theta': inf is not a finite number"),
            ("prior", {"family": "bbap", "cap": 6, "cv": INF},
             "'prior.cv': inf is not a finite number"),
            ("prior", {"family": "bbap", "cap": 6, "calibration": {"p": NAN}},
             "'prior.calibration.p': nan is not a finite number"),
            ("prior", {"family": "bbap", "cap": 3,
                       "calibration": {"family": "explicit", "pi": [0.2, NAN]}},
             "'prior.calibration.pi': nan is not a finite number"),
            ("scenario", {"sizes": [1, 2], "weights": [0.5, NAN]},
             "'scenario.weights': nan is not a finite number"),
            ("scenario", {"id": 2, "clusters": 30, "psi": INF, "seed": 5},
             "'scenario.psi': inf is not a finite number"),
            # a key the chosen family does not read is an error, not ignored
            ("prior", {"family": "epp", "theta": 2.0, "cap": 6},
             "'prior.cap' does not apply to the epp family"),
            ("prior", {"family": "epp", "theta": 2.0, "cv": 0.3},
             "'prior.cv' does not apply to the epp family"),
            ("prior", {"family": "epp", "calibration": {"family": "geometric", "p": 0.5}},
             "'prior.calibration' does not apply to the epp family"),
            ("prior", {"family": "bbap", "cap": 6, "theta": 2.0},
             "'prior.theta' does not apply to the bbap family"),
            ("prior", {"family": "bbap", "cap": 3,
                       "calibration": {"family": "geometric", "pi": [0.2, 0.1]}},
             "'prior.calibration.pi' does not apply to the geometric family"),
            ("prior", {"family": "bbap", "cap": 3,
                       "calibration": {"family": "explicit", "pi": [0.2, 0.1], "p": 0.5}},
             "'prior.calibration.p' does not apply to the explicit family"),
            ("prior", {"family": "bbap", "cap": 3,
                       "calibration": {"family": "explicit", "pi": [0.2, 0.1], "r": 2.0}},
             "'prior.calibration.r' does not apply to the explicit family"),
            ("prior", {"family": "bbap", "cap": 6,
                       "calibration": {"family": "geometric", "path": "pi.json"}},
             "'prior.calibration.path' does not apply to the geometric family"),
            ("prior", {"family": "bbap", "cap": 6,
                       "calibration": {"family": "negbin", "r": 2.0, "p": 0.5,
                                       "path": "pi.json"}},
             "'prior.calibration.path' does not apply to the negbin family"),
            ("prior", {"family": "bbap", "cap": 3,
                       "calibration": {"family": "explicit", "pi": [0.2, 0.1],
                                       "path": "pi.json"}},
             "'prior.calibration.path' does not apply to the explicit family"),
            ("prior", {"family": "bbap", "cap": 3,
                       "calibration": {"family": "informed", "path": "pi.json", "p": 0.5}},
             "'prior.calibration.p' does not apply to the informed family"),
        ],
    )
    def test_malformed_value_is_config_error_naming_key(self, tmp_path, capsys, block, value, key):
        body = pipeline_config(tmp_path)
        body[block] = value
        config_path = write_config(tmp_path, body)
        assert main(["run", "--config", config_path]) == EXIT_CONFIG
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"pi": [0.2, NAN]}, "nan is not a finite number"),
            ([0.2, 0.1], "cannot load informed calibration from '"),
        ],
        ids=["nan-entry", "not-an-object"],
    )
    def test_malformed_informed_file_is_config_error(self, tmp_path, capsys, document, message):
        (tmp_path / "pi.json").write_text(json.dumps(document))
        calibration = {"family": "informed", "path": "pi.json"}
        body = pipeline_config(tmp_path, prior={"family": "bbap", "cap": 3,
                                                "calibration": calibration})
        config_path = write_config(tmp_path, body)
        assert main(["run", "--config", config_path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err and "pi.json" in err

    @pytest.mark.parametrize(
        "command, key, value, message",
        [
            ("estimate", "seed", -2, "'seed': -2 is negative"),
            ("sample-prior", "likelihood", {"psi_fixed": -0.5},
             "likelihood: psi_fixed entries must lie in [0, 1]"),
        ],
    )
    def test_value_checks_hold_for_every_command(self, tmp_path, capsys, command, key, value,
                                                 message):
        config_path = write_config(tmp_path, pipeline_config(tmp_path, **{key: value}))
        assert main([command, "--config", config_path]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["calibrate", "sample-prior"])
    def test_cap_option_on_epp_config_is_config_error(self, tmp_path, capsys, command):
        body = pipeline_config(tmp_path, prior={"family": "epp", "theta": 20.0})
        config_path = write_config(tmp_path, body)
        assert main([command, "--config", config_path, "--cap", "6"]) == EXIT_CONFIG
        assert "'prior.cap' does not apply to the epp family" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "prior",
        [
            {"family": "epp", "theta": 20.0, "cap": None, "cv": None, "calibration": None},
            {"family": "bbap", "cap": 6, "theta": None,
             "calibration": {"family": "geometric", "p": 0.5, "r": None, "pi": None,
                             "path": None}},
            {"family": "bbap", "cap": 3,
             "calibration": {"family": "explicit", "p": None, "r": None, "pi": [0.2, 0.1]}},
        ],
        ids=["epp", "geometric", "explicit"],
    )
    def test_null_keys_a_family_does_not_read_are_accepted(self, tmp_path, prior):
        # manifests write null for the calibration keys a family leaves unused
        config_path = write_config(tmp_path, pipeline_config(tmp_path, prior=prior))
        assert main(["sample-prior", "--config", config_path]) == EXIT_OK
        manifest_path = str(tmp_path / "out" / "manifest.json")
        assert main(["sample-prior", "--config", manifest_path]) == EXIT_OK

    @pytest.mark.parametrize("command", ["run", "calibrate", "sample-prior"])
    def test_default_cap_above_record_count_is_config_error(self, tmp_path, capsys, command):
        # with no prior block the cap is 15; this scenario has fewer records
        body = pipeline_config(tmp_path, scenario={"clusters": 5, "sizes": [1, 2],
                                                   "weights": [0.4, 0.6], "seed": 1})
        del body["prior"]
        config_path = write_config(tmp_path, body)
        n = datagen.simulate(parse_config(config_path, command).scenario)[1].n
        assert n < 15
        assert main([command, "--config", config_path]) == EXIT_CONFIG
        assert f"'prior.cap' is 15, more than the {n} records" in capsys.readouterr().err

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
            ([json.dumps({"iter": 1, "chain": 0, "K": 2, "r": [1, 1], "psi": [0.01],
                          "logJoint": -1.0, "fnr": 0.5, "fdr": 0.0})],
             "trace.jsonl' line 2: keys"),
            (None, "trace.jsonl' holds no rows"),
            ([json.dumps({"iter": 1, "chain": 0, "K": 2, "r": ["a", 1], "psi": [0.01],
                          "logJoint": -1.0})],
             'trace.jsonl\' line 2: r is ["a", 1], not a list of integers'),
            ([json.dumps({"iter": 1, "chain": 0, "K": "x", "r": [1, 1], "psi": [0.01],
                          "logJoint": -1.0})],
             'trace.jsonl\' line 2: K is "x", not an integer'),
            ([json.dumps({"iter": 1, "chain": 0, "K": 2, "r": [1, 1], "psi": 0.01,
                          "logJoint": -1.0})],
             "trace.jsonl' line 2: psi is 0.01, not a list of numbers"),
            ([json.dumps({"iter": 1, "chain": 0, "K": 2, "r": [1, 1], "psi": [0.01],
                          "logJoint": None})],
             "trace.jsonl' line 2: logJoint is null, not a number"),
            ([json.dumps({"iter": 1, "chain": 0, "K": 2, "r": [1, 1], "psi": [0.01],
                          "logJoint": -1.0, "fnr": True, "fdr": 0.0})],
             "trace.jsonl' line 2: fnr is true, not a number"),
        ],
        ids=["not-json", "missing-key", "rates-on-some-rows", "empty", "non-integer-r",
             "non-integer-K", "psi-not-a-list", "null-logJoint", "boolean-fnr"],
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

    @pytest.mark.parametrize("command", ["summarize", "evaluate"])
    def test_rates_from_missing_snapshots_is_data_error(self, tmp_path, capsys, command):
        # with a truth and no rates in the trace, evaluate takes the error
        # rates from the snapshot file, so its absence is a missing input;
        # summarize reads the trace alone
        out = tmp_path / "out"
        out.mkdir()
        config_path = write_config(tmp_path, pipeline_config(tmp_path))
        n = datagen.simulate(parse_config(config_path, command).scenario)[1].n
        row = {"iter": 0, "chain": 0, "K": n, "r": [n], "psi": [0.01], "logJoint": -1.0}
        (out / "trace.jsonl").write_text(json.dumps(row) + "\n")
        if command == "summarize":
            assert main([command, "--config", config_path]) == EXIT_OK
            return
        assert main([command, "--config", config_path]) == EXIT_DATA
        assert f"no linkage snapshots at '{out / 'xi_snapshots.csv'}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["summarize", "evaluate"])
    def test_snapshots_of_other_record_count_are_data_error(self, tmp_path, capsys, command):
        # the trace has no rates, so evaluate scores the truth against the
        # snapshots; summarize reads the trace alone
        out = tmp_path / "out"
        out.mkdir()
        config_path = write_config(tmp_path, pipeline_config(tmp_path))
        n = datagen.simulate(parse_config(config_path, command).scenario)[1].n
        row = {"iter": 0, "chain": 0, "K": n, "r": [n], "psi": [0.01], "logJoint": -1.0}
        (out / "trace.jsonl").write_text(json.dumps(row) + "\n")
        (out / "xi_snapshots.csv").write_text("0,0,1,1,2\n")
        if command == "summarize":
            assert main([command, "--config", config_path]) == EXIT_OK
            return
        assert main([command, "--config", config_path]) == EXIT_DATA
        assert f"xi_snapshots.csv': 3 records, expected {n}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["summarize", "evaluate"])
    def test_trace_of_other_record_count_is_data_error(self, tmp_path, capsys, command):
        # a trace of scenario 2 at 8 clusters, scored against the truth at 12
        records = {}
        for clusters in (8, 12):
            body = pipeline_config(tmp_path, scenario={"id": 2, "clusters": clusters,
                                                       "psi": 0.02, "seed": 5})
            body["sampler"] = {"iterations": 30, "burn_in": 10, "chains": 1, "check_every": 20}
            config_path = write_config(tmp_path, body)
            records[clusters] = datagen.simulate(parse_config(config_path, command).scenario)[1].n
            if clusters == 8:
                assert main(["run", "--config", config_path]) == EXIT_OK
        assert records[8] != records[12]
        assert main([command, "--config", config_path]) == EXIT_DATA
        message = f"trace.jsonl' line 1: {records[8]} records, expected {records[12]}"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,x,2", "invalid literal for int()"),
            ("", "invalid literal for int()"),
            ("1,1,2", "3 records, expected"),
            ("{valid}\ngarbage,line", "more than one row"),
        ],
        ids=["non-integer", "empty", "other-record-count", "second-row"],
    )
    def test_malformed_estimate_is_data_error(self, tmp_path, capsys, row, message):
        out = tmp_path / "out"
        out.mkdir()
        config_path = write_config(tmp_path, pipeline_config(tmp_path))
        n = datagen.simulate(parse_config(config_path, "evaluate").scenario)[1].n
        row = row.format(valid=",".join(["1"] * n))
        (out / "estimate_binder.csv").write_text(row + "\n" if row else "")
        assert main(["evaluate", "--config", config_path]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "estimate_binder.csv'" in err and message in err

    def test_estimate_evaluates_each_loss_once(self, tmp_path, monkeypatch):
        from allelink import estimation

        out = tmp_path / "out"
        out.mkdir()
        rows = ["0,0,1,1,2,3,3,4", "0,2,1,2,2,3,3,4", "1,0,1,1,2,3,4,4", "1,2,1,1,1,2,2,3"]
        (out / "xi_snapshots.csv").write_text("".join(row + "\n" for row in rows))
        body = pipeline_config(tmp_path)
        body["estimation"]["losses"] = ["binder", "vi", "nid"]
        config_path = write_config(tmp_path, body)
        loss = estimation.expected_posterior_loss
        cpu_counts = [1, 2] if "fork" in multiprocessing.get_all_start_methods() else [1]
        for cpus in cpu_counts:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            # a file, so that calls made in forked search workers count too
            calls = tmp_path / f"calls-{cpus}"

            def counting_loss(candidate, samples, kind):
                with open(calls, "a") as fh:
                    fh.write(f"{os.getpid()} {kind}\n")
                return loss(candidate, samples, kind)

            monkeypatch.setattr(estimation, "expected_posterior_loss", counting_loss)
            assert main(["estimate", "--config", config_path]) == EXIT_OK
            pids, kinds = zip(*(line.split() for line in calls.read_text().splitlines()))
            assert sorted(kinds) == ["binder", "nid", "vi"], cpus
            assert len(set(pids)) == cpus

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

    def test_rates_without_trace_rates_are_snapshot_means(self, tmp_path):
        # with no rates in the trace, evaluate scores every snapshot row
        body = pipeline_config(tmp_path, scenario={"id": 2, "clusters": 30, "psi": 0.05,
                                                   "seed": 5})
        body["sampler"] = {"iterations": 60, "burn_in": 15, "chains": 2,
                           "snapshot_stride": 3, "check_every": 20}
        config_path = write_config(tmp_path, body)
        out = tmp_path / "out"
        assert main(["run", "--config", config_path]) == EXIT_OK
        rows = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
        for row in rows:
            del row["fnr"], row["fdr"]
        (out / "trace.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert main(["evaluate", "--config", config_path]) == EXIT_OK
        (report,) = json.loads((out / "metrics.json").read_text())["reports"]
        assert report["source"] == "posterior-average"
        actual = matched_pairs(datagen.simulate(parse_config(config_path, "evaluate").scenario)[1])
        fnrs, fdrs = [], []
        for line in (out / "xi_snapshots.csv").read_text().splitlines():
            declared = matched_pairs(LinkageStructure([int(v) for v in line.split(",")[2:]]))
            fnrs.append(len(actual - declared) / len(actual))
            fdrs.append(len(declared - actual) / len(declared) if declared else 0.0)
        assert len(fnrs) == 2 * 15 and 0 < min(fnrs) and 0 < max(fdrs)
        assert report["fnr"] == pytest.approx(sum(fnrs) / len(fnrs), rel=1e-12, abs=1e-15)
        assert report["fdr"] == pytest.approx(sum(fdrs) / len(fdrs), rel=1e-12, abs=1e-15)

    def test_summarize_needs_no_snapshots(self, tmp_path):
        config_path, n = write_trace_without_rates(tmp_path)
        out = tmp_path / "out"
        (out / "xi_snapshots.csv").write_text("0,0," + ",".join(["1"] * n) + "\n")
        assert main(["summarize", "--config", config_path]) == EXIT_OK
        written = {name: (out / name).read_bytes()
                   for name in ("summary.tsv", "k_distribution.tsv")}
        (out / "xi_snapshots.csv").unlink()
        assert main(["summarize", "--config", config_path]) == EXIT_OK
        assert {name: (out / name).read_bytes() for name in written} == written

    def test_summarize_scores_nothing(self, tmp_path, monkeypatch):
        from allelink import evaluation, partitions

        config_path, n = write_trace_without_rates(tmp_path)
        (tmp_path / "out" / "xi_snapshots.csv").write_text("0,0," + ",".join(["1"] * n) + "\n")

        def fails(*args):
            raise AssertionError("summarize scored the trace against the truth")

        for module in (evaluation, partitions):
            monkeypatch.setattr(module, "fnr_fdr", fails)
        monkeypatch.setattr(evaluation, "js_distance", fails)
        assert main(["summarize", "--config", config_path]) == EXIT_OK
        # the truth still gives its size counts
        lines = (tmp_path / "out" / "summary.tsv").read_text().splitlines()
        assert len(lines) == 3 and all(line.split("\t")[-1].isdigit() for line in lines[1:])

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


def write_posterior_snapshots(out, n=40, n_samples=60, seed=4):
    """A snapshot file of perturbed copies of one partition, in two chains."""
    import numpy as np

    from allelink.partitions import canonicalize

    rng = np.random.default_rng(seed)
    base = rng.integers(0, n // 3, size=n)
    rows = []
    for s in range(n_samples):
        labels = base.copy()
        moved = rng.choice(n, size=3, replace=False)
        labels[moved] = rng.integers(0, n // 3 + 2, size=3)
        rows.append(",".join(map(str, (s % 2, s // 2) + canonicalize(labels).assignments)))
    out.mkdir()
    (out / "xi_snapshots.csv").write_text("".join(row + "\n" for row in rows))


class TestParallelEstimate:
    @pytest.fixture(autouse=True)
    def _needs_fork(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")

    def test_estimates_do_not_depend_on_cpu_count(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        write_posterior_snapshots(out)
        body = pipeline_config(tmp_path)
        body["estimation"]["losses"] = ["binder", "vi", "nid"]
        config_path = write_config(tmp_path, body)
        written = {}
        for cpus in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            assert main(["estimate", "--config", config_path]) == EXIT_OK
            assert multiprocessing.active_children() == []
            written[cpus] = {path.name: path.read_bytes() for path in out.glob("estimate_*")}
        assert len(written[1]) == 6
        assert written[1] == written[2] == written[3]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_failed_search_exits_runtime_whatever_the_cpu_count(
        self, tmp_path, capsys, monkeypatch, cpus
    ):
        from allelink import estimation

        out = tmp_path / "out"
        write_posterior_snapshots(out)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        parent = os.getpid()
        search = estimation.greedy_epl

        def fails(samples, kind, config):
            # with two usable CPUs the vi search runs in the worker
            if cpus == 1 or os.getpid() != parent:
                raise RuntimeError("search failed")
            return search(samples, kind, config)

        monkeypatch.setattr(estimation, "greedy_epl", fails)
        config_path = write_config(tmp_path, pipeline_config(tmp_path))
        assert main(["estimate", "--config", config_path]) == EXIT_RUNTIME
        assert capsys.readouterr().err == "error: search failed\n"
        assert not list(out.glob("estimate_*"))
        assert multiprocessing.active_children() == []
