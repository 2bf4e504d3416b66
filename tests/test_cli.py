"""Command line surface: each subcommand end to end over a shared tree."""

import argparse
import dataclasses
import json
import random
import shutil
from collections import Counter
from types import SimpleNamespace

import pytest

from socialbench import cli, pipeline
from socialbench.cli import build_parser, main, pipeline_config
from socialbench.datagen import GenConfig, generate_temporal_graph, split_at_cutoff, write_dataset
from socialbench.driver import DriverConfig
from socialbench.errors import ConfigInvalid, SocialBenchError
from socialbench.paramgen import ParamGenOptions
from socialbench.pipeline import PipelineConfig


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """One generated dataset and parameter directory reused by the module."""
    root = tmp_path_factory.mktemp("cli")
    dataset = root / "dataset"
    params = root / "params"
    assert main(["datagen", "--seed", "21", "--persons", "100",
                 "--cutoff-fraction", "0.6", "--out", str(dataset)]) == 0
    assert main(["paramgen", "--graph", str(dataset), "--out", str(params),
                 "--per-day", "2", "--seed", "3"]) == 0
    return root


class TestDatagen:
    def test_artifacts_exist(self, tree):
        dataset = tree / "dataset"
        for name in ("config.json", "dataset.json", "stream.ldjson"):
            assert (dataset / name).is_file()
        assert (dataset / "snapshot" / "persons.csv").is_file()
        assert (dataset / "temporal" / "messages.csv").is_file()

    def test_config_echo_carries_flags(self, tree):
        config = json.loads((tree / "dataset" / "config.json").read_text())
        assert config["seed"] == 21
        assert config["num_persons"] == 100
        assert config["cutoff_fraction"] == 0.6
        assert config["t_safe"] == 10_000

    def test_dataset_meta_is_consistent(self, tree):
        meta = json.loads((tree / "dataset" / "dataset.json").read_text())
        partition = meta["partition"]
        assert partition["inserts"] > 0
        assert partition["snapshot"] > 0


class TestParamgen:
    def test_one_file_per_day(self, tree):
        files = sorted((tree / "params").glob("*.ldjson"))
        assert files
        first = files[0].read_text().splitlines()
        record = json.loads(first[0])
        assert set(record) == {"query", "params"}


class TestDriver:
    def test_benchmark_writes_report_and_audit(self, tree, tmp_path):
        """Each file's missing directory is made for it."""
        report_path = tmp_path / "reports" / "run" / "report.json"
        audit_path = tmp_path / "audit" / "audit.ldjson"
        code = main(["driver", "--mode", "benchmark", "--tcr", "0.02",
                     "--stream", str(tree / "dataset"),
                     "--params", str(tree / "params"),
                     "--report", str(report_path),
                     "--audit-log", str(audit_path),
                     "--no-pace", "--seed", "5"])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["onTime"]["valid"] is None  # an unpaced run has no verdict
        assert report["totalOperations"] > 0
        assert report["mode"] == "throughput"

        text = audit_path.read_text().splitlines()
        lines = [json.loads(line) for line in text]
        assert lines
        # One object a line, its keys sorted.
        assert text == [json.dumps(entry, sort_keys=True) for entry in lines]
        indexes = [entry["opIndex"] for entry in lines]
        assert indexes == sorted(indexes)
        for entry in lines:
            assert set(entry) == {"kind", "opType", "scheduledWallMs", "actualWallMs",
                                  "latencyMs", "opIndex", "dependencyMs", "clockAtRelease",
                                  "gateWaitMs"}, entry
            assert entry["clockAtRelease"] >= entry["dependencyMs"]

    def test_window_that_measures_nothing_fails(self, tree, capsys):
        """The first entry is due long after a 1 s window closes."""
        code = main(["driver", "--stream", str(tree / "dataset"),
                     "--params", str(tree / "params"), "--window-secs", "1"])
        assert capsys.readouterr().out == "mode=paced measured=0 on-time=n/a valid=False\n"
        assert code == 1

    def test_validate_mode_compares_stores(self, tree, tmp_path, capsys):
        report_path = tmp_path / "reports" / "validate.json"
        code = main(["driver", "--mode", "validate",
                     "--stream", str(tree / "dataset"),
                     "--params", str(tree / "params"),
                     "--report", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["diffCount"] == 0
        assert report["updates"] > 0

    def test_missing_parameter_directory_names_itself(self, tree, tmp_path, capsys):
        missing = tmp_path / "nonexistent"
        code = main(["driver", "--stream", str(tree / "dataset"), "--params", str(missing)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: parameter directory {missing} is not a directory\n")

    def test_a_file_not_named_after_a_day_is_refused(self, tree, capsys):
        """A dataset directory passed as the parameter directory holds
        stream.ldjson."""
        dataset = tree / "dataset"
        code = main(["driver", "--stream", str(dataset), "--params", str(dataset)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {dataset / 'stream.ldjson'}:1: file name is not a YYYY-MM-DD day\n")

    def test_non_finite_tcr_is_refused(self, tree, capsys):
        code = main(["driver", "--tcr", "nan", "--stream", str(tree / "dataset"),
                     "--params", str(tree / "params")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: invalid config field 'driver.tcr'")

    def test_validate_mode_refuses_an_audit_log(self, tree, tmp_path, capsys):
        """Validation runs no benchmark, so it has no update log to write."""
        audit_path = tmp_path / "audit.ldjson"
        code = main(["driver", "--mode", "validate",
                     "--stream", str(tree / "dataset"),
                     "--params", str(tree / "params"),
                     "--audit-log", str(audit_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: invalid config field 'audit_log'")
        assert not audit_path.exists()


class TestAcid:
    def test_reference_store_passes(self, tmp_path):
        report_path = tmp_path / "reports" / "acid.json"
        code = main(["acid", "--store", "reference", "--scenario", "all",
                     "--seed", "4", "--runs", "3", "--report", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["passed"] is True
        assert len(report["results"]) == 6  # 2 scenarios x 3 runs

    def test_split_cascade_control_fails(self):
        assert main(["acid", "--store", "split-cascade",
                     "--scenario", "cascade", "--seed", "1"]) == 1

    @pytest.mark.parametrize("runs", ["0", "-3"])
    def test_no_runs_is_refused(self, runs, tmp_path, capsys):
        """A run of no scenario passes nothing, so it is not a pass."""
        report_path = tmp_path / "acid.json"
        code = main(["acid", "--store", "split-cascade", "--runs", runs,
                     "--report", str(report_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: invalid config field 'runs'")
        assert not report_path.exists()

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["acid", "--scenario", "nonsense"])


class TestPipeline:
    def test_full_run_writes_artifacts(self, tmp_path):
        out = tmp_path / "run"
        code = main(["pipeline", "--out", str(out), "--seed", "9",
                     "--persons", "60", "--cutoff-fraction", "0.6",
                     "--per-day", "2"])
        assert code == 0
        report = json.loads((out / "fdr.json").read_text())
        assert report["passed"] is True
        assert report["validation"]["diffCount"] == 0
        summary = (out / "summary.txt").read_text()
        assert summary.strip().endswith("overall: PASS")
        assert (out / "dataset" / "stream.ldjson").is_file()
        assert sorted((out / "params").glob("*.ldjson"))

    def test_config_file_with_flag_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "datagen": {"seed": 4, "num_persons": 300},
            "paramgen": {"per_day": 2},
        }))
        out = tmp_path / "run"
        code = main(["pipeline", "--config", str(cfg_path), "--out", str(out),
                     "--persons", "60", "--cutoff-fraction", "0.6",
                     "--no-validate"])
        assert code == 0
        report = json.loads((out / "fdr.json").read_text())
        assert report["configuration"]["datagen"]["num_persons"] == 60
        assert report["configuration"]["datagen"]["seed"] == 4
        assert report["validation"] is None


class TestErrors:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_dataset_reports_error(self, tmp_path, capsys):
        code = main(["paramgen", "--graph", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "params")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


_SMALL_PIPELINE_CONFIG = json.dumps({
    "datagen": {"seed": 4, "num_persons": 60, "cutoff_fraction": 0.6},
    "driver": {"tcr": 0.5, "read_threads": 1, "frequencies": {"CR13a": 10, "CR14b": 20},
               "triggers": {"sr2_per_cr": 2, "sr2_self_prob": 0.25}},
    "paramgen": {"per_day": 2, "cr3_duration_days": 14},
}, indent=2).encode()

_WRONG_TYPES = ["x", None, True, 1.5, -3, [1], {"a": 1}]


def _mutate_config(rng) -> tuple[str, bytes]:
    """One seeded single mutation of the small pipeline config, and its name."""
    data = _SMALL_PIPELINE_CONFIG
    kind = rng.choice(["flip", "truncate", "drop-key", "wrong-type"])
    if kind == "flip":
        at = rng.randrange(len(data))
        return kind, data[:at] + bytes([data[at] ^ (1 << rng.randrange(8))]) + data[at + 1:]
    if kind == "truncate":
        return kind, data[:rng.randrange(len(data))]
    doc = json.loads(data)
    holder = doc
    while True:
        key = rng.choice(sorted(holder))
        if not isinstance(holder[key], dict) or rng.random() < 0.3:
            break
        holder = holder[key]
    if kind == "drop-key":
        del holder[key]
    else:
        holder[key] = rng.choice([v for v in _WRONG_TYPES if type(v) is not type(holder[key])])
    return kind, json.dumps(doc).encode()


class TestBadInput:
    def test_stream_line_missing_a_payload_key(self, tree, tmp_path, capsys):
        dataset = tmp_path / "dataset"
        shutil.copytree(tree / "dataset", dataset)
        stream = dataset / "stream.ldjson"
        lines = stream.read_text().splitlines()
        record = json.loads(lines[0])
        record["payload"].popitem()
        lines[0] = json.dumps(record)
        stream.write_text("\n".join(lines) + "\n")
        code = main(["driver", "--mode", "validate", "--stream", str(dataset),
                     "--params", str(tree / "params")])
        assert code == 1
        assert f"error: {stream}:1:" in capsys.readouterr().err

    def test_stream_that_lost_a_line(self, tree, tmp_path, capsys):
        """The stream is read as the split of the history, so a line gone
        from it is refused at the line where it stood."""
        dataset = tmp_path / "dataset"
        shutil.copytree(tree / "dataset", dataset)
        stream = dataset / "stream.ldjson"
        lines = stream.read_text().splitlines(keepends=True)
        stream.write_text("".join(lines[:3] + lines[4:]))
        code = main(["driver", "--mode", "validate", "--stream", str(dataset),
                     "--params", str(tree / "params")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {stream}:4:")

    def test_dataset_without_its_history(self, tree, tmp_path, capsys):
        """The driver reads the history the snapshot and stream are split
        from, so a dataset without temporal/ does not run."""
        dataset = tmp_path / "dataset"
        shutil.copytree(tree / "dataset", dataset)
        shutil.rmtree(dataset / "temporal")
        code = main(["driver", "--mode", "validate", "--stream", str(dataset),
                     "--params", str(tree / "params")])
        assert code == 1
        assert str(dataset / "temporal" / "persons.csv") in capsys.readouterr().err

    def test_stream_byte_that_is_not_utf8(self, tree, tmp_path, capsys):
        dataset = tmp_path / "dataset"
        shutil.copytree(tree / "dataset", dataset)
        stream = dataset / "stream.ldjson"
        stream.write_bytes(b"\xff" + stream.read_bytes())
        code = main(["driver", "--mode", "validate", "--stream", str(dataset),
                     "--params", str(tree / "params")])
        assert code == 1
        assert f"error: {stream}:1:" in capsys.readouterr().err

    @pytest.mark.parametrize("conf,field", [
        ({"datagen": {"seed": 1, "num_persons": 20, "persons": 5}}, "datagen.persons"),
        ({"driver": {"tcrr": 0.1}}, "driver.tcrr"),
        ({"driver": {"triggers": {"sr2_per_crr": 1}}}, "driver.triggers.sr2_per_crr"),
        ({"paramgen": {"perday": 2}}, "paramgen.perday"),
        ({"drivr": {"tcr": 0.1}}, "drivr"),
        ({"driver": {"t_safe": 5_000}}, "driver.t_safe"),
        ({"driver": {"warmup_secs": 1.0}}, "driver.warmup_secs"),
        ({"driver": {"on_time_threshold_ms": 500}}, "driver.on_time_threshold_ms"),
        ({"driver": {"on_time_target": 0.9}}, "driver.on_time_target"),
    ])
    def test_unknown_config_key(self, tmp_path, capsys, conf, field):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(conf))
        code = main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert code == 1
        assert f"invalid config field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("conf,field", [
        ({"paramgen": {"per_day": 0}}, "paramgen.per_day"),
        ({"datagen": {"seed": "x", "num_persons": 10}}, "datagen.seed"),
        ({"driver": {"tcr": "fast"}}, "driver.tcr"),
        ({"driver": {"triggers": {"sr2_depth_cap": -1}}}, "driver.triggers.sr2_depth_cap"),
        ({"datagen": 5}, "datagen"),
        (5, "(top level)"),
        ([1], "(top level)"),
        ({"driver": {"triggers": [1]}}, "driver.triggers"),
        ({"driver": {"frequencies": {"CR13x": 5}}}, "driver.frequencies"),
        ({"driver": {"tcr": float("nan")}}, "driver.tcr"),
        ({"driver": {"tcr": float("inf")}}, "driver.tcr"),
        ({"driver": {"window_secs": float("nan")}}, "driver.window_secs"),
        ({"driver": {"frequencies": {"CR3a": True}}}, "driver.frequencies"),
    ])
    def test_config_value_of_wrong_type_or_range(self, tmp_path, capsys, conf, field):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(conf))
        code = main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert code == 1
        assert f"invalid config field '{field}'" in capsys.readouterr().err

    def test_seeded_corruption_sweep_of_the_pipeline_config(self, tmp_path):
        """Seeded single mutations of a pipeline config: each either loads
        or fails with a SocialBenchError that names the file."""
        rng = random.Random(20261019)
        path = tmp_path / "cfg.json"
        args = build_parser().parse_args(["pipeline", "--config", str(path)])
        outcomes, escapes = Counter(), []
        for _ in range(60):
            kind, damaged = _mutate_config(rng)
            path.write_bytes(damaged)
            try:
                pipeline_config(args)
                outcomes["loaded"] += 1
            except SocialBenchError as exc:
                outcomes["refused"] += 1
                if str(path) not in str(exc):
                    escapes.append((kind, damaged, repr(exc)))
            except Exception as exc:  # any other exception is an escape
                escapes.append((kind, damaged, repr(exc)))
        assert escapes == [], "\n".join(map(str, escapes))
        assert outcomes["refused"] > 20 and outcomes["loaded"] > 5, outcomes

    @pytest.mark.parametrize("damaged", [
        _SMALL_PIPELINE_CONFIG[:40],
        _SMALL_PIPELINE_CONFIG.replace(b"datagen", b"data\xffgen"),
    ], ids=["truncated", "not-utf8"])
    def test_refused_config_exits_1_naming_the_file(self, tmp_path, capsys, damaged):
        path = tmp_path / "cfg.json"
        path.write_bytes(damaged)
        assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:")
        assert not (tmp_path / "run").exists()


class TestModeratorCascadeOff:
    @staticmethod
    def _world_with_a_forum_outliving_its_moderator():
        """The first seed's world whose stream deletes the moderator of a
        forum that lives on."""
        for seed in range(1, 50):
            cfg = GenConfig(seed=seed, num_persons=100, cutoff_fraction=0.6,
                            delete_forums_of_deleted_moderator=False)
            graph = generate_temporal_graph(cfg)
            sas = split_at_cutoff(graph, cfg)
            deleted = {op.payload["personId"]: op.scheduled_time
                       for op in sas.stream if op.op_type == "DEL1"}
            if any(f.moderator_person_id in deleted
                   and (f.lifecycle.deletion is None
                        or f.lifecycle.deletion > deleted[f.moderator_person_id])
                   for f in graph.forums.values()):
                return cfg, graph, sas
        pytest.fail("no forum outlives its moderator")

    def test_driver_uses_the_datasets_setting(self, tmp_path):
        cfg, graph, sas = self._world_with_a_forum_outliving_its_moderator()
        dataset, params = tmp_path / "dataset", tmp_path / "params"
        write_dataset(graph, sas, dataset)
        assert main(["paramgen", "--graph", str(dataset), "--out", str(params),
                     "--per-day", "2", "--seed", "3"]) == 0
        report = tmp_path / "validate.json"
        assert main(["driver", "--mode", "validate", "--stream", str(dataset),
                     "--params", str(params), "--report", str(report)]) == 0
        assert json.loads(report.read_text())["diffCount"] == 0
        assert main(["driver", "--mode", "benchmark", "--no-pace", "--stream", str(dataset),
                     "--params", str(params)]) == 0


class TestDefaults:
    """Without config flags each subcommand builds its dataclass defaults."""

    class Stop(Exception):
        pass

    def capture(self, monkeypatch, name, pick):
        """Stop the command at cli.name and record the config it was handed."""
        seen = []

        def stop(*args, **kwargs):
            seen.append(pick(*args))
            raise self.Stop

        monkeypatch.setattr(cli, name, stop)
        return seen

    def test_datagen(self, monkeypatch, tmp_path):
        seen = self.capture(monkeypatch, "generate_temporal_graph", lambda config: config)
        with pytest.raises(self.Stop):
            main(["datagen", "--out", str(tmp_path)])
        assert seen == [PipelineConfig().gen]

    def test_paramgen(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "read_dataset", lambda graph: (
            None, SimpleNamespace(cutoff=0, config=PipelineConfig().gen)))
        seen = self.capture(monkeypatch, "generate_parameters",
                            lambda graph, cutoff, options: options)
        with pytest.raises(self.Stop):
            main(["paramgen", "--graph", str(tmp_path), "--out", str(tmp_path)])
        assert seen == [ParamGenOptions()]

    def test_driver(self, monkeypatch, tree):
        seen = self.capture(monkeypatch, "build_schedule",
                            lambda stream, buckets, cutoff, config: config)
        with pytest.raises(self.Stop):
            main(["driver", "--stream", str(tree / "dataset"),
                  "--params", str(tree / "params")])
        assert seen == [DriverConfig()]

    def test_pipeline(self, monkeypatch):
        seen = self.capture(monkeypatch, "run_pipeline", lambda config: config)
        with pytest.raises(self.Stop):
            main(["pipeline"])
        assert seen == [PipelineConfig()]

    def test_t_safe_flag_takes_seconds(self):
        args = build_parser().parse_args(["datagen", "--out", "x", "--t-safe-secs", "2.5"])
        assert args.t_safe == 2_500

    def test_every_config_flag_names_a_field(self):
        """A flag's dest is its field (section.field under pipeline)."""
        not_config = {"help", "out", "graph", "stream", "params", "mode",
                      "report", "audit_log", "config"}
        owners = {"datagen": GenConfig, "paramgen": ParamGenOptions,
                  "driver": DriverConfig, "pipeline": PipelineConfig}
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        for command, cls in owners.items():
            dests = [a.dest for a in subparsers.choices[command]._actions
                     if a.dest not in not_config]
            assert dests, command
            for dest in dests:
                section, _, name = dest.rpartition(".")
                fields = dataclasses.fields(owners[section] if section else cls)
                assert name in {f.name for f in fields}, (command, dest)


class TestDatasetConfigEcho:
    def test_driver_needs_the_datasets_config(self, tree, tmp_path, capsys):
        dataset = tmp_path / "dataset"
        shutil.copytree(tree / "dataset", dataset)
        (dataset / "config.json").unlink()
        assert main(["driver", "--mode", "validate", "--stream", str(dataset),
                     "--params", str(tree / "params")]) == 1
        assert "config.json" in capsys.readouterr().err

    def test_malformed_config_names_the_file(self, tree, tmp_path, capsys):
        """driver and paramgen read a dataset's config.json through one loader."""
        dataset = tmp_path / "dataset"
        shutil.copytree(tree / "dataset", dataset)
        (dataset / "config.json").write_text("{seed: 1}\n")
        for argv in (["driver", "--stream", str(dataset), "--params", str(tree / "params")],
                     ["paramgen", "--graph", str(dataset), "--out", str(tmp_path / "p")]):
            assert main(argv) == 1
            assert f"error: {dataset / 'config.json'}:1:" in capsys.readouterr().err


class TestPipelineConfig:
    def test_checks_its_own_field_types(self):
        with pytest.raises(ConfigInvalid) as err:
            PipelineConfig(validate_stores="no")
        assert err.value.field == "validate_stores"

    def test_out_dir_that_cannot_be_made_runs_no_stage(self, monkeypatch, tmp_path):
        ran = []
        monkeypatch.setattr(pipeline, "generate_temporal_graph", ran.append)
        (tmp_path / "file").write_text("")
        with pytest.raises(ConfigInvalid) as err:
            pipeline.run_pipeline(PipelineConfig(out_dir=str(tmp_path / "file" / "out")))
        assert err.value.field == "out_dir"
        assert ran == []


class TestInterrupt:
    def test_ctrl_c_is_not_a_stage_failure(self, monkeypatch, capsys):
        def interrupted(config):
            raise KeyboardInterrupt

        monkeypatch.setattr(pipeline, "generate_temporal_graph", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["pipeline", "--persons", "0"])
        assert "failed" not in capsys.readouterr().err
