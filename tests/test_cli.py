"""Command line surface: each subcommand end to end over a shared tree."""

import json
import shutil

import pytest

from socialbench.cli import main
from socialbench.datagen import GenConfig, generate_temporal_graph, split_at_cutoff, write_dataset


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
        report_path = tmp_path / "report.json"
        audit_path = tmp_path / "audit.ldjson"
        code = main(["driver", "--mode", "benchmark", "--tcr", "0.02",
                     "--stream", str(tree / "dataset"),
                     "--params", str(tree / "params"),
                     "--report", str(report_path),
                     "--audit-log", str(audit_path),
                     "--no-pace", "--seed", "5"])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["onTime"]["valid"] is True
        assert report["totalOperations"] > 0
        assert report["mode"] == "throughput"

        lines = [json.loads(line) for line in audit_path.read_text().splitlines()]
        assert lines
        indexes = [entry["opIndex"] for entry in lines]
        assert indexes == sorted(indexes)
        for entry in lines:
            assert entry["clockAtRelease"] >= entry["dependencyMs"]

    def test_validate_mode_compares_stores(self, tree, tmp_path, capsys):
        report_path = tmp_path / "validate.json"
        code = main(["driver", "--mode", "validate",
                     "--stream", str(tree / "dataset"),
                     "--params", str(tree / "params"),
                     "--report", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["diffCount"] == 0
        assert report["updates"] > 0


class TestAcid:
    def test_reference_store_passes(self, tmp_path):
        report_path = tmp_path / "acid.json"
        code = main(["acid", "--store", "reference", "--scenario", "all",
                     "--seed", "4", "--runs", "3", "--report", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["passed"] is True
        assert len(report["results"]) == 6  # 2 scenarios x 3 runs

    def test_split_cascade_control_fails(self):
        assert main(["acid", "--store", "split-cascade",
                     "--scenario", "cascade", "--seed", "1"]) == 1

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

    @pytest.mark.parametrize("conf,field", [
        ({"datagen": {"seed": 1, "num_persons": 20, "persons": 5}}, "datagen.persons"),
        ({"driver": {"tcrr": 0.1}}, "driver.tcrr"),
        ({"driver": {"triggers": {"sr2_per_crr": 1}}}, "driver.triggers.sr2_per_crr"),
        ({"paramgen": {"perday": 2}}, "paramgen.perday"),
        ({"drivr": {"tcr": 0.1}}, "drivr"),
        ({"driver": {"t_safe": 5_000}}, "driver.t_safe"),
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
    ])
    def test_config_value_of_wrong_type_or_range(self, tmp_path, capsys, conf, field):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(conf))
        code = main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert code == 1
        assert f"invalid config field '{field}'" in capsys.readouterr().err


class TestModeratorCascadeOff:
    def test_driver_uses_the_datasets_setting(self, tmp_path):
        cfg = GenConfig(seed=3, num_persons=100, cutoff_fraction=0.6,
                        delete_forums_of_deleted_moderator=False)
        graph = generate_temporal_graph(cfg)
        sas = split_at_cutoff(graph, cfg)
        deleted = {op.payload["personId"]: op.scheduled_time
                   for op in sas.stream if op.op_type == "DEL1"}
        assert any(f.moderator_person_id in deleted
                   and (f.lifecycle.deletion is None
                        or f.lifecycle.deletion > deleted[f.moderator_person_id])
                   for f in graph.forums.values()), "no forum outlives its moderator"
        dataset, params = tmp_path / "dataset", tmp_path / "params"
        write_dataset(graph, sas, cfg, dataset)
        assert main(["paramgen", "--graph", str(dataset), "--out", str(params),
                     "--per-day", "2", "--seed", "3"]) == 0
        report = tmp_path / "validate.json"
        assert main(["driver", "--mode", "validate", "--stream", str(dataset),
                     "--params", str(params), "--report", str(report)]) == 0
        assert json.loads(report.read_text())["diffCount"] == 0
        assert main(["driver", "--mode", "benchmark", "--no-pace", "--stream", str(dataset),
                     "--params", str(params)]) == 0
