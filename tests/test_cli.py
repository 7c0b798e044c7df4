"""Command-line entry point: argument handling, config dispatch, and
report emission."""

import copy
import csv
import math

import pytest
import yaml

from codedmem import analysis, cli

LOSS_CFG = {
    "schema_version": 1,
    "scenario": "loss",
    "seeds": [0],
    "cluster": {"machines": 30, "slabs_per_machine": 1},
    "code": {"k": 2, "r": 1},
    "schemes": [{"name": "codingsets", "l": 0}],
    "failure_fraction": 0.1,
    "trials": 2000,
    "exact_threshold": 0,
}

BALANCE_CFG = {
    "schema_version": 1,
    "scenario": "balance",
    "seeds": [1],
    "cluster": {"machines": 12, "slabs_per_machine": 2},
    "code": {"k": 2, "r": 1},
    "policies": [{"name": "power_of_two"}],
}

DATAPATH_CFG = {
    "schema_version": 1,
    "scenario": "datapath",
    "seeds": [0],
    "cluster": {"machines": 6, "latency": {"sigma": 0.2}},
    "code": {"k": 2, "r": 1},
    "placement": {"l": 1},
    "workload": {"ranges": 2, "operations": 40, "read_fraction": 0.5},
    "baselines": [{"name": "replication", "copies": 3}],
}


def dump(tmp_path, cfg, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


class TestValidate:
    def test_ok_prints_hash(self, tmp_path, capsys):
        rc = cli.main(["validate-config", "--config", dump(tmp_path, LOSS_CFG)])
        assert rc == 0
        out = capsys.readouterr().out
        assert analysis.config_hash(LOSS_CFG) in out

    def test_bad_schema_fails(self, tmp_path, capsys):
        bad_version = copy.deepcopy(LOSS_CFG)
        bad_version["schema_version"] = 2
        burst = copy.deepcopy(DATAPATH_CFG)
        burst["faults"] = [{"type": "burst", "time_us": 2.0, "until_us": 6.0}]
        for cfg, field in ((bad_version, "schema_version"), (burst, "burst")):
            rc = cli.main(["validate-config", "--config", dump(tmp_path, cfg)])
            assert rc == 2
            assert field in capsys.readouterr().err

    @pytest.mark.parametrize("path, bad", [("code.k", 300), ("seeds", 1)])
    def test_every_sweep_value_is_validated(self, tmp_path, capsys, path, bad):
        cfg = dict(LOSS_CFG, sweep={"path": path, "values": [2, bad]})
        rc = cli.main(["validate-config", "--config", dump(tmp_path, cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"sweep {path}=" in err

    @pytest.mark.parametrize(
        "base, key, value, message",
        [
            (LOSS_CFG, "code", {"k": 8.0, "r": 1}, "k must be an integer"),
            (LOSS_CFG, "code", {"k": True, "r": 1}, "k must be an integer"),
            (LOSS_CFG, "code", {"k": 2, "r": 2, "delta": 1.5}, "delta must be an integer"),
            (DATAPATH_CFG, "baselines", None, "baselines must be a list"),
            (DATAPATH_CFG, "baselines", 5, "baselines must be a list"),
            (LOSS_CFG, "seeds", [-1], "non-negative integers"),
            (BALANCE_CFG, "seeds", [1, -1], "non-negative integers"),
            (DATAPATH_CFG, "seeds", [-1], "non-negative integers"),
            (BALANCE_CFG, "ranges", 0, "ranges must be a positive integer"),
            (LOSS_CFG, "failure_fraction", 2, "failure_fraction must be in [0, 1]"),
            (LOSS_CFG, "exact_threshold", -1, "exact_threshold must be a non-negative integer"),
            (LOSS_CFG, "schemes", [], "schemes must be a non-empty list"),
            (BALANCE_CFG, "policies", [{"name": "random"}], "unknown policy 'random'"),
            (DATAPATH_CFG, "placement", 5, "placement must be a mapping"),
            (DATAPATH_CFG, "workload", {"ranges": 2}, "workload.operations must be a positive integer"),
            (
                DATAPATH_CFG,
                "baselines",
                [{"name": "replication", "copies": 0}],
                "baseline copies must be a positive integer",
            ),
            (LOSS_CFG, "cluster", {"machines": 0}, "cluster.machines must be a positive integer"),
        ],
    )
    def test_bad_field_types_exit_2(self, tmp_path, capsys, base, key, value, message):
        cfg = dict(base, **{key: value})
        config = dump(tmp_path, cfg)
        for argv in (["validate-config"], [cfg["scenario"], "--out", str(tmp_path)]):
            assert cli.main(argv + ["--config", config]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and message in err

    def test_missing_file_fails(self, tmp_path, capsys):
        rc = cli.main(["validate-config", "--config", str(tmp_path / "nope.yaml")])
        assert rc == 2
        assert capsys.readouterr().err != ""


class TestFaultRows:
    @pytest.mark.parametrize(
        "fault, message",
        [
            ({"type": "fail", "time_us": 1}, "needs machine"),
            ({"type": "fail", "time_us": 1, "machine": 9}, "machine 9"),
            ({"type": "background_load", "time_us": 1}, "needs until_us"),
            ({"type": "background_load", "time_us": 5, "until_us": 5}, "after time_us"),
            ({"type": "background_load", "time_us": 1, "until_us": 5, "level": "x"}, "float"),
            ({"type": "corrupt", "time_us": 1, "slab": 0, "page_index": 0, "mask": 5}, "mask"),
            ({"type": "fail", "time_us": -5, "machine": 0}, "time_us must be"),
            ({"type": "fail", "time_us": math.nan, "machine": 0}, "time_us must be"),
            ({"type": "fail", "time_us": math.inf, "machine": 0}, "time_us must be"),
            ({"type": "background_load", "time_us": 1, "until_us": math.inf}, "until_us must be"),
            ({"type": "background_load", "time_us": 1, "until_us": math.nan}, "until_us must be"),
            ({"type": "background_load", "time_us": 1, "until_us": 5, "level": 0}, "level must be"),
            ({"type": "background_load", "time_us": 1, "until_us": 5, "level": 0.5}, "level must be"),
            ({"type": "background_load", "time_us": 1, "until_us": 5, "level": math.nan}, "level must be"),
            ({"type": "background_load", "time_us": 1, "until_us": 5, "level": math.inf}, "level must be"),
            ({"type": "background_load", "time_us": 1, "until_us": 5, "levle": 4}, "no key levle"),
            ({"type": "fail", "time_us": 1, "machine": 0, 3: 4}, "no key 3"),
            ({"type": "fail", "time_us": True, "machine": 0}, "time_us must be"),
            ({"type": "fail", "time_us": "5", "machine": 0}, "time_us must be"),
            ({"type": "evict", "time_us": 1, "slab": 0, "machine": 9}, "evict fault takes no key machine"),
            ({"type": "fail", "time_us": 1e308, "machine": 0}, "time_us must be"),
            ({"type": "background_load", "time_us": 1, "until_us": 1e308}, "until_us must be"),
            ({"type": "corrupt", "time_us": 1, "slab": 0, "page_index": 0, "mask": "0000"}, "non-zero byte"),
        ],
    )
    def test_bad_rows_fail_before_the_run(self, tmp_path, capsys, fault, message):
        cfg = copy.deepcopy(DATAPATH_CFG)
        cfg["faults"] = [fault]
        path = dump(tmp_path, cfg)
        for argv in (["validate-config"], ["datapath", "--out", str(tmp_path)]):
            assert cli.main(argv + ["--config", path]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and message in err

    @pytest.mark.parametrize(
        "path, value",
        [
            ("cluster.machine_bytes", "1G"),
            ("cluster.latency.median_us", "x"),
            ("cluster.latency.background_multiplier", 0.5),  # a constant, not a config field
            ("manager.slab_size", "x"),
            ("manager.page_size", 0),
            ("manager.corruption_guard", "yes"),
            ("manager.health_window", 64),  # a constant, not a config field
            ("manager.in_place_coding", False),
            ("manager.run_to_completion", False),
            ("workload.ranges", 2**63 + 1),  # past the bound a range id is drawn below
            ("manager.slab_size", 2**80),  # 2**69 pages of 2048-byte splits
        ],
    )
    def test_bad_fields_fail_before_the_run(self, tmp_path, capsys, path, value):
        cfg = copy.deepcopy(DATAPATH_CFG)
        section, _, key = path.rpartition(".")
        node = cfg
        for part in section.split("."):
            node = node.setdefault(part, {})
        node[key] = value
        config = dump(tmp_path, cfg)
        for argv in (["validate-config"], ["datapath", "--out", str(tmp_path)]):
            assert cli.main(argv + ["--config", config]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and key in err

    @pytest.mark.parametrize(
        "key", ["median_us", "encode_us", "decode_us", "disk_us", "context_switch_us", "copy_us"]
    )
    def test_latency_costs_must_stay_finite_in_ns(self, tmp_path, capsys, key):
        # 1e306 us is 1e309 ns: past a float, so the run could not convert it
        cfg = copy.deepcopy(DATAPATH_CFG)
        cfg["cluster"]["latency"][key] = 1e306
        config = dump(tmp_path, cfg)
        for argv in (["validate-config"], ["datapath", "--out", str(tmp_path)]):
            assert cli.main(argv + ["--config", config]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and f"{key} must be finite in ns" in err

    @pytest.mark.parametrize(
        "manager, fits",
        [
            ({"slab_size": 100}, False),  # a split of 4096 / 8 is 512 bytes
            ({"slab_size": 511}, False),
            ({"page_size": 1 << 20}, False),  # 128 KiB splits, 64 KiB default slab
            ({"slab_size": 512}, True),  # one page per range
        ],
    )
    def test_a_slab_must_hold_one_split(self, tmp_path, capsys, manager, fits):
        cfg = dict(DATAPATH_CFG, code={"k": 8, "r": 2}, manager=manager)
        cfg["cluster"] = {"machines": 12, "latency": {"sigma": 0.2}}
        cfg["workload"] = dict(cfg["workload"], operations=10)
        config = dump(tmp_path, cfg)
        for argv in (["validate-config"], ["datapath", "--out", str(tmp_path)]):
            assert cli.main(argv + ["--config", config]) == (0 if fits else 2)
            out, err = capsys.readouterr()
            if fits:
                assert err == "" and out
            else:
                assert err.startswith("error:") and "smaller than one split" in err

    @pytest.mark.parametrize(
        "base, path",
        [
            (DATAPATH_CFG, "trails"),
            (DATAPATH_CFG, "sweep"),
            (DATAPATH_CFG, "workload.read_fracton"),
            (DATAPATH_CFG, "placement.ell"),
            (DATAPATH_CFG, "cluster.slabs_per_machine"),
            (DATAPATH_CFG, "baselines.0.copys"),
            (LOSS_CFG, "ranges"),
            (LOSS_CFG, "cluster.latency"),
            (LOSS_CFG, "schemes.0.ell"),
            (dict(LOSS_CFG, sweep={"path": "failure_fraction", "values": [0.1]}), "sweep.step"),
            (BALANCE_CFG, "failure_fraction"),
            (BALANCE_CFG, "policies.0.l"),  # power_of_two reads no l
            (LOSS_CFG, "code.delta"),  # only the data path reads delta
            (BALANCE_CFG, "code.delta"),
        ],
    )
    def test_unread_keys_fail_before_the_run(self, tmp_path, capsys, base, path):
        cfg = copy.deepcopy(base)
        *parents, key = path.split(".")
        node = cfg
        for part in parents:
            node = node[int(part)] if isinstance(node, list) else node[part]
        node[key] = 1
        config = dump(tmp_path, cfg)
        for argv in (["validate-config"], [cfg["scenario"], "--out", str(tmp_path)]):
            assert cli.main(argv + ["--config", config]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and f"unknown key {key}" in err

    @pytest.mark.parametrize(
        "fault",
        [
            {"type": "evict", "time_us": 1, "slab": 999},
            {"type": "corrupt", "time_us": 1, "slab": 999, "page_index": 0, "mask": "ff"},
        ],
    )
    def test_unknown_slab_is_an_error(self, tmp_path, capsys, fault):
        cfg = copy.deepcopy(DATAPATH_CFG)
        cfg["faults"] = [fault]
        path = dump(tmp_path, cfg)
        # slab ids exist only once the run has mapped its ranges
        assert cli.main(["validate-config", "--config", path]) == 0
        capsys.readouterr()
        assert cli.main(["datapath", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "slab 999" in err

    @pytest.mark.parametrize(
        "latency, faults",
        [
            ({"sigma": 1000}, []),
            ({"straggler_multiplier": 1.0e308, "straggler_prob": 1}, []),
            ({}, [{"type": "background_load", "time_us": 0, "until_us": 1000, "level": 1.0e306}]),
        ],
    )
    def test_split_latency_past_the_ns_range_is_an_error(self, tmp_path, capsys, latency, faults):
        # each setting is valid alone; only a drawn latency leaves the ns range
        cfg = copy.deepcopy(DATAPATH_CFG)
        cfg["cluster"]["latency"].update(latency)
        cfg["faults"] = faults
        path = dump(tmp_path, cfg)
        assert cli.main(["validate-config", "--config", path]) == 0
        capsys.readouterr()
        assert cli.main(["datapath", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "left the ns range" in err


class TestDispatch:
    def test_loss_writes_csv(self, tmp_path, capsys):
        cfg_path = dump(tmp_path, LOSS_CFG)
        out_dir = tmp_path / "results"
        rc = cli.main(["loss", "--config", cfg_path, "--out", str(out_dir)])
        assert rc == 0
        expected = out_dir / f"loss_{analysis.config_hash(LOSS_CFG)}.csv"
        assert expected.exists()
        assert str(expected) in capsys.readouterr().out
        header, rows = read_rows(expected)
        assert header == analysis.LOSS_HEADER
        assert len(rows) == 1

    def test_loss_without_parity_runs(self, tmp_path):
        cfg = dict(LOSS_CFG, code={"k": 3, "r": 0})
        out_dir = tmp_path / "results"
        assert cli.main(["loss", "--config", dump(tmp_path, cfg), "--out", str(out_dir)]) == 0
        header, rows = read_rows(next(out_dir.glob("loss_*.csv")))
        assert len(rows) == 1

    def test_scenario_mismatch_rejected(self, tmp_path, capsys):
        rc = cli.main(["balance", "--config", dump(tmp_path, LOSS_CFG)])
        assert rc == 2
        assert "scenario" in capsys.readouterr().err

    def test_balance_runs(self, tmp_path):
        out_dir = tmp_path / "out"
        rc = cli.main(
            ["balance", "--config", dump(tmp_path, BALANCE_CFG), "--out", str(out_dir)]
        )
        assert rc == 0
        files = list(out_dir.glob("balance_*.csv"))
        assert len(files) == 1

    def test_datapath_prints_summary(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        rc = cli.main(
            ["datapath", "--config", dump(tmp_path, DATAPATH_CFG), "--out", str(out_dir)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "coded" in out
        header, rows = read_rows(next(out_dir.glob("datapath_*.csv")))
        assert header == analysis.DATAPATH_HEADER
        assert {r[2] for r in rows} == {"coded", "replication3"}


class TestOverrides:
    def test_seed_override_replaces_config_seeds(self, tmp_path):
        out_dir = tmp_path / "out"
        rc = cli.main([
            "balance",
            "--config", dump(tmp_path, BALANCE_CFG),
            "--out", str(out_dir),
            "--seed", "3",
            "--seed", "4",
        ])
        assert rc == 0
        _, rows = read_rows(next(out_dir.glob("balance_*.csv")))
        assert {r[0] for r in rows} == {"3", "4"}

    @pytest.mark.parametrize("base", [LOSS_CFG, BALANCE_CFG, DATAPATH_CFG])
    def test_negative_seed_override_exits_2(self, tmp_path, capsys, base):
        argv = [base["scenario"], "--config", dump(tmp_path, base), "--out", str(tmp_path)]
        assert cli.main(argv + ["--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-negative integers" in err

    def test_trials_override(self, tmp_path):
        out_dir = tmp_path / "out"
        rc = cli.main([
            "loss",
            "--config", dump(tmp_path, LOSS_CFG),
            "--out", str(out_dir),
            "--trials", "500",
        ])
        assert rc == 0
        header, rows = read_rows(next(out_dir.glob("loss_*.csv")))
        assert rows[0][header.index("trials")] == "500"

    def test_overrides_change_confighash(self, tmp_path):
        out_dir = tmp_path / "out"
        cfg_path = dump(tmp_path, LOSS_CFG)
        assert cli.main(["loss", "--config", cfg_path, "--out", str(out_dir)]) == 0
        assert cli.main([
            "loss", "--config", cfg_path, "--out", str(out_dir), "--trials", "500",
        ]) == 0
        assert len(list(out_dir.glob("loss_*.csv"))) == 2

    def test_output_dir_from_config(self, tmp_path, monkeypatch):
        cfg = copy.deepcopy(BALANCE_CFG)
        cfg["output_dir"] = str(tmp_path / "cfgout")
        rc = cli.main(["balance", "--config", dump(tmp_path, cfg)])
        assert rc == 0
        assert len(list((tmp_path / "cfgout").glob("balance_*.csv"))) == 1
