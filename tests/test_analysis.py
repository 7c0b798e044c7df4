"""Experiment pipeline: config handling, loss curves, load balance
sweeps, and data-path benchmarks with correctness checking.

Loss oracle: the codingsets point (machines=60, k=4, r=2, l=0,
f=0.05) has 10 disjoint groups of 6, C(6,3)*10 = 200 fatal triples
out of C(60,3) = 34220 equally likely ones, so the exact loss is
200/34220. The analytic model collapses to the same number there.
"""

import copy
import json
from fractions import Fraction

import numpy as np
import pytest

from codedmem import analysis
from codedmem.errors import ConfigError, InvalidParams, MonotonicityViolation

LOSS_CFG = {
    "schema_version": 1,
    "scenario": "loss",
    "seeds": [0],
    "cluster": {"machines": 60, "slabs_per_machine": 4},
    "code": {"k": 4, "r": 2},
    "schemes": [{"name": "codingsets", "l": 0}],
    "failure_fraction": 0.05,
    "trials": 20000,
    "exact_threshold": 100000,
    "sweep": {"path": "failure_fraction", "values": [0.05, 0.1]},
}

BALANCE_CFG = {
    "schema_version": 1,
    "scenario": "balance",
    "seeds": [0, 1],
    "cluster": {"machines": 30, "slabs_per_machine": 2},
    "code": {"k": 2, "r": 1},
    "policies": [
        {"name": "eccache"},
        {"name": "codingsets", "l": 2},
        {"name": "power_of_two"},
    ],
}

DATAPATH_CFG = {
    "schema_version": 1,
    "scenario": "datapath",
    "seeds": [0],
    "cluster": {
        "machines": 6,
        "latency": {"median_us": 1.5, "sigma": 0.25, "straggler_prob": 0.0},
    },
    "code": {"k": 2, "r": 1, "delta": 0},
    "placement": {"l": 1},
    "workload": {"ranges": 2, "operations": 120, "read_fraction": 0.5},
    "baselines": [{"name": "replication", "copies": 3}, {"name": "ssd_backup"}],
}


def cfg_of(base, **overrides):
    cfg = copy.deepcopy(base)
    cfg.update(overrides)
    return cfg


class TestConfig:
    def test_yaml_roundtrip(self, tmp_path):
        import yaml

        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(LOSS_CFG))
        cfg = analysis.load_config(path)
        assert cfg["scenario"] == "loss"
        assert cfg["seeds"] == [0]

    @pytest.mark.parametrize(
        "breakage",
        [
            {"schema_version": 2},
            {"scenario": "warp"},
            {"seeds": []},
            {"seeds": "zero"},
            {"sweep": {"path": "no.such.key", "values": [1]}},
            {"sweep": {"path": "failure_fraction"}},
        ],
    )
    def test_validation_rejects(self, breakage):
        with pytest.raises(ConfigError):
            analysis.validate_config(cfg_of(LOSS_CFG, **breakage))

    def test_missing_schema_version(self):
        cfg = copy.deepcopy(LOSS_CFG)
        del cfg["schema_version"]
        with pytest.raises(ConfigError):
            analysis.validate_config(cfg)

    def test_hash_is_stable_and_order_free(self):
        a = analysis.config_hash(LOSS_CFG)
        shuffled = dict(reversed(list(copy.deepcopy(LOSS_CFG).items())))
        assert analysis.config_hash(shuffled) == a
        assert len(a) == 12
        assert int(a, 16) >= 0

    def test_hash_ignores_output_dir(self):
        assert analysis.config_hash(
            cfg_of(LOSS_CFG, output_dir="/tmp/x")
        ) == analysis.config_hash(LOSS_CFG)

    def test_hash_changes_with_content(self):
        assert analysis.config_hash(cfg_of(LOSS_CFG, trials=9)) != analysis.config_hash(
            LOSS_CFG
        )

    def test_dotted_paths(self):
        cfg = copy.deepcopy(LOSS_CFG)
        assert analysis.get_path(cfg, "cluster.machines") == 60
        analysis.set_path(cfg, "cluster.machines", 99)
        assert cfg["cluster"]["machines"] == 99


class TestLossCurves:
    def test_codingsets_point_matches_enumeration(self):
        header, rows = analysis.run_loss_curves(LOSS_CFG)
        assert header[0] == "seed"
        point = [r for r in rows if r[header.index("sweep_value")] == repr(0.05)]
        assert len(point) == 1
        row = dict(zip(header, point[0]))
        expect = float(Fraction(200, 34220))
        assert float(row["analytic"]) == pytest.approx(expect, rel=1e-12)
        assert float(row["exact"]) == pytest.approx(expect, rel=1e-12)
        est = float(row["mc_estimate"])
        hw = float(row["mc_halfwidth"])
        assert abs(est - expect) <= 3 * hw
        assert row["failed_machines"] == "3"
        assert row["groups"] == "10"
        assert row["copysets"] == "200"

    def test_exact_skipped_above_threshold(self):
        cfg = cfg_of(LOSS_CFG, exact_threshold=10)
        header, rows = analysis.run_loss_curves(cfg)
        assert all(r[header.index("exact")] == "" for r in rows)

    def test_rows_cover_sweep_and_seeds(self):
        cfg = cfg_of(LOSS_CFG, seeds=[0, 7])
        header, rows = analysis.run_loss_curves(cfg)
        assert len(rows) == 2 * 2  # sweep points x seeds
        seeds = {r[0] for r in rows}
        assert seeds == {"0", "7"}

    def test_monotonicity_guard_trips_on_bad_model(self, monkeypatch):
        calls = iter([0.5, 0.4, 0.3, 0.2])

        def fake(scheme, shape, params, l):
            return next(calls)

        monkeypatch.setattr(analysis, "loss_probability_analytic", fake)
        cfg = cfg_of(LOSS_CFG, trials=10)
        with pytest.raises(MonotonicityViolation) as err:
            analysis.run_loss_curves(cfg)
        assert "failure_fraction" in str(err.value)

    def test_deterministic_rows(self):
        assert analysis.run_loss_curves(LOSS_CFG) == analysis.run_loss_curves(LOSS_CFG)


class TestLoadBalance:
    def test_row_shape(self):
        header, rows = analysis.run_load_balance(BALANCE_CFG)
        assert len(rows) == 3 * 2  # policies x seeds
        for r in rows:
            row = dict(zip(header, r))
            assert float(row["max_to_min"]) >= 1.0
            assert 0.0 <= float(row["min_utilization"]) <= 1.0 + 1e-9
            assert float(row["cv"]) >= 0.0
            assert row["ranges"] == "20"

    def test_policy_labels(self):
        header, rows = analysis.run_load_balance(BALANCE_CFG)
        labels = {r[header.index("policy")] for r in rows}
        assert labels == {"eccache", "codingsets_l2", "power_of_two"}

    def test_deterministic_rows(self):
        assert analysis.run_load_balance(BALANCE_CFG) == analysis.run_load_balance(
            BALANCE_CFG
        )


def _p2c_distinct(loads, used, rng, n, attempts, fallbacks):
    """The scalar two-choice pick: two ``rng.integers`` calls per attempt."""
    for _ in range(attempts):
        a = int(rng.integers(0, n))
        b = int(rng.integers(0, n))
        if a == b or a in used or b in used:
            continue
        if loads[a] < loads[b]:
            return a
        if loads[b] < loads[a]:
            return b
        return min(a, b)
    fallbacks.append(len(used))
    avail = [m for m in range(n) if m not in used]
    if not avail:
        raise InvalidParams("no machines left for distinct placement")
    if len(avail) == 1:
        return avail[0]
    pick = rng.choice(len(avail), size=2, replace=False)
    a, b = avail[int(pick[0])], avail[int(pick[1])]
    if loads[a] < loads[b]:
        return a
    if loads[b] < loads[a]:
        return b
    return min(a, b)


def _scalar_two_choice_loads(n, width, ranges, rng, attempts, fallbacks):
    loads = np.zeros(n, dtype=np.float64)
    for _ in range(ranges):
        used = set()
        for _ in range(width):
            m = _p2c_distinct(loads, used, rng, n, attempts, fallbacks)
            used.add(m)
            loads[m] += 1.0
    return loads


class TestTwoChoice:
    """Block-drawn two-choice placement against the scalar reference loop."""

    # the fallback fires on every last pick when n == width; fewer attempts
    # make it fire with two or more machines left, where it draws again
    @pytest.mark.parametrize("block", [analysis._P2C_BLOCK, 6])
    @pytest.mark.parametrize(
        "n, width, ranges, attempts, dense",
        [
            (10_000, 10, 400, 256, False),
            (10, 10, 20, 256, True),
            (12, 12, 20, 256, True),
            (3, 3, 20, 256, True),
            (3, 2, 300, 2, True),
            (50, 10, 100, 3, True),
        ],
    )
    def test_matches_scalar_loop(self, monkeypatch, block, n, width, ranges, attempts, dense):
        monkeypatch.setattr(analysis, "_P2C_BLOCK", block)
        monkeypatch.setattr(analysis, "_P2C_ATTEMPTS", attempts)
        fallbacks = []
        expect = _scalar_two_choice_loads(
            n, width, ranges, np.random.default_rng(5), attempts, fallbacks
        )
        got = analysis._two_choice_loads(n, width, ranges, np.random.default_rng(5))
        assert np.array_equal(np.asarray(got, dtype=np.float64), expect)
        assert bool(fallbacks) == dense
        if attempts < 256:
            assert min(fallbacks) <= n - 2  # some fallbacks chose among 2+ machines

    @pytest.mark.parametrize("n", [12, 10_000, 2**33])
    def test_block_draws_are_scalar_draws(self, n):
        scalar = np.random.default_rng(3)
        block = np.random.default_rng(3)
        expect = [int(scalar.integers(0, n)) for _ in range(7)]
        assert block.integers(0, n, size=7).tolist() == expect
        assert block.bit_generator.state == scalar.bit_generator.state

    def test_width_above_machines_rejected(self):
        with pytest.raises(InvalidParams, match="no machines left"):
            analysis._two_choice_loads(3, 4, 1, np.random.default_rng(0))


BALANCE_2000 = cfg_of(
    BALANCE_CFG,
    cluster={"machines": 2000, "slabs_per_machine": 16},
    code={"k": 8, "r": 2},
)

# run_load_balance(BALANCE_2000) of the per-pick scalar loop, without the hash
BALANCE_2000_ROWS = [
    ["0", "eccache", "0", "3200", "2000", "6.0", "0.24895092387858295", "0.3125", "0"],
    ["1", "eccache", "0", "3200", "2000", "7.5", "0.2521857574289238", "0.25", "0"],
    ["0", "codingsets_l2", "2", "3200", "2000", "3.125", "0.22515619578417112", "0.5", "0"],
    ["1", "codingsets_l2", "2", "3200", "2000", "3.7142857142857144", "0.2260911044247429",
     "0.4375", "0"],
    ["0", "power_of_two", "0", "3200", "2000", "1.5", "0.058429979462601214", "0.75", "0"],
    ["1", "power_of_two", "0", "3200", "2000", "1.6363636363636365", "0.05832961297660049",
     "0.6875", "0"],
]


class TestPinnedBalanceRows:
    def test_rows_of_2000_machines(self):
        header, rows = analysis.run_load_balance(BALANCE_2000)
        chash = analysis.config_hash(BALANCE_2000)
        assert all(row[1] == chash for row in rows)
        assert [row[:1] + row[2:] for row in rows] == BALANCE_2000_ROWS

    def test_power_of_two_on_10000_machines(self):
        cfg = cfg_of(
            BALANCE_2000,
            seeds=[1],
            cluster={"machines": 10_000, "slabs_per_machine": 16},
            policies=[{"name": "power_of_two"}],
        )
        header, rows = analysis.run_load_balance(cfg)
        row = dict(zip(header, rows[0]))
        assert (row["ranges"], row["max_to_min"], row["cv"]) == (
            "16000", "1.9", "0.05939802185258361"
        )


class TestDatapath:
    def test_systems_and_correctness(self):
        header, rows = analysis.run_datapath(DATAPATH_CFG)
        table = {(r[header.index("system")], r[header.index("op")]): dict(zip(header, r)) for r in rows}
        assert set(table) == {
            ("coded", "R"),
            ("coded", "W"),
            ("replication3", "R"),
            ("replication3", "W"),
            ("ssd_backup", "R"),
            ("ssd_backup", "W"),
        }
        for row in table.values():
            assert row["wrong"] == "0"
            assert row["unrecoverable"] == "0"
            assert float(row["p50_us"]) > 0.0
            assert float(row["p99_us"]) >= float(row["p50_us"])
        coded_w = table[("coded", "W")]
        # parity finishes after the ack in async mode
        assert float(coded_w["durable_p50_us"]) > float(coded_w["p50_us"])

    def test_counts_match_workload_mix(self):
        header, rows = analysis.run_datapath(DATAPATH_CFG)
        counts = {
            (r[header.index("system")], r[header.index("op")]): int(r[header.index("count")])
            for r in rows
        }
        total = DATAPATH_CFG["workload"]["operations"]
        assert counts[("coded", "R")] + counts[("coded", "W")] == total
        assert counts[("coded", "R")] == counts[("replication3", "R")]

    def test_survives_single_failure_fault(self):
        cfg = cfg_of(
            DATAPATH_CFG,
            faults=[{"type": "fail", "time_us": 40.0, "machine": 0}],
        )
        header, rows = analysis.run_datapath(cfg)
        for r in rows:
            row = dict(zip(header, r))
            if row["system"] == "coded":
                assert row["wrong"] == "0"
                assert row["unrecoverable"] == "0"

    def test_deterministic_rows(self):
        assert analysis.run_datapath(DATAPATH_CFG) == analysis.run_datapath(DATAPATH_CFG)


class TestWorkload:
    def test_generation_is_seeded(self):
        ops_a = analysis.gen_workload(DATAPATH_CFG["workload"], capacity=32, seed=5)
        ops_b = analysis.gen_workload(DATAPATH_CFG["workload"], capacity=32, seed=5)
        ops_c = analysis.gen_workload(DATAPATH_CFG["workload"], capacity=32, seed=6)
        assert ops_a == ops_b
        assert ops_a != ops_c
        assert len(ops_a) == 120
        for op, rid, page, pseed in ops_a:
            assert op in ("R", "W")
            assert 0 <= rid < 2
            assert 0 <= page < 32
            assert (pseed is None) == (op == "R")

    def test_trace_roundtrip(self, tmp_path):
        ops = analysis.gen_workload(DATAPATH_CFG["workload"], capacity=16, seed=1)
        path = tmp_path / "trace.csv"
        analysis.write_trace(path, ops)
        assert analysis.parse_trace(path) == ops
        assert path.read_text().splitlines()[0] == "op,range_id,page_index,payload_seed"


class TestEmit:
    def test_csv_is_byte_stable(self, tmp_path):
        header, rows = analysis.run_loss_curves(LOSS_CFG)
        chash = analysis.config_hash(LOSS_CFG)
        p1 = analysis.emit_report(header, rows, "loss", chash, tmp_path / "a")
        p2 = analysis.emit_report(header, rows, "loss", chash, tmp_path / "b")
        assert p1.name == f"loss_{chash}.csv"
        assert p1.read_bytes() == p2.read_bytes()

    def test_rows_tagged_with_seed_and_hash(self, tmp_path):
        header, rows = analysis.run_load_balance(BALANCE_CFG)
        chash = analysis.config_hash(BALANCE_CFG)
        path = analysis.emit_report(header, rows, "balance", chash, tmp_path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("seed,confighash,")
        for line in lines[1:]:
            assert line.split(",")[1] == chash
