"""Experiment pipeline: config handling, loss curves, load balance
sweeps, and data-path benchmarks with correctness checking.

Loss oracle: the codingsets point (machines=60, k=4, r=2, l=0,
f=0.05) has 10 disjoint groups of 6, C(6,3)*10 = 200 fatal triples
out of C(60,3) = 34220 equally likely ones, so the exact loss is
200/34220. The analytic model collapses to the same number there.
"""

import copy
import dataclasses
import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from codedmem import analysis
from codedmem.coding import CodecParams
from codedmem.errors import ConfigError, InvalidParams, MonotonicityViolation
from codedmem.manager import ManagerConfig
from codedmem.simulator import LatencyModel

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

    @pytest.mark.parametrize(
        "path, values, cell, cells",
        [
            ("trials", [10, 1000], "trials", ["10", "1000"]),
            ("code.k", [2, 6], "groups", ["7", "3"]),
        ],
    )
    def test_each_row_reads_its_swept_config(self, path, values, cell, cells):
        cfg = cfg_of(
            LOSS_CFG,
            cluster={"machines": 30, "slabs_per_machine": 1},
            code={"k": 2, "r": 1},
            schemes=[{"name": "codingsets", "l": 1}],
            failure_fraction=0.1,
            trials=10,
            exact_threshold=0,
            sweep={"path": path, "values": values},
        )
        header, rows = analysis.run_loss_curves(cfg)
        assert [r[header.index(cell)] for r in rows] == cells

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
    # make it fire with two or more machines left, where it draws again.
    # Runs of ranges with pairwise distinct candidates skip the pick loop:
    # 3,001 ranges leave an odd last range, blocks of 50 make a range's 20
    # candidates straddle a refill, n = 200 repeats candidates often, and at
    # n = 25 no run holds two ranges (40 ids)
    @pytest.mark.parametrize("block", [analysis._P2C_BLOCK, 50, 6])
    @pytest.mark.parametrize(
        "n, width, ranges, attempts, dense",
        [
            (10_000, 10, 400, 256, False),
            (10_000, 10, 3_001, 256, False),
            (200, 10, 300, 256, False),
            (25, 10, 100, 256, False),
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

    @pytest.mark.parametrize("n, size", [(1, 5), (3, 50), (40, 200), (10_000, 4096)])
    def test_distinct_reach_ends_the_longest_distinct_run(self, n, size):
        ids = np.random.default_rng(n).integers(0, n, size=size)
        values = ids.tolist()
        expect = []
        for p in range(size):
            e = p
            while e < size and values[e] not in values[p:e]:
                e += 1
            expect.append(e)
        assert analysis._distinct_reach(ids).tolist() == expect

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


# SHA-256 of run_load_balance(BALANCE_2000) rows at seeds [1, 2], fields
# joined by "," and rows by "\n"; recorded on the commit before the
# two-choice, codingsets and eccache balance loops were rewritten
BALANCE_2000_SEEDS_1_2_DIGEST = "5b4c3c9b63a1ff955bb345f91ec124552af0a00c14f2b5db68bc9f7550cb89bf"


class TestPinnedBalanceRows:
    def test_rows_of_2000_machines(self):
        header, rows = analysis.run_load_balance(BALANCE_2000)
        chash = analysis.config_hash(BALANCE_2000)
        assert all(row[1] == chash for row in rows)
        assert [row[:1] + row[2:] for row in rows] == BALANCE_2000_ROWS

    def test_digest_of_2000_machines_seeds_1_2(self):
        _, rows = analysis.run_load_balance(cfg_of(BALANCE_2000, seeds=[1, 2]))
        assert [row[2] for row in rows[::2]] == ["eccache", "codingsets_l2", "power_of_two"]
        text = "\n".join(",".join(row) for row in rows)
        assert hashlib.sha256(text.encode()).hexdigest() == BALANCE_2000_SEEDS_1_2_DIGEST

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

    @pytest.mark.parametrize(
        "overrides, counters",
        [
            # unguarded, so a read that decodes the corrupted split is wrong;
            # two pages per range make the page a frequent read
            (
                {
                    "manager": {"slab_size": 4096},
                    "faults": [
                        {"type": "corrupt", "time_us": 150, "slab": 1, "page_index": 0, "mask": "ff"}
                    ],
                },
                [("R", "wrong")],
            ),
            # r + 1 of the range's slabs fail together; the recovery after the
            # last op leaves a request for the settle loop to drain
            (
                {
                    "faults": [
                        {"type": "fail", "time_us": 40, "machine": 0},
                        {"type": "fail", "time_us": 40, "machine": 1},
                        {"type": "recover", "time_us": 10000, "machine": 0},
                    ]
                },
                [("R", "unrecoverable"), ("W", "unrecoverable")],
            ),
        ],
    )
    def test_failure_counters(self, overrides, counters):
        workload = {"ranges": 1, "operations": 60, "read_fraction": 0.5}
        cfg = cfg_of(DATAPATH_CFG, workload=workload, **overrides)
        header, rows = analysis.run_datapath(cfg)
        table = {(r[header.index("system")], r[header.index("op")]): dict(zip(header, r)) for r in rows}
        for op, column in counters:
            assert int(table[("coded", op)][column]) >= 1, (op, column)

    def test_deterministic_rows(self):
        assert analysis.run_datapath(DATAPATH_CFG) == analysis.run_datapath(DATAPATH_CFG)


SETTINGS_CFG = cfg_of(
    DATAPATH_CFG,
    cluster={"machines": 6, "latency": {"sigma": 0.25, "straggler_prob": 0.05}},
    code={"k": 2, "r": 1, "delta": 1},
    manager={},
)

# a second valid value for each field of the config classes, by dotted path
SECOND_VALUES = {
    "code.k": 3,
    "code.r": 2,
    "code.delta": 0,
    "manager.page_size": 2048,
    "manager.slab_size": 4096,
    "manager.corruption_guard": True,
    "manager.async_parity": False,
    "cluster.latency.median_us": 2.0,
    "cluster.latency.sigma": 0.5,
    "cluster.latency.straggler_prob": 0.2,
    "cluster.latency.straggler_multiplier": 4.0,
    "cluster.latency.encode_us": 1.0,
    "cluster.latency.decode_us": 2.5,
    "cluster.latency.context_switch_us": 1.5,
    "cluster.latency.copy_us": 0.85,
    "cluster.latency.disk_us": 50.0,
}


def setting_paths():
    sections = (("code", CodecParams), ("manager", ManagerConfig), ("cluster.latency", LatencyModel))
    return [f"{where}.{f.name}" for where, cls in sections for f in dataclasses.fields(cls)]


class TestEverySettingCounts:
    """No config field passes validation and changes nothing: the fields
    come from the classes, so a new field needs a second value here."""

    @pytest.fixture(scope="class")
    def base_rows(self):
        return analysis.run_datapath(SETTINGS_CFG)[1]

    @pytest.mark.parametrize("path", setting_paths())
    def test_changing_one_field_changes_a_row(self, base_rows, path):
        cfg = copy.deepcopy(SETTINGS_CFG)
        analysis.set_path(cfg, path, SECOND_VALUES[path])
        rows = analysis.run_datapath(cfg)[1]
        # every row but its confighash, which any change moves
        assert [r[:1] + r[2:] for r in rows] != [r[:1] + r[2:] for r in base_rows]


def test_copies_are_not_network_time():
    # a fault-free run on flat latency: a copy moves the latency cells of
    # both coded ops but neither network cell
    def table(copy_us):
        cfg = cfg_of(
            DATAPATH_CFG,
            cluster={
                "machines": 6,
                "latency": {"median_us": 1.5, "sigma": 0.0, "straggler_prob": 0.0,
                            "copy_us": copy_us},
            },
            workload={"ranges": 2, "operations": 40, "read_fraction": 0.5},
        )
        header, rows = analysis.run_datapath(cfg)
        system, op = header.index("system"), header.index("op")
        return {(r[system], r[op]): dict(zip(header, r)) for r in rows}

    base, copied = table(0.0), table(0.85)
    for key in (("coded", "R"), ("coded", "W")):
        assert copied[key]["network_p50_us"] == base[key]["network_p50_us"] == "1.500", key
        assert float(copied[key]["p50_us"]) > float(base[key]["p50_us"]), key


GUARDED_FAULTED_CFG = cfg_of(
    DATAPATH_CFG,
    seeds=[3],
    cluster={"machines": 9, "latency": {"sigma": 0.25, "straggler_prob": 0.05}},
    code={"k": 4, "r": 3, "delta": 1},
    placement={"l": 2},
    # four pages per range, so reads often land on a corrupted page
    manager={"corruption_guard": True, "slab_size": 4096},
    workload={"ranges": 2, "operations": 300, "read_fraction": 0.7},
    faults=[
        {"type": "fail", "time_us": 200, "machine": 5},
        {"type": "evict", "time_us": 300, "slab": 8},
        {"type": "background_load", "time_us": 400, "until_us": 700, "level": 3.0},
        {"type": "corrupt", "time_us": 400, "slab": 1, "page_index": 0, "mask": "ff"},
        {"type": "corrupt", "time_us": 450, "slab": 12, "page_index": 2, "mask": "00a5"},
        {"type": "recover", "time_us": 500, "machine": 5},
        {"type": "corrupt", "time_us": 600, "slab": 2, "page_index": 1, "mask": "0f"},
        {"type": "corrupt", "time_us": 800, "slab": 10, "page_index": 3, "mask": "0000f0"},
    ],
)

# every row but the confighash, in virtual us
GUARDED_FAULTED_ROWS = [
    ["3", "coded", "R", "209", "3.633", "23.895", "6.442", "0.000", "2.133",
     "0.000", "1.500", "0.000", "0", "4", "0"],
    ["3", "coded", "W", "91", "2.041", "34.681", "4.866", "0.000", "2.041",
     "0.000", "0.000", "4.792", "0", "0", "0"],
    ["3", "replication3", "R", "209", "1.229", "1.769", "1.241", "0.000", "1.229",
     "0.000", "0.000", "0.000", "0", "0", "0"],
    ["3", "replication3", "W", "91", "2.010", "19.963", "4.002", "0.000", "2.010",
     "0.000", "0.000", "2.010", "0", "0", "0"],
    ["3", "ssd_backup", "R", "209", "1.556", "17.236", "2.460", "0.000", "1.556",
     "0.000", "0.000", "0.000", "0", "0", "0"],
    ["3", "ssd_backup", "W", "91", "100.000", "100.000", "100.000", "0.000", "1.489",
     "0.000", "0.000", "100.000", "0", "0", "0"],
]

# SHA-256 of the datapath CSV of GUARDED_FAULTED_CFG at seeds 0, 1 and 2
GUARDED_FAULTED_DIGEST = "50f357426d57278dba15f53005d5cb3abe5c16310f341685034650584534820e"

# GUARDED_FAULTED_CFG with a copy, a context switch and many stragglers: every
# wave, resend and spare read goes out one copy late
COPY_PATH_CFG = cfg_of(
    GUARDED_FAULTED_CFG,
    seeds=[0, 1, 2, 3],
    cluster={
        "machines": 9,
        "latency": {"sigma": 0.25, "straggler_prob": 0.2, "copy_us": 0.85,
                    "context_switch_us": 1.5},
    },
)

# SHA-256 of the datapath CSV of COPY_PATH_CFG, by `async_parity`; with parity
# in the ack path a write pays its context switch at the full conclusion
COPY_PATH_DIGESTS = {
    True: "064dfb40bdaad39589b422f244c0feb4dafc803781e1e5d1df8b923fddc59f40",
    False: "5250817ab86c20bb1ea5524d3e91e2f75f6888c1286624d23ac1f0682245ab86",
}


class TestPinnedDatapathRows:
    """A refactor of the data path, the monitor or the simulator must leave
    the virtual time of a guarded run under every fault type unmoved."""

    def test_guarded_run_under_every_fault_type(self):
        header, rows = analysis.run_datapath(GUARDED_FAULTED_CFG)
        chash = analysis.config_hash(GUARDED_FAULTED_CFG)
        assert all(row[1] == chash for row in rows)
        assert [row[:1] + row[2:] for row in rows] == GUARDED_FAULTED_ROWS
        coded_r = dict(zip(header, rows[0]))
        assert int(coded_r["corrected"]) > 0

    def test_csv_digest_at_three_seeds(self, tmp_path):
        # every virtual value of the run, pinned as the bytes of its CSV; no
        # split is in flight to the machine when it fails, at any seed
        cfg = cfg_of(GUARDED_FAULTED_CFG, seeds=[0, 1, 2])
        header, rows = analysis.run_datapath(cfg)
        path = analysis.emit_report(header, rows, "datapath", analysis.config_hash(cfg), tmp_path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GUARDED_FAULTED_DIGEST

    @pytest.mark.parametrize("async_parity", [True, False])
    def test_copy_path_csv_digest(self, tmp_path, async_parity):
        cfg = copy.deepcopy(COPY_PATH_CFG)
        cfg["manager"]["async_parity"] = async_parity
        header, rows = analysis.run_datapath(cfg)
        path = analysis.emit_report(header, rows, "datapath", analysis.config_hash(cfg), tmp_path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == COPY_PATH_DIGESTS[async_parity]


def scalar_workload(wcfg, capacity, seed):
    """The op list from one numpy scalar call per draw: the reference the
    raw-word `gen_workload` must equal op for op."""
    count = int(wcfg["operations"])
    ranges = int(wcfg["ranges"])
    read_fraction = float(wcfg.get("read_fraction", 0.5))
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x301C)))
    ops = []
    for _ in range(count):
        rid = int(rng.integers(0, ranges))
        page = int(rng.integers(0, capacity))
        if rng.random() < read_fraction:
            ops.append(("R", rid, page, None))
        else:
            ops.append(("W", rid, page, int(rng.integers(0, 2**32))))
    return ops


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

    @pytest.mark.parametrize(
        "operations, ranges, capacity, read_fraction",
        [
            (3000, 1000, 4, 0.3),  # write_fault_soak's shape
            (3000, 8, 128, 0.9),  # read_mostly's shape
            (400, 1, 1, 0.5),  # a bound of 1 draws nothing
            (400, 7, 3, 0.0),
            (400, 7, 3, 1.0),
            (400, 2**31 + 5, 9, 0.5),  # half of all 32-bit draws are rejected
            (400, 3, 2**32 - 3, 0.5),
            (400, 2**32, 2**40 + 7, 0.5),  # one whole 32-bit draw; whole words
        ],
    )
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_scalar_draws(self, operations, ranges, capacity, read_fraction, seed):
        wcfg = {"operations": operations, "ranges": ranges, "read_fraction": read_fraction}
        ops = analysis.gen_workload(wcfg, capacity, seed)
        assert ops == scalar_workload(wcfg, capacity, seed)

    @pytest.mark.parametrize("ranges, capacity", [(0, 4), (4, 0), (2**63 + 1, 4)])
    def test_out_of_range_bounds_raise(self, ranges, capacity):
        wcfg = {"operations": 10, "ranges": ranges}
        for generate in (analysis.gen_workload, scalar_workload):
            with pytest.raises(ValueError):
                generate(wcfg, capacity, 0)

    def test_draws_only_raw_word_blocks(self, monkeypatch):
        # the host cost of the draws as a count: the numpy generator calls one
        # 3,000-op workload makes, each a block of raw words; at least three
        # per op when each draw was a scalar numpy call. numpy's generator
        # methods are compiled, so no profiler event sees them: counting
        # subclasses stand in for the generator and its bit generator
        operations = 3000
        calls = []

        class CountedBits(np.random.PCG64):
            def random_raw(self, *args, **kwargs):
                calls.append("random_raw")
                return super().random_raw(*args, **kwargs)

        class CountedGenerator(np.random.Generator):
            def __getattribute__(self, name):
                calls.append(name)
                return super().__getattribute__(name)

        monkeypatch.setattr(np.random, "PCG64", CountedBits)
        monkeypatch.setattr(
            np.random, "default_rng", lambda seed: CountedGenerator(CountedBits(seed))
        )
        wcfg = {"operations": operations, "ranges": 1000, "read_fraction": 0.3}
        analysis.gen_workload(wcfg, 4, 1)
        assert set(calls) == {"random_raw"}
        assert len(calls) <= -(-4 * operations // analysis._RAW_BLOCK) + 1


class TestPagePayload:
    @pytest.mark.parametrize("size", [1, 63, 64, 4096, 4097])
    @pytest.mark.parametrize("seed", [0, 1, 0xFA6E, 2**32 - 1, 2**32, 2**70 + 3])
    def test_equals_generator_bytes(self, seed, size):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xFA6E)))
        assert analysis.page_payload(seed, size) == rng.bytes(size)

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError):
            analysis.page_payload(-1, 64)


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
