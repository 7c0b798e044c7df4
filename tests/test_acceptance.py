"""End-to-end acceptance gate.

Each test exercises one system-level guarantee at its stated tolerance,
from raw codec arithmetic up through the full fault-injected data path
and the reporting pipeline. The terminal summary prints one PASS/FAIL
line per criterion (see conftest.py).

Latency assertions are ratio- and ordering-based on virtual time;
absolute wall-clock figures are hardware-bound and deliberately not
asserted, except for coarse runtime budgets on the heavy computations.
"""

import itertools
import time
from fractions import Fraction

import numpy as np
from invariants import check_invariants

from codedmem import analysis, coding
from codedmem.coding import CodecParams, make_codec, min_splits
from codedmem.manager import ManagerConfig, ResilienceManager
from codedmem.placement import (
    ClusterShape,
    build_codingsets,
    build_eccache,
    count_copysets,
    loss_probability_analytic,
    loss_probability_montecarlo,
)
from codedmem.simulator import Cluster, LatencyModel, MachineState

PAGE = 4096
ZERO = bytes(PAGE)


def build_stack(n, params, l, seed, config=None, latency=None, machine_bytes=1 << 23):
    latency = latency or LatencyModel(median_us=1.5, sigma=0.25)
    cluster = Cluster(n, latency=latency, machine_bytes=machine_bytes, seed=seed)
    plan = build_codingsets(ClusterShape(machines=n), params, l, seed=seed)
    manager = ResilienceManager(cluster, plan, params, config=config, seed=seed)
    return cluster, manager


def settle(cluster, manager, rounds=8):
    """Run to idle, draining any queued slab regenerations, then check the
    state invariants."""
    cluster.run_until_idle()
    for _ in range(rounds):
        if not manager.regeneration_requests:
            check_invariants(manager)
            return
        manager.drain_regeneration()
        cluster.run_until_idle()
    raise AssertionError("regeneration backlog never settled")


def expected_split(codec, page, role):
    """Recompute the split a healthy encode would store for this role."""
    return coding.codeword(codec, page)[role]


def test_criterion_01_erasure_roundtrip_exhaustive():
    started = time.monotonic()
    codec = make_codec(CodecParams(k=8, r=2))
    rng = np.random.default_rng(1)
    subsets = list(itertools.combinations(range(10), 8))
    assert len(subsets) == 45
    for _ in range(100):
        page = rng.bytes(PAGE)
        splits = list(enumerate(coding.codeword(codec, page)))
        for subset in subsets:
            assert coding.decode(codec, [splits[i] for i in subset]) == page
    assert time.monotonic() - started < 5.0


def test_criterion_02_detection_correction_thresholds():
    codec = make_codec(CodecParams(k=8, r=3, delta=1))
    rng = np.random.default_rng(2)
    for _ in range(100):
        page = rng.bytes(PAGE)
        splits = list(enumerate(coding.codeword(codec, page)))

        nine = [splits[i] for i in rng.choice(11, size=9, replace=False)]
        assert not coding.detect_corruption(codec, nine, 1)  # clean: no false alarm
        victim = int(rng.integers(0, 9))
        corrupted = bytearray(nine[victim][1])
        corrupted[int(rng.integers(0, len(corrupted)))] ^= int(rng.integers(1, 256))
        nine[victim] = (nine[victim][0], bytes(corrupted))
        assert coding.detect_corruption(codec, nine, 1)  # corrupted: no miss

        eleven = list(splits)
        victim = int(rng.integers(0, 11))
        corrupted = bytearray(eleven[victim][1])
        corrupted[int(rng.integers(0, len(corrupted)))] ^= int(rng.integers(1, 256))
        eleven[victim] = (eleven[victim][0], bytes(corrupted))
        fixed, bad_roles = coding.correct_corruption(codec, eleven, 1)
        assert fixed == page
        assert bad_roles == {eleven[victim][0]}

    params = CodecParams(k=8, r=2, delta=1)
    assert min_splits("failure", params) == (8, Fraction(5, 4))
    assert min_splits("detect", params) == (9, Fraction(9, 8))
    assert min_splits("correct", params) == (11, Fraction(11, 8))
    assert float(min_splits("failure", params)[1]) == 1.25
    assert float(min_splits("detect", params)[1]) == 1.125
    assert float(min_splits("correct", params)[1]) == 1.375


def test_criterion_03_copyset_counts():
    params = CodecParams(k=8, r=2)
    single = build_codingsets(ClusterShape(machines=10), params, 0, seed=3)
    assert len(single.groups) == 1
    assert count_copysets(single, params) == 120

    extended = build_codingsets(ClusterShape(machines=12), params, 2, seed=3)
    assert len(extended.groups) == 1
    assert count_copysets(extended, params) == 220

    two_groups = build_codingsets(ClusterShape(machines=24), params, 2, seed=3)
    assert len(two_groups.groups) == 2
    assert count_copysets(two_groups, params) == 440  # 220 per group


def test_criterion_04_exhaustive_vs_sampled_loss():
    started = time.monotonic()
    shape = ClusterShape(machines=60, slabs_per_machine=4, failure_fraction=0.05)
    params = CodecParams(k=4, r=2)
    plan = build_codingsets(shape, params, 0, seed=1)
    exact = analysis.exhaustive_loss(plan, shape, params)
    assert exact == Fraction(200, 34220)  # 10 disjoint groups x C(6,3) fatal triples
    estimate, halfwidth = loss_probability_montecarlo(plan, shape, params, 100_000, seed=1)
    assert abs(estimate - float(exact)) <= 3 * halfwidth
    analytic = loss_probability_analytic("codingsets", shape, params, 0)
    # documented tolerance: the closed form is an approximation, within 2x
    assert float(exact) / 2 <= analytic <= 2 * float(exact)
    assert time.monotonic() - started < 30.0


def test_criterion_05_availability_separation():
    started = time.monotonic()
    shape = ClusterShape(machines=1000, slabs_per_machine=16, failure_fraction=0.01)
    params = CodecParams(k=8, r=2)
    analytic_ec = loss_probability_analytic("eccache", shape, params, 0)
    analytic_cs = loss_probability_analytic("codingsets", shape, params, 2)
    assert analytic_ec / analytic_cs >= 5.0
    ec_est, ec_hw = loss_probability_montecarlo(
        build_eccache(shape, params, seed=1), shape, params, 100_000, seed=1
    )
    cs_est, cs_hw = loss_probability_montecarlo(
        build_codingsets(shape, params, 2, seed=1), shape, params, 100_000, seed=1
    )
    assert ec_est > cs_est
    assert ec_est - ec_hw > cs_est + cs_hw  # non-overlapping 95% CIs
    assert time.monotonic() - started < 60.0


def test_criterion_06_load_balance_ordering():
    started = time.monotonic()
    cfg = {
        "schema_version": 1,
        "scenario": "balance",
        "seeds": list(range(20)),
        "cluster": {"machines": 10_000, "slabs_per_machine": 16},
        "code": {"k": 8, "r": 2},
        "policies": [
            {"name": "power_of_two"},
            {"name": "codingsets", "l": 4},
            {"name": "codingsets", "l": 2},
            {"name": "eccache"},
        ],
    }
    header, rows = analysis.run_load_balance(cfg)
    policy_col, ratio_col = header.index("policy"), header.index("max_to_min")
    ratios = {}
    for row in rows:
        ratios.setdefault(row[policy_col], []).append(float(row[ratio_col]))
    mean = {name: float(np.mean(vals)) for name, vals in ratios.items()}
    assert all(len(vals) == 20 for vals in ratios.values())
    assert (
        mean["power_of_two"]
        <= mean["codingsets_l4"]
        <= mean["codingsets_l2"]
        <= mean["eccache"]
    )
    assert time.monotonic() - started < 60.0


def _read_latencies(delta, targets):
    latency = LatencyModel(
        median_us=1.5, sigma=0.25, straggler_prob=0.05, straggler_multiplier=10.0
    )
    params = CodecParams(k=2, r=2, delta=delta)
    cluster, manager = build_stack(8, params, 0, seed=11, latency=latency,
                                   machine_bytes=1 << 24)
    n_ranges, pages = 64, 32
    for rid in range(n_ranges):
        manager.map_range(rid)
    payload_rng = np.random.default_rng(3)
    payload = {}
    for rid in range(n_ranges):
        for page in range(pages):
            data = payload_rng.bytes(PAGE)
            payload[(rid, page)] = data
            manager.remote_write(rid, page, data)
    nanos = []
    for rid, page in targets:
        op = manager.submit_read(rid, page)
        manager.drive(op)
        done = op.completion
        assert done.outcome == "ok" and done.page == payload[(rid, page)]
        nanos.append(done.completed_ns - done.submitted_ns)
    cluster.run_until_idle()
    return np.asarray(nanos, dtype=np.float64)


def test_criterion_07_late_binding_absorbs_stragglers():
    rng = np.random.default_rng(7)
    targets = [
        (int(rng.integers(0, 64)), int(rng.integers(0, 32))) for _ in range(10_000)
    ]
    plain = _read_latencies(0, targets)
    hedged = _read_latencies(1, targets)
    p99_plain, p99_hedged = np.percentile(plain, 99), np.percentile(hedged, 99)
    p50_plain, p50_hedged = np.percentile(plain, 50), np.percentile(hedged, 50)
    assert p99_plain >= 2.0 * p99_hedged
    assert p50_hedged / p50_plain <= 1.10


def test_criterion_08_async_parity_hides_encode():
    latency = LatencyModel(median_us=1.5, sigma=0.35)
    params = CodecParams(k=8, r=4)
    p50 = {}
    for async_mode in (True, False):
        cluster, manager = build_stack(
            12, params, 0, seed=21, latency=latency,
            config=ManagerConfig(async_parity=async_mode), machine_bytes=1 << 26,
        )
        for rid in range(16):
            manager.map_range(rid)
        rng = np.random.default_rng(5)
        nanos = []
        for _ in range(10_000):
            rid, page = int(rng.integers(0, 16)), int(rng.integers(0, 128))
            op = manager.submit_write(rid, page, rng.bytes(PAGE))
            manager.drive(op)
            done = op.completion
            assert done.outcome == "durable"
            nanos.append(done.completed_ns - done.submitted_ns)
        p50[async_mode] = float(np.percentile(nanos, 50))
        cluster.run_until_idle()
    encode_ns = 700
    assert p50[True] <= p50[False] - encode_ns


def test_criterion_09_read_your_writes_under_faults():
    # part 1: random evictions and machine failures, at most r at a time
    params = CodecParams(k=8, r=2)
    cluster, manager = build_stack(24, params, 2, seed=9)
    n_ranges, pages = 8, 64
    for rid in range(n_ranges):
        manager.map_range(rid)
    rng = np.random.default_rng(90)
    shadow = {}
    wrong = unrecoverable = 0
    fault_round = 0
    recover_at = {}
    for i in range(10_000):
        if i % 250 == 249:
            settle(cluster, manager)
            for machine_id in [m for m, due in recover_at.items() if due <= i]:
                cluster.recover_machine(machine_id)
                del recover_at[machine_id]
            fault_round += 1
            if fault_round % 4 == 0:
                up = [
                    m.machine_id
                    for m in cluster.machines
                    if m.state is MachineState.UP and m.machine_id not in recover_at
                ]
                hosting = sorted({
                    ref.machine_id
                    for arange in manager.ranges.values()
                    for ref in arange.refs
                    if ref.machine_id in up
                })
                victim = hosting[int(rng.integers(0, len(hosting)))]
                cluster.fail_machine(victim)
                recover_at[victim] = i + 500
            else:
                arange = manager.ranges[int(rng.integers(0, n_ranges))]
                healthy = arange.healthy_refs()
                count = 2 if fault_round % 3 == 0 else 1
                for ref in healthy[: min(count, len(healthy) - params.k)]:
                    cluster.evict_slab(ref.slab_id)
        rid = int(rng.integers(0, n_ranges))
        page = int(rng.integers(0, pages))
        if rng.random() < 0.5:
            payload = np.random.default_rng((i, 17)).bytes(PAGE)
            op = manager.submit_write(rid, page, payload)
            manager.drive(op)
            if op.completion.outcome == "write-failed":
                unrecoverable += 1
            else:
                shadow[(rid, page)] = payload
        else:
            op = manager.submit_read(rid, page)
            manager.drive(op)
            if op.completion.outcome != "ok":
                unrecoverable += 1
            elif op.completion.page != shadow.get((rid, page), ZERO):
                wrong += 1
        if manager.regeneration_requests:
            manager.drain_regeneration()
    settle(cluster, manager)
    assert wrong == 0
    assert unrecoverable == 0

    # part 2: at most delta corruptions visible per read, guard on
    params = CodecParams(k=8, r=3, delta=1)
    cluster, manager = build_stack(
        11, params, 0, seed=29, config=ManagerConfig(corruption_guard=True)
    )
    n_ranges, pages = 4, 64
    for rid in range(n_ranges):
        manager.map_range(rid)
    rng = np.random.default_rng(91)
    shadow = {}
    wrong = unrecoverable = corrected = injected = 0
    dirty = set()
    for i in range(10_000):
        rid = int(rng.integers(0, n_ranges))
        page = int(rng.integers(0, pages))
        if rng.random() < 0.5:
            payload = np.random.default_rng((i, 23)).bytes(PAGE)
            op = manager.submit_write(rid, page, payload)
            manager.drive(op)
            assert op.completion.outcome in ("durable", "degraded")
            shadow[(rid, page)] = payload
            dirty.discard((rid, page))  # a rewrite replaces the corrupted split
        else:
            if (rid, page) in shadow and (rid, page) not in dirty and rng.random() < 0.4:
                healthy = manager.ranges[rid].healthy_refs()
                ref = healthy[int(rng.integers(0, len(healthy)))]
                store = cluster.slabs[ref.slab_id].store
                if page in store:
                    cluster.corrupt_slab(
                        ref.slab_id,
                        page,
                        bytes([int(rng.integers(1, 256))]),
                        offset=int(rng.integers(0, len(store[page]))),
                    )
                    dirty.add((rid, page))
                    injected += 1
            op = manager.submit_read(rid, page)
            manager.drive(op)
            if op.completion.outcome != "ok":
                unrecoverable += 1
            elif op.completion.page != shadow.get((rid, page), ZERO):
                wrong += 1
            if op.completion.corrected:
                corrected += 1
        if manager.regeneration_requests:
            manager.drain_regeneration()
    settle(cluster, manager)
    assert injected > 0 and corrected > 0
    assert wrong == 0
    assert unrecoverable == 0

    # part 3: r+1 simultaneous failures lose exactly the affected range
    params = CodecParams(k=8, r=2)
    cluster, manager = build_stack(30, params, 0, seed=31)
    picked = {}
    rid = 0
    while len(picked) < 3:
        gid = manager.plan.group_for_range(rid)
        picked.setdefault(gid, rid)
        rid += 1
    ranges = sorted(picked.values())
    payload = {}
    for rid in ranges:
        manager.map_range(rid)
        for page in range(4):
            data = np.random.default_rng((rid, page)).bytes(PAGE)
            payload[(rid, page)] = data
            assert manager.remote_write(rid, page, data).outcome == "durable"
    victim = ranges[1]
    for machine_id in [ref.machine_id for ref in manager.ranges[victim].refs[:3]]:
        cluster.fail_machine(machine_id)
    for _ in range(4):
        if manager.regeneration_requests:
            manager.drain_regeneration()
        cluster.run_until_idle()
    outcomes = {}
    for rid in ranges:
        op = manager.submit_read(rid, 2)
        manager.drive(op)
        outcomes[rid] = op.completion.outcome
        if op.completion.outcome == "ok":
            assert op.completion.page == payload[(rid, 2)]
    cluster.run_until_idle()
    assert outcomes[victim] == "unrecoverable"
    assert all(out == "ok" for rid, out in outcomes.items() if rid != victim)


def test_criterion_10_regeneration_equivalence():
    params = CodecParams(k=4, r=2)
    pages = 16
    for role in range(6):
        cluster, manager = build_stack(10, params, 2, seed=40 + role)
        manager.map_range(0)
        payload = {}
        for page in range(pages):
            data = np.random.default_rng((role, page)).bytes(PAGE)
            payload[page] = data
            assert manager.remote_write(0, page, data).outcome == "durable"
        evicted_slab = manager.ranges[0].refs[role].slab_id  # the slot takes a new slab on rebuild
        cluster.evict_slab(evicted_slab)
        assert manager.regeneration_requests
        manager.drain_regeneration()
        # reads served while the rebuild is in flight stay correct
        for page in (0, pages // 2, pages - 1):
            assert manager.remote_read(0, page) == payload[page]
        settle(cluster, manager)
        rebuilt = manager.ranges[0].refs[role]
        assert rebuilt.slab_id != evicted_slab
        store = cluster.slabs[rebuilt.slab_id].store
        for page in range(pages):
            assert store[page] == expected_split(manager.codec, payload[page], role)
        # the range survives a later fault, proving the rebuild is usable
        cluster.evict_slab(manager.ranges[0].refs[(role + 1) % 6].slab_id)
        manager.drain_regeneration()
        assert manager.remote_read(0, 1) == payload[1]
        settle(cluster, manager)


def test_criterion_11_reruns_are_byte_identical(tmp_path):
    loss_cfg = {
        "schema_version": 1,
        "scenario": "loss",
        "seeds": [0, 1],
        "cluster": {"machines": 30, "slabs_per_machine": 2},
        "code": {"k": 2, "r": 1},
        "schemes": [{"name": "codingsets", "l": 1}, {"name": "eccache"}],
        "failure_fraction": 0.1,
        "trials": 5000,
        "sweep": {"path": "failure_fraction", "values": [0.1, 0.2]},
    }
    balance_cfg = {
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
    datapath_cfg = {
        "schema_version": 1,
        "scenario": "datapath",
        "seeds": [0],
        "cluster": {
            "machines": 8,
            "latency": {"sigma": 0.25, "straggler_prob": 0.02},
        },
        "code": {"k": 2, "r": 1, "delta": 0},
        "placement": {"l": 1},
        "workload": {"ranges": 4, "operations": 300, "read_fraction": 0.6},
        "baselines": [{"name": "replication", "copies": 3}, {"name": "ssd_backup"}],
        "faults": [{"type": "fail", "time_us": 120.0, "machine": 1}],
    }
    for cfg in (loss_cfg, balance_cfg, datapath_cfg):
        runner = analysis.RUNNERS[cfg["scenario"]]
        chash = analysis.config_hash(cfg)
        first = runner(cfg)
        second = runner(cfg)
        assert first == second
        path_a = analysis.emit_report(*first, cfg["scenario"], chash, tmp_path / "a")
        path_b = analysis.emit_report(*second, cfg["scenario"], chash, tmp_path / "b")
        assert path_a.read_bytes() == path_b.read_bytes()
        assert path_a.name == f"{cfg['scenario']}_{chash}.csv"
