"""Deterministic cluster simulator tests.

sigma=0 with straggler_prob=0 makes every split latency exactly the median,
which freezes completion times for the scheduling tests:
median 1.5us -> 1500ns per hop.
"""

import gc
import math

import numpy as np
import pytest
from invariants import check_invariants

from codedmem import placement, simulator
from codedmem.coding import CodecParams
from codedmem.errors import CapacityExhausted, InvalidParams
from codedmem.manager import ResilienceManager
from codedmem.simulator import Cluster, FaultScript, LatencyModel


def flat_model(**kw):
    base = dict(median_us=1.5, sigma=0.0, straggler_prob=0.0)
    base.update(kw)
    return LatencyModel(**base)


def new_cluster(n=4, seed=0, **model_kw):
    return Cluster(n, latency=flat_model(**model_kw), seed=seed)


def collect(cluster):
    results = []

    def cb(completion):
        results.append(completion)

    return results, cb


class TestEventLoop:
    def test_ties_complete_in_submission_order(self):
        c = new_cluster()
        order = []
        c.schedule_at(100, lambda: order.append("a"))
        c.schedule_at(100, lambda: order.append("b"))
        c.schedule_at(50, lambda: order.append("c"))
        c.run_until_idle()
        assert order == ["c", "a", "b"]
        assert c.now == 100

    def test_step_returns_events_in_time_order(self):
        c = new_cluster()
        times = []
        c.schedule_at(30, lambda: times.append(c.now))
        c.schedule_at(10, lambda: times.append(c.now))
        c.schedule_at(20, lambda: times.append(c.now))
        while c.step():
            pass
        assert times == [10, 20, 30]

    def test_cancelled_entries_never_run_nor_move_the_clock(self):
        c = new_cluster()
        order = []
        head = c.schedule_at(10, lambda: order.append("cancelled"))
        c.schedule_at(20, lambda: order.append("a"))
        c.schedule_at(20, lambda: order.append("b"))
        middle = c.schedule_at(22, lambda: order.append("cancelled"))
        c.schedule_at(30, lambda: order.append("late"))
        tail = c.schedule_at(40, lambda: order.append("cancelled"))
        for entry in (head, middle, tail):
            entry[2] = None
        c.run_until_idle()
        assert order == ["a", "b", "late"]
        assert c.now == 30  # the last live event's time, not the tail's


def latencies(model, seed):
    return simulator.SplitLatencies(model, np.random.SeedSequence(seed))


class TestLatencyModel:
    def test_flat_model_is_exact(self):
        # sigma 0: every delay is the median
        draws = latencies(flat_model(), 1)
        assert {draws.draw() for _ in range(3000)} == {1500}

    def test_median_close_to_configured(self):
        model = LatencyModel(median_us=1.5, sigma=0.25, straggler_prob=0.0)
        draws = latencies(model, 2)
        med = np.median([draws.draw() for _ in range(20000)]) / 1000.0
        assert abs(med - 1.5) < 0.03

    def test_straggler_fraction_binomial(self):
        # binomial oracle: fraction over threshold within 3 sigma of p
        p = 0.05
        n = 100000
        model = LatencyModel(
            median_us=1.5, sigma=0.25, straggler_prob=p, straggler_multiplier=10.0
        )
        draws = latencies(model, 3)
        threshold = 1500 * 10 / 2  # clean tail and straggler body never cross it
        count = sum(draws.draw() > threshold for _ in range(n))
        sigma3 = 3 * np.sqrt(n * p * (1 - p))
        assert abs(count - n * p) <= sigma3

    def test_every_draw_straggles_at_probability_one(self):
        draws = latencies(flat_model(straggler_prob=1.0, straggler_multiplier=10.0), 5)
        assert {draws.draw() for _ in range(3000)} == {15000}

    @pytest.mark.parametrize("value", [1e306, math.inf, 10**400])
    def test_a_cost_must_stay_finite_in_ns(self, value):
        for name in ("median_us", "encode_us", "disk_us"):
            with pytest.raises(InvalidParams, match=f"{name} must be finite in ns"):
                LatencyModel(**{name: value})
        assert LatencyModel(encode_us=1e305).encode_us == 1e305

    def test_background_window_multiplies(self):
        draws = latencies(flat_model(), 4)
        assert draws.draw(background=2.0) == 3000

    def test_block_size_does_not_change_delays(self, monkeypatch):
        model = LatencyModel(median_us=1.5, sigma=0.3, straggler_prob=0.2)
        backgrounds = [1.0, 2.0, 1.0, 3.5] * 700  # crosses block refills
        blocked = latencies(model, 6)
        default = [blocked.draw(b) for b in backgrounds]
        monkeypatch.setattr(simulator, "LATENCY_BLOCK", 1)
        scalar = latencies(model, 6)
        assert [scalar.draw(b) for b in backgrounds] == default
        assert len(set(default)) > 1000


class TestSplitIo:
    def test_write_then_read_roundtrip(self):
        c = new_cluster()
        slab = c.machines[0].allocate_slab(65536, owner=1, role=0, split_size=512)
        results, cb = collect(c)
        payload = bytes(range(256)) * 2
        c.write_split(0, slab.slab_id, 3, payload, cb)
        c.run_until_idle()
        assert results[0].outcome == "ok"
        assert results[0].time_ns == 1500
        c.read_split(0, slab.slab_id, 3, cb)
        c.run_until_idle()
        assert results[1].outcome == "ok"
        assert results[1].data == payload

    def test_unwritten_page_reads_zeros(self):
        c = new_cluster()
        slab = c.machines[0].allocate_slab(65536, owner=1, role=0, split_size=128)
        results, cb = collect(c)
        c.read_split(0, slab.slab_id, 9, cb)
        c.run_until_idle()
        assert results[0].data == b"\x00" * 128

    def test_allocation_respects_capacity(self):
        c = Cluster(1, latency=flat_model(), machine_bytes=100000, seed=0)
        m = c.machines[0]
        assert m.allocate_slab(65536, owner=1, role=0, split_size=512) is not None
        assert m.allocate_slab(65536, owner=1, role=1, split_size=512) is None
        assert m.free_bytes == 100000 - 65536


class TestFailures:
    def test_inflight_io_disconnects_at_fail_time(self):
        c = new_cluster()
        slab = c.machines[2].allocate_slab(65536, owner=1, role=0, split_size=64)
        results, cb = collect(c)
        c.write_split(2, slab.slab_id, 0, b"x" * 64, cb)
        c.schedule_at(700, lambda: c.fail_machine(2))
        c.run_until_idle()
        assert len(results) == 1
        assert results[0].outcome == "disconnect"
        assert results[0].time_ns == 700
        # the cancelled arrival, due at 1500, neither ran nor moved the clock
        assert c.now == 700
        assert slab.store == {}  # nothing landed

    def test_disconnects_conclude_in_submission_order(self):
        # the cut-off splits are scheduled in submission (`seq`) order, which
        # must not depend on where the records happen to sit in memory
        c = new_cluster()
        slab = c.machines[1].allocate_slab(65536, owner=1, role=0, split_size=64)
        results, cb = collect(c)
        submitted = [c.read_split(1, slab.slab_id, i, cb) for i in range(40)]
        c.schedule_at(700, lambda: c.fail_machine(1))
        c.run_until_idle()
        assert [r.outcome for r in results] == ["disconnect"] * 40
        assert [r.page_index for r in results] == list(range(40))
        assert results == submitted

    def test_disconnects_follow_seq_not_heap_position(self):
        # spread latencies leave the heap's list order unlike submission order
        c = Cluster(4, latency=flat_model(sigma=1.0), seed=3)
        slab = c.machines[1].allocate_slab(65536, owner=1, role=0, split_size=64)
        results, cb = collect(c)
        submitted = [c.read_split(1, slab.slab_id, i, cb) for i in range(40)]
        assert [entry[2].__self__ for entry in c._heap] != submitted
        c.fail_machine(1)
        c.run_until_idle()
        assert [r.outcome for r in results] == ["disconnect"] * 40
        assert results == submitted

    def test_refused_split_keeps_its_outcome_and_concludes_once(self):
        c = new_cluster()
        live = c.machines[1].allocate_slab(65536, owner=1, role=0, split_size=64)
        rebuilding = c.machines[1].allocate_slab(65536, owner=2, role=0, split_size=64)
        rebuilding.state = simulator.SlabState.REGENERATING
        results, cb = collect(c)
        accepted = c.write_split(1, live.slab_id, 0, b"a" * 64, cb)
        # a slab mid-regeneration refuses a write that is not a backfill
        refused = c.write_split(1, rebuilding.slab_id, 0, b"b" * 64, cb)
        c.fail_machine(1)
        c.run_until_idle()
        assert results == [refused, accepted]
        assert [r.outcome for r in results] == ["rejected", "disconnect"]
        assert c.split_outcomes == {("write_split", "rejected"): 1, ("write_split", "disconnect"): 1}

    def test_split_to_another_machine_is_untouched(self):
        c = new_cluster()
        doomed = c.machines[1].allocate_slab(65536, owner=1, role=0, split_size=64)
        other = c.machines[2].allocate_slab(65536, owner=1, role=1, split_size=64)
        results, cb = collect(c)
        cut = c.write_split(1, doomed.slab_id, 0, b"c" * 64, cb)
        kept = c.write_split(2, other.slab_id, 0, b"d" * 64, cb)
        c.schedule_at(700, lambda: c.fail_machine(1))
        c.run_until_idle()
        assert results == [cut, kept]
        assert [(r.outcome, r.time_ns) for r in results] == [("disconnect", 700), ("ok", 1500)]
        assert other.store == {0: b"d" * 64}

    def test_no_split_record_is_left_for_the_cycle_collector(self):
        # a split record is freed by reference counting alone, also when a
        # failure cuts it off and cancels its heap entry
        params = CodecParams(k=2, r=1)
        c = Cluster(6, latency=flat_model(sigma=0.3), seed=4)
        plan = placement.build_codingsets(placement.ClusterShape(machines=6), params, l=1, seed=4)
        mgr = ResilienceManager(c, plan, params, seed=4)
        pages = [np.random.default_rng(i).bytes(4096) for i in range(8)]
        gc.collect()
        gc.disable()
        try:
            for rid in range(2):
                mgr.map_range(rid)
            for i, page in enumerate(pages):
                mgr.submit_write(i % 2, i, page)
                mgr.submit_read(i % 2, (i + 3) % 8)
            victim = mgr.ranges[0].refs[0].machine_id
            c.schedule_at(700, lambda: c.fail_machine(victim))
            c.schedule_at(5000, lambda: c.recover_machine(victim))
            c.run_until_idle()
            mgr.drain_regeneration()
            c.run_until_idle()
            assert c.split_outcomes["write_split", "disconnect"] > 0
            left = [o for o in gc.get_objects() if type(o) is simulator._InflightIo]
            assert [io for io in left if io.cluster is c] == []
        finally:
            gc.enable()

    def test_io_to_failed_machine_rejected(self):
        c = new_cluster()
        slab = c.machines[1].allocate_slab(65536, owner=1, role=0, split_size=64)
        c.fail_machine(1)
        results, cb = collect(c)
        c.read_split(1, slab.slab_id, 0, cb)
        c.run_until_idle()
        assert results[0].outcome == "disconnect"

    def test_failed_machine_serves_nothing_until_recover(self):
        c = new_cluster()
        slab = c.machines[1].allocate_slab(65536, owner=1, role=0, split_size=64)
        results, cb = collect(c)
        c.write_split(1, slab.slab_id, 0, b"y" * 64, cb)
        c.run_until_idle()
        c.fail_machine(1)
        c.read_split(1, slab.slab_id, 0, cb)
        c.run_until_idle()
        c.recover_machine(1)
        c.read_split(1, slab.slab_id, 0, cb)
        c.run_until_idle()
        outcomes = [r.outcome for r in results]
        assert outcomes == ["ok", "disconnect", "ok"]

    def test_split_outcomes_counted_per_op_and_not_logged(self):
        c = new_cluster()
        ok, down, evicted, rebuilding = (
            m.allocate_slab(65536, owner=1, role=i, split_size=4) for i, m in enumerate(c.machines)
        )
        c.fail_machine(1)
        c.evict_slab(evicted.slab_id)
        rebuilding.state = simulator.SlabState.REGENERATING
        logged = list(c.event_log)
        results, cb = collect(c)
        for slab in (ok, down, evicted, rebuilding):
            c.write_split(slab.machine_id, slab.slab_id, 0, b"abcd", cb)
            c.read_split(slab.machine_id, slab.slab_id, 0, cb)
        c.write_split(3, rebuilding.slab_id, 0, b"abcd", cb, fill=True)
        c.run_until_idle()
        assert c.split_outcomes == {
            ("write_split", "ok"): 2,
            ("read_split", "ok"): 1,
            ("write_split", "disconnect"): 1,
            ("read_split", "disconnect"): 1,
            ("write_split", "unavailable"): 1,
            ("read_split", "unavailable"): 1,
            ("write_split", "rejected"): 1,
            ("read_split", "rejected"): 1,
        }
        assert sum(c.split_outcomes.values()) == len(results) == 9
        assert c.event_log == logged  # only the fail and evict rows
        assert [row[1] for row in logged] == ["fail", "evict"]

    def test_split_outcomes_is_a_read_only_snapshot(self):
        c = new_cluster()
        slab = c.machines[0].allocate_slab(65536, owner=1, role=0, split_size=4)
        results, cb = collect(c)
        c.write_split(0, slab.slab_id, 0, b"abcd", cb)
        c.read_split(0, 999, 0, cb)
        c.run_until_idle()
        snapshot = c.split_outcomes
        assert snapshot == {("write_split", "ok"): 1, ("read_split", "unavailable"): 1}
        snapshot["write_split", "ok"] += 5
        snapshot["read_split", "unavailable"] += 5
        assert c.split_outcomes == {("write_split", "ok"): 1, ("read_split", "unavailable"): 1}
        with pytest.raises(AttributeError):
            c.split_outcomes = {}

    def test_disconnect_callbacks_fire(self):
        c = new_cluster()
        seen = []
        c.on_disconnect.append(seen.append)
        c.fail_machine(3)
        c.run_until_idle()
        assert seen == [3]


class TestFaultScript:
    def test_corrupt_applies_mask(self):
        c = new_cluster()
        slab = c.machines[0].allocate_slab(65536, owner=1, role=0, split_size=4)
        results, cb = collect(c)
        c.write_split(0, slab.slab_id, 0, b"\x01\x02\x03\x04", cb)
        c.run_until_idle()
        script = FaultScript.from_events(
            [
                {
                    "type": "corrupt",
                    "time_us": 10.0,
                    "slab": slab.slab_id,
                    "page_index": 0,
                    "mask": "ff00",
                }
            ]
        )
        simulator.inject(c, script)
        c.run_until_idle()
        assert slab.store[0] == b"\xfe\x02\x03\x04"

    def test_fail_recover_evict_sequence(self):
        c = new_cluster()
        slab = c.machines[2].allocate_slab(65536, owner=7, role=1, split_size=8)
        evictions = []
        c.on_eviction.append(evictions.append)
        script = FaultScript.from_events(
            [
                {"type": "fail", "time_us": 5.0, "machine": 2},
                {"type": "recover", "time_us": 9.0, "machine": 2},
                {"type": "evict", "time_us": 12.0, "slab": slab.slab_id},
            ]
        )
        simulator.inject(c, script)
        c.run_until_idle()
        assert c.machines[2].state == simulator.MachineState.UP
        assert slab.state == simulator.SlabState.EVICTED
        assert evictions == [slab]

    def test_events_sorted_and_validated(self):
        for kind in ("warp", "burst"):
            with pytest.raises(ValueError):
                FaultScript.from_events([{"type": kind, "time_us": 0.0}])
        s = FaultScript.from_events(
            [
                {"type": "fail", "time_us": 9.0, "machine": 1},
                {"type": "recover", "time_us": 3.0, "machine": 1},
            ]
        )
        assert [e.time_us for e in s.events] == [3.0, 9.0]

    def test_background_window_raises_latency(self):
        c = new_cluster()
        script = FaultScript.from_events(
            [{"type": "background_load", "time_us": 1.0, "until_us": 4.0, "level": 2.0}]
        )
        simulator.inject(c, script)
        slab = c.machines[0].allocate_slab(65536, owner=1, role=0, split_size=4)
        results, cb = collect(c)
        # issued inside the window
        c.schedule_at(2000, lambda: c.read_split(0, slab.slab_id, 0, cb))
        c.run_until_idle()
        assert results[0].time_ns - 2000 == 3000

    def test_background_window_is_dropped_once_closed(self):
        c = new_cluster()
        script = FaultScript.from_events(
            [{"type": "background_load", "time_us": 1.0, "until_us": 4.0, "level": 2.0}]
        )
        simulator.inject(c, script)
        slab = c.machines[0].allocate_slab(65536, owner=1, role=0, split_size=4)
        results, cb = collect(c)
        c.schedule_at(2000, lambda: c.read_split(0, slab.slab_id, 0, cb))
        c.run_until_idle()
        assert len(c._background) == 1
        # the first split submitted after the window closes drops it
        c.schedule_at(6000, lambda: c.read_split(0, slab.slab_id, 0, cb))
        c.run_until_idle()
        assert c._background == []
        assert [r.time_ns for r in results] == [5000, 7500]

    @pytest.mark.parametrize(
        "row",
        [
            {"type": "fail", "time_us": 1e308, "machine": 0},
            {"type": "fail", "time_us": 2e305, "machine": 0},
            {"type": "fail", "time_us": 10**306, "machine": 0},
            {"type": "background_load", "time_us": 1, "until_us": 1e308},
        ],
    )
    def test_times_that_overflow_in_ns_are_refused(self, row):
        with pytest.raises(ValueError, match="finite in ns"):
            FaultScript.from_events([row])

    def test_largest_time_finite_in_ns_is_applied(self):
        c = new_cluster()
        late = 1.7e305
        simulator.inject(
            c,
            FaultScript.from_events(
                [
                    {"type": "fail", "time_us": late, "machine": 0},
                    {"type": "background_load", "time_us": 1.0, "until_us": late},
                ]
            ),
        )
        c.run_until_idle()
        assert c.now == round(late * simulator.US)
        assert c.machines[0].state == simulator.MachineState.FAILED

    def test_row_dated_before_the_clock_is_refused(self):
        c = new_cluster()
        c.schedule_at(5000, lambda: None)
        c.run_until_idle()
        script = FaultScript.from_events(
            [
                {"type": "fail", "time_us": 1.0, "machine": 0},
                {"type": "fail", "time_us": 9.0, "machine": 1},
            ]
        )
        with pytest.raises(ValueError, match="1000 ns is before the clock at 5000 ns"):
            simulator.inject(c, script)
        # no row of the script was scheduled
        assert c._heap == []
        assert all(m.state == simulator.MachineState.UP for m in c.machines)
        # a row at the clock is valid
        simulator.inject(c, FaultScript.from_events([{"type": "fail", "time_us": 5.0, "machine": 0}]))
        c.run_until_idle()
        assert c.now == 5000
        assert c.machines[0].state == simulator.MachineState.FAILED

    @pytest.mark.parametrize("kind", ["fail", "recover"])
    def test_machine_outside_the_cluster_is_refused_before_any_row(self, kind):
        c = Cluster(3)
        script = FaultScript.from_events(
            [
                {"type": "fail", "time_us": 1.0, "machine": 0},
                {"type": kind, "time_us": 2.0, "machine": 7},
            ]
        )
        with pytest.raises(ValueError, match="machine 7 is outside the 3-machine cluster"):
            simulator.inject(c, script)
        assert c._heap == []
        c.run_until_idle()
        assert all(m.state == simulator.MachineState.UP for m in c.machines)


# one valid row per fault type, dated 5 us, with what applying it does to the
# cluster of `faulted_cluster`: machine 1 down, slab 0 holding b"\x01\x02" at
# page 0, and the clock at 1.5 us
VALID_ROWS = {
    "fail": (
        {"type": "fail", "time_us": 5, "machine": 2},
        lambda c, slab: c.machines[2].state == simulator.MachineState.FAILED,
    ),
    "recover": (
        {"type": "recover", "time_us": 5, "machine": 1},
        lambda c, slab: c.machines[1].state == simulator.MachineState.UP,
    ),
    "evict": (
        {"type": "evict", "time_us": 5, "slab": 0},
        lambda c, slab: slab.state == simulator.SlabState.EVICTED and slab.store == {},
    ),
    "corrupt": (
        {"type": "corrupt", "time_us": 5, "slab": 0, "page_index": 0, "mask": "ff"},
        lambda c, slab: slab.store[0] == b"\xfe\x02",
    ),
    "background_load": (
        {"type": "background_load", "time_us": 5, "until_us": 50, "level": 3},
        # the window is open at 5 us and scales split latency by 3
        lambda c, slab: (c.now, c.background_level()) == (5000, 3.0),
    ),
}


def faulted_cluster():
    c = new_cluster()
    slab = c.machines[0].allocate_slab(65536, owner=1, role=0, split_size=2)
    c.write_split(0, slab.slab_id, 0, b"\x01\x02", lambda r: None)
    c.fail_machine(1)
    c.run_until_idle()
    return c, slab


def test_valid_rows_cover_every_fault_type():
    assert set(VALID_ROWS) == set(simulator.FAULT_TYPES)


@pytest.mark.parametrize("kind", sorted(simulator.FAULT_TYPES))
def test_valid_row_applies_and_a_foreign_key_is_refused(kind):
    row, applied = VALID_ROWS[kind]
    c, slab = faulted_cluster()
    script = FaultScript.from_events([row])
    assert [e.type for e in script.events] == [kind]
    assert not applied(c, slab)
    simulator.inject(c, script)
    if kind == "background_load":
        c.schedule_at(5000, lambda: None)
    c.run_until_idle()
    assert applied(c, slab)
    # the same row plus one key that only another type takes
    own = {key.rstrip("?") for key in simulator.FAULT_TYPES[kind][0]}
    for other, (other_row, _) in VALID_ROWS.items():
        foreign = sorted(set(other_row) - own - {"type", "time_us"})
        if other != kind and foreign:
            with pytest.raises(ValueError, match=f"{kind} fault takes no key {foreign[0]}"):
                FaultScript.from_events([{**row, foreign[0]: other_row[foreign[0]]}])


@pytest.mark.parametrize(
    "row, message",
    [
        ({"type": "background_load", "time_us": 1, "until_us": 5, "levle": 4}, "no key levle"),
        ({"type": "fail", "time_us": 1, "machine": 0, 3: 4}, "no key 3"),
        ({"type": "fail", "time_us": True, "machine": 0}, "time_us must be"),
        ({"type": "fail", "time_us": "5", "machine": 0}, "time_us must be"),
        ({"type": "fail", "time_us": 10**400, "machine": 0}, "time_us must be"),
        ({"type": "background_load", "time_us": 1, "until_us": False}, "until_us must be"),
        ({"type": "background_load", "time_us": 1, "until_us": 5, "level": True}, "level must be"),
        ({"type": "fail", "time_us": 1, "machine": True}, "machine must be"),
        ({"type": "fail", "time_us": 1, "machine": 1.0}, "machine must be"),
        ({"type": "corrupt", "time_us": 1, "slab": 0, "page_index": 0, "mask": "zz"}, "mask"),
        ({"type": ["fail"], "time_us": 1}, "of a known type"),
        ({"type": "warp", "time_us": 1}, "of a known type"),
        (["fail", 1, 0], "must be a mapping"),
        ({"type": "corrupt", "time_us": 1, "slab": 0, "page_index": 0, "mask": ""}, "non-zero byte"),
        ({"type": "corrupt", "time_us": 1, "slab": 0, "page_index": 0, "mask": "00"}, "non-zero byte"),
        ({"type": "corrupt", "time_us": 1, "slab": 0, "page_index": 0, "mask": "0000"}, "non-zero byte"),
        ({"type": "corrupt", "time_us": 1, "slab": 0, "page_index": 0, "mask": b"\x00"}, "non-zero byte"),
    ],
)
def test_bad_row_is_refused_naming_it(row, message):
    with pytest.raises(ValueError, match=message) as err:
        FaultScript.from_events([{"type": "fail", "time_us": 0, "machine": 0}, row])
    assert str(row) in str(err.value) or repr(row) in str(err.value)


class TestDeterminism:
    def run_once(self, seed):
        c = Cluster(3, latency=LatencyModel(median_us=1.5, sigma=0.3), seed=seed)
        slabs = [m.allocate_slab(65536, owner=1, role=i, split_size=32) for i, m in enumerate(c.machines)]
        done = []
        for i, s in enumerate(slabs):
            c.write_split(s.machine_id, s.slab_id, 0, bytes([i]) * 32, lambda r: done.append(r))
        c.run_until_idle()
        for s in slabs:
            c.read_split(s.machine_id, s.slab_id, 0, lambda r: done.append(r))
        c.run_until_idle()
        return (
            [(r.time_ns, r.outcome) for r in done],
            list(c.event_log),
            dict(c.split_outcomes),
        )

    def test_identical_seeds_identical_logs(self):
        assert self.run_once(11) == self.run_once(11)

    def test_different_seeds_differ(self):
        assert self.run_once(11) != self.run_once(12)


def test_byte_conservation():
    # stored bytes == written bytes - bytes on failed/evicted slabs
    c = new_cluster(n=3)
    slabs = [m.allocate_slab(65536, owner=1, role=i, split_size=16) for i, m in enumerate(c.machines)]
    results, cb = collect(c)
    for page in range(4):
        for s in slabs:
            c.write_split(s.machine_id, s.slab_id, page, bytes([page]) * 16, cb)
    c.run_until_idle()
    written = sum(1 for r in results if r.outcome == "ok") * 16
    c.fail_machine(0)
    simulator.inject(
        c,
        FaultScript.from_events(
            [{"type": "evict", "time_us": c.now / simulator.US, "slab": slabs[1].slab_id}]
        ),
    )
    c.run_until_idle()
    lost = 4 * 16  # failed machine still holds bytes; evicted slab dropped them
    stored = sum(
        len(v)
        for s in c.slabs.values()
        if s.state == simulator.SlabState.AVAILABLE
        for v in s.store.values()
    )
    assert written == 3 * 4 * 16
    assert stored == written - lost - 4 * 16  # minus failed machine's slab too


def test_slab_bytes_match_live_slabs_after_churn():
    # the per-machine counter must equal a recount over non-evicted slabs,
    # and the other state invariants must hold, after every step of a
    # random allocate / fail / recover / evict / regenerate sequence
    n = 6
    params = CodecParams(k=2, r=1)
    c = new_cluster(n=n, seed=3)
    plan = placement.build_codingsets(placement.ClusterShape(machines=n), params, l=1, seed=3)
    mgr = ResilienceManager(c, plan, params, seed=3)
    rng = np.random.default_rng(21)
    for step in range(300):
        action = int(rng.integers(0, 6))
        m = int(rng.integers(0, n))
        if action == 0:
            c.machines[m].allocate_slab(int(rng.choice([4096, 65536])))
        elif action == 1:
            try:
                mgr.map_range(step)
            except CapacityExhausted:
                pass
            else:
                mgr.submit_write(step, 0, bytes([step % 256]) * mgr.config.page_size)
        elif action == 2:
            c.fail_machine(m)
        elif action == 3:
            c.recover_machine(m)
        elif action == 4:
            ids = sorted(c.slabs)  # freed slabs leave gaps in the ids
            c.evict_slab(ids[int(rng.integers(0, len(ids)))])
        else:
            mgr.drain_regeneration()
        c.run_until_idle()
        check_invariants(mgr)
    outcomes = {(op, outcome) for _, op, _, outcome in c.event_log}
    assert {("evict", "evicted"), ("regenerate", "complete")} <= outcomes


def test_a_window_without_level_opens_at_the_default_level():
    c = new_cluster()
    row = {"type": "background_load", "time_us": 0, "until_us": 5}
    simulator.inject(c, FaultScript.from_events([row]))
    assert c.background_level() == simulator.BACKGROUND_LEVEL == 2.0
