"""Deterministic cluster simulator tests.

sigma=0 with straggler_prob=0 makes every split latency exactly the median,
which freezes completion times for the scheduling tests:
median 1.5us -> 1500ns per hop.
"""

import numpy as np
import pytest
from invariants import check_invariants

from codedmem import placement, simulator
from codedmem.coding import CodecParams
from codedmem.errors import CapacityExhausted
from codedmem.manager import ResilienceManager
from codedmem.monitor import MonitorService
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

    def test_run_until_skips_cancelled_head_and_keeps_tie_order(self):
        c = new_cluster()
        order = []
        first = c.schedule_at(10, lambda: order.append("cancelled"))
        c.schedule_at(20, lambda: order.append("a"))
        c.schedule_at(20, lambda: order.append("b"))
        last = c.schedule_at(22, lambda: order.append("cancelled"))
        c.schedule_at(30, lambda: order.append("late"))
        first.alive = last.alive = False
        # once "b" has run, the cancelled head at 22 must not let the run
        # reach the live event at 30
        c.run_until(25)
        assert order == ["a", "b"]
        assert c.now == 25
        c.run_until_idle()
        assert order == ["a", "b", "late"]


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
        assert results[0].outcome == "disconnect"
        assert results[0].time_ns == 700
        assert slab.store == {}  # nothing landed

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
        c.run_until(2000)
        c.read_split(0, slab.slab_id, 0, cb)  # inside the window
        c.run_until_idle()
        assert results[0].time_ns - 2000 == 3000


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
        c, FaultScript.from_events([{"type": "evict", "time_us": 1.0, "slab": slabs[1].slab_id}])
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
    mon = MonitorService(c, mgr)
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
            mon.drain_regeneration()
        c.run_until_idle()
        check_invariants(mgr)
    outcomes = {(op, outcome) for _, op, _, outcome in c.event_log}
    assert {("evict", "evicted"), ("regenerate", "complete")} <= outcomes
