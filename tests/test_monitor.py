"""Memory pressure control loop and slab regeneration.

Eviction expectations are frozen by hand: headroom 0.25, one machine
with 655360 bytes hosting eight 64KiB slabs leaves free fraction 0.2,
a 32768-byte deficit, so exactly one slab (the least accessed) goes.
Regeneration expectations are recomputed with the codec: every split
on the rebuilt slab must equal a fresh encode of the written page.
"""

import numpy as np
import pytest

from codedmem import coding, placement
from codedmem.coding import CodecParams
from codedmem.manager import ManagerConfig, ResilienceManager
from codedmem.monitor import MonitorConfig, MonitorService
from codedmem.simulator import LOST, Cluster, LatencyModel, SlabState

SLAB = 64 * 1024


def flat_cluster(n, seed=0, **kw):
    model = LatencyModel(median_us=1.5, sigma=0.0, straggler_prob=0.0)
    return Cluster(n, latency=model, seed=seed, **kw)


def build(n, params, l=0, seed=0, config=None, machine_bytes=1 << 30, mon_config=None):
    cluster = flat_cluster(n, seed=seed, machine_bytes=machine_bytes)
    shape = placement.ClusterShape(machines=n)
    plan = placement.build_codingsets(shape, params, l=l, seed=seed)
    mgr = ResilienceManager(cluster, plan, params, config=config, seed=seed)
    mon = MonitorService(cluster, mgr, config=mon_config, seed=seed)
    return cluster, mgr, mon


def page_of(rng_seed, size=4096):
    return np.random.default_rng(rng_seed).integers(0, 256, size, dtype=np.uint8).tobytes()


def expected_split(params, page, role):
    codec = coding.make_codec(params)
    data = coding.split_page(page, params.k)
    if role < params.k:
        return data[role].data
    return coding.encode(codec, data)[role - params.k].data


class TestEviction:
    def pressured(self, batch=4, extra=4, local=0):
        cluster = flat_cluster(1, machine_bytes=655360)
        machine = cluster.machines[0]
        machine.local_bytes = local
        slabs = [machine.allocate_slab(SLAB) for _ in range(8)]
        for i, slab in enumerate(slabs):
            slab.access_count = float(i)
        mon = MonitorService(
            cluster,
            None,
            config=MonitorConfig(eviction_batch=batch, extra_candidates=extra),
        )
        return cluster, machine, slabs, mon

    def test_evicts_least_accessed_until_headroom(self):
        cluster, machine, slabs, mon = self.pressured()
        assert machine.free_fraction == pytest.approx(0.2)
        mon.control_tick()
        evicted = [s for s in slabs if s.state is SlabState.EVICTED]
        assert [s.slab_id for s in evicted] == [slabs[0].slab_id]
        assert machine.free_fraction >= 0.25

    def test_batch_limit_caps_evictions_per_tick(self):
        cluster, machine, slabs, mon = self.pressured(batch=2, local=100000)
        mon.control_tick()
        assert sum(1 for s in slabs if s.state is SlabState.EVICTED) == 2
        mon.control_tick()
        assert sum(1 for s in slabs if s.state is SlabState.EVICTED) == 3
        assert machine.free_fraction >= 0.25

    def test_no_eviction_above_headroom(self):
        cluster = flat_cluster(1, machine_bytes=1 << 20)
        machine = cluster.machines[0]
        slab = machine.allocate_slab(SLAB)
        mon = MonitorService(cluster, None)
        mon.control_tick()
        assert slab.state is SlabState.AVAILABLE

    def test_access_counts_decay_each_tick(self):
        cluster = flat_cluster(1, machine_bytes=1 << 20)
        slab = cluster.machines[0].allocate_slab(SLAB)
        slab.access_count = 8.0
        mon = MonitorService(cluster, None)
        mon.control_tick()
        mon.control_tick()
        assert slab.access_count == 2.0

    def test_eviction_of_mapped_slab_degrades_range(self):
        cluster, mgr, mon = build(4, CodecParams(k=2, r=1), l=1, machine_bytes=3 * SLAB)
        rng = mgr.map_range(0)
        mgr.remote_write(0, 0, page_of(1))
        cluster.run_until_idle()
        victim = rng.refs[1]
        # crank pressure on the victim's machine only
        cluster.machines[victim.machine_id].local_bytes = 2 * SLAB
        mon.control_tick()
        # the tick both evicts the slab and kicks off its regeneration
        assert victim.slab.state is SlabState.REGENERATING
        assert (0, victim.role) in mgr._regen_requested
        cluster.run_until_idle()
        assert victim.slab.state is SlabState.AVAILABLE


class TestRegeneration:
    def settled(self, seed=0, pages=(0, 1, 2), params=None, n=4, l=1):
        params = params or CodecParams(k=2, r=1)
        cluster, mgr, mon = build(n, params, l=l, seed=seed)
        mgr.map_range(0)
        payloads = {p: page_of(100 + p) for p in pages}
        for p, payload in payloads.items():
            mgr.remote_write(0, p, payload)
        cluster.run_until_idle()
        return cluster, mgr, mon, payloads

    def test_rebuilt_slab_matches_fresh_encode(self):
        params = CodecParams(k=2, r=1)
        cluster, mgr, mon, payloads = self.settled(params=params)
        arange = mgr.ranges[0]
        victim = arange.refs[2]
        cluster.evict_slab(victim.slab_id)
        assert victim.slab.state in LOST
        mon.drain_regeneration()
        cluster.run_until_idle()
        assert victim.slab.state is SlabState.AVAILABLE
        slab = cluster.slabs[victim.slab_id]
        assert slab.state is SlabState.AVAILABLE
        for p, payload in payloads.items():
            assert slab.store[p] == expected_split(params, payload, 2)

    def test_data_role_regenerates_too(self):
        params = CodecParams(k=2, r=1)
        cluster, mgr, mon, payloads = self.settled(params=params)
        arange = mgr.ranges[0]
        victim = arange.refs[0]
        dead = victim.machine_id
        cluster.fail_machine(dead)
        cluster.run_until_idle()
        mon.drain_regeneration()
        cluster.run_until_idle()
        assert victim.slab.state is SlabState.AVAILABLE
        slab = cluster.slabs[victim.slab_id]
        assert slab.machine_id != dead
        for p, payload in payloads.items():
            assert slab.store[p] == expected_split(params, payload, 0)

    @pytest.mark.parametrize("role", [0, 4, 5, 6])
    def test_every_role_rebuilds_its_own_row(self, role):
        # with r=3 a fill that computed the wrong parity row would differ
        params = CodecParams(k=4, r=3)
        cluster, mgr, mon, payloads = self.settled(params=params, n=10)
        victim = mgr.ranges[0].refs[role]
        cluster.evict_slab(victim.slab_id)
        mon.drain_regeneration()
        cluster.run_until_idle()
        assert victim.slab.state is SlabState.AVAILABLE
        slab = cluster.slabs[victim.slab_id]
        for p, payload in payloads.items():
            assert slab.store[p] == expected_split(params, payload, role)

    def test_regen_target_avoids_range_hosts(self):
        cluster, mgr, mon, payloads = self.settled()
        arange = mgr.ranges[0]
        hosts_before = {ref.machine_id for ref in arange.refs}
        victim = arange.refs[1]
        cluster.evict_slab(victim.slab_id)
        mon.drain_regeneration()
        cluster.run_until_idle()
        others = {ref.machine_id for ref in arange.refs if ref.role != 1}
        assert victim.machine_id not in others
        assert len({ref.machine_id for ref in arange.refs}) == 3

    def test_reads_stay_correct_during_regen(self):
        cluster, mgr, mon, payloads = self.settled()
        arange = mgr.ranges[0]
        cluster.evict_slab(arange.refs[2].slab_id)
        mon.drain_regeneration()
        # regen is in flight; a foreground read must still see the data
        op = mgr.submit_read(0, 1)
        mgr.drive(op)
        assert op.completion.page == payloads[1]
        cluster.run_until_idle()
        assert arange.refs[2].slab.state is SlabState.AVAILABLE

    def test_writes_during_regen_reach_the_new_slab(self):
        params = CodecParams(k=2, r=1)
        cluster, mgr, mon, payloads = self.settled(params=params)
        arange = mgr.ranges[0]
        cluster.evict_slab(arange.refs[2].slab_id)
        mon.drain_regeneration()
        fresh = page_of(500)
        mgr.submit_write(0, 7, fresh)
        cluster.run_until_idle()
        assert arange.refs[2].slab.state is SlabState.AVAILABLE
        slab = cluster.slabs[arange.refs[2].slab_id]
        assert slab.store[7] == expected_split(params, fresh, 2)
        for p, payload in payloads.items():
            assert slab.store[p] == expected_split(params, payload, 2)

    def test_rebuild_finished_by_a_foreground_write_succeeds(self):
        # the write's backfill lands the last missing page, so the slab is
        # whole before the queued regeneration fill runs
        cluster, mgr, mon, payloads = self.settled(pages=(0,))
        arange = mgr.ranges[0]
        cluster.fail_machine(arange.refs[2].machine_id)
        mgr.submit_write(0, 0, page_of(501))
        (task,) = mon.drain_regeneration()
        cluster.run_until_idle()
        assert arange.refs[2].slab.state is SlabState.AVAILABLE
        assert task.done and task.succeeded
        complete = [
            row for row in cluster.event_log if row[1:] == ("regenerate", "r0:role2", "complete")
        ]
        assert len(complete) == 1
        assert mgr._locks == {}
        assert not mgr._regen_requested

    def test_regen_aborts_without_quorum(self):
        cluster, mgr, mon, payloads = self.settled()
        arange = mgr.ranges[0]
        cluster.fail_machine(arange.refs[0].machine_id)
        cluster.fail_machine(arange.refs[1].machine_id)
        cluster.fail_machine(arange.refs[2].machine_id)
        cluster.run_until_idle()
        mon.drain_regeneration()
        cluster.run_until_idle()
        assert all(ref.slab.state in LOST for ref in arange.refs)
        assert not any(slab.owner == 0 for slab in cluster.slabs.values())

    def test_recover_frees_the_slab_a_ref_left(self):
        cluster, mgr, mon, payloads = self.settled()
        arange = mgr.ranges[0]
        victim = arange.refs[0]
        old, dead = victim.slab_id, victim.machine_id
        cluster.fail_machine(dead)
        cluster.run_until_idle()
        mon.drain_regeneration()
        cluster.run_until_idle()
        assert victim.slab.state is SlabState.AVAILABLE
        assert old not in cluster.slabs
        cluster.recover_machine(dead)
        machine = cluster.machines[dead]
        held = sum(SLAB for ref in arange.refs if ref.machine_id == dead)
        assert machine.free_bytes == machine.total_bytes - held

    def test_aborted_rebuild_frees_its_slab(self):
        cluster, mgr, mon, payloads = self.settled()
        victim = mgr.ranges[0].refs[2]
        cluster.evict_slab(victim.slab_id)
        mon.drain_regeneration()
        target, spare = victim.slab_id, victim.machine_id
        # the first backfill write is in flight from 2200 to 3700 ns
        cluster.schedule(3000, lambda: cluster.fail_machine(spare))
        cluster.run_until_idle()
        assert ("regenerate", "aborted") in {(op, out) for _, op, _, out in cluster.event_log}
        assert victim.slab.state in LOST
        assert target not in cluster.slabs
        assert cluster.machines[spare].slab_bytes == 0
        mon.drain_regeneration()
        cluster.run_until_idle()
        assert victim.slab.state is SlabState.AVAILABLE

    def no_spare(self):
        # two groups of k+r=3 and no slack: a lost split has nowhere to go
        # inside its group, though the other group has room
        cluster, mgr, mon = build(6, CodecParams(k=2, r=1), l=0)
        arange = mgr.map_range(0)
        mgr.remote_write(0, 0, page_of(1))
        victim = arange.refs[0]
        dead = victim.machine_id
        cluster.fail_machine(dead)
        cluster.run_until_idle()
        mon.drain_regeneration()
        cluster.run_until_idle()
        return cluster, mgr, mon, arange, victim, dead

    def test_group_without_spare_keeps_the_ref_failed(self):
        cluster, mgr, mon, arange, victim, dead = self.no_spare()
        assert victim.slab.state in LOST
        others = [m for m in range(6) if m not in arange.group_members]
        assert all(cluster.machines[m].free_bytes >= SLAB for m in others)
        assert [s for s in cluster.slabs.values() if s.owner == 0 and s.machine_id in others] == []

    def test_ref_without_target_is_rebuilt_after_recover(self):
        cluster, mgr, mon, arange, victim, dead = self.no_spare()
        old = victim.slab_id
        cluster.recover_machine(dead)
        assert victim.slab.state in LOST
        assert old not in cluster.slabs
        # the recovered machine is a spare of the group again
        mon.drain_regeneration()
        cluster.run_until_idle()
        assert victim.slab.state is SlabState.AVAILABLE
        assert victim.machine_id in arange.group_members
        assert victim.slab.store[0] == expected_split(CodecParams(k=2, r=1), page_of(1), 0)
        fresh = page_of(2)
        assert mgr.remote_write(0, 0, fresh).outcome == "durable"
        assert mgr.remote_read(0, 0) == fresh

    def test_regenerated_range_survives_next_failure(self):
        params = CodecParams(k=2, r=1)
        cluster, mgr, mon, payloads = self.settled(params=params, n=6, l=3)
        arange = mgr.ranges[0]
        first = arange.refs[0].machine_id
        cluster.fail_machine(first)
        cluster.run_until_idle()
        mon.drain_regeneration()
        cluster.run_until_idle()
        assert arange.refs[0].slab.state is SlabState.AVAILABLE
        # redundancy is restored, so one more failure is still tolerable
        cluster.fail_machine(arange.refs[1].machine_id)
        cluster.run_until_idle()
        assert mgr.remote_read(0, 0) == payloads[0]


class TestStatsAndTicks:
    def test_periodic_ticks_reschedule(self):
        cluster, mgr, mon = build(
            2,
            CodecParams(k=1, r=1),
            mon_config=MonitorConfig(control_period_us=10.0),
        )
        ticks = []
        tick = mon.control_tick

        def record():
            ticks.append(cluster.now)
            tick()

        mon.control_tick = record
        mon.start()
        cluster.run_until(35 * 1000)
        assert ticks == [10_000, 20_000, 30_000]

    def test_tick_drains_regeneration_requests(self):
        cluster, mgr, mon, payloads = TestRegeneration().settled()
        arange = mgr.ranges[0]
        cluster.evict_slab(arange.refs[2].slab_id)
        mon.control_tick()
        cluster.run_until_idle()
        assert arange.refs[2].slab.state is SlabState.AVAILABLE
