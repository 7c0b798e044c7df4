"""Slab regeneration.

Expectations are recomputed with the codec: every split on a rebuilt
slab must equal a fresh encode of the written page.
"""

import numpy as np
import pytest
from invariants import check_invariants

from codedmem import coding, manager, placement
from codedmem.coding import CodecParams
from codedmem.manager import ManagerConfig, ResilienceManager
from codedmem.monitor import MonitorService
from codedmem.simulator import LOST, Cluster, LatencyModel, SlabState

SLAB = 64 * 1024


def flat_cluster(n, seed=0, **kw):
    model = LatencyModel(median_us=1.5, sigma=0.0, straggler_prob=0.0)
    return Cluster(n, latency=model, seed=seed, **kw)


def build(n, params, l=0, seed=0, config=None, machine_bytes=1 << 30):
    cluster = flat_cluster(n, seed=seed, machine_bytes=machine_bytes)
    shape = placement.ClusterShape(machines=n)
    plan = placement.build_codingsets(shape, params, l=l, seed=seed)
    mgr = ResilienceManager(cluster, plan, params, config=config, seed=seed)
    return cluster, mgr


def page_of(rng_seed, size=4096):
    return np.random.default_rng(rng_seed).integers(0, 256, size, dtype=np.uint8).tobytes()


def expected_split(params, page, role):
    return coding.codeword(coding.make_codec(params), page)[role]


class TestEviction:
    def test_eviction_of_mapped_slab_degrades_range(self):
        cluster, mgr = build(4, CodecParams(k=2, r=1), l=1, machine_bytes=3 * SLAB)
        rng = mgr.map_range(0)
        mgr.remote_write(0, 0, page_of(1))
        cluster.run_until_idle()
        victim = rng.refs[1]
        cluster.evict_slab(victim.slab_id)
        mgr.drain_regeneration()
        # the eviction requested the rebuild, and the drain started it
        assert rng.refs[1].state is SlabState.REGENERATING
        assert rng.rebuild_status[victim.role] == "queued"
        cluster.run_until_idle()
        assert rng.refs[1].state is SlabState.AVAILABLE


class TestRegeneration:
    def settled(self, seed=0, pages=(0, 1, 2), params=None, n=4, l=1):
        params = params or CodecParams(k=2, r=1)
        cluster, mgr = build(n, params, l=l, seed=seed)
        mgr.map_range(0)
        payloads = {p: page_of(100 + p) for p in pages}
        for p, payload in payloads.items():
            mgr.remote_write(0, p, payload)
        cluster.run_until_idle()
        return cluster, mgr, payloads

    def test_rebuilt_slab_matches_fresh_encode(self):
        params = CodecParams(k=2, r=1)
        cluster, mgr, payloads = self.settled(params=params)
        arange = mgr.ranges[0]
        victim = arange.refs[2]
        cluster.evict_slab(victim.slab_id)
        assert arange.refs[2].state in LOST
        mgr.drain_regeneration()
        cluster.run_until_idle()
        assert arange.refs[2].state is SlabState.AVAILABLE
        slab = cluster.slabs[arange.refs[2].slab_id]
        assert slab.state is SlabState.AVAILABLE
        for p, payload in payloads.items():
            assert slab.split(p) == expected_split(params, payload, 2)

    def test_data_role_regenerates_too(self):
        params = CodecParams(k=2, r=1)
        cluster, mgr, payloads = self.settled(params=params)
        arange = mgr.ranges[0]
        dead = arange.refs[0].machine_id
        cluster.fail_machine(dead)
        cluster.run_until_idle()
        mgr.drain_regeneration()
        cluster.run_until_idle()
        assert arange.refs[0].state is SlabState.AVAILABLE
        slab = cluster.slabs[arange.refs[0].slab_id]
        assert slab.machine_id != dead
        for p, payload in payloads.items():
            assert slab.split(p) == expected_split(params, payload, 0)

    @pytest.mark.parametrize("role", [0, 4, 5, 6])
    def test_every_role_rebuilds_its_own_row(self, role):
        # with r=3 a fill that computed the wrong parity row would differ
        params = CodecParams(k=4, r=3)
        cluster, mgr, payloads = self.settled(params=params, n=10)
        arange = mgr.ranges[0]
        cluster.evict_slab(arange.refs[role].slab_id)
        mgr.drain_regeneration()
        cluster.run_until_idle()
        assert arange.refs[role].state is SlabState.AVAILABLE
        slab = cluster.slabs[arange.refs[role].slab_id]
        for p, payload in payloads.items():
            assert slab.split(p) == expected_split(params, payload, role)

    def test_regen_target_avoids_range_hosts(self):
        cluster, mgr, payloads = self.settled()
        arange = mgr.ranges[0]
        hosts_before = {slab.machine_id for slab in arange.refs}
        cluster.evict_slab(arange.refs[1].slab_id)
        mgr.drain_regeneration()
        cluster.run_until_idle()
        others = {slab.machine_id for slab in arange.refs if slab.role != 1}
        assert arange.refs[1].machine_id not in others
        assert len({slab.machine_id for slab in arange.refs}) == 3

    def test_relocate_takes_the_least_loaded_usable_spare(self, monkeypatch):
        # one group of 9: the range on 0, 1, 2 (load 1 each), 3 down and 4
        # full at load 0, spares 5..8 at loads 2, 1, 3, 1
        cluster, mgr = build(9, CodecParams(k=2, r=1), l=6)
        arange = mgr.map_range(0)
        assert [slab.machine_id for slab in arange.refs] == [0, 1, 2]
        cluster.fail_machine(3)
        cluster.machines[4].total_bytes = SLAB - 1
        for m, load in ((5, 2), (6, 1), (7, 3), (8, 1)):
            for _ in range(load):
                cluster.machines[m].allocate_slab(SLAB)
        cluster.fail_machine(0)
        cluster.run_until_idle()
        picks = []
        real = manager.select_members
        monkeypatch.setattr(
            manager, "select_members", lambda *a: picks.append(a[2]) or real(*a)
        )
        # 1 and 2 tie with 6 and 8 but host live splits; 6 beats 8 by id
        slab = mgr.relocate(arange, 0)
        assert slab.machine_id == 6 and arange.refs[0] is slab
        assert slab.state is SlabState.REGENERATING
        assert picks == [1]  # through the picker map_range uses
        # with 6 down too, 8 is the one usable spare at the least load
        cluster.fail_machine(6)
        cluster.run_until_idle()
        assert mgr.relocate(arange, 0).machine_id == 8

    def test_reads_stay_correct_during_regen(self):
        cluster, mgr, payloads = self.settled()
        arange = mgr.ranges[0]
        cluster.evict_slab(arange.refs[2].slab_id)
        mgr.drain_regeneration()
        # regen is in flight; a foreground read must still see the data
        op = mgr.submit_read(0, 1)
        mgr.drive(op)
        assert op.completion.page == payloads[1]
        cluster.run_until_idle()
        assert arange.refs[2].state is SlabState.AVAILABLE

    def test_writes_during_regen_reach_the_new_slab(self):
        params = CodecParams(k=2, r=1)
        cluster, mgr, payloads = self.settled(params=params)
        arange = mgr.ranges[0]
        cluster.evict_slab(arange.refs[2].slab_id)
        mgr.drain_regeneration()
        fresh = page_of(500)
        mgr.submit_write(0, 7, fresh)
        cluster.run_until_idle()
        assert arange.refs[2].state is SlabState.AVAILABLE
        slab = cluster.slabs[arange.refs[2].slab_id]
        assert slab.split(7) == expected_split(params, fresh, 2)
        for p, payload in payloads.items():
            assert slab.split(p) == expected_split(params, payload, 2)

    def test_rebuild_finished_by_a_foreground_write_succeeds(self):
        # the write's backfill lands the last missing page, so the slab is
        # whole before the queued regeneration fill runs
        cluster, mgr, payloads = self.settled(pages=(0,))
        arange = mgr.ranges[0]
        cluster.fail_machine(arange.refs[2].machine_id)
        mgr.submit_write(0, 0, page_of(501))
        (task,) = mgr.drain_regeneration()
        cluster.run_until_idle()
        assert arange.refs[2].state is SlabState.AVAILABLE
        assert task.done and task.succeeded
        complete = [
            row for row in cluster.event_log if row[1:] == ("regenerate", "r0:role2", "complete")
        ]
        assert len(complete) == 1
        assert mgr._locks == {}
        assert not arange.rebuild_status

    def test_regen_aborts_without_quorum(self):
        cluster, mgr, payloads = self.settled()
        arange = mgr.ranges[0]
        dead = [slab.machine_id for slab in arange.refs]
        for m in dead:
            cluster.fail_machine(m)
        cluster.run_until_idle()
        # only the first failure left k healthy splits beside the spare
        assert mgr.regeneration_requests == [(0, 0)]
        (rebuild,) = mgr.drain_regeneration()
        cluster.run_until_idle()
        assert rebuild.done and not rebuild.succeeded
        rows = [row[2:] for row in cluster.event_log if row[1] == "regenerate"]
        assert rows == [("r0:role0", "no_quorum")]
        assert all(slab.state in LOST for slab in arange.refs)
        assert not arange.rebuild_status
        # the range still has no quorum, so its recovery starts no rebuild
        # and frees every slab it held
        for m in dead:
            cluster.recover_machine(m)
        assert not mgr.regeneration_requests
        assert not any(slab.owner == 0 for slab in cluster.slabs.values())
        check_invariants(mgr)

    def test_a_promotion_queues_the_slots_beside_it(self):
        # one group of six machines: range 0 on four, two spares. Role 0 is
        # evicted under a write in flight and roles 2 and 3 fail, so the
        # drained rebuilds find fewer than k healthy splits
        cluster, mgr = build(6, CodecParams(k=2, r=2), l=2)
        arange = mgr.map_range(0)
        assert mgr.remote_write(0, 0, page_of(1)).outcome == "durable"
        write = mgr.submit_write(0, 0, page_of(2))
        cluster.evict_slab(arange.refs[0].slab_id)
        for role in (2, 3):
            cluster.fail_machine(arange.refs[role].machine_id)
        assert mgr.regeneration_requests == [(0, 0), (0, 2)]
        mgr.drain_regeneration()
        assert not arange.rebuild_status
        # the write resends role 0's split to a fresh slab, whose promotion
        # gives the range k healthy splits again
        cluster.run_until_idle()
        assert write.outcome == "degraded"
        assert arange.refs[0].state is SlabState.AVAILABLE
        assert arange.rebuild_status == {2: "queued", 3: "queued"}
        assert mgr.regeneration_requests == [(0, 2), (0, 3)]
        check_invariants(mgr)
        mgr.drain_regeneration()
        cluster.run_until_idle()
        assert all(slab.state is SlabState.AVAILABLE for slab in arange.refs)
        assert not arange.rebuild_status
        check_invariants(mgr)

    def test_recover_frees_the_slab_a_ref_left(self):
        cluster, mgr, payloads = self.settled()
        arange = mgr.ranges[0]
        victim = arange.refs[0]
        old, dead = victim.slab_id, victim.machine_id
        cluster.fail_machine(dead)
        cluster.run_until_idle()
        mgr.drain_regeneration()
        cluster.run_until_idle()
        assert arange.refs[0].state is SlabState.AVAILABLE
        assert old not in cluster.slabs
        cluster.recover_machine(dead)
        machine = cluster.machines[dead]
        held = sum(SLAB for slab in arange.refs if slab.machine_id == dead)
        assert machine.free_bytes == machine.total_bytes - held

    def test_aborted_rebuild_frees_its_slab(self):
        cluster, mgr, payloads = self.settled()
        arange = mgr.ranges[0]
        cluster.evict_slab(arange.refs[2].slab_id)
        mgr.drain_regeneration()
        target, spare = arange.refs[2].slab_id, arange.refs[2].machine_id
        # the first backfill write is in flight from 2200 to 3700 ns
        cluster.schedule(3000, lambda: cluster.fail_machine(spare))
        cluster.run_until_idle()
        assert ("regenerate", "aborted") in {(op, out) for _, op, _, out in cluster.event_log}
        assert arange.refs[2].state in LOST
        assert target not in cluster.slabs
        assert cluster.machines[spare].slab_bytes == 0
        mgr.drain_regeneration()
        cluster.run_until_idle()
        assert arange.refs[2].state is SlabState.AVAILABLE

    def no_spare(self):
        # two groups of k+r=3 and no slack: a lost split has nowhere to go
        # inside its group, though the other group has room
        cluster, mgr = build(6, CodecParams(k=2, r=1), l=0)
        arange = mgr.map_range(0)
        mgr.remote_write(0, 0, page_of(1))
        victim = arange.refs[0]
        dead = victim.machine_id
        cluster.fail_machine(dead)
        cluster.run_until_idle()
        mgr.drain_regeneration()
        cluster.run_until_idle()
        return cluster, mgr, arange, victim, dead

    def test_group_without_spare_keeps_the_ref_failed(self):
        cluster, mgr, arange, victim, dead = self.no_spare()
        assert arange.refs[0].state in LOST
        others = [m for m in range(6) if m not in arange.group_members]
        assert all(cluster.machines[m].free_bytes >= SLAB for m in others)
        assert [s for s in cluster.slabs.values() if s.owner == 0 and s.machine_id in others] == []

    def test_ref_without_target_is_rebuilt_after_recover(self):
        cluster, mgr, arange, victim, dead = self.no_spare()
        old = victim.slab_id
        cluster.recover_machine(dead)
        assert arange.refs[0].state in LOST
        assert old not in cluster.slabs
        # the recovered machine is a spare of the group again
        mgr.drain_regeneration()
        cluster.run_until_idle()
        assert arange.refs[0].state is SlabState.AVAILABLE
        assert arange.refs[0].machine_id in arange.group_members
        assert arange.refs[0].split(0) == expected_split(CodecParams(k=2, r=1), page_of(1), 0)
        fresh = page_of(2)
        assert mgr.remote_write(0, 0, fresh).outcome == "durable"
        assert mgr.remote_read(0, 0) == fresh

    def test_regenerated_range_survives_next_failure(self):
        params = CodecParams(k=2, r=1)
        cluster, mgr, payloads = self.settled(params=params, n=6, l=3)
        arange = mgr.ranges[0]
        first = arange.refs[0].machine_id
        cluster.fail_machine(first)
        cluster.run_until_idle()
        mgr.drain_regeneration()
        cluster.run_until_idle()
        assert arange.refs[0].state is SlabState.AVAILABLE
        # redundancy is restored, so one more failure is still tolerable
        cluster.fail_machine(arange.refs[1].machine_id)
        cluster.run_until_idle()
        assert mgr.remote_read(0, 0) == payloads[0]


    def test_guarded_rebuild_never_fills_from_an_unverified_read(self):
        # with only k healthy splits the rebuild read cannot be verified, so
        # it must not copy role 0's corruption into the rebuilt parity
        params = CodecParams(k=2, r=2, delta=1)
        config = ManagerConfig(corruption_guard=True)
        cluster, mgr = build(5, params, l=1, config=config)
        arange = mgr.map_range(0)
        page = page_of(7)
        assert mgr.remote_write(0, 0, page).outcome == "durable"
        cluster.corrupt_slab(arange.refs[0].slab_id, 0, bytes.fromhex("ff"))

        def settle():
            cluster.run_until_idle()
            while mgr.regeneration_requests:
                mgr.drain_regeneration()
                cluster.run_until_idle()

        down = [arange.refs[2].machine_id, arange.refs[3].machine_id]
        for m in down:
            cluster.fail_machine(m)
        settle()
        for m in down:
            cluster.recover_machine(m)
        settle()
        for slab in arange.refs[1:]:
            if slab.state is SlabState.AVAILABLE:
                assert slab.split(0) == expected_split(params, page, slab.role), slab.role
        # nothing can verify a rebuild at k healthy splits, so the range stays degraded
        assert len(arange.healthy_refs()) == params.k

    def test_guarded_rebuild_aborts_when_its_read_loses_a_split_in_flight(self):
        # one group of five machines: range 0 on four, one spare
        params = CodecParams(k=2, r=2, delta=1)
        config = ManagerConfig(corruption_guard=True)
        cluster, mgr = build(5, params, l=1, config=config)
        arange = mgr.map_range(0)
        assert mgr.remote_write(0, 0, page_of(7)).outcome == "durable"
        cluster.fail_machine(arange.refs[3].machine_id)
        mgr.drain_regeneration()
        assert arange.refs[3].state is SlabState.REGENERATING
        # the rebuild's guarded read of roles 0-2 is in flight; cutting one
        # off leaves no spare to ask, so it decodes k splits unchecked
        cluster.fail_machine(arange.refs[0].machine_id)
        cluster.run_until_idle()
        assert ("regenerate", "r0:role3", "aborted") in [row[1:] for row in cluster.event_log]
        assert arange.refs[3].state in LOST
        assert arange.rebuild_status[3] == "unverified"

    @pytest.mark.parametrize("loss", ["fail", "evict"])
    def test_slab_lost_mid_rebuild_is_rebuilt_elsewhere(self, loss):
        params = CodecParams(k=2, r=1)
        cluster, mgr, payloads = self.settled(params=params, n=5, l=2)
        arange = mgr.ranges[0]
        cluster.fail_machine(arange.refs[0].machine_id)
        mgr.drain_regeneration()
        target = arange.refs[0]
        assert target.state is SlabState.REGENERATING
        # the rebuild's first page read is in flight when its slab is lost
        if loss == "fail":
            cluster.fail_machine(target.machine_id)
        else:
            cluster.evict_slab(target.slab_id)
        cluster.run_until_idle()
        assert ("regenerate", "r0:role0", "aborted") in [row[1:] for row in cluster.event_log]
        assert mgr.regeneration_requests == [(0, 0)]
        check_invariants(mgr)
        mgr.drain_regeneration()
        cluster.run_until_idle()
        assert arange.refs[0].state is SlabState.AVAILABLE
        for p, payload in payloads.items():
            assert arange.refs[0].split(p) == expected_split(params, payload, 0)
        check_invariants(mgr)

    def test_ref_without_target_is_rebuilt_after_an_eviction(self):
        # one group of four machines, each with room for one slab: the
        # range's spare holds a slab of no range, so a lost ref finds no target
        params = CodecParams(k=2, r=1)
        cluster, mgr = build(4, params, l=1, machine_bytes=SLAB)
        arange = mgr.map_range(0)
        mgr.remote_write(0, 0, page_of(1))
        (spare,) = set(arange.group_members) - {slab.machine_id for slab in arange.refs}
        filler = cluster.machines[spare].allocate_slab(SLAB)
        cluster.fail_machine(arange.refs[0].machine_id)
        cluster.run_until_idle()
        # with no spare, the failure queues nothing, so a drain starts nothing
        assert mgr.drain_regeneration() == []
        assert arange.refs[0].state in LOST and not arange.rebuild_status
        # the eviction alone makes room on the spare; nothing recovers
        cluster.evict_slab(filler.slab_id)
        assert mgr.regeneration_requests == [(0, 0)]
        mgr.drain_regeneration()
        cluster.run_until_idle()
        victim = arange.refs[0]
        assert victim.state is SlabState.AVAILABLE and victim.machine_id == spare
        assert victim.split(0) == expected_split(params, page_of(1), 0)

    def test_aborted_rebuild_gives_its_room_to_a_parked_ref(self):
        # one group of nine machines with room for one slab each: range 0 on
        # 0-3, range 1 on 4-7, and machine 8 the only spare
        params = CodecParams(k=2, r=2, delta=1)
        config = ManagerConfig(corruption_guard=True)
        cluster, mgr = build(9, params, l=5, config=config, machine_bytes=SLAB)
        doomed, parked = mgr.map_range(0), mgr.map_range(1)
        mgr.remote_write(0, 0, page_of(0))
        mgr.remote_write(1, 0, page_of(1))
        # range 0 keeps only k healthy splits, so its rebuilds cannot be
        # verified; each takes machine 8 first and aborts, and range 1's ref
        # finds no spare until then
        for m in (0, 1, 4):
            cluster.fail_machine(m)
        cluster.run_until_idle()
        for _ in range(8):
            mgr.drain_regeneration()
            cluster.run_until_idle()
        assert not mgr.regeneration_requests
        assert [slab.state in LOST for slab in doomed.refs] == [True, True, False, False]
        victim = parked.refs[0]
        assert victim.state is SlabState.AVAILABLE and victim.machine_id == 8
        assert victim.split(0) == expected_split(params, page_of(1), 0)
        check_invariants(mgr)

    def unverifiable_abort(self):
        # one group of six machines: range 0 on four, two spares
        params = CodecParams(k=2, r=2, delta=1)
        config = ManagerConfig(corruption_guard=True, page_size=64, slab_size=1024)
        cluster, mgr = build(6, params, l=2, config=config)
        arange = mgr.map_range(0)
        mgr.remote_write(0, 0, page_of(1, size=64))
        cluster.run_until_idle()
        # role 0's corruption fails the rebuild's check of k+delta splits,
        # and correcting it needs k+2*delta+1, more than are healthy
        cluster.corrupt_slab(arange.refs[0].slab_id, 0, b"\xff")
        dead = arange.refs[2].machine_id
        cluster.fail_machine(dead)
        mgr.drain_regeneration()
        cluster.run_until_idle()
        assert ("regenerate", "r0:role2", "aborted") in [row[1:] for row in cluster.event_log]
        assert arange.refs[2].state in LOST and not mgr.regeneration_requests
        return cluster, mgr, arange, dead

    def test_rebuild_aborted_on_an_unverifiable_read_retries_after_a_rewrite(self):
        cluster, mgr, arange, _ = self.unverifiable_abort()
        fresh = page_of(2, size=64)
        assert mgr.remote_write(0, 0, fresh).outcome == "degraded"
        cluster.run_until_idle()
        mgr.drain_regeneration()
        cluster.run_until_idle()
        check_invariants(mgr)
        assert arange.refs[2].state is SlabState.AVAILABLE
        assert mgr.remote_read(0, 0) == fresh

    def test_write_asks_no_rebuild_of_a_slot_rebuilt_since_its_abort(self):
        cluster, mgr, arange, dead = self.unverifiable_abort()
        # the same mask undoes the corruption, and a recovery asks again
        cluster.corrupt_slab(arange.refs[0].slab_id, 0, b"\xff")
        cluster.recover_machine(dead)
        mgr.drain_regeneration()
        cluster.run_until_idle()
        assert arange.refs[2].state is SlabState.AVAILABLE
        assert mgr.remote_write(0, 0, page_of(2, size=64)).outcome == "durable"
        cluster.run_until_idle()
        assert not mgr.regeneration_requests

    def test_failed_write_asks_no_rebuild(self):
        cluster, mgr, arange, _ = self.unverifiable_abort()
        for role in (1, 3):
            cluster.fail_machine(arange.refs[role].machine_id)
        assert mgr.remote_write(0, 0, page_of(2, size=64)).outcome == "write-failed"
        assert (0, 2) not in mgr.regeneration_requests


class TestStatsAndTicks:
    def test_tick_drains_regeneration_requests(self):
        # the service the benchmark drains through forwards to the manager
        cluster, mgr, payloads = TestRegeneration().settled()
        arange = mgr.ranges[0]
        cluster.evict_slab(arange.refs[2].slab_id)
        rebuilds = MonitorService(cluster, mgr).drain_regeneration()
        assert rebuilds
        assert all(type(r) is manager._Rebuild for r in rebuilds)
        cluster.run_until_idle()
        assert arange.refs[2].state is SlabState.AVAILABLE
        # the fields the benchmark reads from each record
        assert all(r.done and r.succeeded for r in rebuilds)
