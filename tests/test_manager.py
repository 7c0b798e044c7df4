"""Data-path tests: async coded writes, late-binding reads, corruption
handling, failure recovery, per-address ordering.

Latency is frozen flat (sigma=0): every hop 1500ns, encode 700ns,
decode 1500ns. Expected timelines below are derived by hand from the
data-path rules:
  async write: data acks at 1500, encode done 2200, parity ack (durable) 3700
  sync write: encode 700, all acks 2200
"""

import sys

import numpy as np
import pytest

from codedmem import coding, manager, placement, simulator
from codedmem.coding import CodecParams
from codedmem.errors import (
    CapacityExhausted,
    InvalidParams,
    UncorrectableCorruption,
    UnrecoverableRead,
)
from codedmem.manager import ManagerConfig, ResilienceManager
from codedmem.simulator import Cluster, FaultScript, LatencyModel


def flat_cluster(n, seed=0, costs=None, **kw):
    """`costs` are data-path costs of the latency model, in us."""
    model = LatencyModel(median_us=1.5, sigma=0.0, straggler_prob=0.0, **(costs or {}))
    return Cluster(n, latency=model, seed=seed, **kw)


def build(n, params, l=0, seed=0, config=None, cluster=None):
    cluster = cluster or flat_cluster(n, seed=seed)
    shape = placement.ClusterShape(machines=n)
    plan = placement.build_codingsets(shape, params, l=l, seed=seed)
    mgr = ResilienceManager(cluster, plan, params, config=config, seed=seed)
    return cluster, mgr


def page_of(rng_seed, size=4096):
    return np.random.default_rng(rng_seed).integers(0, 256, size, dtype=np.uint8).tobytes()


class TestMapRange:
    def test_allocates_on_distinct_machines(self):
        _, mgr = build(6, CodecParams(k=2, r=1), l=3)
        rng = mgr.map_range(0)
        machines = [ref.machine_id for ref in rng.refs]
        assert len(machines) == 3
        assert len(set(machines)) == 3

    def test_least_loaded_preferred(self):
        cluster, mgr = build(4, CodecParams(k=1, r=1), l=2)
        # preload machines 2,3 with slabs so 0,1 are the least loaded
        cluster.machines[2].allocate_slab(1 << 20)
        cluster.machines[3].allocate_slab(1 << 20)
        rng = mgr.map_range(0)
        assert sorted(ref.machine_id for ref in rng.refs) == [0, 1]

    def test_capacity_exhausted(self):
        cluster = flat_cluster(3, machine_bytes=4096)
        _, mgr = build(3, CodecParams(k=2, r=1), l=0, cluster=cluster)
        with pytest.raises(CapacityExhausted):
            mgr.map_range(0)

    @pytest.mark.parametrize("range_id", [-1, -5000, 2.0, "0"])
    def test_bad_range_id_rejected(self, range_id):
        _, mgr = build(6, CodecParams(k=2, r=1), l=3)
        mgr.map_range(0)
        with pytest.raises(InvalidParams, match="range id"):
            mgr.map_range(range_id)
        assert list(mgr.ranges) == [0]

    def test_mapping_a_mapped_range_returns_it_and_allocates_nothing(self):
        cluster, mgr = build(6, CodecParams(k=2, r=1), l=3)
        arange = mgr.map_range(0)
        slabs = dict(cluster.slabs)
        assert mgr.map_range(0) is arange
        assert cluster.slabs == slabs

    def test_page_capacity(self):
        _, mgr = build(3, CodecParams(k=2, r=1))
        rng = mgr.map_range(0)
        # 64KiB slab / 2048B split
        assert rng.page_capacity == 32


class TestWritePath:
    def test_async_write_timeline(self):
        cluster, mgr = build(3, CodecParams(k=2, r=1))
        mgr.map_range(0)
        done = mgr.remote_write(0, 0, page_of(1))
        assert done.outcome == "durable"
        assert done.data_acked_ns == 1500
        assert done.completed_ns == 1500  # caller unblocks at the data acks
        assert done.durable_ns == 3700
        assert done.data_acked_ns <= done.durable_ns
        assert done.durable_ns - done.data_acked_ns >= 700  # encode cost gap

    def test_sync_write_timeline(self):
        config = ManagerConfig(async_parity=False)
        cluster, mgr = build(3, CodecParams(k=2, r=1), config=config)
        mgr.map_range(0)
        done = mgr.remote_write(0, 0, page_of(2))
        assert done.data_acked_ns == 2200
        assert done.durable_ns == 2200
        assert done.completed_ns == 2200  # caller waits for parity too

    def test_write_fanout_counts_all_refs(self):
        _, mgr = build(5, CodecParams(k=3, r=2))
        mgr.map_range(0)
        done = mgr.remote_write(0, 1, page_of(3))
        assert done.fanout == 5

    def test_stored_splits_match_codec(self):
        cluster, mgr = build(3, CodecParams(k=2, r=1))
        rng = mgr.map_range(0)
        page = page_of(4)
        mgr.remote_write(0, 5, page)
        codec = coding.make_codec(CodecParams(k=2, r=1))
        data = [page[:2048], page[2048:]]
        expect = data + coding.encode(codec, data)
        got = [cluster.slabs[ref.slab_id].store[5] for ref in rng.refs]
        assert got == expect

    def test_degraded_write_when_parity_machine_down(self):
        cluster, mgr = build(3, CodecParams(k=2, r=1))
        rng = mgr.map_range(0)
        cluster.fail_machine(rng.refs[2].machine_id)
        cluster.run_until_idle()
        done = mgr.remote_write(0, 0, page_of(5))
        # no replacement candidates (k+r == cluster size): degraded but acked
        assert done.outcome == "degraded"
        assert done.data_acked_ns == 1500
        assert done.durable_ns is None

    def test_degraded_data_slab_uses_parity_for_ack(self):
        cluster, mgr = build(3, CodecParams(k=2, r=1))
        rng = mgr.map_range(0)
        cluster.fail_machine(rng.refs[0].machine_id)
        cluster.run_until_idle()
        done = mgr.remote_write(0, 0, page_of(6))
        # encode enters the ack path: issue at 700, acks at 2200
        assert done.data_acked_ns == 2200
        assert done.outcome == "degraded"
        # page still readable from the two remaining splits
        assert mgr.remote_read(0, 0) == page_of(6)

    @pytest.mark.parametrize(
        "async_parity, regenerating",
        [(True, False), (True, True), (False, True)],
        ids=["async", "async-data-slab-lost", "sync"],
    )
    def test_the_encode_cost_is_paid_once(self, monkeypatch, async_parity, regenerating):
        # wave one all data: wave two waits encode_ns after the k-ack; wave
        # one carrying parity paid it already, so wave two goes at the k-ack
        parity_in_ack = regenerating or not async_parity
        config = ManagerConfig(async_parity=async_parity)
        cluster, mgr = build(5, CodecParams(k=2, r=2), l=1, config=config)
        arange = mgr.map_range(0)
        if regenerating:
            cluster.fail_machine(arange.refs[0].machine_id)
            cluster.run_until_idle()
            mgr.relocate(arange, 0)  # a fresh slab that takes only wave two's fill
        issued = {}
        real = Cluster.write_split

        def recorded(cluster, machine_id, slab_id, page_index, data, on_done, fill=False):
            issued[cluster.slabs[slab_id].role] = cluster.now
            return real(cluster, machine_id, slab_id, page_index, data, on_done, fill=fill)

        monkeypatch.setattr(Cluster, "write_split", recorded)
        op = mgr.submit_write(0, 0, page_of(9))
        wave1 = set(op.wave1_roles)  # the op starts at once on an idle page
        cluster.run_until_idle()
        assert op.outcome == "durable" and len(issued) == 4
        assert op.encode_ack_ns == (mgr.encode_ns if parity_in_ack else 0)
        ack = 1500 + op.encode_ack_ns
        assert op.data_acked_ns == ack
        wave2_at = ack if parity_in_ack else ack + mgr.encode_ns
        expect = {role: op.encode_ack_ns if role in wave1 else wave2_at for role in range(4)}
        assert issued == expect and len(wave1) < 4

    def test_write_failed_when_under_k_reachable(self):
        cluster, mgr = build(3, CodecParams(k=2, r=1))
        rng = mgr.map_range(0)
        cluster.fail_machine(rng.refs[0].machine_id)
        cluster.fail_machine(rng.refs[2].machine_id)
        cluster.run_until_idle()
        done = mgr.remote_write(0, 0, page_of(7))
        assert done.outcome == "write-failed"

    def test_midflight_disconnect_reissues_to_replacement(self):
        # group has one spare member to host the replacement slab
        cluster, mgr = build(4, CodecParams(k=2, r=1), l=1)
        rng = mgr.map_range(0)
        victim = rng.refs[0].machine_id
        page = page_of(8)
        op = mgr.submit_write(0, 0, page)
        cluster.schedule_at(700, lambda: cluster.fail_machine(victim))
        cluster.run_until_idle()
        done = op.completion
        assert done.outcome == "durable"
        assert done.data_acked_ns == 2200  # reissued split ack at 700+1500
        assert rng.refs[0].machine_id != victim
        # all pages are present on the replacement, so it is healthy again
        assert mgr.remote_read(0, 0) == page


class TestReadPath:
    def test_read_roundtrip_and_fanout(self):
        _, mgr = build(4, CodecParams(k=2, r=2, delta=1))
        mgr.map_range(0)
        page = page_of(9)
        mgr.remote_write(0, 3, page)
        op = mgr.submit_read(0, 3)
        mgr.drive(op)
        assert op.completion.outcome == "ok"
        assert op.completion.page == page
        assert op.completion.fanout == 3  # k + delta

    def test_unwritten_page_reads_zero_page(self):
        _, mgr = build(3, CodecParams(k=2, r=1))
        mgr.map_range(0)
        assert mgr.remote_read(0, 7) == b"\x00" * 4096

    def test_completion_at_kth_arrival(self):
        # pure striping: no parity anywhere, so no decode charge can hide
        # in the latency and the k-th arrival alone defines it
        _, mgr = build(2, CodecParams(k=2, r=0))
        mgr.map_range(0)
        mgr.remote_write(0, 0, page_of(10))
        op = mgr.submit_read(0, 0)
        mgr.drive(op)
        assert op.completion.completed_ns - op.completion.started_ns == 1500

    def test_reads_survive_r_failures(self):
        cluster, mgr = build(4, CodecParams(k=2, r=2))
        rng = mgr.map_range(0)
        page = page_of(11)
        mgr.remote_write(0, 0, page)
        cluster.fail_machine(rng.refs[1].machine_id)
        cluster.fail_machine(rng.refs[3].machine_id)
        cluster.run_until_idle()
        assert mgr.remote_read(0, 0) == page

    def test_unrecoverable_when_under_k_healthy(self):
        cluster, mgr = build(3, CodecParams(k=2, r=1))
        rng = mgr.map_range(0)
        mgr.remote_write(0, 0, page_of(12))
        cluster.fail_machine(rng.refs[0].machine_id)
        cluster.fail_machine(rng.refs[1].machine_id)
        cluster.run_until_idle()
        with pytest.raises(UnrecoverableRead):
            mgr.remote_read(0, 0)

    def test_unrecoverable_when_lost_splits_leave_no_spare(self):
        # the first target fails mid-flight and the one unasked ref is down
        # too: the read concludes short of k and must still deliver and
        # release its page
        cluster, mgr = build(3, CodecParams(k=2, r=1, delta=0))
        arange = mgr.map_range(0)
        op = mgr.submit_read(0, 0)
        (unasked,) = set(range(3)) - set(op.targets)
        cluster.fail_machine(arange.refs[op.targets[0]].machine_id)
        cluster.fail_machine(arange.refs[unasked].machine_id)
        cluster.run_until_idle()
        assert op.done
        assert op.completion.outcome == "unrecoverable"
        assert mgr._locks == {}

    @pytest.mark.parametrize("context_switch_us", [0, 1.5])
    def test_a_failed_read_has_a_completion_time(self, context_switch_us):
        # the read fails when it starts, so its caller unblocks after the
        # context switch alone: no split, decode or copy stands before it
        cluster = flat_cluster(3, costs={"context_switch_us": context_switch_us, "copy_us": 0.85})
        cluster, mgr = build(3, CodecParams(k=2, r=1), cluster=cluster)
        arange = mgr.map_range(0)
        cluster.fail_machine(arange.refs[0].machine_id)
        cluster.fail_machine(arange.refs[1].machine_id)
        cluster.run_until_idle()
        cluster.schedule(400, lambda: None)
        cluster.step()
        op = mgr.submit_read(0, 0)
        assert op.done and op.outcome == "unrecoverable"
        assert op.completed_ns == op.submitted_ns + mgr.ctx_ns == 400 + mgr.ctx_ns

    def test_late_splits_discarded_in_log(self):
        cluster, mgr = build(4, CodecParams(k=2, r=2, delta=1), seed=3)
        mgr.map_range(0)
        mgr.remote_write(0, 0, page_of(13))
        before = cluster.split_outcomes["read_split", "ok"]
        op = mgr.submit_read(0, 0)
        mgr.drive(op)
        cluster.run_until_idle()
        # k+delta splits arrive; the late one is dropped, and a delivered
        # read holds none of them
        assert cluster.split_outcomes["read_split", "ok"] - before == 3
        assert op.arrivals is None
        assert cluster.event_log == []


class TestOpIsItsCompletion:
    def test_read_and_write_are_their_own_completions(self):
        _, mgr = build(3, CodecParams(k=2, r=1))
        mgr.map_range(0)
        seen = []
        write = mgr.submit_write(0, 0, page_of(21), on_done=seen.append)
        assert write.completion is None
        mgr.drive(write)
        read = mgr.submit_read(0, 0, on_done=seen.append)
        assert read.completion is None
        mgr.drive(read)
        assert write.completion is write and read.completion is read
        assert seen == [write, read]
        assert read.page == page_of(21)

    def test_done_ops_release_their_buffers(self):
        cluster, mgr = build(3, CodecParams(k=2, r=1))
        mgr.map_range(0)
        write = mgr.submit_write(0, 0, page_of(22))
        read = mgr.submit_read(0, 0)
        cluster.run_until_idle()
        assert write.outcome == "durable"
        assert (write.page, write.codeword, write.wave1_roles) == (None,) * 3
        assert read.outcome == "ok"
        assert read.arrivals is None

    def test_ack_times_are_split_conclusions(self, monkeypatch):
        # lognormal hops and a data split failed mid-flight: the k-th ok
        # conclusion plus the context switch is the data ack, and the last
        # ok conclusion is the durable point
        model = LatencyModel(median_us=1.5, sigma=0.5, straggler_prob=0.0, context_switch_us=1.5)
        params = CodecParams(k=3, r=2)
        cluster = Cluster(6, latency=model, seed=5)
        _, mgr = build(6, params, l=1, seed=5, cluster=cluster)
        arange = mgr.map_range(0)
        concluded = []
        real = Cluster.write_split

        def recorded(cluster, machine_id, slab_id, page_index, data, on_done, fill=False):
            def done(split):
                concluded.append((cluster.now, split.outcome))
                on_done(split)

            return real(cluster, machine_id, slab_id, page_index, data, done, fill=fill)

        monkeypatch.setattr(Cluster, "write_split", recorded)
        victim = arange.refs[0].machine_id
        op = mgr.submit_write(0, 0, page_of(23))
        cluster.schedule_at(1, lambda: cluster.fail_machine(victim))
        cluster.run_until_idle()
        ok = [t for t, outcome in concluded if outcome == "ok"]
        assert "disconnect" in {outcome for _, outcome in concluded}
        assert op.outcome == "durable" and len(ok) == 5
        assert len(set(ok)) == 5  # distinct times, so the k-th is not the last
        assert op.data_acked_ns == ok[params.k - 1] + mgr.ctx_ns
        assert mgr.ctx_ns == 1500
        assert op.durable_ns == ok[-1]


class TestDataPathKnobs:
    """The paper's data-path ablations, on the flat model: each cost is
    zero unless the latency model sets it."""

    def latencies(self, async_parity=True, **costs):
        config = ManagerConfig(async_parity=async_parity)
        cluster = flat_cluster(3, costs=costs)
        _, mgr = build(3, CodecParams(k=2, r=1), config=config, cluster=cluster)
        mgr.map_range(0)
        write = mgr.remote_write(0, 0, page_of(30))
        op = mgr.submit_read(0, 0)
        mgr.drive(op)
        read = op.completion
        return mgr, write.completed_ns - write.submitted_ns, read.completed_ns - read.submitted_ns

    @pytest.mark.parametrize("async_parity", [True, False])
    def test_context_switch_adds_to_each_op(self, async_parity):
        # with parity in the ack path the switch comes after the last ack
        base, write, read = self.latencies(async_parity)
        assert base.ctx_ns == base.copy_ns == 0
        assert write == (1500 if async_parity else 2200)
        mgr, switched_write, switched_read = self.latencies(async_parity, context_switch_us=1.5)
        assert mgr.ctx_ns == 1500
        assert switched_write == write + mgr.ctx_ns
        assert switched_read == read + mgr.ctx_ns

    def test_copy_before_issue_and_again_at_read_completion(self, monkeypatch):
        _, write, read = self.latencies()
        mgr, copied_write, copied_read = self.latencies(copy_us=0.85)
        assert mgr.copy_ns == 850
        assert copied_write == write + mgr.copy_ns
        assert copied_read == read + 2 * mgr.copy_ns
        # the copy comes before the splits go out: a read's splits are
        # issued one copy after it starts
        issued = []
        real = Cluster.read_split

        def recorded(cluster, *args):
            issued.append(cluster.now)
            return real(cluster, *args)

        monkeypatch.setattr(Cluster, "read_split", recorded)
        op = mgr.submit_read(0, 0)
        mgr.drive(op)
        assert issued and {t - op.started_ns for t in issued} == {mgr.copy_ns}

    def test_copied_read_goes_to_the_slab_that_took_its_slot(self, monkeypatch):
        # a target's slab is lost and its slot relocated during the copy
        # delay: the split goes to the slab in the slot when it is sent
        cluster = flat_cluster(4, costs={"copy_us": 0.85})
        cluster, mgr = build(4, CodecParams(k=2, r=1), l=1, cluster=cluster)
        arange = mgr.map_range(0)
        page = page_of(31)
        mgr.remote_write(0, 0, page)
        cluster.run_until_idle()
        sent = []
        real = Cluster.read_split

        def recorded(cluster, machine_id, slab_id, page_index, on_done):
            sent.append(slab_id)
            return real(cluster, machine_id, slab_id, page_index, on_done)

        monkeypatch.setattr(Cluster, "read_split", recorded)
        op = mgr.submit_read(0, 0)
        role = op.targets[0]
        old = arange.refs[role]

        def relocate():
            cluster.evict_slab(old.slab_id)
            mgr.drain_regeneration()

        cluster.schedule(mgr.copy_ns // 2, relocate)
        mgr.drive(op)
        new = arange.refs[role]
        assert new is not old and new.role == role
        assert new.slab_id in sent and old.slab_id not in sent
        assert op.completion.page == page


def test_copied_write_wave_is_one_event_sent_to_the_slabs_in_its_slots(monkeypatch):
    # wave one's k splits wait one copy as a single scheduled entry, go out
    # in role order when it fires, and a slot relocated during the copy
    # delay gets its split at the slab that took it
    cluster = flat_cluster(4, costs={"copy_us": 0.85})
    cluster, mgr = build(4, CodecParams(k=2, r=1), l=1, cluster=cluster)
    arange = mgr.map_range(0)
    mgr.remote_write(0, 0, page_of(32))
    cluster.run_until_idle()
    scheduled, sent = [], []
    real_schedule_at, real_write_split = Cluster.schedule_at, Cluster.write_split

    def schedule_at(cluster, time_ns, fn):
        scheduled.append(time_ns)
        return real_schedule_at(cluster, time_ns, fn)

    def write_split(cluster, machine_id, slab_id, page_index, data, on_done, fill=False):
        sent.append((cluster.now, slab_id, fill))
        return real_write_split(cluster, machine_id, slab_id, page_index, data, on_done, fill)

    monkeypatch.setattr(Cluster, "schedule_at", schedule_at)
    monkeypatch.setattr(Cluster, "write_split", write_split)
    page = page_of(33)
    op = mgr.submit_write(0, 0, page)
    assert scheduled == [op.started_ns + mgr.copy_ns]
    assert op.fanout == op.outstanding == 2
    old = arange.refs[0]

    def relocate():
        cluster.evict_slab(old.slab_id)
        mgr.drain_regeneration()

    cluster.schedule(mgr.copy_ns // 2, relocate)
    mgr.drive(op)
    new = arange.refs[0]
    assert new is not old and new.role == 0
    sent_at = op.started_ns + mgr.copy_ns
    assert sent[:2] == [(sent_at, new.slab_id, False), (sent_at, arange.refs[1].slab_id, False)]
    # the new slab refuses a plain write while it regenerates, so the split
    # is sent again to it as a backfill
    assert sent[2] == (sent_at, new.slab_id, True)
    assert old.slab_id not in {slab_id for _, slab_id, _ in sent}
    cluster.run_until_idle()
    assert mgr.remote_read(0, 0) == page


class TestCorruption:
    def corrupted_setup(self, seed=0):
        params = CodecParams(k=2, r=3, delta=1)  # k+2d+1 == k+r == 5
        config = ManagerConfig(corruption_guard=True)
        cluster, mgr = build(5, params, config=config, seed=seed)
        rng = mgr.map_range(0)
        page = page_of(14)
        mgr.remote_write(0, 0, page)
        return cluster, mgr, rng, page

    def test_guarded_read_waits_for_k_plus_delta(self):
        cluster, mgr, rng, page = self.corrupted_setup()
        op = mgr.submit_read(0, 0)
        mgr.drive(op)
        assert op.completion.fanout == 3
        assert op.completion.page == page
        assert not op.completion.corrected

    def test_corruption_detected_and_corrected(self):
        cluster, mgr, rng, page = self.corrupted_setup()
        bad_ref = rng.refs[1]
        cluster.corrupt_slab(bad_ref.slab_id, 0, b"\xff\x01")
        # force the corrupted split into the fan-out by failing nothing:
        # loop until a read picks it (seeded, deterministic)
        for _ in range(10):
            op = mgr.submit_read(0, 0)
            mgr.drive(op)
            assert op.completion.page == page  # never a wrong page
            if op.completion.corrected:
                break
        else:
            pytest.fail("corrupted split never sampled")
        assert op.completion.fanout == 5  # escalated to k + 2*delta + 1
        assert op.completion.verified
        assert sum(mgr.health[bad_ref.machine_id].window) >= 1

    def spare_range(self, guard):
        # k=2, r=2, delta=1 on 5 machines with one spare
        params = CodecParams(k=2, r=2, delta=1)
        cluster, mgr = build(5, params, l=1, config=ManagerConfig(corruption_guard=guard))
        arange = mgr.map_range(0)
        page = page_of(7)
        assert mgr.remote_write(0, 0, page).outcome == "durable"
        return cluster, mgr, arange, page

    @pytest.mark.parametrize("guard", [True, False])
    def test_read_of_k_plus_delta_splits_is_verified_only_under_the_guard(self, guard):
        cluster, mgr, arange, page = self.spare_range(guard)
        op = mgr.drive(mgr.submit_read(0, 0))
        assert op.outcome == "ok" and op.page == page
        assert op.verified is guard

    def test_read_of_k_healthy_splits_delivers_ok_unverified(self):
        # role 0's split corrupted, roles 2 and 3 failed: the read decodes
        # the k healthy splits unchecked and returns a wrong page as `ok`
        cluster, mgr, arange, page = self.spare_range(True)
        cluster.corrupt_slab(arange.refs[0].slab_id, 0, bytes.fromhex("ff"))
        for role in (2, 3):
            cluster.fail_machine(arange.refs[role].machine_id)
        cluster.run_until_idle()
        op = mgr.drive(mgr.submit_read(0, 0))
        assert op.outcome == "ok" and not op.guarded and not op.verified
        assert op.page != page

    def test_guarded_read_that_loses_a_split_in_flight_is_not_verified(self):
        cluster, mgr, arange, page = self.spare_range(True)
        cluster.fail_machine(arange.refs[3].machine_id)
        cluster.run_until_idle()
        op = mgr.submit_read(0, 0)
        assert op.guarded and len(op.targets) == 3
        # a split is cut off and no healthy slab is left to ask instead
        cluster.fail_machine(arange.refs[op.targets[0]].machine_id)
        mgr.drive(op)
        assert op.outcome == "ok" and op.page == page
        assert op.guarded and not op.verified

    def test_escalation_reconstructs_the_full_set_once(self, monkeypatch):
        cluster, mgr, rng, page = self.corrupted_setup()
        cluster.corrupt_slab(rng.refs[1].slab_id, 0, b"\xff\x01")
        real = coding._verified_decode
        sizes = []

        def counted(codec, splits):
            sizes.append(len(splits))
            return real(codec, splits)

        monkeypatch.setattr(coding, "_verified_decode", counted)
        for _ in range(10):
            sizes.clear()
            op = mgr.submit_read(0, 0)
            mgr.drive(op)
            if op.completion.corrected:
                break
        else:
            pytest.fail("corrupted split never sampled")
        assert op.completion.page == page
        # k+delta splits checked once, then the k+2*delta+1 set once, then
        # the exclusion sets of correction
        assert sizes[0] == 3
        assert sizes.count(5) == 1

    def test_past_delta_corruptions_deliver_corrupt_unrecoverable(self):
        cluster, mgr, rng, page = self.corrupted_setup()
        cluster.corrupt_slab(rng.refs[0].slab_id, 0, b"\x42")
        cluster.corrupt_slab(rng.refs[3].slab_id, 0, b"\x17")
        # a suspect machine widens the first hop to k+2*delta+1
        mgr.health[rng.refs[0].machine_id].record(False)
        op = mgr.submit_read(0, 0)
        mgr.drive(op)
        assert op.completion.fanout == 5
        assert op.completion.outcome == "corrupt-unrecoverable"
        assert op.completion.page is None
        assert op.completion.completed_ns == cluster.now  # no context switch is set
        assert mgr._locks == {}
        with pytest.raises(UncorrectableCorruption):
            mgr.remote_read(0, 0)
        assert mgr._locks == {}

    def test_repeated_errors_mark_suspect_and_request_regen(self):
        cluster, mgr, rng, page = self.corrupted_setup()
        bad_ref = rng.refs[0]
        cluster.corrupt_slab(bad_ref.slab_id, 0, b"\x42")
        hits = 0
        for _ in range(12):
            op = mgr.submit_read(0, 0)
            mgr.drive(op)
            if op.completion.corrected:
                hits += 1
            if mgr.health[bad_ref.machine_id].suspect:
                break
        assert hits >= 1
        assert mgr.health[bad_ref.machine_id].suspect
        # suspect machine: next read fans out at correction width immediately
        op = mgr.submit_read(0, 0)
        mgr.drive(op)
        assert op.completion.fanout == 5
        assert op.completion.page == page

    def test_health_error_count_tracks_its_window(self):
        health = manager.MachineHealth()
        rng = np.random.default_rng(4)
        assert health.error_rate == 0.0 and not health.suspect
        # a burst of failures, then long clean and mixed runs past the window
        for ok in [False] * 10 + [True] * 200 + rng.random(300).tolist():
            health.record(ok if isinstance(ok, bool) else ok > 0.1)
            window = list(health.window)
            assert health.errors == sum(window)
            assert health.error_rate == sum(window) / len(window)
            assert health.suspect == (sum(window) / len(window) > manager.ERROR_CORRECTION_LIMIT)

    def test_guarded_rebuild_through_a_corrupted_page_fills_from_the_decoded_page(
        self, monkeypatch
    ):
        params = CodecParams(k=2, r=4, delta=1)
        config = ManagerConfig(corruption_guard=True, page_size=64)
        cluster, mgr = build(7, params, l=1, config=config)
        arange = mgr.map_range(0)
        page = bytes(range(64))
        assert mgr.remote_write(0, 0, page).outcome == "durable"
        cluster.corrupt_slab(arange.refs[1].slab_id, 0, b"\xff")
        # a suspect machine widens the rebuild's read to all five healthy
        # splits, the corrupted one among them
        mgr.health[arange.refs[0].machine_id].record(False)
        lost = arange.refs[5]
        cluster.fail_machine(lost.machine_id)
        cluster.run_until_idle()
        reads = []
        real = manager._Rebuild._on_read

        def on_read(rebuild, read):
            reads.append((read.outcome, read.clean, read.corrected, read.verified))
            return real(rebuild, read)

        monkeypatch.setattr(manager._Rebuild, "_on_read", on_read)
        (rebuild,) = mgr.drain_regeneration()
        cluster.run_until_idle()
        assert reads == [("ok", False, True, True)]
        assert rebuild.done and rebuild.succeeded
        slab = arange.refs[5]
        assert slab is not lost and slab.state is simulator.SlabState.AVAILABLE
        assert slab.store[0] == coding.codeword(mgr.codec, page)[5]


class TestOrderingAndEviction:
    def test_per_page_ops_serialized(self):
        _, mgr = build(3, CodecParams(k=2, r=1))
        mgr.map_range(0)
        first = mgr.submit_write(0, 0, page_of(15))
        second = mgr.submit_write(0, 0, page_of(16))
        mgr.drive(second)
        assert first.completion.durable_ns == 3700
        # second waits for the first op to fully finish
        assert second.completion.data_acked_ns == 3700 + 1500

    def test_read_after_write_sees_new_data(self):
        _, mgr = build(3, CodecParams(k=2, r=1))
        mgr.map_range(0)
        mgr.submit_write(0, 0, page_of(17))
        page2 = page_of(18)
        mgr.submit_write(0, 0, page2)
        op = mgr.submit_read(0, 0)
        mgr.drive(op)
        assert op.completion.page == page2

    def test_eviction_degrades_range_and_requests_regen(self):
        cluster, mgr = build(4, CodecParams(k=2, r=1), l=1)
        rng = mgr.map_range(0)
        mgr.remote_write(0, 0, page_of(19))
        victim = rng.refs[2]
        simulator.inject(
            cluster,
            FaultScript.from_events(
                [{"type": "evict", "time_us": cluster.now / simulator.US, "slab": victim.slab_id}]
            ),
        )
        cluster.run_until_idle()
        assert rng.refs[2].state in simulator.LOST
        assert (0, victim.role) in mgr.regeneration_requests
        assert mgr.remote_read(0, 0) == page_of(19)  # still recoverable


def scanned_requests(mgr, machine_id, handler):
    """The rebuild requests a fault handler makes, found by scanning every
    range in mapping order and every slab in role order."""
    keys = []
    for arange in mgr.ranges.values():
        for slab in arange.refs:
            key = (arange.range_id, slab.role)
            state = slab.state
            if handler == "disconnect":
                hit = slab.machine_id == machine_id and state is simulator.SlabState.FAILED
            else:
                hit = (
                    machine_id in arange.group_members
                    and state in simulator.LOST
                    and (handler == "retry" or arange.rebuild_status.get(slab.role) == "no_target")
                )
            if hit:
                keys.append(key)
    return keys


class TestFaultHandlerIndex:
    HANDLERS = {
        "disconnect": lambda mgr, m: mgr.handle_disconnect(m),
        "retry": lambda mgr, m: mgr._ask_again(m, manager._lost),
        "parked": lambda mgr, m: mgr._ask_again(m, manager._without_target),
    }

    def handler_requests(self, mgr, machine_id, handler, monkeypatch):
        made = []
        with monkeypatch.context() as patch:
            patch.setattr(mgr, "_request_regen", lambda *key: made.append(key))
            self.HANDLERS[handler](mgr, machine_id)
        return made

    def test_handlers_request_in_scan_order_after_churn(self, monkeypatch):
        # three groups of four, ranges mapped between faults so their
        # mapping order interleaves the groups; tight memory parks refs
        n = 12
        params = CodecParams(k=2, r=1)
        cluster, mgr = build(n, params, l=1, seed=5, cluster=flat_cluster(n, machine_bytes=5 << 16))
        rng = np.random.default_rng(8)
        nonempty = {handler: 0 for handler in self.HANDLERS}
        for step in range(250):
            action = int(rng.integers(0, 5))
            m = int(rng.integers(0, n))
            if action == 0:
                try:
                    mgr.map_range(step)
                except CapacityExhausted:
                    pass
                else:
                    mgr.submit_write(step, 0, bytes([step % 256]) * mgr.config.page_size)
            elif action == 1:
                cluster.fail_machine(m)
            elif action == 2:
                cluster.recover_machine(m)
            elif action == 3 and cluster.slabs:
                ids = sorted(cluster.slabs)
                cluster.evict_slab(ids[int(rng.integers(0, len(ids)))])
            else:
                mgr.drain_regeneration()
            cluster.run_until_idle()
            for machine_id in range(n):
                for handler in self.HANDLERS:
                    made = self.handler_requests(mgr, machine_id, handler, monkeypatch)
                    assert made == scanned_requests(mgr, machine_id, handler), (step, handler)
                    nonempty[handler] += bool(made)
        assert len(mgr.ranges) > 6
        assert all(nonempty.values()), nonempty


def test_read_path_python_calls_stay_bounded():
    # the host cost of the read path as a count that does not depend on the
    # host: Python calls, generator resumptions included, over 200 seeded
    # reads at k=8, r=2 once 200 earlier reads have filled the decode-plan
    # cache. 92.0 per read when the bound was set to 97; 100.0 while a read
    # sent its splits one slab at a time, not as one wave; 108.0 while every
    # read ran the codec, even one whose splits equal the page's codeword;
    # 118.1 while each decoded arrival became a named tuple, not a plain
    # (index, data) pair, and 222.9 while each split had a lambda callback,
    # a conclusion frame of its own and a dataclass record.
    reads = 200
    params = CodecParams(k=8, r=2, delta=1)
    cluster = Cluster(12, latency=LatencyModel(straggler_prob=0.05), machine_bytes=1 << 26, seed=1)
    plan = placement.build_codingsets(placement.ClusterShape(machines=12), params, 2, 1)
    mgr = ResilienceManager(cluster, plan, params, seed=1)
    mgr.map_range(0)
    for page in range(16):
        mgr.remote_write(0, page, bytes([page + 1]) * mgr.config.page_size)
    for i in range(reads):
        mgr.remote_read(0, i % 16)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        for i in range(reads):
            mgr.remote_read(0, i % 16)
    finally:
        sys.setprofile(None)
    assert calls / reads <= 97


def test_write_path_python_calls_stay_bounded():
    # the write path's host cost as Python calls, counted as for reads above,
    # over 200 seeded writes at k=8, r=2 after 200 warm-up writes. 128.0 per
    # write when the bound was set to 135; 184.0 while each split of a wave
    # was an event of its own and the codec added rows as Python ints.
    writes = 200
    params = CodecParams(k=8, r=2, delta=1)
    cluster = Cluster(12, latency=LatencyModel(straggler_prob=0.05), machine_bytes=1 << 26, seed=1)
    plan = placement.build_codingsets(placement.ClusterShape(machines=12), params, 2, 1)
    mgr = ResilienceManager(cluster, plan, params, seed=1)
    mgr.map_range(0)
    size = mgr.config.page_size
    for i in range(writes):
        mgr.remote_write(0, i % 16, bytes([i % 251 + 1]) * size)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        for i in range(writes):
            mgr.remote_write(0, i % 16, bytes([(i + 7) % 251 + 1]) * size)
    finally:
        sys.setprofile(None)
    assert calls / writes <= 135


class TestDeterminism:
    def run_once(self, seed):
        cluster, mgr = build(6, CodecParams(k=2, r=2, delta=1), l=2, seed=seed)
        mgr.map_range(0)
        rows = []
        for i in range(20):
            if i % 3 == 0:
                done = mgr.remote_write(0, i % 8, page_of(i))
                rows.append(("W", done.data_acked_ns, done.durable_ns, done.outcome))
            else:
                page = mgr.remote_read(0, (i - 1) % 8 if i % 3 == 1 else i % 8)
                rows.append(("R", len(page)))
        return rows

    def test_reproducible(self):
        assert self.run_once(42) == self.run_once(42)

    def test_seed_changes_fanout_choices(self):
        def collect(seed):
            _, mgr = build(8, CodecParams(k=2, r=2, delta=0), l=4, seed=seed)
            mgr.map_range(0)
            mgr.remote_write(0, 0, page_of(20))
            picks = []
            for _ in range(6):
                op = mgr.submit_read(0, 0)
                mgr.drive(op)
                picks.append(op.targets)
            return picks

        assert collect(1) != collect(2)
