"""Fresh-cluster equivalence: after a seeded script of writes, failures,
recoveries, evictions and rebuilds, every range is whole again and the
cluster's capacity matches a fresh cluster with the same ranges mapped.

Per-machine bytes may differ from the fresh cluster's, because rebuilt
refs move to spare members of their group; the cluster totals may not.

The script keeps its faults inside what the code can heal: at most one
machine is down at a time, and a fault never leaves a range with fewer
than k + delta healthy splits. Under the corruption guard a rebuild
needs a verified read, and a range with fewer than k + delta healthy
splits cannot be verified, so it stays degraded. With tight capacity a
lost ref may find no spare until its machine recovers, and a second
fault in its range would then reach that state.
"""

import numpy as np
import pytest
from invariants import check_invariants

from codedmem.coding import CodecParams
from codedmem.manager import ManagerConfig, ResilienceManager
from codedmem.monitor import MonitorService
from codedmem.placement import ClusterShape, build_codingsets
from codedmem.simulator import Cluster, LatencyModel, MachineState, SlabState

MACHINES = 16
RANGES = 24
STEPS = 400
PAGES = 8  # pages written per range
SLAB = 64 * 1024
PARAMS = CodecParams(k=4, r=2, delta=1)


def build(machine_bytes, seed):
    cluster = Cluster(
        MACHINES,
        latency=LatencyModel(median_us=1.5, sigma=0.25),
        machine_bytes=machine_bytes,
        seed=seed,
    )
    plan = build_codingsets(ClusterShape(machines=MACHINES), PARAMS, 2, seed=seed)
    config = ManagerConfig(corruption_guard=True)
    manager = ResilienceManager(cluster, plan, PARAMS, config=config, seed=seed)
    for rid in range(RANGES):
        manager.map_range(rid)
    return cluster, manager, MonitorService(cluster, manager)


def settle(cluster, manager, monitor):
    cluster.run_until_idle()
    while manager.regeneration_requests:
        monitor.drain_regeneration()
        cluster.run_until_idle()
    check_invariants(manager)


def leaves_healable(manager, slab_ids):
    """True if losing `slab_ids` keeps every range at k + delta healthy splits."""
    floor = PARAMS.k + PARAMS.delta
    for arange in manager.ranges.values():
        healthy = arange.healthy_refs()
        if len(healthy) - sum(ref.slab_id in slab_ids for ref in healthy) < floor:
            return False
    return True


def free_bytes(cluster):
    return sum(m.free_bytes for m in cluster.machines)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("machine_bytes", [8 << 20, 11 * SLAB], ids=["roomy", "tight"])
def test_churned_cluster_matches_a_fresh_one(machine_bytes, seed):
    cluster, manager, monitor = build(machine_bytes, seed)
    rng = np.random.default_rng(seed)
    shadow = {}
    for _ in range(STEPS):
        action = int(rng.integers(0, 5))
        down = [m.machine_id for m in cluster.machines if m.state is MachineState.FAILED]
        if action == 0:
            key = (int(rng.integers(0, RANGES)), int(rng.integers(0, PAGES)))
            payload = rng.integers(0, 256, manager.config.page_size, dtype=np.uint8).tobytes()
            op = manager.submit_write(*key, payload)
            manager.drive(op)
            assert op.outcome != "write-failed", key
            shadow[key] = payload
        elif action == 1 and not down:
            machine = cluster.machines[int(rng.integers(0, MACHINES))]
            if leaves_healable(manager, set(machine.slabs)):
                cluster.fail_machine(machine.machine_id)
        elif action == 2:
            for m in down:
                cluster.recover_machine(m)
        elif action == 3:
            live = sorted(
                sid
                for sid, slab in cluster.slabs.items()
                if slab.owner is not None and slab.state is SlabState.AVAILABLE
            )
            victim = live[int(rng.integers(0, len(live)))]
            if leaves_healable(manager, {victim}):
                cluster.evict_slab(victim)
        else:
            monitor.drain_regeneration()
        settle(cluster, manager, monitor)
    for machine in cluster.machines:
        cluster.recover_machine(machine.machine_id)
    settle(cluster, manager, monitor)

    width = PARAMS.k + PARAMS.r
    for arange in manager.ranges.values():
        assert all(ref.slab.state is SlabState.AVAILABLE for ref in arange.refs), arange.range_id
        hosts = {ref.machine_id for ref in arange.refs}
        assert len(hosts) == width and hosts <= set(arange.group_members), arange.range_id
    assert len(cluster.slabs) == RANGES * width
    fresh, _, _ = build(machine_bytes, seed)
    assert free_bytes(cluster) == free_bytes(fresh)
    for (rid, page), payload in shadow.items():
        assert manager.remote_read(rid, page) == payload, (rid, page)
    outcomes = {(op, outcome) for _, op, _, outcome in cluster.event_log}
    assert {("fail", "down"), ("evict", "evicted"), ("regenerate", "complete")} <= outcomes
