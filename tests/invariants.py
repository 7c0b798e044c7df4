"""State invariants of a manager and its cluster, checked by the soak tests."""

from collections import Counter

from codedmem.simulator import LOST, MachineState, SlabState

# the rebuild statuses a lost slot may have: queued, or the reason it waits
WAITING = ("queued", "no_target", "unverified", "no_quorum")


def check_invariants(manager):
    """Assert that capacity, slab ownership and placement are consistent.

    - each machine's ``slab_bytes`` equals a recount of its live slabs
    - every owned, non-evicted slab on an UP machine is the slab of
      exactly one ref
    - every owned, evicted slab the cluster still holds is the slab of
      exactly one ref, so a ref that moves off it leaves no tombstone
    - every ref whose slab is not lost holds the very slab object that
      ``cluster.slabs`` and its machine's ``slabs`` hold under its id
    - each range's live refs sit on distinct machines
    - every ref's machine is a member of its range's group
    - no op holds a page's queue once the cluster is idle
    - every lost ref's slot has its rebuild queued, or a recorded reason
      to wait (``AddressRange.rebuild_status``)
    - every AVAILABLE ref holds every page in its range's ``codewords``
    - every stored object is a split or a whole page, and resolves through
      ``Slab.split`` to exactly ``split_size`` bytes
    - with no rebuild request queued, no ref is lost while its range could
      be rebuilt: while the range has k healthy splits (k + delta under the
      guard) and its group an up spare with room for the slab
    """
    cluster = manager.cluster
    assert not manager._locks, f"page queues held at idle: {sorted(manager._locks)}"
    holders = Counter(ref.slab_id for arange in manager.ranges.values() for ref in arange.refs)
    for machine in cluster.machines:
        live = [s for s in machine.slabs.values() if s.state is not SlabState.EVICTED]
        assert machine.slab_bytes == sum(s.size_bytes for s in live), machine.machine_id
        if machine.state is MachineState.UP:
            for slab in live:
                if slab.owner is not None:
                    assert holders[slab.slab_id] == 1, f"slab {slab.slab_id} held {holders[slab.slab_id]} times"
    for slab in cluster.slabs.values():
        if slab.owner is not None and slab.state is SlabState.EVICTED:
            assert holders[slab.slab_id] == 1, f"evicted slab {slab.slab_id} held {holders[slab.slab_id]} times"
    for arange in manager.ranges.values():
        hosts = [slab.machine_id for slab in arange.refs if slab.state not in LOST]
        assert len(hosts) == len(set(hosts)), f"range {arange.range_id} shares a machine"
        for role, slab in enumerate(arange.refs):
            assert slab.role == role, (arange.range_id, role)
            assert slab.machine_id in arange.group_members, (arange.range_id, role)
            if slab.state in LOST:
                status = arange.rebuild_status.get(role)
                assert status in WAITING, f"range {arange.range_id} role {role} lost, {status}"
            else:
                assert cluster.slabs.get(slab.slab_id) is slab, (arange.range_id, role)
                machine_slabs = cluster.machines[slab.machine_id].slabs
                assert machine_slabs.get(slab.slab_id) is slab, (arange.range_id, role)
            if slab.state is SlabState.AVAILABLE:
                missing = arange.codewords.keys() - slab.store.keys()
                assert not missing, f"range {arange.range_id} role {role} lacks {sorted(missing)}"
    page_size = manager.config.page_size
    for slab in cluster.slabs.values():
        for page, stored in slab.store.items():
            assert len(stored) in (slab.split_size, page_size), (slab.slab_id, page, len(stored))
            assert len(slab.split(page)) == slab.split_size, (slab.slab_id, page)
    if manager.regeneration_requests:
        return
    params = manager.codec.params
    floor = params.k + (params.delta if manager.config.corruption_guard else 0)
    for arange in manager.ranges.values():
        lost = [slab.role for slab in arange.refs if slab.state in LOST]
        if not lost or len(arange.healthy_refs()) < floor:
            continue
        hosting = {slab.machine_id for slab in arange.refs if slab.state not in LOST}
        spares = [
            m
            for m in arange.group_members
            if m not in hosting
            and cluster.machines[m].state is MachineState.UP
            and cluster.machines[m].free_bytes >= manager.config.slab_size
        ]
        assert not spares, f"range {arange.range_id} roles {lost} lost beside spares {spares}"
