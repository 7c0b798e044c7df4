"""A concurrent fault walk: many ops in flight, faults and drains mid-op.

Each walk takes seeded actions on a small cluster: it submits writes and
reads without driving them, steps the event loop a few events at a time,
fails, recovers and evicts, flips one byte of a stored split (a parity
split too), drains rebuild requests, and settles. At each settle it drains
until no request is left, within a bound, and checks the rebuild statuses
(``invariants.check_rebuild_statuses``). It has no read oracle yet. The
walks run with the guard off and on, with sync parity, and with a copy
cost on the data path.

Run as a script to count the walks and settles that fail over more seeds:

    PYTHONPATH=src python tests/test_walk.py --seeds 300
"""

import argparse
import random

import pytest
from invariants import check_rebuild_statuses

from codedmem.coding import CodecParams
from codedmem.manager import ManagerConfig, ResilienceManager
from codedmem.placement import ClusterShape, build_codingsets
from codedmem.simulator import Cluster, LatencyModel, MachineState

MACHINES = 12
PARAMS = CodecParams(k=2, r=2, delta=1)
L = 2  # two groups of six
RANGES = 4
PAGES = 4
PAGE_SIZE = 64
SLAB = 128
ACTIONS = 300
DRAINS = 8  # drains a settle may take before its requests run out

# action -> weight
WEIGHTS = {
    "write": 20, "read": 10, "step": 25, "fail": 8, "recover": 8, "evict": 8,
    "corrupt": 5, "drain": 8, "settle": 5,
}

# name -> (corruption_guard, async_parity, copy_us, seeds in Tier-1); the
# seed counts are chosen for run time, never to avoid a failing seed
SETUPS = {
    "unguarded": (False, True, 0.0, 60),
    "guarded": (True, True, 0.0, 60),
    "sync-unguarded": (False, False, 0.0, 40),
    "sync-guarded": (True, False, 0.0, 40),
    "copy-unguarded": (False, True, 0.85, 40),
    "copy-guarded": (True, True, 0.85, 40),
}


def build(seed, setup):
    guard, async_parity, copy_us, _ = SETUPS[setup]
    latency = LatencyModel(straggler_prob=0.1, copy_us=copy_us)
    cluster = Cluster(MACHINES, latency=latency, machine_bytes=1 << 20, seed=seed)
    plan = build_codingsets(ClusterShape(machines=MACHINES), PARAMS, L, seed=seed)
    config = ManagerConfig(
        corruption_guard=guard, async_parity=async_parity, page_size=PAGE_SIZE, slab_size=SLAB
    )
    manager = ResilienceManager(cluster, plan, PARAMS, config=config, seed=seed)
    for rid in range(RANGES):
        manager.map_range(rid)
    return cluster, manager


def settle(cluster, manager):
    """Run to idle and drain until no request is left; the failure, if any."""
    cluster.run_until_idle()
    for _ in range(DRAINS):
        if not manager.regeneration_requests:
            break
        manager.drain_regeneration()
        cluster.run_until_idle()
    if manager.regeneration_requests:
        return f"requests left after {DRAINS} drains: {manager.regeneration_requests}"
    try:
        check_rebuild_statuses(manager)
    except AssertionError as err:
        return str(err)
    return None


def walk(seed, setup):
    """The failures of one walk's settles, with the action each followed."""
    rng = random.Random(seed)
    cluster, manager = build(seed, setup)
    split_size = manager.codec.split_size
    actions, weights = list(WEIGHTS), list(WEIGHTS.values())
    failures = []
    for i in range(ACTIONS):
        action = rng.choices(actions, weights)[0]
        if action == "write":
            page = bytes(rng.randrange(256) for _ in range(PAGE_SIZE))
            manager.submit_write(rng.randrange(RANGES), rng.randrange(PAGES), page)
        elif action == "read":
            manager.submit_read(rng.randrange(RANGES), rng.randrange(PAGES))
        elif action == "step":
            for _ in range(rng.randint(1, 5)):
                cluster.step()
        elif action == "fail":
            cluster.fail_machine(rng.randrange(MACHINES))
        elif action == "recover":
            down = [m.machine_id for m in cluster.machines if m.state is not MachineState.UP]
            if down:
                cluster.recover_machine(rng.choice(down))
        elif action == "evict":
            if cluster.slabs:
                cluster.evict_slab(rng.choice(sorted(cluster.slabs)))
        elif action == "corrupt":
            stored = [(s.slab_id, p) for _, s in sorted(cluster.slabs.items()) for p in sorted(s.store)]
            if stored:
                slab_id, page = rng.choice(stored)
                mask = bytes([rng.randrange(1, 256)])
                cluster.corrupt_slab(slab_id, page, mask, offset=rng.randrange(split_size))
        elif action == "drain":
            manager.drain_regeneration()
        if action == "settle" or i == ACTIONS - 1:
            failure = settle(cluster, manager)
            if failure:
                failures.append(f"action {i}: {failure}")
    return failures


@pytest.mark.parametrize("setup", SETUPS)
def test_walks_leave_no_slot_waiting_for_nothing(setup):
    seeds = SETUPS[setup][3]
    failed = {seed: failures for seed in range(seeds) if (failures := walk(seed, setup))}
    assert not failed, failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=300)
    args = parser.parse_args()
    for setup in SETUPS:
        walks = settles = 0
        for seed in range(args.seeds):
            failures = walk(seed, setup)
            walks += bool(failures)
            settles += len(failures)
        print(f"{setup}: {walks} of {args.seeds} walks failed, {settles} failing settles")


if __name__ == "__main__":
    main()
