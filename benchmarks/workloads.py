"""The benchmark's workloads, driven through codedmem's public API.

A workload runs in passes. A pass builds everything it uses from the seed
(set-up), then does a fixed amount of work (the run). Every pass of one
seed therefore gives the same simulated results, and only host time
differs between passes.
"""

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from codedmem import analysis, placement
from codedmem.coding import CodecParams
from codedmem.manager import ManagerConfig, ResilienceManager
from codedmem.monitor import MonitorService
from codedmem.placement import ClusterShape
from codedmem.simulator import Cluster, FaultScript, LatencyModel, MachineState, inject

MACHINE_BYTES = 64 << 20
RUN_CHUNKS = 60  # the ops of a data-path pass are timed in this many chunks
BACKGROUND_LEVEL = 3.0  # latency multiplier inside the background-load window


@dataclass(frozen=True)
class Faults:
    """A seeded fault script, laid out by op index."""

    every: int  # ops between fault rounds; rounds alternate fail and evict
    down_for: int  # ops a failed machine stays down
    corrupt_prob: float  # chance a read of a clean written page is corrupted first
    background_at: int  # op index at which the background-load window opens
    background_us: float  # its length in virtual us


@dataclass(frozen=True)
class DatapathSpec:
    machines: int
    k: int
    r: int
    delta: int
    l: int
    guard: bool
    straggler_prob: float
    ranges: int
    pages: int  # pages per range that the ops touch
    populate: bool  # write every touched page before the ops
    ops: int
    read_fraction: float
    faults: Faults = None


@dataclass(frozen=True)
class PlacementSpec:
    balance_machines: int
    slabs_per_machine: int
    k: int
    r: int
    l: int
    mc_machines: int
    failure_fraction: float
    trials: int
    setup_repeats: int  # the plan builds are quick, so time several


SPECS = {
    "read_mostly": DatapathSpec(
        machines=12, k=8, r=2, delta=1, l=2, guard=False, straggler_prob=0.05,
        ranges=8, pages=128, populate=True, ops=3000, read_fraction=0.9,
    ),
    # r=3, not 2: correcting delta=1 corruptions needs k+2*delta+1 = 7 splits;
    # 99 machines make 11 equal groups of k+r+l = 9
    "write_fault_soak": DatapathSpec(
        machines=99, k=4, r=3, delta=1, l=2, guard=True, straggler_prob=0.0,
        ranges=1000, pages=4, populate=False, ops=3000, read_fraction=0.3,
        faults=Faults(every=200, down_for=100, corrupt_prob=0.5,
                      background_at=1500, background_us=2000.0),
    ),
    "placement": PlacementSpec(
        balance_machines=10_000, slabs_per_machine=16, k=8, r=2, l=2,
        mc_machines=1000, failure_fraction=0.01, trials=20_000, setup_repeats=20,
    ),
}


@dataclass
class PassResult:
    setup_s: list  # one or more set-up timings
    chunks: dict  # name -> seconds; the run cut into the same pieces every pass
    work: dict  # printed rate -> (units of work, prefix of the chunks doing it)
    attempted: int
    failed: int
    wrong: int  # reads that differ from the shadow copy
    results: dict  # simulated outputs; identical across passes of one seed
    layer: dict  # layer figures taken from completions and task lists

    @property
    def run_s(self):
        return sum(self.chunks.values())


def percentile(values, q):
    """The q-th percentile of the values, 0 when there are none."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if values else 0.0


class _FaultScriptGen:
    """Emits fault rows before each op, from a seeded rng and the run's state.

    Machine failures and evictions stay in one half of the placement groups,
    corruptions in the other. So a corrupted page always has all k+r splits
    healthy, which a guarded read needs to escalate to k+2*delta+1 and
    correct, and no op fails.
    """

    def __init__(self, faults, seed, cluster, mgr):
        self.cfg = faults
        self.cluster = cluster
        self.mgr = mgr
        self.rng = np.random.default_rng(np.random.SeedSequence((seed, 0xFA17)))
        order = self.rng.permutation(len(mgr.plan.groups))
        fault_groups = {int(g) for g in order[: len(order) // 2]}
        self.fault_machines = sorted(
            m for g in fault_groups for m in mgr.plan.groups[g].members
        )
        self.fault_ranges = sorted(
            rid for rid, a in mgr.ranges.items() if a.group_id in fault_groups
        )
        self.corrupt_ranges = {
            rid for rid, a in mgr.ranges.items() if a.group_id not in fault_groups
        }
        self.down = None  # (machine id, op index at which it recovers)
        self.rounds = 0
        self.dirty = set()  # corrupted pages not yet rewritten
        self.injected = 0

    def rows(self, i, op, rid, page, shadow):
        cfg = self.cfg
        now_us = self.cluster.now / 1000
        rows = []
        if self.down is not None and self.down[1] == i:
            rows.append({"type": "recover", "time_us": now_us, "machine": self.down[0]})
            self.down = None
        if i == cfg.background_at:
            rows.append({
                "type": "background_load", "time_us": now_us,
                "until_us": now_us + cfg.background_us, "level": BACKGROUND_LEVEL,
            })
        if i % cfg.every == cfg.every - 1:
            self.rounds += 1
            if self.rounds % 2 and self.down is None:
                rows.extend(self._fail(i, now_us))
            else:
                rows.extend(self._evict(now_us))
        if op == "W":
            self.dirty.discard((rid, page))
        elif (
            rid in self.corrupt_ranges
            and (rid, page) in shadow
            and (rid, page) not in self.dirty
            and self.rng.random() < cfg.corrupt_prob
        ):
            refs = self.mgr.ranges[rid].healthy_refs()
            ref = refs[int(self.rng.integers(0, len(refs)))]
            offset = int(self.rng.integers(0, self.mgr.codec.split_size))
            mask = bytes(offset) + bytes([int(self.rng.integers(1, 256))])
            rows.append({
                "type": "corrupt", "time_us": now_us, "slab": ref.slab_id,
                "page_index": page, "mask": mask,
            })
            self.dirty.add((rid, page))
            self.injected += 1
        return rows

    def _fail(self, i, now_us):
        machines = self.cluster.machines
        up = [m for m in self.fault_machines if machines[m].state is MachineState.UP]
        victim = up[int(self.rng.integers(0, len(up)))]
        self.down = (victim, i + self.cfg.down_for)
        return [{"type": "fail", "time_us": now_us, "machine": victim}]

    def _evict(self, now_us):
        arange = self.mgr.ranges[self.fault_ranges[int(self.rng.integers(0, len(self.fault_ranges)))]]
        healthy = arange.healthy_refs()
        count = min(1 + self.rounds % 2, len(healthy) - self.mgr.codec.params.k - 1)
        return [
            {"type": "evict", "time_us": now_us, "slab": ref.slab_id}
            for ref in healthy[: max(count, 0)]
        ]


def datapath_pass(spec, seed, tracer=None):
    """One closed-loop pass with one client: each op is submitted after the
    previous one's ``drive`` returns, as in ``analysis.run_datapath``."""
    t0 = perf_counter()
    params = CodecParams(k=spec.k, r=spec.r, delta=spec.delta)
    cluster = Cluster(
        spec.machines,
        latency=LatencyModel(straggler_prob=spec.straggler_prob),
        machine_bytes=MACHINE_BYTES,
        seed=seed,
    )
    plan = placement.build_codingsets(ClusterShape(machines=spec.machines), params, spec.l, seed)
    mgr = ResilienceManager(
        cluster, plan, params, config=ManagerConfig(corruption_guard=spec.guard), seed=seed
    )
    monitor = MonitorService(cluster, mgr, seed=seed)
    for rid in range(spec.ranges):
        mgr.map_range(rid)
    page_size = mgr.config.page_size
    wcfg = {"operations": spec.ops, "ranges": spec.ranges, "read_fraction": spec.read_fraction}
    ops = analysis.gen_workload(wcfg, spec.pages, seed)
    payloads = {s: analysis.page_payload(s, page_size) for _, _, _, s in ops if s is not None}
    shadow = {}
    if spec.populate:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0x9091)))
        for rid in range(spec.ranges):
            for page in range(spec.pages):
                data = analysis.page_payload(int(rng.integers(0, 2**32)), page_size)
                if mgr.remote_write(rid, page, data).outcome == "write-failed":
                    raise RuntimeError(f"populate write to range {rid} page {page} failed")
                shadow[(rid, page)] = data
    script = _FaultScriptGen(spec.faults, seed, cluster, mgr) if spec.faults else None
    setup_s = perf_counter() - t0

    zero = bytes(page_size)
    reads, writes, tasks = [], [], []
    wrong = 0
    per_chunk = -(-len(ops) // RUN_CHUNKS)
    marks = [perf_counter()]
    for i, (op, rid, page, pseed) in enumerate(ops):
        if script is not None:
            rows = script.rows(i, op, rid, page, shadow)
            if rows:
                inject(cluster, FaultScript.from_events(rows))
        if tracer is not None:
            tracer.op_id = i
            span = tracer.open("manager.write" if op == "W" else "manager.read")
        if op == "W":
            handle = mgr.submit_write(rid, page, payloads[pseed])
        else:
            handle = mgr.submit_read(rid, page)
        mgr.drive(handle)
        if tracer is not None:
            tracer.close(span)
        c = handle.completion
        if op == "W":
            writes.append(c)
            if c.outcome != "write-failed":
                shadow[(rid, page)] = payloads[pseed]
        else:
            reads.append(c)
            if c.outcome == "ok" and c.page != shadow.get((rid, page), zero):
                wrong += 1
        tasks.extend(monitor.drain_regeneration())
        if (i + 1) % per_chunk == 0 or i + 1 == len(ops):
            marks.append(perf_counter())
    if tracer is not None:
        tracer.op_id = len(ops)
    cluster.run_until_idle()
    for _ in range(8):
        if not mgr.regeneration_requests:
            break
        tasks.extend(monitor.drain_regeneration())
        cluster.run_until_idle()
    marks.append(perf_counter())
    chunks = {f"ops.{j:02d}": b - a for j, (a, b) in enumerate(zip(marks, marks[1:-1]))}
    chunks["settle"] = marks[-1] - marks[-2]

    ok_reads = [c for c in reads if c.outcome == "ok"]
    done_writes = [c for c in writes if c.outcome != "write-failed"]
    failed = len(reads) - len(ok_reads) + len(writes) - len(done_writes)
    read_us = [(c.completed_ns - c.submitted_ns) / 1000 for c in ok_reads]
    write_us = [(c.completed_ns - c.submitted_ns) / 1000 for c in done_writes]
    durable_us = [
        (c.durable_ns - c.submitted_ns) / 1000 for c in done_writes if c.durable_ns is not None
    ]
    regenerated = sum(
        1 for _, op, _, outcome in cluster.event_log if op == "regenerate" and outcome == "complete"
    )
    results = {
        "vt_read_p50_us": (percentile(read_us, 50), len(read_us)),
        "vt_read_p99_us": (percentile(read_us, 99), len(read_us)),
        "vt_write_p50_us": (percentile(write_us, 50), len(write_us)),
        "vt_write_p99_us": (percentile(write_us, 99), len(write_us)),
        "vt_durable_p50_us": (percentile(durable_us, 50), len(durable_us)),
        "op_fail_ratio": (failed / len(ops), len(ops)),
        "corrected_reads": sum(1 for c in ok_reads if c.corrected),
        "corruptions_injected": script.injected if script else 0,
        "regenerations_completed": regenerated,
        "regeneration_backlog": len(mgr.regeneration_requests),
        "end_vt_ns": cluster.now,
    }
    finished = [t for t in tasks if t.done]
    layer = {
        "manager.read.split_efficiency": (
            spec.k * len(ok_reads) / sum(c.fanout for c in reads) if reads else 0.0
        ),
        "manager.write.fanout_mean": (
            sum(c.fanout for c in writes) / len(writes) if writes else 0.0
        ),
        "monitor.regen.tasks_started": len(tasks),
        "monitor.regen.success_ratio": (
            sum(1 for t in finished if t.succeeded) / len(finished) if finished else 0.0
        ),
    }
    return PassResult(
        setup_s=[setup_s],
        chunks=chunks,
        work={"sim_ops_per_s": (len(ops), "")},
        attempted=len(ops),
        failed=failed,
        wrong=wrong,
        results=results,
        layer=layer,
    )


def placement_pass(spec, seed, tracer=None):
    """Load balance on a large cluster, then Monte Carlo loss per scheme."""
    params = CodecParams(k=spec.k, r=spec.r)
    shape = ClusterShape(spec.mc_machines, spec.slabs_per_machine, spec.failure_fraction)
    setup_s = []
    for _ in range(spec.setup_repeats):
        t0 = perf_counter()
        plans = {
            "eccache": placement.build_eccache(shape, params, seed),
            "codingsets": placement.build_codingsets(shape, params, spec.l, seed),
        }
        setup_s.append(perf_counter() - t0)
    balance_cfg = {
        "schema_version": analysis.SCHEMA_VERSION,
        "scenario": "balance",
        "seeds": [seed],
        "cluster": {
            "machines": spec.balance_machines,
            "slabs_per_machine": spec.slabs_per_machine,
        },
        "code": {"k": spec.k, "r": spec.r},
    }
    policies = [{"name": "eccache"}, {"name": "codingsets", "l": spec.l}, {"name": "power_of_two"}]
    chunks, rows, losses = {}, [], {}
    for op_id, policy in enumerate(policies):
        if tracer is not None:
            tracer.op_id = op_id
        t0 = perf_counter()
        rows.extend(analysis.run_load_balance(dict(balance_cfg, policies=[policy]))[1])
        chunks[f"balance.{policy['name']}"] = perf_counter() - t0
    for op_id, (name, plan) in enumerate(plans.items(), len(policies)):
        if tracer is not None:
            tracer.op_id = op_id
        t0 = perf_counter()
        losses[name] = placement.loss_probability_montecarlo(plan, shape, params, spec.trials, seed)
        chunks[f"mc.{name}"] = perf_counter() - t0
    placed = sum(int(row[4]) for row in rows)
    trials = spec.trials * len(losses)
    return PassResult(
        setup_s=setup_s,
        chunks=chunks,
        work={"balance_ranges_per_s": (placed, "balance."), "mc_trials_per_s": (trials, "mc.")},
        attempted=placed + trials,
        failed=0,
        wrong=0,
        results={
            "balance_rows": [tuple(row) for row in rows],
            "mc_loss_eccache": losses["eccache"],
            "mc_loss_codingsets": losses["codingsets"],
        },
        layer={},
    )


PASSES = {"read_mostly": datapath_pass, "write_fault_soak": datapath_pass, "placement": placement_pass}
