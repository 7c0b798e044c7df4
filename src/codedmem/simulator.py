"""Deterministic discrete-event cluster simulator.

Virtual time is integer nanoseconds. Events fire in (time, submission
sequence) order, so identical inputs and seeds replay identical histories.
Machines expose slab storage with split-granularity reads and writes whose
latencies come from a seeded lognormal model with straggler and
background-load effects; fault scripts inject failures, recoveries,
evictions, corruptions, and load windows at scripted times.
"""

import heapq
import itertools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

US = 1000  # ns per virtual microsecond


class MachineState(Enum):
    UP = "up"
    FAILED = "failed"


class SlabState(Enum):
    AVAILABLE = "available"
    EVICTED = "evicted"
    REGENERATING = "regenerating"
    FAILED = "failed"


@dataclass
class LatencyModel:
    """One-way split latency distribution plus fixed data-path costs (us)."""

    median_us: float = 1.5
    sigma: float = 0.25
    straggler_prob: float = 0.0
    straggler_multiplier: float = 10.0
    background_multiplier: float = 2.0
    encode_us: float = 0.7
    decode_us: float = 1.5
    context_switch_us: float = 1.5
    copy_us: float = 0.85
    disk_us: float = 100.0


def sample_split_latency(model, rng, background=1.0):
    """Draw one split's one-way latency in ns.

    The base draw is lognormal with the configured median; a straggler hit
    multiplies it, and an active background-load window scales it again.
    The normal and uniform variates are always consumed so streams stay
    aligned across configurations that share a seed.
    """
    us = model.median_us * float(np.exp(model.sigma * rng.standard_normal()))
    if rng.random() < model.straggler_prob:
        us *= model.straggler_multiplier
    us *= background
    return max(1, round(us * US))


@dataclass
class Slab:
    slab_id: int
    machine_id: int
    size_bytes: int
    owner: object = None  # address-range id, None while unmapped
    role: object = None  # split index within the owner range
    split_size: int = 0
    state: SlabState = SlabState.AVAILABLE
    store: dict = field(default_factory=dict)  # page index -> split bytes
    access_count: float = 0.0

    @property
    def page_capacity(self):
        return self.size_bytes // self.split_size if self.split_size else 0


@dataclass
class Completion:
    op: str
    machine_id: int
    slab_id: int
    page_index: int
    outcome: str
    time_ns: int
    submitted_ns: int
    data: bytes = None


class Machine:
    def __init__(self, machine_id, total_bytes, cluster):
        self.machine_id = machine_id
        self.total_bytes = total_bytes
        self.local_bytes = 0
        self.state = MachineState.UP
        self.slabs = {}
        self.pending = set()
        self.slab_bytes = 0  # bytes of non-evicted slabs, kept by allocate/evict
        self._cluster = cluster

    @property
    def free_bytes(self):
        return self.total_bytes - self.local_bytes - self.slab_bytes

    @property
    def free_fraction(self):
        return self.free_bytes / self.total_bytes

    def allocate_slab(self, size_bytes, owner=None, role=None, split_size=0):
        """Carve a slab out of free memory; None when capacity is exhausted."""
        if self.free_bytes < size_bytes:
            return None
        slab = Slab(
            slab_id=next(self._cluster._slab_ids),
            machine_id=self.machine_id,
            size_bytes=size_bytes,
            owner=owner,
            role=role,
            split_size=split_size,
        )
        self.slabs[slab.slab_id] = slab
        self.slab_bytes += size_bytes
        self._cluster.slabs[slab.slab_id] = slab
        return slab


class _Event:
    """A scheduled callback; clearing ``alive`` cancels it."""

    __slots__ = ("fn", "alive")

    def __init__(self, fn):
        self.fn = fn
        self.alive = True


@dataclass
class _Window:
    start_ns: int
    end_ns: int
    level: float


class Cluster:
    """Event loop plus machines. All randomness flows through one seeded rng."""

    def __init__(self, n_machines, latency=None, machine_bytes=1 << 30, seed=0):
        self.latency = latency or LatencyModel()
        self.seed = seed
        self.rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC1A5)))
        self.now = 0
        self.machines = [Machine(i, machine_bytes, self) for i in range(n_machines)]
        self.slabs = {}
        self.event_log = []  # (time_ns, op, entity, outcome)
        self.on_disconnect = []  # callbacks(machine_id)
        self.on_eviction = []  # callbacks(slab)
        self._heap = []  # (time_ns, seq, _Event); seq breaks time ties
        self._seq = itertools.count()
        self._slab_ids = itertools.count()
        self._background = []
        self._bursts = []

    # -- event loop -------------------------------------------------------

    def schedule_at(self, time_ns, fn):
        ev = _Event(fn)
        heapq.heappush(self._heap, (int(time_ns), next(self._seq), ev))
        return ev

    def schedule(self, delay_ns, fn):
        return self.schedule_at(self.now + delay_ns, fn)

    def step(self):
        """Run the next live event; None when the queue is empty."""
        while self._heap:
            time_ns, _, ev = heapq.heappop(self._heap)
            if not ev.alive:
                continue
            self.now = time_ns
            ev.fn()
            return ev
        return None

    def run_until_idle(self):
        while self.step():
            pass

    def run_until(self, time_ns):
        while self._heap:
            head_ns, _, nxt = self._heap[0]
            if not nxt.alive:
                heapq.heappop(self._heap)
                continue
            if head_ns > time_ns:
                break
            self.step()
        self.now = max(self.now, int(time_ns))

    # -- environment ------------------------------------------------------

    def background_level(self, time_ns):
        level = 1.0
        for w in self._background:
            if w.start_ns <= time_ns < w.end_ns:
                level = max(level, w.level)
        return level

    def log(self, op, entity, outcome):
        self.event_log.append((self.now, op, entity, outcome))

    # -- split I/O --------------------------------------------------------

    def _finish(self, io, outcome, data=None):
        machine = self.machines[io.machine_id]
        machine.pending.discard(io)
        io.completion = Completion(
            op=io.op,
            machine_id=io.machine_id,
            slab_id=io.slab_id,
            page_index=io.page_index,
            outcome=outcome,
            time_ns=self.now,
            submitted_ns=io.submitted_ns,
            data=data,
        )
        self.log(io.op, f"m{io.machine_id}:s{io.slab_id}:p{io.page_index}", outcome)
        io.on_done(io.completion)

    def _submit_io(self, op, machine_id, slab_id, page_index, data, on_done, fill=False):
        io = _InflightIo(op, machine_id, slab_id, page_index, data, on_done, self.now)
        machine = self.machines[machine_id]
        slab = self.slabs.get(slab_id)
        if machine.state is not MachineState.UP:
            self.schedule(0, lambda: self._finish(io, "disconnect"))
            return io
        if slab is None or slab.machine_id != machine_id or slab.state in (
            SlabState.EVICTED,
            SlabState.FAILED,
        ):
            self.schedule(0, lambda: self._finish(io, "unavailable"))
            return io
        if slab.state is SlabState.REGENERATING and not fill:
            self.schedule(0, lambda: self._finish(io, "rejected"))
            return io
        delay = sample_split_latency(self.latency, self.rng, self.background_level(self.now))

        def complete():
            # the slab may have been lost while the request was in flight
            if slab.state in (SlabState.EVICTED, SlabState.FAILED):
                self._finish(io, "unavailable")
                return
            if io.op == "write_split":
                slab.store[io.page_index] = io.data
                self._finish(io, "ok")
            else:
                width = slab.split_size or (len(next(iter(slab.store.values()))) if slab.store else 0)
                payload = slab.store.get(io.page_index, b"\x00" * width)
                slab.access_count += 1.0
                self._finish(io, "ok", payload)

        io.event = self.schedule(delay, complete)
        machine.pending.add(io)
        return io

    def read_split(self, machine_id, slab_id, page_index, on_done):
        return self._submit_io("read_split", machine_id, slab_id, page_index, None, on_done)

    def write_split(self, machine_id, slab_id, page_index, data, on_done, fill=False):
        return self._submit_io(
            "write_split", machine_id, slab_id, page_index, bytes(data), on_done, fill
        )

    # -- faults -----------------------------------------------------------

    def fail_machine(self, machine_id):
        machine = self.machines[machine_id]
        if machine.state is MachineState.FAILED:
            return
        machine.state = MachineState.FAILED
        for slab in machine.slabs.values():
            if slab.state is SlabState.AVAILABLE or slab.state is SlabState.REGENERATING:
                slab.state = SlabState.FAILED
        inflight = list(machine.pending)
        machine.pending.clear()
        for io in inflight:
            if io.event is not None:
                io.event.alive = False
            self.schedule(0, lambda io=io: self._finish(io, "disconnect"))
        self.log("fail", f"m{machine_id}", "down")
        for cb in self.on_disconnect:
            cb(machine_id)

    def recover_machine(self, machine_id):
        machine = self.machines[machine_id]
        if machine.state is MachineState.UP:
            return
        machine.state = MachineState.UP
        for slab in machine.slabs.values():
            if slab.state is SlabState.FAILED:
                slab.state = SlabState.AVAILABLE
        self.log("recover", f"m{machine_id}", "up")

    def evict_slab(self, slab_id):
        slab = self.slabs[slab_id]
        if slab.state is SlabState.EVICTED:
            return
        slab.state = SlabState.EVICTED
        self.machines[slab.machine_id].slab_bytes -= slab.size_bytes
        slab.store.clear()
        self.log("evict", f"m{slab.machine_id}:s{slab_id}", "evicted")
        for cb in self.on_eviction:
            cb(slab)

    def corrupt_slab(self, slab_id, page_index, mask, offset=0):
        slab = self.slabs[slab_id]
        current = slab.store.get(page_index)
        if current is None:
            self.log("corrupt", f"m{slab.machine_id}:s{slab_id}:p{page_index}", "absent")
            return
        raw = bytearray(current)
        for i, b in enumerate(mask):
            pos = offset + i
            if pos < len(raw):
                raw[pos] ^= b
        slab.store[page_index] = bytes(raw)
        self.log("corrupt", f"m{slab.machine_id}:s{slab_id}:p{page_index}", "corrupted")

    def export_event_log(self, path):
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["time_us", "op", "entity", "outcome"])
            for time_ns, op, entity, outcome in self.event_log:
                writer.writerow([f"{time_ns / US:.3f}", op, entity, outcome])


class _InflightIo:
    __slots__ = (
        "op",
        "machine_id",
        "slab_id",
        "page_index",
        "data",
        "on_done",
        "submitted_ns",
        "event",
        "completion",
    )

    def __init__(self, op, machine_id, slab_id, page_index, data, on_done, submitted_ns):
        self.op = op
        self.machine_id = machine_id
        self.slab_id = slab_id
        self.page_index = page_index
        self.data = data
        self.on_done = on_done
        self.submitted_ns = submitted_ns
        self.event = None
        self.completion = None


# -- fault scripts ---------------------------------------------------------

FAULT_TYPES = ("fail", "recover", "evict", "corrupt", "background_load", "burst")


@dataclass(frozen=True)
class FaultEvent:
    type: str
    time_us: float
    machine: int = None
    slab: int = None
    page_index: int = None
    mask: bytes = None
    level: float = None
    multiplier: float = None
    until_us: float = None


@dataclass
class FaultScript:
    """Scripted fault timeline, sorted by time."""

    events: list

    @classmethod
    def from_events(cls, rows):
        events = []
        for row in rows:
            kind = row.get("type")
            if kind not in FAULT_TYPES:
                raise ValueError(f"unknown fault type {kind!r}")
            if "time_us" not in row:
                raise ValueError(f"fault event missing time_us: {row}")
            mask = row.get("mask")
            if isinstance(mask, str):
                mask = bytes.fromhex(mask)
            events.append(
                FaultEvent(
                    type=kind,
                    time_us=float(row["time_us"]),
                    machine=row.get("machine"),
                    slab=row.get("slab"),
                    page_index=row.get("page_index"),
                    mask=mask,
                    level=row.get("level"),
                    multiplier=row.get("multiplier"),
                    until_us=row.get("until_us"),
                )
            )
        events.sort(key=lambda e: e.time_us)
        return cls(events)

    def burst_windows(self):
        """(start_us, end_us, rate multiplier) for request-burst phases."""
        return [
            (e.time_us, e.until_us, e.multiplier)
            for e in self.events
            if e.type == "burst"
        ]


def inject(cluster, script):
    """Schedule a fault script onto the cluster's event queue."""
    for e in script.events:
        t = round(e.time_us * US)
        if e.type == "fail":
            cluster.schedule_at(t, lambda e=e: cluster.fail_machine(e.machine))
        elif e.type == "recover":
            cluster.schedule_at(t, lambda e=e: cluster.recover_machine(e.machine))
        elif e.type == "evict":
            cluster.schedule_at(t, lambda e=e: cluster.evict_slab(e.slab))
        elif e.type == "corrupt":
            cluster.schedule_at(
                t, lambda e=e: cluster.corrupt_slab(e.slab, e.page_index, e.mask)
            )
        elif e.type == "background_load":
            cluster._background.append(
                _Window(t, round(e.until_us * US), e.level or cluster.latency.background_multiplier)
            )
        elif e.type == "burst":
            cluster._bursts.append(_Window(t, round(e.until_us * US), e.multiplier or 1.0))
