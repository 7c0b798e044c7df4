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
import numbers
from collections import Counter
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .errors import InvalidParams

US = 1000  # ns per virtual microsecond


class MachineState(Enum):
    UP = "up"
    FAILED = "failed"


class SlabState(Enum):
    AVAILABLE = "available"
    EVICTED = "evicted"
    REGENERATING = "regenerating"
    FAILED = "failed"


LOST = (SlabState.EVICTED, SlabState.FAILED)  # slab states that serve no I/O


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

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not value >= 0:
                raise InvalidParams(f"{f.name} must be a non-negative number, got {value!r}")
        if self.median_us == 0:
            raise InvalidParams("median_us must be positive, got 0")
        if self.straggler_prob > 1:
            raise InvalidParams(f"straggler_prob must be in [0, 1], got {self.straggler_prob}")


LATENCY_BLOCK = 1024  # split latencies drawn per refill of a SplitLatencies


class SplitLatencies:
    """Seeded one-way split latencies in ns, drawn from numpy in blocks.

    The base draw is lognormal with the model's median; a straggler hit
    multiplies it, and an active background-load window scales it again.
    Normals and uniforms come from two generators spawned from
    `seed_sequence`, and a block of n draws of each equals n scalar draws,
    so no delay depends on the block size.
    """

    def __init__(self, model, seed_sequence):
        normal_seq, uniform_seq = seed_sequence.spawn(2)
        self.model = model
        self._normals = np.random.default_rng(normal_seq)
        self._uniforms = np.random.default_rng(uniform_seq)
        self._block = []  # base latencies in us, next draw last

    def _refill(self):
        m = self.model
        us = m.median_us * np.exp(m.sigma * self._normals.standard_normal(LATENCY_BLOCK))
        us[self._uniforms.random(LATENCY_BLOCK) < m.straggler_prob] *= m.straggler_multiplier
        self._block = us[::-1].tolist()

    def draw(self, background=1.0):
        """The next split's latency in ns under a background level."""
        if not self._block:
            self._refill()
        us = self._block.pop() * background
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


class Machine:
    def __init__(self, machine_id, total_bytes, cluster):
        self.machine_id = machine_id
        self.total_bytes = total_bytes
        self.state = MachineState.UP
        self.slabs = {}
        self.pending = set()
        self.slab_bytes = 0  # bytes of non-evicted slabs, kept by allocate/evict/free
        self._cluster = cluster

    @property
    def free_bytes(self):
        return self.total_bytes - self.slab_bytes

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
    """Event loop plus machines. All randomness is split latency, drawn from
    one seeded `SplitLatencies`."""

    def __init__(self, n_machines, latency=None, machine_bytes=1 << 30, seed=0):
        self.latency = latency or LatencyModel()
        self.latencies = SplitLatencies(self.latency, np.random.SeedSequence((seed, 0xC1A5)))
        self.now = 0
        self.machines = [Machine(i, machine_bytes, self) for i in range(n_machines)]
        self.slabs = {}
        self.event_log = []  # (time_ns, op, entity, outcome): faults and rebuilds
        self.split_outcomes = Counter()  # (op, outcome) -> split I/Os concluded
        self.on_disconnect = []  # callbacks(machine_id)
        self.on_eviction = []  # callbacks(slab)
        self.on_recover = []  # callbacks(machine_id)
        self._heap = []  # (time_ns, seq, _Event); seq breaks time ties
        self._seq = itertools.count()
        self._slab_ids = itertools.count()
        self._background = []

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

    def _finish(self, io, outcome):
        """Conclude a split I/O: the record itself is handed to `on_done`."""
        self.machines[io.machine_id].pending.discard(io)
        io.outcome = outcome
        io.time_ns = self.now
        self.split_outcomes[io.op, outcome] += 1
        io.on_done(io)

    def _submit_io(self, op, machine_id, slab_id, page_index, data, on_done, fill=False):
        io = _InflightIo(self, op, machine_id, page_index, data, on_done)
        machine = self.machines[machine_id]
        slab = self.slabs.get(slab_id)
        if machine.state is not MachineState.UP:
            io.outcome = "disconnect"
        elif slab is None or slab.machine_id != machine_id or slab.state in LOST:
            io.outcome = "unavailable"
        elif slab.state is SlabState.REGENERATING and not fill:
            io.outcome = "rejected"
        else:
            io.slab = slab
            delay = self.latencies.draw(self.background_level(self.now))
            io.event = self.schedule_at(self.now + delay, io.arrive)
            machine.pending.add(io)
            return io
        self.schedule(0, io.refuse)
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
            io.event.alive = False
            io.outcome = "disconnect"
            self.schedule(0, io.refuse)
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
        for cb in self.on_recover:
            cb(machine_id)

    def _slab(self, slab_id):
        slab = self.slabs.get(slab_id)
        if slab is None:
            raise InvalidParams(f"no slab {slab_id} in the cluster")
        return slab

    def evict_slab(self, slab_id):
        slab = self._slab(slab_id)
        if slab.state is SlabState.EVICTED:
            return
        slab.state = SlabState.EVICTED
        self.machines[slab.machine_id].slab_bytes -= slab.size_bytes
        slab.store.clear()
        self.log("evict", f"m{slab.machine_id}:s{slab_id}", "evicted")
        for cb in self.on_eviction:
            cb(slab)

    def free_slab(self, slab_id):
        """Give a slab's memory back and forget it.

        The slab reads as EVICTED afterwards, so I/O still in flight to it
        fails and a holder of the object sees it as gone.
        """
        slab = self.slabs.pop(slab_id)
        machine = self.machines[slab.machine_id]
        del machine.slabs[slab_id]
        if slab.state is not SlabState.EVICTED:
            machine.slab_bytes -= slab.size_bytes
            slab.state = SlabState.EVICTED
        slab.store.clear()

    def corrupt_slab(self, slab_id, page_index, mask, offset=0):
        slab = self._slab(slab_id)
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


class _InflightIo:
    """One split I/O; once concluded it is also its completion.

    `outcome` and `time_ns` are set when it concludes. `data` is the payload
    of a write, or the bytes a read fetched once it concludes ok.
    """

    __slots__ = (
        "cluster",
        "op",
        "machine_id",
        "page_index",
        "data",
        "on_done",
        "slab",
        "event",
        "outcome",
        "time_ns",
    )

    def __init__(self, cluster, op, machine_id, page_index, data, on_done):
        self.cluster = cluster
        self.op = op
        self.machine_id = machine_id
        self.page_index = page_index
        self.data = data
        self.on_done = on_done
        self.slab = None
        self.event = None
        self.outcome = None
        self.time_ns = None

    def arrive(self):
        """The request reaches its slab at the drawn latency."""
        slab = self.slab
        # the slab may have been lost while the request was in flight
        if slab.state in LOST:
            self.cluster._finish(self, "unavailable")
        elif self.op == "write_split":
            slab.store[self.page_index] = self.data
            self.cluster._finish(self, "ok")
        else:
            width = slab.split_size or (len(next(iter(slab.store.values()))) if slab.store else 0)
            self.data = slab.store.get(self.page_index, b"\x00" * width)
            self.cluster._finish(self, "ok")

    def refuse(self):
        """Conclude with the failure outcome set at submission or disconnect."""
        self.cluster._finish(self, self.outcome)


# -- fault scripts ---------------------------------------------------------

# the fields each fault type needs besides time_us
FAULT_FIELDS = {
    "fail": ("machine",),
    "recover": ("machine",),
    "evict": ("slab",),
    "corrupt": ("slab", "page_index", "mask"),
    "background_load": ("until_us",),
}


@dataclass(frozen=True)
class FaultEvent:
    type: str
    time_us: float
    machine: int = None
    slab: int = None
    page_index: int = None
    mask: bytes = None
    level: float = None
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
            if kind not in FAULT_FIELDS:
                raise ValueError(f"unknown fault type {kind!r}")
            for name in ("time_us",) + FAULT_FIELDS[kind]:
                if row.get(name) is None:
                    raise ValueError(f"{kind} fault needs {name}: {row}")
            for name in ("machine", "slab", "page_index"):
                value = row.get(name)
                if value is not None and (
                    isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0
                ):
                    raise ValueError(f"fault {name} must be a non-negative integer: {row}")
            time_us = float(row["time_us"])
            until_us = row.get("until_us")
            if until_us is not None:
                until_us = float(until_us)
                if until_us <= time_us:
                    raise ValueError(f"fault until_us must be after time_us: {row}")
            level = row.get("level")
            if level is not None:
                level = float(level)
            mask = row.get("mask")
            if isinstance(mask, str):
                mask = bytes.fromhex(mask)
            if mask is not None and not isinstance(mask, bytes):
                raise ValueError(f"fault mask must be hex or bytes: {row}")
            events.append(
                FaultEvent(
                    type=kind,
                    time_us=time_us,
                    machine=row.get("machine"),
                    slab=row.get("slab"),
                    page_index=row.get("page_index"),
                    mask=mask,
                    level=level,
                    until_us=until_us,
                )
            )
        events.sort(key=lambda e: e.time_us)
        return cls(events)


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
