"""Deterministic discrete-event cluster simulator.

Virtual time is integer nanoseconds. Events fire in (time, submission
sequence) order, so identical inputs and seeds replay identical histories.
A heap entry is the only scheduled object; clearing its callable cancels
it, and a cancelled entry never runs nor moves the clock.
A split I/O concludes in one place, `_InflightIo.arrive`, which hands the
record to the caller's `on_done`. A split in flight is its heap entry and
nothing else: a failing machine finds its accepted splits in the heap and
cuts them off in submission (`seq`) order, never in the order their
records happen to sit in memory. No record refers back to its entry, so a
concluded split is freed without the cycle collector, and no split adds a
row to `Cluster.event_log`: `split_outcomes` counts them.
Machines expose slab storage with split-granularity reads and writes whose
latencies come from a seeded lognormal model with straggler and
background-load effects; fault scripts inject failures, recoveries,
evictions, corruptions, and load windows at scripted times.
"""

import heapq
import itertools
import math
import numbers
import sys
from collections import Counter
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import partial

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

# the members the split path tests, bound once: a module global loads
# faster than an Enum member lookup
UP = MachineState.UP
AVAILABLE = SlabState.AVAILABLE
REGENERATING = SlabState.REGENERATING


@dataclass
class LatencyModel:
    """One-way split latency distribution plus fixed data-path costs (us).
    Hydra's run-to-completion, in-place data path has zero context switch
    and copy costs; a positive one is charged to every op. The paper's
    alternatives cost about 1.5 us per context switch and 0.85 us per copy.
    `disk_us` is the `ssd_backup` baseline's disk write."""

    median_us: float = 1.5
    sigma: float = 0.25
    straggler_prob: float = 0.0
    straggler_multiplier: float = 10.0
    encode_us: float = 0.7
    decode_us: float = 1.5
    context_switch_us: float = 0.0
    copy_us: float = 0.0
    disk_us: float = 100.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not value >= 0:
                raise InvalidParams(f"{f.name} must be a non-negative number, got {value!r}")
            # a cost past this would fail only when the run converts it to ns
            if f.name.endswith("_us") and not (
                value <= sys.float_info.max and _finite_ns(float(value))
            ):
                raise InvalidParams(f"{f.name} must be finite in ns, got {value!r}")
        if self.median_us == 0:
            raise InvalidParams("median_us must be positive, got 0")
        if self.straggler_prob > 1:
            raise InvalidParams(f"straggler_prob must be in [0, 1], got {self.straggler_prob}")


LATENCY_BLOCK = 1024  # split latencies drawn per refill of a SplitLatencies


class SplitLatencies:
    """Seeded one-way split latencies in ns, drawn from numpy in blocks;
    the cluster and the closed-form `datapath` baselines share it.

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
        # a latency past a float is refused as it is drawn, not warned about here
        with np.errstate(over="ignore", invalid="ignore"):
            us = m.median_us * np.exp(m.sigma * self._normals.standard_normal(LATENCY_BLOCK))
            us[self._uniforms.random(LATENCY_BLOCK) < m.straggler_prob] *= m.straggler_multiplier
        self._block = us[::-1].tolist()

    def draw(self, background=1.0):
        """The next split's latency in ns under a background level."""
        if not self._block:
            self._refill()
        us = self._block.pop() * background
        try:
            return max(1, round(us * US))
        except (OverflowError, ValueError):
            raise InvalidParams(f"split latency {us} us left the ns range") from None


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
        self._ok_reads = 0  # split reads concluded ok
        self._ok_writes = 0  # split writes concluded ok
        self._not_ok = Counter()  # (op, outcome) -> refused, cut-off or lost splits
        self.on_disconnect = []  # callbacks(machine_id)
        self.on_eviction = []  # callbacks(slab)
        self.on_recover = []  # callbacks(machine_id)
        self._heap = []  # [time_ns, seq, fn] entries; seq breaks time ties
        self._seq = itertools.count()
        self._slab_ids = itertools.count()
        self._background = []  # (start_ns, end_ns, level) load windows

    @property
    def split_outcomes(self):
        """A snapshot: (op, outcome) -> split I/Os concluded so far."""
        counts = Counter(self._not_ok)
        for op, ok in (("read_split", self._ok_reads), ("write_split", self._ok_writes)):
            if ok:
                counts[op, "ok"] = ok
        return counts

    # -- event loop -------------------------------------------------------

    def schedule_at(self, time_ns, fn):
        """Queue `fn`; setting the returned entry's fn to None cancels it."""
        entry = [int(time_ns), next(self._seq), fn]
        heapq.heappush(self._heap, entry)
        return entry

    def schedule(self, delay_ns, fn):
        return self.schedule_at(self.now + delay_ns, fn)

    def step(self):
        """Run the next live event; None when the queue is empty."""
        while self._heap:
            time_ns, _, fn = heapq.heappop(self._heap)
            if fn is None:  # cancelled: dropped without moving the clock
                continue
            self.now = time_ns
            fn()
            return fn
        return None

    def run_until_idle(self):
        while self.step():
            pass

    # -- environment ------------------------------------------------------

    def background_level(self):
        """The highest level of the windows open now; drops closed windows,
        which cannot reopen since the clock never moves back."""
        now = self.now
        self._background = [w for w in self._background if w[1] > now]
        return max([1.0] + [level for start, _, level in self._background if start <= now])

    def log(self, op, entity, outcome):
        self.event_log.append((self.now, op, entity, outcome))

    # -- split I/O --------------------------------------------------------

    def _submit_io(self, op, machine_id, slab_id, page_index, data, on_done, fill=False):
        io = _InflightIo(self, op, machine_id, slab_id, page_index, data, on_done)
        machine = self.machines[machine_id]
        slab = self.slabs.get(slab_id)
        state = slab.state if slab is not None and slab.machine_id == machine_id else None
        if machine.state is not UP:
            io.outcome = "disconnect"
        elif state is AVAILABLE or (state is REGENERATING and fill):
            io.slab = slab
            background = self.background_level() if self._background else 1.0
            self.schedule_at(self.now + self.latencies.draw(background), io.arrive)
            return io
        else:
            # a slab mid-regeneration only takes backfill writes
            io.outcome = "rejected" if state is REGENERATING else "unavailable"
        self.schedule_at(self.now, io.arrive)
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
            if slab.state is AVAILABLE or slab.state is REGENERATING:
                slab.state = SlabState.FAILED
        # a split in flight is the one entry whose fn is an `arrive` with no outcome yet
        arrive = _InflightIo.arrive
        inflight = [
            entry
            for entry in self._heap
            if getattr(entry[2], "__func__", None) is arrive
            and entry[2].__self__.outcome is None
            and entry[2].__self__.machine_id == machine_id
        ]
        inflight.sort(key=lambda entry: entry[1])  # by seq: submission order
        for entry in inflight:
            io = entry[2].__self__
            entry[2] = None
            io.outcome = "disconnect"
            self.schedule_at(self.now, io.arrive)
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

    While it is in flight, its heap entry, whose fn is its bound `arrive`,
    is the cluster's one reference to it. `arrive` is the one place it
    concludes: it gets its `outcome` and `time_ns`, is counted, and is
    handed to `on_done`, usually a bound method of the page op that issued
    it. A split refused at
    submission or cut off by a disconnect gets its `outcome` set first and
    a fresh entry at delay 0. `slab_id` is the slab it was sent to, and
    `slab` that slab once it was accepted. `data` is the payload of a
    write, or the bytes a read fetched once it concludes ok.
    """

    __slots__ = (
        "cluster",
        "op",
        "machine_id",
        "slab_id",
        "page_index",
        "data",
        "on_done",
        "slab",
        "outcome",
        "time_ns",
    )

    def __init__(self, cluster, op, machine_id, slab_id, page_index, data, on_done):
        self.cluster = cluster
        self.op = op
        self.machine_id = machine_id
        self.slab_id = slab_id
        self.page_index = page_index
        self.data = data
        self.on_done = on_done
        self.slab = None
        self.outcome = None
        self.time_ns = None

    def arrive(self):
        """Conclude the split and hand the record to `on_done`: with the
        outcome already set when it was refused or cut off, else as it
        reaches its slab."""
        cluster = self.cluster
        outcome = self.outcome
        if outcome is None:
            slab = self.slab
            state = slab.state
            # the slab may have been lost while the request was in flight
            if state is not AVAILABLE and state is not REGENERATING:
                outcome = "unavailable"
            elif self.op == "write_split":
                slab.store[self.page_index] = self.data
                outcome = "ok"
                cluster._ok_writes += 1
            else:
                data = slab.store.get(self.page_index)
                self.data = bytes(slab.split_size) if data is None else data
                outcome = "ok"
                cluster._ok_reads += 1
            self.outcome = outcome
        if outcome != "ok":
            cluster._not_ok[self.op, outcome] += 1
        self.time_ns = cluster.now
        self.on_done(self)


# -- fault scripts ---------------------------------------------------------


def _real(test):
    """A key check for a finite int or float, not a bool or a string, that
    passes ``test(number, row so far)``; the row records it as a float."""

    def check(value, row):
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        ok = real and abs(value) <= sys.float_info.max and test(float(value), row)
        return float(value) if ok else None

    return check


def _finite_ns(us):
    """True when a time in us still converts to a finite count of ns."""
    return math.isfinite(us * US)


def _id(value, row):
    is_int = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    return value if is_int and value >= 0 else None


def _mask(value, row):
    try:
        mask = value if isinstance(value, bytes) else bytes.fromhex(value)
    except (TypeError, ValueError):
        return None
    # an all-zero mask would log `corrupted` and change nothing
    return mask if any(mask) else None


def _at(method):
    """Applies a row by calling the cluster's `method` at the row's time."""
    return lambda c, t, *args: c.schedule_at(t, partial(getattr(c, method), *args))


def _open_window(cluster, t, until_us, level):
    """Applies a load window at inject time: scheduling it would add a heap
    entry and shift `seq` ties."""
    cluster._background.append((t, round(until_us * US), level or BACKGROUND_LEVEL))


# A key's rule is (phrase, check): ``check(value, row so far)`` returns what
# the row records, or None to refuse the row as "<key> must be <phrase>".
_ID = ("a non-negative integer", _id)
_TIME = (
    "a finite int or float >= 0, finite in ns",
    _real(lambda t, row: t >= 0 and _finite_ns(t)),
)
_UNTIL = (
    "a finite int or float after time_us, finite in ns",
    _real(lambda end, row: end > row["time_us"] and _finite_ns(end)),
)
_LEVEL = ("a finite int or float >= 1", _real(lambda level, row: level >= 1))
BACKGROUND_LEVEL = 2.0  # the level of a background_load row without one
_MASK = ("hex or bytes with a non-zero byte", _mask)

# For each fault type: the keys its row may carry besides `type` and `time_us`
# ("?" marks an optional key), and how `inject` applies a row, given the
# cluster, its time in ns and its keys in table order, None for one absent.
FAULT_TYPES = {
    "fail": ({"machine": _ID}, _at("fail_machine")),
    "recover": ({"machine": _ID}, _at("recover_machine")),
    "evict": ({"slab": _ID}, _at("evict_slab")),
    "corrupt": ({"slab": _ID, "page_index": _ID, "mask": _MASK}, _at("corrupt_slab")),
    "background_load": ({"until_us": _UNTIL, "level?": _LEVEL}, _open_window),
}


@dataclass(frozen=True)
class FaultEvent:
    type: str
    time_us: float
    args: dict  # the type's other keys in table order, as recorded


@dataclass
class FaultScript:
    """Scripted fault timeline, sorted by time."""

    events: list

    @classmethod
    def from_events(cls, rows):
        """Check each row against its type's entry in `FAULT_TYPES`; a row
        that breaks it raises ValueError naming the row."""
        events = []
        for row in rows:
            kind = row.get("type") if isinstance(row, dict) else None
            if not isinstance(kind, str) or kind not in FAULT_TYPES:
                raise ValueError(f"a fault row must be a mapping of a known type: {row!r}")
            args = {}
            for key, (phrase, check) in {"time_us": _TIME, **FAULT_TYPES[kind][0]}.items():
                name = key.rstrip("?")
                value = row.get(name)
                if value is None and name == key:
                    raise ValueError(f"{kind} fault needs {name}: {row}")
                args[name] = None if value is None else check(value, args)
                if value is not None and args[name] is None:
                    raise ValueError(f"fault {name} must be {phrase}: {row}")
            unknown = [str(key) for key in row if key != "type" and key not in args]
            if unknown:
                raise ValueError(f"{kind} fault takes no key {', '.join(unknown)}: {row}")
            events.append(FaultEvent(kind, args.pop("time_us"), args))
        events.sort(key=lambda e: e.time_us)
        return cls(events)

    def check_machines(self, n):
        """Refuse a row naming a machine outside an n-machine cluster."""
        for e in self.events:
            machine = e.args.get("machine", 0)
            if machine >= n:
                raise ValueError(f"machine {machine} is outside the {n}-machine cluster: {e}")


def inject(cluster, script):
    """Apply a fault script to the cluster through `FAULT_TYPES`.

    Virtual time only moves forward and the machines are fixed, so a row
    dated before `cluster.now` (a row at `now` is valid) or naming a
    `machine` outside the cluster is refused before any row is applied.
    """
    script.check_machines(len(cluster.machines))
    for e in script.events:
        t = round(e.time_us * US)
        if t < cluster.now:
            raise ValueError(f"fault dated {t} ns is before the clock at {cluster.now} ns: {e}")
    for e in script.events:
        FAULT_TYPES[e.type][1](cluster, round(e.time_us * US), *e.args.values())
