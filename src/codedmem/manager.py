"""Resilient data path over coded remote memory.

Pages are striped into k data splits plus r parity splits and spread
over k+r slabs on distinct machines. Writes ack the caller once k
splits are durable and finish the parity in the background. Reads
fan out to k+delta slabs and complete with the first k arrivals, so
a straggler or failed machine never sits on the critical path.

With the corruption guard enabled, reads wait for k+delta splits,
verify codeword consistency, and escalate to k+2*delta+1 splits to
locate and repair corrupted ones. Machines whose splits keep failing
verification are put in suspect mode (wide fan-out from the start)
and their slabs are queued for regeneration.
"""

from __future__ import annotations

import csv
from collections import defaultdict, deque
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import coding
from .coding import Split, make_codec
from .errors import (
    CapacityExhausted,
    InvalidParams,
    UncorrectableCorruption,
    UnrecoverableRead,
)
from .placement import ExtendedGroup, select_members
from .simulator import MachineState, SlabState


class RefState(str, Enum):
    HEALTHY = "healthy"
    FAILED = "failed"
    REGENERATING = "regenerating"


@dataclass
class SlabRef:
    """One slot of a range's codeword: which slab holds split `role`."""

    role: int
    machine_id: int
    slab_id: int
    state: RefState = RefState.HEALTHY


@dataclass
class AddressRange:
    range_id: int
    group_id: int
    group_members: tuple
    refs: list
    page_capacity: int
    written_pages: set = field(default_factory=set)

    def healthy_refs(self):
        return [ref for ref in self.refs if ref.state is RefState.HEALTHY]

    def ref_for_role(self, role):
        return self.refs[role]


@dataclass
class CodingBuffer:
    """Scratch slots holding parity splits between encode and send."""

    slots: list = field(default_factory=list)

    def load(self, parity_splits):
        self.slots = [s.data for s in parity_splits]

    def release(self):
        self.slots = []


class MachineHealth:
    """Sliding window of verification results for one machine."""

    def __init__(self, limit, window=64):
        self.limit = limit
        self.window = deque(maxlen=window)
        self.errors = 0

    def record(self, ok):
        self.window.append(0 if ok else 1)
        if not ok:
            self.errors += 1

    @property
    def error_rate(self):
        if not self.window:
            return 0.0
        return sum(self.window) / len(self.window)

    @property
    def suspect(self):
        return self.error_rate > self.limit


@dataclass(frozen=True)
class ManagerConfig:
    page_size: int = coding.PAGE_SIZE
    slab_size: int = 64 * 1024
    corruption_guard: bool = False
    async_parity: bool = True
    run_to_completion: bool = True
    in_place_coding: bool = True
    error_correction_limit: float = 0.05
    slab_regeneration_limit: float = 0.20
    health_window: int = 64


@dataclass
class WriteCompletion:
    range_id: int
    page_index: int
    submitted_ns: int
    started_ns: int
    data_acked_ns: int | None
    durable_ns: int | None
    outcome: str
    fanout: int
    encode_ack_ns: int = 0
    # caller unblock time: the k-ack point with async parity, full
    # conclusion when parity sits in the ack path
    completed_ns: int | None = None


@dataclass
class ReadCompletion:
    range_id: int
    page_index: int
    submitted_ns: int
    started_ns: int
    completed_ns: int | None
    outcome: str
    fanout: int
    corrected: bool
    page: bytes | None
    decode_ns: int = 0


class _WriteOp:
    def __init__(self, mgr, arange, page_index, page, on_done):
        self.mgr = mgr
        self.arange = arange
        self.page_index = page_index
        self.page = page
        self.on_done = on_done
        self.submitted_ns = mgr.cluster.now
        self.started_ns = None
        self.data_acked_ns = None
        self.durable_ns = None
        self.completion = None
        self.done = False
        self.finished = False
        self.fanout = 0
        self.acked = {}  # role -> ack time
        self.outstanding = 0
        self.wave1_roles = []
        self.wave1_pending = 0
        self.wave2_issued = False
        self.encode_charged = False
        self.encode_ack_ns = 0
        self.splits = None
        self.buffer = CodingBuffer()

    # -- plumbing ---------------------------------------------------------

    def start(self):
        mgr = self.mgr
        self.started_ns = mgr.cluster.now
        self.splits = coding.split_page(self.page, mgr.codec.params.k)
        k = mgr.codec.params.k
        healthy = self.arange.healthy_refs()
        if len(healthy) < k:
            self._finish("write-failed")
            return
        data_refs = [r for r in healthy if r.role < k]
        parity_refs = [r for r in healthy if r.role >= k]
        delay = 0 if mgr.config.in_place_coding else mgr.copy_ns
        if mgr.config.async_parity and len(data_refs) == k:
            self.wave1_roles = [r.role for r in data_refs]
        else:
            # parity enters the ack path, so the encode cost does too
            self._encode()
            delay += mgr.encode_ns
            self.encode_ack_ns = mgr.encode_ns
            if mgr.config.async_parity:
                need = k - len(data_refs)
                wave = data_refs + parity_refs[:need]
            else:
                wave = healthy
            self.wave1_roles = [r.role for r in wave]
        self.wave1_pending = len(self.wave1_roles)
        if self.wave1_pending < k:
            self._finish("write-failed")
            return
        for role in list(self.wave1_roles):
            self._issue(role, delay)

    def _encode(self):
        if self.encode_charged:
            return
        self.encode_charged = True
        self.buffer.load(coding.encode(self.mgr.codec, self.splits))

    def _split_bytes(self, role):
        k = self.mgr.codec.params.k
        if role < k:
            return self.splits[role].data
        self._encode()
        return self.buffer.slots[role - k]

    def _issue(self, role, delay=0, fill=False):
        mgr = self.mgr
        ref = self.arange.ref_for_role(role)
        self.fanout += 1
        self.outstanding += 1
        payload = self._split_bytes(role)

        def submit(ref=ref, role=role, payload=payload, fill=fill):
            mgr.cluster.write_split(
                ref.machine_id,
                ref.slab_id,
                self.page_index,
                payload,
                lambda c, role=role: self._on_split(role, c),
                fill=fill,
            )

        if delay:
            mgr.cluster.schedule(delay, submit)
        else:
            submit()

    def _on_split(self, role, completion):
        mgr = self.mgr
        self.outstanding -= 1
        concluded = True
        if completion.outcome == "ok":
            self.acked[role] = completion.time_ns
            self._maybe_promote(role)
        else:
            if mgr._replace_ref(self.arange, role):
                self._issue(role, fill=True)
                concluded = False
        if concluded and role in self.wave1_roles:
            self.wave1_pending -= 1
        self._evaluate()

    def _maybe_promote(self, role):
        """A replacement slab that now holds every written page is healthy."""
        ref = self.arange.ref_for_role(role)
        if ref.state is not RefState.REGENERATING:
            return
        slab = self.mgr.cluster.slabs[ref.slab_id]
        missing = self.arange.written_pages - set(slab.store)
        if not missing:
            slab.state = SlabState.AVAILABLE
            ref.state = RefState.HEALTHY

    def _evaluate(self):
        mgr = self.mgr
        k = mgr.codec.params.k
        if self.data_acked_ns is None and len(self.acked) >= k:
            ack = max(sorted(self.acked.values())[:k][-1], mgr.cluster.now)
            self.data_acked_ns = ack + mgr.ctx_ns
            self.arange.written_pages.add(self.page_index)
            if not self.wave2_issued:
                self._issue_wave2()
        if (
            self.data_acked_ns is None
            and self.wave1_pending == 0
            and not self.wave2_issued
        ):
            # wave one lost splits: bring parity in to reach k acks
            self._issue_wave2()
        if self.outstanding == 0:
            if len(self.acked) >= k:
                width = len(self.arange.refs)
                if len(self.acked) == width:
                    self.durable_ns = max(self.acked.values())
                    self._finish("durable")
                else:
                    self._finish("degraded")
            else:
                self._finish("write-failed")

    def _issue_wave2(self):
        mgr = self.mgr
        self.wave2_issued = True
        rest = [
            ref
            for ref in self.arange.refs
            if ref.role not in self.wave1_roles and ref.state is not RefState.FAILED
        ]
        if not rest:
            return
        delay = 0 if self.encode_charged else mgr.encode_ns
        self._encode()
        for ref in rest:
            # a slab mid-regeneration only takes backfill writes
            self._issue(ref.role, delay, fill=ref.state is RefState.REGENERATING)


    def _finish(self, outcome):
        if self.finished:
            return
        self.finished = True
        self.done = True
        self.buffer.release()
        if self.mgr.config.async_parity and self.data_acked_ns is not None:
            completed = self.data_acked_ns
        else:
            completed = self.mgr.cluster.now
        self.completion = WriteCompletion(
            range_id=self.arange.range_id,
            page_index=self.page_index,
            submitted_ns=self.submitted_ns,
            started_ns=self.started_ns,
            data_acked_ns=self.data_acked_ns,
            durable_ns=self.durable_ns,
            outcome=outcome,
            fanout=self.fanout,
            encode_ack_ns=self.encode_ack_ns,
            completed_ns=completed,
        )
        self.mgr._log_op(self.submitted_ns, completed, "W", self.fanout, outcome)
        if self.on_done:
            self.on_done(self.completion)
        self.mgr._release(self.arange.range_id, self.page_index, self)


class _ReadOp:
    def __init__(self, mgr, arange, page_index, on_done, force_correction=False, internal=False):
        self.mgr = mgr
        self.arange = arange
        self.page_index = page_index
        self.on_done = on_done
        self.force_correction = force_correction
        self.internal = internal
        self.submitted_ns = mgr.cluster.now
        self.started_ns = None
        self.completion = None
        self.done = False
        self.finished = False
        self.targets = ()
        self.fanout = 0
        self.need = 0
        self.guarded = False
        self.escalated = False
        self.arrivals = []  # (time_ns, role, data)
        self.outstanding = 0
        self.delivered = False
        self.corrected = False

    def start(self):
        mgr = self.mgr
        self.started_ns = mgr.cluster.now
        params = mgr.codec.params
        k, delta = params.k, params.delta
        healthy = self.arange.healthy_refs()
        if len(healthy) < k:
            self._deliver("unrecoverable", None)
            self._maybe_finish()
            return
        width = k + delta
        if mgr.config.corruption_guard:
            wide = self.force_correction or any(
                mgr.health[ref.machine_id].suspect for ref in healthy
            )
            if wide:
                width = k + 2 * delta + 1
        width = min(width, len(healthy))
        self.guarded = mgr.config.corruption_guard and width >= k + delta and delta > 0
        self.need = width if self.guarded else k
        picked = mgr.rng.choice(len(healthy), size=width, replace=False)
        targets = [healthy[int(i)] for i in picked]
        self.targets = tuple(ref.role for ref in targets)
        for ref in targets:
            self._issue(ref)

    def _issue(self, ref):
        mgr = self.mgr
        self.fanout += 1
        self.outstanding += 1
        delay = 0 if mgr.config.in_place_coding else mgr.copy_ns

        def submit(ref=ref):
            mgr.cluster.read_split(
                ref.machine_id,
                ref.slab_id,
                self.page_index,
                lambda c, role=ref.role: self._on_split(role, c),
            )

        if delay:
            mgr.cluster.schedule(delay, submit)
        else:
            submit()

    def _on_split(self, role, completion):
        mgr = self.mgr
        self.outstanding -= 1
        if completion.outcome == "ok":
            if self.delivered and not self.guarded:
                mgr.cluster.log("late_split", f"r{self.arange.range_id}:p{self.page_index}", "discarded")
            else:
                self.arrivals.append((completion.time_ns, role, completion.data))
        else:
            self._reissue_if_needed()
        self._evaluate()

    def _reissue_if_needed(self):
        """A lost split gets replaced from a healthy ref not yet asked."""
        if self.delivered:
            return
        if len(self.arrivals) + self.outstanding >= self.need:
            return
        used = set(self.targets)
        spare = [
            ref for ref in self.arange.healthy_refs() if ref.role not in used
        ]
        if spare:
            ref = spare[0]
            self.targets = self.targets + (ref.role,)
            self._issue(ref)

    def _ordered(self):
        return sorted(self.arrivals, key=lambda a: (a[0], a[1]))

    def _evaluate(self):
        mgr = self.mgr
        k = mgr.codec.params.k
        delta = mgr.codec.params.delta
        if not self.guarded:
            if not self.delivered and len(self.arrivals) >= k:
                first = self._ordered()[:k]
                splits = [self._as_split(role, data) for _, role, data in first]
                page = coding.decode(mgr.codec, splits, mgr.config.page_size)
                cost = mgr.decode_ns if any(s.kind == coding.PARITY for s in splits) else 0
                self._deliver("ok", page, extra_ns=cost)
            self._maybe_finish()
            return
        if self.outstanding > 0:
            return
        # guard mode: every requested split has concluded
        ordered = self._ordered()
        splits = [self._as_split(role, data) for _, role, data in ordered]
        if len(splits) < k:
            self._deliver("unrecoverable", None)
            self._maybe_finish()
            return
        if len(splits) < k + delta:
            page = coding.decode(mgr.codec, splits[:k], mgr.config.page_size)
            self._deliver("ok", page, extra_ns=mgr.decode_ns)
            self._maybe_finish()
            return
        if not coding.detect_corruption(mgr.codec, splits, delta):
            for _, role, _ in ordered:
                mgr._record_health(self.arange, role, ok=True)
            page = coding.decode(mgr.codec, splits[:k], mgr.config.page_size)
            self._deliver("ok", page, extra_ns=mgr.decode_ns)
            self._maybe_finish()
            return
        need = k + 2 * delta + 1
        if len(splits) < need and not self.escalated:
            self.escalated = True
            self.need = need
            used = set(self.targets)
            spares = [
                ref for ref in self.arange.healthy_refs() if ref.role not in used
            ]
            extra = spares[: need - len(splits)]
            if extra:
                self.targets = self.targets + tuple(r.role for r in extra)
                for ref in extra:
                    self._issue(ref)
                return
        if len(splits) >= need:
            page, bad_roles = coding.correct_corruption(mgr.codec, splits, delta)
            self.corrected = True
            seen = {role for _, role, _ in ordered}
            for role in seen:
                mgr._record_health(self.arange, role, ok=role not in bad_roles)
            self._deliver("ok", page, extra_ns=mgr.decode_ns)
            self._maybe_finish()
            return
        self._deliver("corrupt-unrecoverable", None)
        self._maybe_finish()

    def _as_split(self, role, data):
        k = self.mgr.codec.params.k
        kind = coding.DATA if role < k else coding.PARITY
        return Split(index=role, kind=kind, data=data)

    def _deliver(self, outcome, page, extra_ns=0):
        if self.delivered:
            return
        self.delivered = True
        mgr = self.mgr
        completed = None
        if outcome == "ok":
            completed = mgr.cluster.now + extra_ns + mgr.ctx_ns
            if not mgr.config.in_place_coding:
                completed += mgr.copy_ns
        self.completion = ReadCompletion(
            range_id=self.arange.range_id,
            page_index=self.page_index,
            submitted_ns=self.submitted_ns,
            started_ns=self.started_ns,
            completed_ns=completed,
            outcome=outcome,
            fanout=self.fanout,
            corrected=self.corrected,
            page=page,
            decode_ns=extra_ns if outcome == "ok" else 0,
        )
        self.done = True
        if not self.internal:
            mgr._log_op(
                self.submitted_ns,
                completed if completed is not None else mgr.cluster.now,
                "R",
                self.fanout,
                "corrected" if self.corrected else outcome,
            )
        if self.on_done:
            self.on_done(self.completion)

    def _maybe_finish(self):
        if self.finished or not self.delivered or self.outstanding > 0:
            return
        self.finished = True
        self.mgr._release(self.arange.range_id, self.page_index, self)


class ResilienceManager:
    """Owns ranges, drives coded I/O, and reacts to faults."""

    def __init__(self, cluster, plan, params, config=None, seed=0):
        self.cluster = cluster
        self.plan = plan
        self.config = config or ManagerConfig()
        self.codec = make_codec(params, self.config.page_size)
        if self.config.slab_size < self.codec.split_size:
            raise InvalidParams("slab size smaller than one split")
        self.rng = np.random.default_rng(np.random.SeedSequence((seed, 0xDA7A)))
        self.ranges = {}
        self.health = defaultdict(
            lambda: MachineHealth(
                self.config.error_correction_limit, self.config.health_window
            )
        )
        self.slab_errors = defaultdict(
            lambda: MachineHealth(
                self.config.slab_regeneration_limit, self.config.health_window
            )
        )
        self.regeneration_requests = []
        self._regen_requested = set()
        self.completion_log = []
        self._locks = {}
        m = cluster.latency
        self.encode_ns = int(round(m.encode_us * 1000))
        self.decode_ns = int(round(m.decode_us * 1000))
        self.ctx_ns = 0 if self.config.run_to_completion else int(round(m.context_switch_us * 1000))
        self.copy_ns = int(round(m.copy_us * 1000))
        cluster.on_disconnect.append(self.handle_disconnect)
        cluster.on_eviction.append(self._on_eviction)

    # -- range lifecycle ----------------------------------------------------

    def map_range(self, range_id):
        """Allocate k+r slabs for a range on its placement group."""
        if range_id in self.ranges:
            return self.ranges[range_id]
        width = self.codec.params.k + self.codec.params.r
        gid = self.plan.group_for_range(range_id)
        group = self.plan.groups[gid]
        loads = {m: self.cluster.machines[m].slab_bytes for m in group.members}
        eligible = [
            m
            for m in group.members
            if self.cluster.machines[m].state is MachineState.UP
            and self.cluster.machines[m].free_bytes >= self.config.slab_size
        ]
        if len(eligible) < width:
            raise CapacityExhausted(
                f"range {range_id}: {len(eligible)} usable machines, needs {width}"
            )
        members = select_members(
            ExtendedGroup(index=gid, members=tuple(eligible), l=group.l), loads, self.codec.params
        )
        refs = []
        for role, machine_id in enumerate(members):
            slab = self.cluster.machines[machine_id].allocate_slab(
                self.config.slab_size,
                owner=range_id,
                role=role,
                split_size=self.codec.split_size,
            )
            if slab is None:
                raise CapacityExhausted(f"machine {machine_id} out of memory")
            refs.append(SlabRef(role=role, machine_id=machine_id, slab_id=slab.slab_id))
        arange = AddressRange(
            range_id=range_id,
            group_id=gid,
            group_members=tuple(group.members),
            refs=refs,
            page_capacity=self.config.slab_size // self.codec.split_size,
        )
        self.ranges[range_id] = arange
        self.plan.assignment[range_id] = (gid, tuple(members))
        return arange

    # -- data path ------------------------------------------------------

    def submit_write(self, range_id, page_index, page, on_done=None):
        arange = self._checked(range_id, page_index)
        if len(page) != self.config.page_size:
            raise InvalidParams(f"page must be {self.config.page_size} bytes")
        op = _WriteOp(self, arange, page_index, bytes(page), on_done)
        self._enqueue(range_id, page_index, op)
        return op

    def submit_read(self, range_id, page_index, on_done=None, force_correction=False):
        arange = self._checked(range_id, page_index)
        op = _ReadOp(self, arange, page_index, on_done, force_correction)
        self._enqueue(range_id, page_index, op)
        return op

    def remote_write(self, range_id, page_index, page):
        op = self.submit_write(range_id, page_index, page)
        self.drive(op)
        return op.completion

    def remote_read(self, range_id, page_index):
        op = self.submit_read(range_id, page_index)
        self.drive(op)
        return self._unwrap(op.completion)

    def read_with_correction(self, range_id, page_index):
        """Read with the full correction fan-out from the first hop."""
        op = self.submit_read(range_id, page_index, force_correction=True)
        self.drive(op)
        return self._unwrap(op.completion)

    def _unwrap(self, completion):
        if completion.outcome == "ok":
            return completion.page
        if completion.outcome == "corrupt-unrecoverable":
            raise UncorrectableCorruption(
                f"range {completion.range_id} page {completion.page_index}"
            )
        raise UnrecoverableRead(
            f"range {completion.range_id} page {completion.page_index}"
        )

    def drive(self, op):
        """Run the event loop until the op reaches its caller-visible point."""
        while not op.done:
            if self.cluster.step() is None:
                raise RuntimeError("op cannot make progress")
        return op

    def drive_all(self):
        self.cluster.run_until_idle()

    # -- ordering ---------------------------------------------------------

    def _enqueue(self, range_id, page_index, op):
        key = (range_id, page_index)
        queue = self._locks.setdefault(key, deque())
        queue.append(op)
        if len(queue) == 1:
            op.start()

    def _release(self, range_id, page_index, op):
        key = (range_id, page_index)
        queue = self._locks.get(key)
        if not queue or queue[0] is not op:
            return
        queue.popleft()
        if queue:
            queue[0].start()
        else:
            del self._locks[key]

    def _checked(self, range_id, page_index):
        arange = self.ranges.get(range_id)
        if arange is None:
            raise InvalidParams(f"range {range_id} is not mapped")
        if not 0 <= page_index < arange.page_capacity:
            raise InvalidParams(
                f"page {page_index} outside range capacity {arange.page_capacity}"
            )
        return arange

    # -- fault handling -----------------------------------------------------

    def handle_disconnect(self, machine_id):
        for arange in self.ranges.values():
            for ref in arange.refs:
                if ref.machine_id == machine_id and ref.state is not RefState.FAILED:
                    ref.state = RefState.FAILED
                    self._request_regen(arange.range_id, ref.role)

    def _on_eviction(self, slab):
        if slab.owner is None:
            return
        arange = self.ranges.get(slab.owner)
        if arange is None:
            return
        for ref in arange.refs:
            if ref.slab_id == slab.slab_id and ref.state is not RefState.FAILED:
                ref.state = RefState.FAILED
                self._request_regen(arange.range_id, ref.role)

    def _replace_ref(self, arange, role):
        """Move a lost split onto a fresh slab on a spare group member."""
        old = arange.ref_for_role(role)
        if old.state is not RefState.FAILED:
            slab = self.cluster.slabs.get(old.slab_id)
            machine_up = self.cluster.machines[old.machine_id].state is MachineState.UP
            if machine_up and slab is not None and slab.state not in (
                SlabState.EVICTED,
                SlabState.FAILED,
            ):
                # another op already repointed this role at a live slab
                return True
        hosting = {
            ref.machine_id for ref in arange.refs if ref.state is not RefState.FAILED
        }
        hosting.discard(old.machine_id)
        candidates = [
            m
            for m in arange.group_members
            if m not in hosting
            and self.cluster.machines[m].state is MachineState.UP
            and self.cluster.machines[m].free_bytes >= self.config.slab_size
        ]
        if not candidates:
            old.state = RefState.FAILED
            return False
        candidates.sort(key=lambda m: (self.cluster.machines[m].slab_bytes, m))
        slab = self.cluster.machines[candidates[0]].allocate_slab(
            self.config.slab_size,
            owner=arange.range_id,
            role=role,
            split_size=self.codec.split_size,
        )
        slab.state = SlabState.REGENERATING
        old.machine_id = candidates[0]
        old.slab_id = slab.slab_id
        old.state = RefState.REGENERATING
        return True

    def _request_regen(self, range_id, role):
        key = (range_id, role)
        if key in self._regen_requested:
            return
        self._regen_requested.add(key)
        self.regeneration_requests.append(key)

    def regen_done(self, range_id, role):
        self._regen_requested.discard((range_id, role))

    # -- health -----------------------------------------------------------

    def _record_health(self, arange, role, ok):
        ref = arange.ref_for_role(role)
        self.health[ref.machine_id].record(ok)
        slab = self.slab_errors[ref.slab_id]
        slab.record(ok)
        if not ok and slab.suspect:
            self._request_regen(arange.range_id, role)

    # -- reporting ----------------------------------------------------------

    def _log_op(self, submit_ns, complete_ns, op, fanout, outcome):
        self.completion_log.append((submit_ns, complete_ns, op, fanout, outcome))

    def write_completion_log(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["submit_us", "complete_us", "op", "fanout", "outcome"])
            for submit_ns, complete_ns, op, fanout, outcome in self.completion_log:
                writer.writerow(
                    [
                        f"{submit_ns / 1000:.3f}",
                        f"{complete_ns / 1000:.3f}",
                        op,
                        fanout,
                        outcome,
                    ]
                )
