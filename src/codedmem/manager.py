"""Resilient data path over coded remote memory.

Pages are striped into k data splits plus r parity splits and spread
over k+r slabs on distinct machines. Writes ack the caller once k
splits are durable and finish the parity in the background. Reads
fan out to k+delta slabs and complete with the first k arrivals, so
a straggler or failed machine never sits on the critical path.

A read decides once, when `need` splits have arrived or none is left in
flight. With the corruption guard enabled it waits for all k+delta
splits it asked and checks them in the reconstruction that decodes
them; on a mismatch it asks spares up to k+2*delta+1 once. A set that
wide goes straight to `correct_corruption`, whose empty exclusion set is
the check of the whole set; past delta corrupted splits the read
delivers `corrupt-unrecoverable`. Machines whose splits keep failing
verification are put in suspect mode (wide fan-out from the start).

A ref has no state of its own: it reads its slab's, so a split is
available, regenerating, or lost (`simulator.LOST`). A lost split moves
to a fresh slab on a spare member of the range's own group, never
outside it; the slab it leaves, a slab whose rebuild aborts, and every
slab on a recovered machine are freed, so a stale slab never reads as
healthy again. A ref that found no spare asks for its rebuild again when
a member of its group recovers. A REGENERATING slab becomes AVAILABLE in
`promote`, once it holds every written page, whether a rebuild or a
foreground write filled the last one.

A page read or write is its own completion: once `done`, its caller
reads the outcome and the timeline from the op, and `on_done` receives
the op. A done op keeps no page buffers, and the manager keeps no log of
ops.
"""

from __future__ import annotations

import numbers
from collections import defaultdict, deque
from dataclasses import dataclass, field

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
from .simulator import LOST, MachineState, Slab, SlabState


@dataclass
class SlabRef:
    """One slot of a range's codeword: the slab that holds split `role`."""

    role: int
    slab: Slab

    @property
    def machine_id(self):
        return self.slab.machine_id

    @property
    def slab_id(self):
        return self.slab.slab_id


@dataclass
class AddressRange:
    range_id: int
    group_id: int
    group_members: tuple
    refs: list
    page_capacity: int
    written_pages: set = field(default_factory=set)

    def healthy_refs(self):
        return [ref for ref in self.refs if ref.slab.state is SlabState.AVAILABLE]


class MachineHealth:
    """Sliding window of verification results for one machine."""

    def __init__(self, limit, window=64):
        self.limit = limit
        self.window = deque(maxlen=window)

    def record(self, ok):
        self.window.append(0 if ok else 1)

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
    health_window: int = 64

    def __post_init__(self):
        for name in ("page_size", "slab_size", "health_window"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise InvalidParams(f"{name} must be a positive integer, got {value!r}")
        for name in ("corruption_guard", "async_parity", "run_to_completion", "in_place_coding"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise InvalidParams(f"{name} must be true or false, got {value!r}")
        limit = self.error_correction_limit
        if isinstance(limit, bool) or not isinstance(limit, numbers.Real) or not limit >= 0:
            raise InvalidParams(
                f"error_correction_limit must be a non-negative number, got {limit!r}"
            )


class _PageOp:
    """One page read or write; once done, the op is also its completion.

    Its caller reads `outcome`, `submitted_ns`, `started_ns`,
    `completed_ns` and `fanout` from it, and `on_done` receives it. Callers
    keep done ops, so the ops have slots and drop their buffers when done.
    """

    __slots__ = (
        "mgr", "arange", "page_index", "on_done", "submitted_ns", "started_ns",
        "completed_ns", "outcome", "done", "fanout", "outstanding",
    )

    def __init__(self, mgr, arange, page_index, on_done):
        self.mgr = mgr
        self.arange = arange
        self.page_index = page_index
        self.on_done = on_done
        self.submitted_ns = mgr.cluster.now
        self.started_ns = None
        self.completed_ns = None
        self.outcome = None
        self.done = False
        self.fanout = 0
        self.outstanding = 0

    @property
    def completion(self):
        return self if self.done else None


class _WriteOp(_PageOp):
    """Also carries `data_acked_ns`, `durable_ns` and `encode_ack_ns`.

    `completed_ns` is the caller's unblock time: the k-ack point with async
    parity, the full conclusion when parity sits in the ack path.
    """

    __slots__ = (
        "page", "data_acked_ns", "durable_ns", "acks", "wave1_roles", "wave2_issued",
        "encode_ack_ns", "splits", "parity",
    )

    def __init__(self, mgr, arange, page_index, page, on_done):
        super().__init__(mgr, arange, page_index, on_done)
        self.page = page
        self.data_acked_ns = None
        self.durable_ns = None
        self.acks = 0
        self.wave1_roles = []
        self.wave2_issued = False
        self.encode_ack_ns = 0
        self.splits = None
        self.parity = None  # parity split bytes, held from encode to send

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
        if len(self.wave1_roles) < k:
            self._finish("write-failed")
            return
        for role in self.wave1_roles:
            self._issue(role, delay)

    def _encode(self):
        if self.parity is not None:
            return
        self.parity = [s.data for s in coding.encode(self.mgr.codec, self.splits)]

    def _split_bytes(self, role):
        k = self.mgr.codec.params.k
        if role < k:
            return self.splits[role].data
        self._encode()
        return self.parity[role - k]

    def _issue(self, role, delay=0, fill=False):
        mgr = self.mgr
        ref = self.arange.refs[role]
        self.fanout += 1
        self.outstanding += 1
        payload = self._split_bytes(role)
        if delay:
            mgr.cluster.schedule(delay, lambda: self._submit(ref, payload, fill))
        else:
            self._submit(ref, payload, fill)

    def _submit(self, ref, payload, fill):
        role = ref.role
        self.mgr.cluster.write_split(
            ref.machine_id,
            ref.slab_id,
            self.page_index,
            payload,
            lambda c: self._on_split(role, c),
            fill=fill,
        )

    def _on_split(self, role, split):
        mgr = self.mgr
        self.outstanding -= 1
        if split.outcome == "ok":
            self.acks += 1
            mgr.promote(self.arange, role)
        elif mgr.relocate(self.arange, role) is not None:
            self._issue(role, fill=True)
        self._evaluate()

    def _evaluate(self):
        mgr = self.mgr
        k = mgr.codec.params.k
        # splits conclude at cluster.now: the k-th ack and, if durable, the last are now
        if self.data_acked_ns is None and self.acks >= k:
            self.data_acked_ns = mgr.cluster.now + mgr.ctx_ns
            self.arange.written_pages.add(self.page_index)
        # wave two follows the k-ack point, or brings parity in to reach k
        # acks once wave one concluded short of them
        if not self.wave2_issued and (self.data_acked_ns is not None or self.outstanding == 0):
            self._issue_wave2()
        if self.outstanding == 0:
            if self.acks == len(self.arange.refs):
                self.durable_ns = mgr.cluster.now
                self._finish("durable")
            else:
                self._finish("degraded" if self.acks >= k else "write-failed")

    def _issue_wave2(self):
        mgr = self.mgr
        self.wave2_issued = True
        rest = [
            ref
            for ref in self.arange.refs
            if ref.role not in self.wave1_roles and ref.slab.state not in LOST
        ]
        if not rest:
            return
        delay = 0 if self.parity is not None else mgr.encode_ns
        self._encode()
        for ref in rest:
            # a slab mid-regeneration only takes backfill writes
            self._issue(ref.role, delay, fill=ref.slab.state is SlabState.REGENERATING)

    def _finish(self, outcome):
        self.outcome = outcome
        if self.mgr.config.async_parity and self.data_acked_ns is not None:
            self.completed_ns = self.data_acked_ns
        else:
            self.completed_ns = self.mgr.cluster.now
        # a done write is kept as its completion and needs no buffers or issue state
        self.page = self.splits = self.parity = self.wave1_roles = None
        self.done = True
        if self.on_done:
            self.on_done(self)
        self.mgr._release(self.arange.range_id, self.page_index, self)


class _ReadOp(_PageOp):
    """Also carries `page`, `corrected` and `decode_ns` once delivered."""

    __slots__ = (
        "force_correction", "page", "corrected", "decode_ns", "targets", "need", "guarded",
        "escalated", "arrivals",
    )

    def __init__(self, mgr, arange, page_index, on_done, force_correction=False):
        super().__init__(mgr, arange, page_index, on_done)
        self.force_correction = force_correction
        self.page = None
        self.corrected = False
        self.decode_ns = 0
        self.targets = ()
        self.need = 0
        self.guarded = False
        self.escalated = False
        self.arrivals = []  # (time_ns, role, data) until delivery

    def start(self):
        mgr = self.mgr
        self.started_ns = mgr.cluster.now
        params = mgr.codec.params
        k, delta = params.k, params.delta
        healthy = self.arange.healthy_refs()
        if len(healthy) < k:
            self._deliver("unrecoverable", None)
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
        picked = mgr.rng.permutation(len(healthy))[:width]
        targets = [healthy[int(i)] for i in picked]
        self.targets = tuple(ref.role for ref in targets)
        for ref in targets:
            self._issue(ref)

    def _issue(self, ref):
        mgr = self.mgr
        self.fanout += 1
        self.outstanding += 1
        if mgr.config.in_place_coding:
            self._submit(ref)
        else:
            mgr.cluster.schedule(mgr.copy_ns, lambda: self._submit(ref))

    def _submit(self, ref):
        role = ref.role
        self.mgr.cluster.read_split(
            ref.machine_id, ref.slab_id, self.page_index, lambda c: self._on_split(role, c)
        )

    def _ask(self, count):
        """Issue up to `count` healthy refs not yet asked; how many were."""
        used = set(self.targets)
        spares = [ref for ref in self.arange.healthy_refs() if ref.role not in used][:count]
        self.targets += tuple(ref.role for ref in spares)
        for ref in spares:
            self._issue(ref)
        return len(spares)

    def _on_split(self, role, completion):
        self.outstanding -= 1
        if self.done:
            # an unguarded read drops the splits that arrive after delivery
            if self.outstanding == 0:
                self.mgr._release(self.arange.range_id, self.page_index, self)
            return
        if completion.outcome == "ok":
            self.arrivals.append((completion.time_ns, role, completion.data))
        elif len(self.arrivals) + self.outstanding < self.need:
            self._ask(1)
        # a guarded read never has more than `need` splits asked, so it only
        # decides once every asked split has concluded
        if len(self.arrivals) >= self.need or self.outstanding == 0:
            self._decide()

    def _decide(self):
        mgr = self.mgr
        k, delta = mgr.codec.params.k, mgr.codec.params.delta
        splits = [
            Split(index=role, kind=coding.DATA if role < k else coding.PARITY, data=data)
            for _, role, data in sorted(self.arrivals)
        ]
        if len(splits) < k:
            self._deliver("unrecoverable", None)
            return
        if not self.guarded:
            page = coding.decode(mgr.codec, splits, mgr.config.page_size)
            cost = mgr.decode_ns if any(s.kind == coding.PARITY for s in splits[:k]) else 0
            self._deliver("ok", page, extra_ns=cost)
            return
        if len(splits) >= k + 2 * delta + 1:
            # the empty exclusion set comes first, so a clean set is one check
            try:
                page, bad = coding.correct_corruption(mgr.codec, splits, delta)
            except UncorrectableCorruption:
                self._deliver("corrupt-unrecoverable", None)
                return
            for s in splits:
                mgr._record_health(self.arange, s.index, ok=s.index not in bad)
            self._deliver("ok", page, extra_ns=mgr.decode_ns, corrected=bool(bad))
            return
        # one reconstruction verifies and decodes; short of k+delta, none is checked
        checkable = len(splits) >= k + delta
        page = coding._verified_decode(
            mgr.codec, splits if checkable else splits[:k], mgr.config.page_size
        )
        if page is not None:
            if checkable:
                for s in splits:
                    mgr._record_health(self.arange, s.index, ok=True)
            self._deliver("ok", page, extra_ns=mgr.decode_ns)
            return
        if not self.escalated:
            self.escalated = True
            self.need = k + 2 * delta + 1
            if self._ask(self.need - len(splits)):
                return
        self._deliver("corrupt-unrecoverable", None)

    def _deliver(self, outcome, page, extra_ns=0, corrected=False):
        mgr = self.mgr
        self.outcome = outcome
        self.page = page
        self.corrected = corrected
        self.decode_ns = extra_ns
        if outcome == "ok":
            self.completed_ns = mgr.cluster.now + extra_ns + mgr.ctx_ns
            if not mgr.config.in_place_coding:
                self.completed_ns += mgr.copy_ns
        # a delivered read is kept as its completion; its splits are not needed
        self.arrivals = None
        self.done = True
        if self.on_done:
            self.on_done(self)
        if self.outstanding == 0:
            mgr._release(self.arange.range_id, self.page_index, self)


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
        self.regeneration_requests = []
        self._regen_requested = set()
        self._locks = {}
        m = cluster.latency
        self.encode_ns = int(round(m.encode_us * 1000))
        self.decode_ns = int(round(m.decode_us * 1000))
        self.ctx_ns = 0 if self.config.run_to_completion else int(round(m.context_switch_us * 1000))
        self.copy_ns = int(round(m.copy_us * 1000))
        cluster.on_disconnect.append(self.handle_disconnect)
        cluster.on_eviction.append(self._on_eviction)
        cluster.on_recover.append(self._on_recover)

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
            refs.append(SlabRef(role=role, slab=slab))
        arange = AddressRange(
            range_id=range_id,
            group_id=gid,
            group_members=tuple(group.members),
            refs=refs,
            page_capacity=self.config.slab_size // self.codec.split_size,
        )
        self.ranges[range_id] = arange
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
        return self._unwrap(op)

    def read_with_correction(self, range_id, page_index):
        """Read with the full correction fan-out from the first hop."""
        op = self.submit_read(range_id, page_index, force_correction=True)
        self.drive(op)
        return self._unwrap(op)

    def _unwrap(self, op):
        if op.outcome == "ok":
            return op.page
        where = f"range {op.arange.range_id} page {op.page_index}"
        if op.outcome == "corrupt-unrecoverable":
            raise UncorrectableCorruption(where)
        raise UnrecoverableRead(where)

    def drive(self, op):
        """Run the event loop until the op reaches its caller-visible point."""
        while not op.done:
            if self.cluster.step() is None:
                raise RuntimeError("op cannot make progress")
        return op

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
        # the disconnect failed every slab that was live on the machine
        for arange in self.ranges.values():
            for ref in arange.refs:
                if ref.machine_id == machine_id and ref.slab.state is SlabState.FAILED:
                    self._request_regen(arange.range_id, ref.role)

    def _on_eviction(self, slab):
        arange = self.ranges.get(slab.owner)
        if arange is not None and arange.refs[slab.role].slab is slab:
            self._request_regen(arange.range_id, slab.role)

    def _on_recover(self, machine_id):
        # every ref on the machine was failed at disconnect and has missed
        # writes since, so none of its slabs may serve again
        machine = self.cluster.machines[machine_id]
        for slab in list(machine.slabs.values()):
            if slab.owner is not None and slab.state is not SlabState.EVICTED:
                self.cluster.free_slab(slab.slab_id)
        # a ref parked for want of a spare may find one on the machine now
        for arange in self.ranges.values():
            if machine_id in arange.group_members:
                for ref in arange.refs:
                    if ref.slab.state in LOST:
                        self._request_regen(arange.range_id, ref.role)

    def relocate(self, arange, role):
        """The slab for `role`: its own while live, else a fresh one.

        A fresh slab goes on the least-loaded member of the range's group
        (ties to the lower id) that is up, has room, and hosts no other
        live split of the range. It starts REGENERATING, and the slab the
        ref leaves is freed if the cluster still holds it, evicted or not.
        None when the group has no such spare.
        """
        ref = arange.refs[role]
        if ref.slab.state not in LOST:
            return ref.slab
        machines = self.cluster.machines
        hosting = {r.machine_id for r in arange.refs if r.slab.state not in LOST}
        spares = [
            m
            for m in arange.group_members
            if m not in hosting
            and machines[m].state is MachineState.UP
            and machines[m].free_bytes >= self.config.slab_size
        ]
        if not spares:
            return None
        target = min(spares, key=lambda m: (machines[m].slab_bytes, m))
        slab = machines[target].allocate_slab(
            self.config.slab_size,
            owner=arange.range_id,
            role=role,
            split_size=self.codec.split_size,
        )
        slab.state = SlabState.REGENERATING
        old, ref.slab = ref.slab, slab
        if old.slab_id in self.cluster.slabs:
            self.cluster.free_slab(old.slab_id)
        return slab

    def promote(self, arange, role):
        """True once the ref's slab is AVAILABLE.

        A REGENERATING slab that holds every written page becomes AVAILABLE
        here, whichever write filled its last page, and its rebuild logs its
        `complete` row.
        """
        slab = arange.refs[role].slab
        if slab.state is SlabState.REGENERATING and arange.written_pages.issubset(slab.store):
            slab.state = SlabState.AVAILABLE
            self.cluster.log("regenerate", f"r{arange.range_id}:role{role}", "complete")
        return slab.state is SlabState.AVAILABLE

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
        self.health[arange.refs[role].machine_id].record(ok)
