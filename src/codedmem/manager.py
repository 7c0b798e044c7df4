"""Resilient data path over coded remote memory, and the rebuild of lost slabs.

Pages are striped into k data splits plus r parity splits and spread
over k+r slabs on distinct machines. Writes ack the caller once k
splits are durable and finish the parity in the background. Reads
fan out to k+delta slabs and complete with the first k arrivals, so
a straggler or failed machine never sits on the critical path. A context
switch (`LatencyModel.context_switch_us`) adds to every op's completion; a
copy (`copy_us`) delays a write's first wave and a read's splits, and adds
again when a read completes. Both are zero in Hydra's run-to-completion,
in-place design.

A page op sends every split through one path, `_PageOp._issue`: a wave (a
read's fan-out or spares, a write's wave one, wave two, or the resend of a
refused split) goes out at once or, after a delay, from one event, each
split to the slab in its slot then, in the order one event per split would
draw. Each split I/O gets the op's bound `_on_split`, no closure. A read
takes a split's role from the slab that served it; a write keeps a slab id
-> role map, since a refused split has no slab to ask.

A write builds its page's codeword once, as its slabs store it
(`_stored_codeword`), and records it in its range's `codewords`, keyed by
the written pages, at the k-ack. A data split is its page, in place: a data
role whose split starts inside the page stores the page object the write
was given, and every other role its row of `coding.codeword`; the data
rows it does not keep are dropped once the parity is made.
`simulator.split_of` is the one reader of that form. A read first compares what arrived with that codeword,
an identity hit for a page stored in place, or with `zero_codeword`, the
split rows an empty slab serves, for a page never written. When all are
equal the read is `clean`: it delivers role 0's object, the written page
itself, or the manager's one `zero_page`, with no copy and no codec, since
any k splits of one codeword decode to its page and every extra split
checks against it. A read that is not clean cuts what arrived into splits
for the codec. The trade: a range keeps each written page alive after its
caller drops its own, as the one copy its slabs share; a caller that keeps
a shadow of what it wrote, as `analysis._run_coded` and the benchmark do,
shares it.

A read decides once, when `need` splits have arrived or none is left in
flight: k for an unguarded read, its whole fan-out for a guarded one;
fewer than k is `unrecoverable`. A guarded read of at least k+delta splits
is `checked`. A read neither clean nor checked goes to `coding.decode`; a
checked one to `coding.correct_corruption`, with a budget of delta once it
holds k+2*delta+1 splits and of 0 below, whose empty exclusion set, tried
first, is one reconstruction that decodes and checks the whole set. A
narrower check that fails asks spares up to k+2*delta+1 once; a wide set
past delta corruptions, or a read with no spare left, delivers
`corrupt-unrecoverable`. A checked read records each split's result in its
machine's health window; a machine whose failure rate there passes
`ERROR_CORRECTION_LIMIT` is suspect, and a guarded read that may touch it
asks k+2*delta+1 splits at once.

A page read or write is its own completion, and every op ends in
`_PageOp._conclude`: it sets the outcome and `completed_ns`, the caller's
unblock time plus one context switch, calls `on_done` with the op, and
moves the page's queue on once no split is in flight. The op records its
own `network_ns`, its time in flight (the `datapath` CSV's
`network_p50_us` is its median), so only the manager knows which fixed
costs a latency holds. A done op keeps no page buffers, and the manager
keeps no log of ops.

A range's `refs` are its slabs, indexed by role: slot `role` is whichever
slab `refs[role]` names now, so a split is available, regenerating, or
lost (`simulator.LOST`), and code that holds a slot across a delay reads
`refs[role]` again when it acts. A range's group is the slice of the
plan's member array that `plan.bounds` cuts for it. `map_range` and
`relocate` choose through one picker, `_least_loaded`: of the group's
members that are up, have room and host no live split of the range,
`placement.select_members` takes the least loaded. A lost split moves to a
fresh slab on a spare member of its own group; the slab it leaves, a slab
whose rebuild aborts, and every slab on a recovered machine are freed, so
a stale slab never reads as healthy again. A REGENERATING slab becomes
AVAILABLE in `promote` once it holds every written page, whether a rebuild
or a foreground write filled the last one.

`ResilienceManager.drain_regeneration` starts one rebuild per queued
request, one record whose `done` and `succeeded` its caller reads. A
rebuild reads each written page from k healthy slabs, takes the lost split
from the recorded codeword when the read delivers the recorded page, or
else from the stored codeword of the page it decoded, and backfills it onto
the fresh slab. It takes each page's queue like a foreground op, so it
never reads a page a write has in flight; foreground writes backfill the
new slab directly, and the rebuild skips the pages that landed. A rebuild
whose slab is lost before it is whole aborts. Each outcome (complete,
aborted, no_quorum, no_target) is a `regenerate` row of
`Cluster.event_log`; a queued rebuild that finds fewer than k healthy
splits, or no spare, logs `no_quorum` or `no_target` and leaves no status.

One routine, `_reconsider`, queues the rebuild of each slot not whole
that waits for nothing. A range's `rebuild_status` stores two statuses,
and a slot not lost carries only `queued`:

    queued      a rebuild is asked for or running
    unverified  a rebuild could not read or verify a page

A slot with neither waits while its range has fewer than k healthy splits
or, if lost, its group no spare: facts recomputed, not stored.
`_reconsider` runs over a machine's group ranges at its disconnect,
eviction or recovery; at an aborted rebuild, over the freed slab's group
ranges, or else its own range; and over the range at a `promote` or a
write that completes durable or degraded. All but a disconnect and an
abort also end `unverified` waits, since they may mend the page; an
abort's retry would abort again and free the same room, without end.

Under the corruption guard with delta > 0, a rebuild fills only from
verified reads. A read that could not be verified (fewer than k + delta
healthy splits, or a split cut off in flight with no spare left to ask)
aborts the rebuild: filling from an unchecked decode would turn a
corrupted split into a consistent wrong codeword that no later guarded
read could detect. The slot waits `unverified` for a write that may mend
the page; until then the range stays degraded.
"""

from __future__ import annotations

import numbers
from collections import defaultdict, deque
from dataclasses import dataclass, field

import numpy as np

from . import coding
from .coding import make_codec
from .errors import (
    CapacityExhausted,
    InvalidParams,
    UncorrectableCorruption,
    UnrecoverableRead,
)
from .placement import select_members
from .simulator import AVAILABLE, LOST, REGENERATING, UP, SlabState, split_of


@dataclass
class AddressRange:
    range_id: int
    group_id: int
    group_members: tuple
    refs: list  # the slab that holds each split, indexed by role
    page_capacity: int
    # written page -> its last k-acked write's codeword as stored, by role
    # (`_stored_codeword`); role 0 is the page that write was given
    codewords: dict = field(default_factory=dict)
    # role -> "queued" or "unverified", for a slot not whole that waits on it
    rebuild_status: dict = field(default_factory=dict)

    def healthy_refs(self):
        return [slab for slab in self.refs if slab.state is AVAILABLE]


def _stored_codeword(codec, page):
    """A page's codeword by role as slabs store it: the page itself for each
    data role whose split starts inside it, then `coding.codeword`'s rows
    for the rest, zero rows of padding and the parity."""
    inside = -(-len(page) // codec.split_size)
    return (page,) * inside + coding.codeword(codec, page)[inside:]


ERROR_CORRECTION_LIMIT = 0.05  # error rate above which a machine is suspect
HEALTH_WINDOW = 64  # verification results kept per machine


class MachineHealth:
    """Sliding window of verification results for one machine, and the
    count of failures in it."""

    def __init__(self):
        self.window = deque(maxlen=HEALTH_WINDOW)
        self.errors = 0

    def record(self, ok):
        window = self.window
        if len(window) == HEALTH_WINDOW:
            self.errors -= window[0]  # the result the append drops
        bit = 0 if ok else 1
        window.append(bit)
        self.errors += bit

    @property
    def error_rate(self):
        if not self.window:
            return 0.0
        return self.errors / len(self.window)

    @property
    def suspect(self):
        return self.error_rate > ERROR_CORRECTION_LIMIT


@dataclass(frozen=True)
class ManagerConfig:
    page_size: int = coding.PAGE_SIZE
    slab_size: int = 64 * 1024
    corruption_guard: bool = False
    async_parity: bool = True

    def __post_init__(self):
        for name in ("page_size", "slab_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise InvalidParams(f"{name} must be a positive integer, got {value!r}")
        for name in ("corruption_guard", "async_parity"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise InvalidParams(f"{name} must be true or false, got {value!r}")


class _PageOp:
    """One page read or write; once done, the op is also its completion.

    Its caller reads `outcome`, `submitted_ns`, `started_ns`,
    `completed_ns`, `network_ns` and `fanout` from it, and `on_done`
    receives it. Every done op has `completed_ns`, a failed one too;
    `network_ns` is set only for a write that reached its k-ack and an `ok`
    read. Callers keep done ops, so the ops have slots and drop their
    buffers when done.
    """

    __slots__ = (
        "mgr", "arange", "page_index", "on_done", "submitted_ns", "started_ns",
        "completed_ns", "network_ns", "outcome", "done", "fanout", "outstanding",
    )

    def __init__(self, mgr, arange, page_index, on_done):
        self.mgr = mgr
        self.arange = arange
        self.page_index = page_index
        self.on_done = on_done
        self.submitted_ns = mgr.cluster.now
        self.started_ns = None
        self.completed_ns = None
        self.network_ns = None  # time in flight: the latency less its fixed costs
        self.outcome = None
        self.done = False
        self.fanout = 0
        self.outstanding = 0

    @property
    def completion(self):
        return self if self.done else None

    def _issue(self, wave, delay=0):
        """Send a wave of splits, now or as one event `delay` on."""
        self.fanout += len(wave)
        self.outstanding += len(wave)
        if delay:
            self.mgr.cluster.schedule(delay, lambda: self._submit(wave))
        else:
            self._submit(wave)

    def _conclude(self, outcome, unblock_ns):
        """End the op: its caller unblocks a context switch after
        `unblock_ns`, and its page queue moves on once no split is in flight."""
        mgr = self.mgr
        self.outcome = outcome
        self.completed_ns = unblock_ns + mgr.ctx_ns
        self.done = True
        if self.on_done:
            self.on_done(self)
        if self.outstanding == 0:
            mgr._release(self.arange.range_id, self.page_index, self)


class _WriteOp(_PageOp):
    """Also carries `data_acked_ns`, `durable_ns` and `encode_ack_ns`.

    `data_acked_ns` is the k-th ack and `durable_ns` the last, both bare
    split conclusions. `completed_ns` is a context switch after the caller's
    unblock point: the k-ack with async parity, else the write's conclusion.
    """

    __slots__ = (
        "page", "data_acked_ns", "durable_ns", "acks", "wave1_roles", "wave2_issued",
        "encode_ack_ns", "codeword", "roles",
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
        self.codeword = None  # the k+r stored payloads, by role, once started
        self.roles = {}  # slab id -> the role a split I/O to that slab writes

    # -- plumbing ---------------------------------------------------------

    def start(self):
        mgr = self.mgr
        self.started_ns = mgr.cluster.now
        k = mgr.codec.params.k
        healthy = self.arange.healthy_refs()
        if len(healthy) < k:
            self._finish("write-failed")
            return
        self.codeword = _stored_codeword(mgr.codec, self.page)
        # refs are in role order, so the first k healthy ones are the data
        # splits with parity standing in for the missing ones
        wave = healthy[:k] if mgr.config.async_parity else healthy
        self.wave1_roles = [s.role for s in wave]
        delay = mgr.copy_ns
        if wave[-1].role >= k or not mgr.config.async_parity:
            # parity enters the ack path, so the encode cost does too
            delay += mgr.encode_ns
            self.encode_ack_ns = mgr.encode_ns
        self._issue([(role, False) for role in self.wave1_roles], delay)

    def _submit(self, wave):
        # a slot may have been relocated during the delay
        refs, roles, codeword = self.arange.refs, self.roles, self.codeword
        write_split = self.mgr.cluster.write_split
        for role, fill in wave:
            slab = refs[role]
            roles[slab.slab_id] = role
            write_split(
                slab.machine_id, slab.slab_id, self.page_index, codeword[role], self._on_split, fill
            )

    def _on_split(self, io):
        # a refused split has no slab to read its role from, so the op keeps it
        role = self.roles[io.slab_id]
        mgr = self.mgr
        self.outstanding -= 1
        if io.outcome == "ok":
            self.acks += 1
            if self.arange.refs[role].state is REGENERATING:
                mgr.promote(self.arange, role)
        elif mgr.relocate(self.arange, role) is not None:
            self._issue([(role, True)])
        self._evaluate()

    def _evaluate(self):
        mgr = self.mgr
        k = mgr.codec.params.k
        # splits conclude at cluster.now: the k-th ack and, if durable, the last are now
        acked = self.data_acked_ns is None and self.acks >= k
        if acked:
            now = mgr.cluster.now
            self.data_acked_ns = now
            self.network_ns = now - self.started_ns - self.encode_ack_ns - mgr.copy_ns
        # wave two follows the k-ack point, or brings parity in to reach k
        # acks once wave one concluded short of them
        if not self.wave2_issued and (self.data_acked_ns is not None or self.outstanding == 0):
            self._issue_wave2()
        if acked:
            self.arange.codewords[self.page_index] = self.codeword
        if self.outstanding == 0:
            if self.acks == len(self.arange.refs):
                self.durable_ns = mgr.cluster.now
                self._finish("durable")
            else:
                self._finish("degraded" if self.acks >= k else "write-failed")

    def _issue_wave2(self):
        mgr = self.mgr
        self.wave2_issued = True
        # a slab mid-regeneration only takes backfill writes
        rest = [
            (slab.role, slab.state is REGENERATING)
            for slab in self.arange.refs
            if slab.role not in self.wave1_roles and slab.state not in LOST
        ]
        if rest:
            # the encode cost is paid once: in the ack path or here
            self._issue(rest, mgr.encode_ns - self.encode_ack_ns)

    def _finish(self, outcome):
        mgr = self.mgr
        # a done write is kept as its completion and needs no buffers or issue state
        self.page = self.codeword = self.wave1_roles = self.roles = None
        if self.arange.rebuild_status and outcome != "write-failed":
            # the write may have replaced a split no rebuild could verify
            mgr._reconsider((self.arange,), retry=True)
        # with async parity the caller unblocked at the k-ack
        if mgr.config.async_parity and self.data_acked_ns is not None:
            self._conclude(outcome, self.data_acked_ns)
        else:
            self._conclude(outcome, mgr.cluster.now)


class _ReadOp(_PageOp):
    """Also carries `page`, `corrected`, `verified`, `decode_ns` and `clean`
    once delivered. `verified` is true only for an `ok` read whose splits
    passed a guarded check; a read short of k + delta splits decodes
    unchecked. `clean` is true when every split that arrived equals the
    page's last-written codeword, so the page came without the codec."""

    __slots__ = (
        "page", "corrected", "verified", "decode_ns", "targets", "need", "guarded",
        "escalated", "arrivals", "clean",
    )

    def __init__(self, mgr, arange, page_index, on_done):
        super().__init__(mgr, arange, page_index, on_done)
        self.page = None
        self.corrected = False
        self.verified = False
        self.decode_ns = 0
        self.targets = ()
        self.need = 0
        self.guarded = False
        self.escalated = False
        self.arrivals = []  # (time_ns, role, data) until delivery
        self.clean = False

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
        # a suspect machine widens the first hop
        if mgr.config.corruption_guard and any(
            mgr.health[slab.machine_id].suspect for slab in healthy
        ):
            width = k + 2 * delta + 1
        width = min(width, len(healthy))
        self.guarded = mgr.config.corruption_guard and width >= k + delta and delta > 0
        self.need = width if self.guarded else k
        picked = mgr.rng.permutation(len(healthy))[:width].tolist()
        self.targets = tuple([healthy[i].role for i in picked])
        self._issue(self.targets, mgr.copy_ns)

    def _submit(self, wave):
        # a slot may have been relocated during the copy delay
        refs = self.arange.refs
        read_split = self.mgr.cluster.read_split
        for role in wave:
            slab = refs[role]
            read_split(slab.machine_id, slab.slab_id, self.page_index, self._on_split)

    def _ask(self, count):
        """Issue up to `count` healthy slabs not yet asked; how many were."""
        used = self.targets
        spares = [slab.role for slab in self.arange.healthy_refs() if slab.role not in used][:count]
        if spares:
            self.targets += tuple(spares)
            self._issue(spares, self.mgr.copy_ns)
        return len(spares)

    def _on_split(self, io):
        self.outstanding -= 1
        if self.done:
            # an unguarded read drops the splits that arrive after delivery
            if self.outstanding == 0:
                self.mgr._release(self.arange.range_id, self.page_index, self)
            return
        if io.outcome == "ok":
            # a slab holds the split of one role for its whole life
            self.arrivals.append((io.time_ns, io.slab.role, io.data))
        elif len(self.arrivals) + self.outstanding < self.need:
            self._ask(1)
        # a guarded read never has more than `need` splits asked, so it only
        # decides once every asked split has concluded
        if len(self.arrivals) >= self.need or self.outstanding == 0:
            self._decide()

    def _decide(self):
        mgr = self.mgr
        params = mgr.codec.params
        k, delta = params.k, params.delta
        splits = [arrival[1:] for arrival in sorted(self.arrivals)]  # (role, data)
        if len(splits) < k:
            self._deliver("unrecoverable", None)
            return
        # splits that all equal one codeword decode to its page and pass
        # every check, so they take the branch the codec would, without it
        codeword = self.arange.codewords.get(self.page_index)
        if codeword is None:
            codeword, page = mgr.zero_codeword, mgr.zero_page
        else:
            page = codeword[0]
        for role, data in splits:
            if data != codeword[role]:
                page = None
                break
        self.clean = page is not None
        if page is None:
            # the codec takes split bytes, not a page stored in place
            size = mgr.codec.split_size
            splits = [(role, split_of(data, role, size)) for role, data in splits]
        # k + delta splits detect up to delta corruptions, k + 2*delta + 1 locate them
        checked = self.guarded and len(splits) >= k + delta
        wide = len(splits) >= k + 2 * delta + 1
        bad = ()
        if page is None and not checked:
            page = coding.decode(mgr.codec, splits)
        elif page is None:
            # the empty exclusion set comes first: one reconstruction checks the set
            try:
                page, bad = coding.correct_corruption(mgr.codec, splits, delta if wide else 0)
            except UncorrectableCorruption:
                if not (wide or self.escalated):
                    self.escalated = True
                    self.need = k + 2 * delta + 1
                    if self._ask(self.need - len(splits)):
                        return
                self._deliver("corrupt-unrecoverable", None)
                return
        if checked:
            for role, _ in splits:
                mgr._record_health(self.arange, role, ok=role not in bad)
        # splits order by index first: the highest one used says if parity was
        cost = mgr.decode_ns if self.guarded or max(splits[:k])[0] >= k else 0
        self._deliver("ok", page, extra_ns=cost, corrected=bool(bad), verified=checked)

    def _deliver(self, outcome, page, extra_ns=0, corrected=False, verified=False):
        mgr = self.mgr
        unblock_ns = now = mgr.cluster.now
        if outcome == "ok":
            self.network_ns = now - self.started_ns - mgr.copy_ns
            # the page is copied out to the caller after any decode
            unblock_ns += extra_ns + mgr.copy_ns
        self.page = page
        self.corrected = corrected
        self.verified = verified
        self.decode_ns = extra_ns
        # a delivered read is kept as its completion; its splits are not needed
        self.arrivals = None
        self._conclude(outcome, unblock_ns)


class _Rebuild:
    """Rebuilds the slab in one slot of a range, one page at a time.

    The record is also its own entry in the queue of the page it works
    on; once `done`, `succeeded` says whether the slab was made whole.
    """

    __slots__ = ("mgr", "arange", "role", "page", "pages", "done", "succeeded")

    def __init__(self, mgr, range_id, role):
        self.mgr = mgr
        self.arange = mgr.ranges[range_id]
        self.role = role
        self.page = None
        self.pages = []
        self.done = False
        self.succeeded = False

    @property
    def slab(self):
        """The slab in the slot now: `relocate` may have replaced it."""
        return self.arange.refs[self.role]

    def begin(self):
        mgr = self.mgr
        if self.slab.state is AVAILABLE:
            self._finish(True)
        elif len(self.arange.healthy_refs()) < mgr.codec.params.k:
            self._abort("no_quorum")
        elif mgr.relocate(self.arange, self.role) is None:
            self._log("no_target")
            self._finish(False)
        else:
            self._next_page()

    def _next_page(self):
        slab = self.slab
        while slab.state is REGENERATING:
            if not self.pages:
                if self.mgr.promote(self.arange, self.role):
                    break
                self.pages = sorted(self.arange.codewords.keys() - slab.store.keys())
            page = self.pages.pop(0)
            if page not in slab.store:
                self.page = page
                self.mgr._enqueue(self.arange.range_id, page, self)
                return
        # a foreground write that fills the last page promotes the slab itself
        if slab.state is AVAILABLE:
            self._finish(True)
        else:
            self._abort()

    def start(self):
        """Read the page once the rebuild heads its queue."""
        slab = self.slab
        if slab.state is not REGENERATING or self.page in slab.store:
            self._page_done(advance=True)
            return
        _ReadOp(self.mgr, self.arange, self.page, self._on_read).start()

    def _on_read(self, read):
        mgr = self.mgr
        guard = mgr.config.corruption_guard and mgr.codec.params.delta > 0
        if read.outcome != "ok" or (guard and not read.verified):
            self._page_done(advance=False)
            self._abort(wait="unverified")
            return
        # a read of the recorded page, clean or not, fills with the recorded
        # payload, so the slabs share one page object; the page is held by
        # the rebuild, so no write changed the codeword since
        recorded = self.arange.codewords[self.page]
        if read.page == recorded[0]:
            payload = recorded[self.role]
        else:
            payload = _stored_codeword(mgr.codec, read.page)[self.role]
        delay = (read.completed_ns - mgr.cluster.now) + mgr.encode_ns
        mgr.cluster.schedule(delay, lambda: self._fill(payload))

    def _fill(self, payload):
        slab = self.slab
        if slab.state is not REGENERATING:
            self._page_done(advance=True)
            return
        self.mgr.cluster.write_split(
            slab.machine_id, slab.slab_id, self.page, payload, self._on_fill, fill=True
        )

    def _on_fill(self, completion):
        ok = completion.outcome == "ok"
        self._page_done(advance=ok)
        if not ok:
            self._abort()

    def _page_done(self, advance):
        self.mgr._release(self.arange.range_id, self.page, self)
        if advance:
            self._next_page()

    def _abort(self, outcome="aborted", wait=None):
        """Free the unfinished slab, so the slot reads as lost, log why,
        leave the slot waiting `wait`, if any, and reconsider the slots the
        freed room may serve, or else this range's."""
        mgr = self.mgr
        slab = self.slab
        freed = slab.state is REGENERATING
        if freed or slab.state is SlabState.FAILED:
            mgr.cluster.free_slab(slab.slab_id)
        self._log(outcome)
        self._finish(False, wait)
        mgr._reconsider(mgr._group_ranges[slab.machine_id] if freed else (self.arange,))

    def _log(self, outcome):
        self.mgr.cluster.log("regenerate", f"r{self.arange.range_id}:role{self.role}", outcome)

    def _finish(self, ok, wait=None):
        self.done = True
        self.succeeded = ok
        if wait is None:
            del self.arange.rebuild_status[self.role]
        else:
            self.arange.rebuild_status[self.role] = wait


class ResilienceManager:
    """Owns ranges, drives coded I/O, and reacts to faults."""

    def __init__(self, cluster, plan, params, config=None, seed=0):
        self.cluster = cluster
        self.plan = plan
        self.config = config or ManagerConfig()
        self.codec = make_codec(params, self.config.page_size)
        if self.config.slab_size < self.codec.split_size:
            raise InvalidParams("slab size smaller than one split")
        # what a read compares with, and delivers, for a page never written
        self.zero_page = bytes(self.config.page_size)
        self.zero_codeword = coding.codeword(self.codec, self.zero_page)
        self.rng = np.random.default_rng(np.random.SeedSequence((seed, 0xDA7A)))
        self.ranges = {}
        self.health = defaultdict(MachineHealth)
        self.regeneration_requests = []
        self._locks = {}
        self._group_ranges = defaultdict(list)  # machine -> ranges whose group holds it
        m = cluster.latency
        self.encode_ns = int(round(m.encode_us * 1000))
        self.decode_ns = int(round(m.decode_us * 1000))
        self.ctx_ns = int(round(m.context_switch_us * 1000))
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
        bounds = self.plan.bounds
        group_members = tuple(self.plan.members[bounds[gid] : bounds[gid + 1]].tolist())
        members = self._least_loaded(group_members, width)
        if len(members) < width:
            raise CapacityExhausted(
                f"range {range_id}: {len(members)} usable machines, needs {width}"
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
            refs.append(slab)
        arange = AddressRange(
            range_id=range_id,
            group_id=gid,
            group_members=group_members,
            refs=refs,
            page_capacity=self.config.slab_size // self.codec.split_size,
        )
        self.ranges[range_id] = arange
        for m in arange.group_members:
            self._group_ranges[m].append(arange)
        return arange

    # -- data path ------------------------------------------------------

    def submit_write(self, range_id, page_index, page, on_done=None):
        arange = self._checked(range_id, page_index)
        if len(page) != self.config.page_size:
            raise InvalidParams(f"page must be {self.config.page_size} bytes")
        op = _WriteOp(self, arange, page_index, bytes(page), on_done)
        self._enqueue(range_id, page_index, op)
        return op

    def submit_read(self, range_id, page_index, on_done=None):
        arange = self._checked(range_id, page_index)
        op = _ReadOp(self, arange, page_index, on_done)
        self._enqueue(range_id, page_index, op)
        return op

    def remote_write(self, range_id, page_index, page):
        return self.drive(self.submit_write(range_id, page_index, page))

    def remote_read(self, range_id, page_index):
        """The page's bytes, or the read's failure raised."""
        op = self.drive(self.submit_read(range_id, page_index))
        if op.outcome == "ok":
            return op.page
        where = f"range {range_id} page {page_index}"
        if op.outcome == "corrupt-unrecoverable":
            raise UncorrectableCorruption(where)
        raise UnrecoverableRead(where)

    def drive(self, op):
        """Run the event loop until the op reaches its caller-visible point."""
        step = self.cluster.step
        while not op.done:
            if step() is None:
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
        self._reconsider(self._group_ranges.get(machine_id, ()))

    def _on_eviction(self, slab):
        # the evicted slab's range, and room for a slab of any range in the group
        self._reconsider(self._group_ranges.get(slab.machine_id, ()), retry=True)

    def _on_recover(self, machine_id):
        # every slab on the machine was failed at disconnect and has missed
        # writes since, so none may serve again
        machine = self.cluster.machines[machine_id]
        for slab in list(machine.slabs.values()):
            if slab.owner is not None and slab.state is not SlabState.EVICTED:
                self.cluster.free_slab(slab.slab_id)
        self._reconsider(self._group_ranges.get(machine_id, ()), retry=True)

    def _reconsider(self, aranges, retry=False):
        """Queue the rebuild of each slot of `aranges`, in order and then by
        role, that waits for nothing: not AVAILABLE, not queued, not waiting
        `unverified` (a wait `retry` ends first), in a range with k healthy
        splits and, if lost, a group with a spare. A fault handler's ranges
        are those whose group holds its machine, in mapping order."""
        k = self.codec.params.k
        for arange in aranges:
            waiting = arange.rebuild_status
            if retry and waiting:
                for role in [r for r, status in waiting.items() if status == "unverified"]:
                    del waiting[role]
            idle = [s for s in arange.refs if s.state is not AVAILABLE and s.role not in waiting]
            if not idle or len(arange.healthy_refs()) < k:
                continue
            hosting = {s.machine_id for s in arange.refs if s.state not in LOST}
            spare = self._least_loaded(arange.group_members, 1, hosting)
            for slab in idle:
                # relocate keeps a REGENERATING slab, so it needs no spare
                if spare or slab.state is REGENERATING:
                    waiting[slab.role] = "queued"
                    self.regeneration_requests.append((arange.range_id, slab.role))

    def relocate(self, arange, role):
        """The slab for `role`: its own while live, else a fresh one.

        A fresh slab goes on the member of the range's group that
        `_least_loaded` picks among those hosting no live split of the
        range. It starts REGENERATING, takes the slot,
        and the slab it replaces is freed if the cluster still holds it,
        evicted or not. None when the group has no such spare.
        """
        old = arange.refs[role]
        if old.state not in LOST:
            return old
        hosting = {s.machine_id for s in arange.refs if s.state not in LOST}
        spare = self._least_loaded(arange.group_members, 1, hosting)
        if not spare:
            return None
        slab = self.cluster.machines[spare[0]].allocate_slab(
            self.config.slab_size,
            owner=arange.range_id,
            role=role,
            split_size=self.codec.split_size,
        )
        slab.state = REGENERATING
        arange.refs[role] = slab
        if old.slab_id in self.cluster.slabs:
            self.cluster.free_slab(old.slab_id)
        return slab

    def _least_loaded(self, members, count, hosting=()):
        """Up to `count` of `members` for new slabs, as `select_members`
        picks them from those that are up, have room for a slab and are not
        in `hosting`."""
        machines = self.cluster.machines
        size = self.config.slab_size
        usable = [
            m
            for m in members
            if m not in hosting and machines[m].state is UP and machines[m].free_bytes >= size
        ]
        loads = {m: machines[m].slab_bytes for m in usable}
        return select_members(usable, loads, min(count, len(usable)))

    def promote(self, arange, role):
        """True once the slab in slot `role` is AVAILABLE.

        A REGENERATING slab that holds every written page becomes AVAILABLE
        here, whichever write filled its last page: this logs its rebuild's
        `complete` row and reconsiders the range, one split healthier.
        """
        slab = arange.refs[role]
        if slab.state is REGENERATING and arange.codewords.keys() <= slab.store.keys():
            slab.state = AVAILABLE
            self.cluster.log("regenerate", f"r{arange.range_id}:role{role}", "complete")
            self._reconsider((arange,), retry=True)
        return slab.state is AVAILABLE

    def drain_regeneration(self):
        """Start a rebuild for every queued request, in order; the records."""
        pending, self.regeneration_requests = self.regeneration_requests, []
        started = []
        for range_id, role in pending:
            rebuild = _Rebuild(self, range_id, role)
            rebuild.begin()
            started.append(rebuild)
        return started

    # -- health -----------------------------------------------------------

    def _record_health(self, arange, role, ok):
        self.health[arange.refs[role].machine_id].record(ok)
