"""Memory pressure control loop and slab regeneration.

Each control tick walks the machines: any machine whose free memory
fraction has dropped below the headroom target evicts a batch of cold
slabs (sampled candidates, least-accessed first), then every slab's
access counter decays so the usage signal tracks recent traffic.

Regeneration rebuilds a lost slab from the surviving splits: decode
each written page from k healthy slabs, compute only the lost split's
row, and backfill it onto the fresh slab that `ResilienceManager.relocate`
places on a spare member of the range's group. Foreground writes keep
flowing while this runs; they backfill the new slab directly, and the
catch-up loop skips pages that already landed. When the group has no
spare, the ref's slab stays lost until a member of the group recovers,
which requests the rebuild again. A rebuild's state is its slab's: it
starts REGENERATING and ends AVAILABLE in `ResilienceManager.promote`,
which logs the `complete` row also when a foreground write lands the
last missing page, or is freed when the rebuild aborts. Each rebuild's
outcome (complete, aborted, no_quorum, no_target) is a `regenerate` row
of `Cluster.event_log`; the monitor keeps no log of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import coding
from .manager import _ReadOp
from .simulator import MachineState, SlabState


@dataclass(frozen=True)
class MonitorConfig:
    headroom: float = 0.25
    control_period_us: float = 1_000_000.0
    eviction_batch: int = 4
    extra_candidates: int = 2
    decay: float = 0.5


class _RegenFill:
    """One page of a regeneration: read, compute the lost row, backfill.

    Runs under the same per-page queue as foreground ops, so a page is
    never read for regeneration while a write to it is in flight.
    """

    def __init__(self, task, page_index):
        self.task = task
        self.page_index = page_index

    def start(self):
        task = self.task
        mgr = task.mgr
        ref = task.ref
        if ref.slab.state is not SlabState.REGENERATING or self.page_index in ref.slab.store:
            self._done(advance=True)
            return
        inner = _ReadOp(mgr, task.arange, self.page_index, self._on_read)
        inner.start()

    def _on_read(self, read):
        task = self.task
        mgr = task.mgr
        if read.outcome != "ok":
            self._done(advance=False)
            task.abort(retry=False)
            return
        payload = coding._page_split(mgr.codec, read.page, task.ref.role)
        delay = (read.completed_ns - mgr.cluster.now) + mgr.encode_ns
        mgr.cluster.schedule(delay, lambda: self._submit_fill(payload))

    def _submit_fill(self, payload):
        task = self.task
        mgr = task.mgr
        ref = task.ref
        if ref.slab.state is not SlabState.REGENERATING:
            self._done(advance=True)
            return
        mgr.cluster.write_split(
            ref.machine_id,
            ref.slab_id,
            self.page_index,
            payload,
            self._on_fill,
            fill=True,
        )

    def _on_fill(self, completion):
        if completion.outcome != "ok":
            self._done(advance=False)
            self.task.abort(retry=True)
            return
        self._done(advance=True)

    def _done(self, advance):
        task = self.task
        task.mgr._release(task.arange.range_id, self.page_index, self)
        if advance:
            task.next_page()


class _RegenTask:
    """Rebuilds one slab reference of one range."""

    def __init__(self, mgr, range_id, role):
        self.mgr = mgr
        self.range_id = range_id
        self.role = role
        self.arange = None
        self.ref = None
        self.pages = []
        self.done = False
        self.succeeded = False

    def start(self):
        mgr = self.mgr
        arange = mgr.ranges.get(self.range_id)
        if arange is None:
            self._finish(False)
            return
        self.arange = arange
        self.ref = ref = arange.refs[self.role]
        if ref.slab.state is SlabState.AVAILABLE:
            self._finish(True)
            return
        if len(arange.healthy_refs()) < mgr.codec.params.k:
            self._drop_slab()
            mgr.cluster.log("regenerate", f"r{self.range_id}:role{self.role}", "no_quorum")
            self._finish(False)
            return
        if mgr.relocate(arange, self.role) is None:
            mgr.cluster.log("regenerate", f"r{self.range_id}:role{self.role}", "no_target")
            self._finish(False)
            return
        self.next_page()

    def next_page(self):
        mgr = self.mgr
        slab = self.ref.slab
        while slab.state is SlabState.REGENERATING:
            if not self.pages:
                if mgr.promote(self.arange, self.role):
                    break
                self.pages = sorted(self.arange.written_pages - set(slab.store))
            page = self.pages.pop(0)
            if page not in slab.store:
                mgr._enqueue(self.range_id, page, _RegenFill(self, page))
                return
        # a foreground write that fills the last page promotes the slab itself
        self._finish(slab.state is SlabState.AVAILABLE)

    def _drop_slab(self):
        """Free the unfinished slab, so the ref reads as lost."""
        slab = self.ref.slab
        if slab.state in (SlabState.REGENERATING, SlabState.FAILED):
            self.mgr.cluster.free_slab(slab.slab_id)

    def abort(self, retry):
        mgr = self.mgr
        self._drop_slab()
        mgr.cluster.log("regenerate", f"r{self.range_id}:role{self.role}", "aborted")
        self._finish(False)
        if retry:
            mgr._request_regen(self.range_id, self.role)

    def _finish(self, ok):
        if self.done:
            return
        self.done = True
        self.succeeded = ok
        self.mgr.regen_done(self.range_id, self.role)


class MonitorService:
    """Per-cluster control loop: eviction, usage decay, regeneration."""

    def __init__(self, cluster, manager=None, config=None, seed=0):
        self.cluster = cluster
        self.manager = manager
        self.config = config or MonitorConfig()
        self.rng = np.random.default_rng(np.random.SeedSequence((seed, 0x0B5E)))
        self._started = False

    # -- control loop -------------------------------------------------------

    def start(self):
        if self._started:
            return
        self._started = True
        self._arm()

    def _arm(self):
        period_ns = round(self.config.control_period_us * 1000)
        self.cluster.schedule(period_ns, self._periodic)

    def _periodic(self):
        self.control_tick()
        self._arm()

    def control_tick(self):
        for machine in self.cluster.machines:
            if machine.state is MachineState.UP and machine.free_fraction < self.config.headroom:
                self.batch_evict(machine)
        if self.manager is not None:
            self.drain_regeneration()
        for slab in self.cluster.slabs.values():
            slab.access_count *= self.config.decay

    def batch_evict(self, machine):
        """Evict up to a batch of cold slabs to restore headroom."""
        evictable = sorted(
            sid
            for sid, slab in machine.slabs.items()
            if slab.state is SlabState.AVAILABLE
        )
        if not evictable:
            return []
        sample_size = min(
            len(evictable), self.config.eviction_batch + self.config.extra_candidates
        )
        picked = self.rng.choice(len(evictable), size=sample_size, replace=False)
        candidates = [evictable[int(i)] for i in picked]
        candidates.sort(key=lambda sid: (machine.slabs[sid].access_count, sid))
        evicted = []
        for sid in candidates[: self.config.eviction_batch]:
            if machine.free_fraction >= self.config.headroom:
                break
            self.cluster.evict_slab(sid)
            evicted.append(sid)
        return evicted

    # -- regeneration -------------------------------------------------------

    def drain_regeneration(self):
        """Start a task for every queued regeneration request."""
        started = []
        pending = list(self.manager.regeneration_requests)
        self.manager.regeneration_requests.clear()
        for key in pending:
            task = _RegenTask(self.manager, key[0], key[1])
            task.start()
            started.append(task)
        return started
