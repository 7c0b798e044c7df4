"""Spans and counters recorded around the calls into codedmem's layers.

A traced pass swaps each layer's public functions for wrappers that record
a span (name, start, end, parent span, op id) or bump a counter, and puts
the originals back afterwards. Each function is patched under the name its
callers look it up by: ``manager`` calls ``coding.decode`` as a module
attribute, but imported ``select_members`` by name, so that one is patched
in ``codedmem.manager`` as well as in ``codedmem.placement``. Nothing inside
the package changes.
"""

import csv
import functools
import gzip
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

from codedmem import analysis, coding, gf256, manager, monitor, placement, simulator

# span name -> the (owner, attribute) pairs it is looked up under
SPANNED = {
    "gf256.mat_inv": [(gf256, "mat_inv")],
    "coding.encode": [(coding, "encode")],
    "coding.decode": [(coding, "decode")],
    "coding.detect_corruption": [(coding, "detect_corruption")],
    "coding.correct_corruption": [(coding, "correct_corruption")],
    "simulator.step": [(simulator.Cluster, "step")],
    "manager.map_range": [(manager.ResilienceManager, "map_range")],
    "monitor.drain_regeneration": [(monitor.MonitorService, "drain_regeneration")],
    "placement.select_members": [(placement, "select_members"), (manager, "select_members")],
    "placement.build_codingsets": [(placement, "build_codingsets"), (analysis, "build_codingsets")],
    "placement.build_eccache": [(placement, "build_eccache"), (analysis, "build_eccache")],
    "placement.loss_probability_montecarlo": [
        (placement, "loss_probability_montecarlo"),
        (analysis, "loss_probability_montecarlo"),
    ],
    "analysis.run_load_balance": [(analysis, "run_load_balance")],
}


class Tracer:
    """In-memory span list plus named counters for one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1, op id]
        self.counts = defaultdict(int)  # bumped only while op_id >= 0
        self.op_id = -1  # set by the workload loop; -1 during set-up
        self._stack = []

    def open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.op_id])
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def write(self, path):
        """Write every span as gzipped CSV, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["index", "name", "start_ns", "end_ns", "parent", "op"])
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                writer.writerow([index, name, start - origin, end - origin, parent, op])


def self_times(spans):
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent, op) in enumerate(spans):
        covered = 0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def _counted(tracer, name, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        if tracer.op_id >= 0:
            tracer.counts[name] += 1
        return fn(*args, **kwargs)

    return counted


def _apply_matrix(tracer, fn):
    @functools.wraps(fn)
    def traced(matrix, data):
        if tracer.op_id >= 0:
            tracer.counts["gf256.apply_matrix.bytes"] += np.asarray(data).nbytes
        index = tracer.open("gf256.apply_matrix")
        try:
            return fn(matrix, data)
        finally:
            tracer.close(index)

    return traced


def _split_io(tracer, read_fn, write_fn):
    """Spans around split submission; the outcome is seen through on_done."""

    def watched(on_done):
        def done(completion):
            if completion.outcome != "ok" and tracer.op_id >= 0:
                tracer.counts["simulator.split_io.not_ok"] += 1
            on_done(completion)

        return done

    @functools.wraps(read_fn)
    def read_split(cluster, machine_id, slab_id, page_index, on_done):
        index = tracer.open("simulator.split_io")
        try:
            return read_fn(cluster, machine_id, slab_id, page_index, watched(on_done))
        finally:
            tracer.close(index)

    @functools.wraps(write_fn)
    def write_split(cluster, machine_id, slab_id, page_index, data, on_done, fill=False):
        if fill and tracer.op_id >= 0:
            tracer.counts["simulator.fill_writes"] += 1
        index = tracer.open("simulator.split_io")
        try:
            return write_fn(
                cluster, machine_id, slab_id, page_index, data, watched(on_done), fill=fill
            )
        finally:
            tracer.close(index)

    return read_split, write_split


@contextmanager
def installed(tracer):
    """Patch every traced name for the duration of the block."""
    Cluster = simulator.Cluster
    read_split, write_split = _split_io(tracer, Cluster.read_split, Cluster.write_split)
    patches = [
        (gf256, "apply_matrix", _apply_matrix(tracer, gf256.apply_matrix)),
        (Cluster, "schedule_at", _counted(tracer, "simulator.events", Cluster.schedule_at)),
        (Cluster, "read_split", read_split),
        (Cluster, "write_split", write_split),
    ]
    for name, sites in SPANNED.items():
        for owner, attr in sites:
            patches.append((owner, attr, tracer.wrap(name, getattr(owner, attr))))
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
