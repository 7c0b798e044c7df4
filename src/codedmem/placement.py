"""Slab placement schemes and correlated-failure data-loss analysis.

Two placement schemes are modeled. ``codingsets`` partitions the cluster
into disjoint extended groups of k+r+l machines and places each address
range on the k+r least-loaded members of one group, bounding the number of
copysets (machine subsets whose simultaneous failure loses data).
``eccache`` draws an independent random (k+r)-subset per range, which
scatters copysets across the whole cluster. A range's group is a function
of its id (a seeded uniform draw for codingsets, the id modulo the group
count for eccache), so a plan keeps no per-range record. A plan holds its
groups as one flat member array and G+1 offsets, and every routine here and
in the manager reads a group as a slice of them; the ExtendedGroup list is
built only when a caller reads ``plan.groups``. ``select_members`` is the
one placement policy: the least loaded of the members a caller may use,
ties to the lower id. Loss analysis counts all of a group's extended
members as its copyset universe.
"""

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidParams

CODINGSETS = "codingsets"
ECCACHE = "eccache"

MC_CHUNK_TRIALS = 5000  # trials per spawned seed; fixes the estimate for a seed
MC_BLOCK_BYTES = 2 << 20  # cap on the bytes of draws or incidence ids a trial block holds
LOAD_FLOOR = 1.0  # one slab: the least minimum load a max-to-min ratio divides by


@dataclass(frozen=True)
class ClusterShape:
    """Cluster size, slabs hosted per machine, and correlated failure fraction."""

    machines: int
    slabs_per_machine: int = 1
    failure_fraction: float = 0.0

    def __post_init__(self):
        for name in ("machines", "slabs_per_machine"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InvalidParams(f"{name} must be an integer, got {value!r}")
        value = self.failure_fraction
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise InvalidParams(f"failure_fraction must be a real number, got {value!r}")
        if self.machines < 1:
            raise InvalidParams(f"machines must be >= 1, got {self.machines}")
        if self.slabs_per_machine < 1:
            raise InvalidParams(
                f"slabs_per_machine must be >= 1, got {self.slabs_per_machine}"
            )
        if not 0.0 <= self.failure_fraction <= 1.0:
            raise InvalidParams(
                f"failure_fraction must be in [0, 1], got {self.failure_fraction}"
            )


class ExtendedGroup(NamedTuple):
    """A placement group: k+r+l candidate machines for one coding group."""

    index: int
    members: tuple
    l: int


class PlacementPlan:
    """A scheme's extended groups, held as arrays.

    ``members`` is an int64 array of machine ids, group after group, and
    group g is ``members[bounds[g]:bounds[g + 1]]``. ``groups`` builds the
    ExtendedGroup list from them on first read and keeps it.
    """

    def __init__(self, scheme, shape, l, seed, members, bounds):
        self.scheme = scheme
        self.shape = shape
        self.l = l
        self.seed = seed
        self.members = np.asarray(members, dtype=np.int64)
        self.bounds = np.asarray(bounds, dtype=np.int64)
        self._groups = None
        self._uniform_cache = None

    @property
    def group_count(self):
        return len(self.bounds) - 1

    @property
    def groups(self):
        """The ExtendedGroup list, built on first read; the package never reads it."""
        if self._groups is None:
            ids = self.members.tolist()
            cuts = self.bounds.tolist()
            self._groups = [
                ExtendedGroup(i, tuple(ids[lo:hi]), self.l)
                for i, (lo, hi) in enumerate(zip(cuts, cuts[1:]))
            ]
        return self._groups

    def _uniform_assignment(self, count):
        cached = self._uniform_cache
        if cached is None or len(cached) < count:
            size = max(2 * count, 1024)
            rng = np.random.default_rng(np.random.SeedSequence((self.seed, 0x5EED)))
            self._uniform_cache = rng.integers(0, self.group_count, size=size)
        return self._uniform_cache

    def group_for_range(self, range_id):
        """Group index that hosts the given address range."""
        if isinstance(range_id, bool) or not isinstance(range_id, (int, np.integer)):
            raise InvalidParams(f"range id must be an integer, got {range_id!r}")
        if range_id < 0:
            raise InvalidParams(f"range id must be >= 0, got {range_id}")
        if self.scheme == ECCACHE:
            return int(range_id) % self.group_count
        return int(self._uniform_assignment(range_id + 1)[range_id])

    def group_ids(self, count):
        """Group indices of ranges 0 .. count-1, as group_for_range gives them."""
        if self.scheme == ECCACHE:
            return [rid % self.group_count for rid in range(count)]
        return self._uniform_assignment(count)[:count].tolist()


def build_codingsets(shape, params, l, seed):
    """Partition machines into disjoint extended groups of k+r+l.

    Machines are shuffled by the seed; any leftover machines (< one group)
    are folded into the last group.
    """
    if l < 0:
        raise InvalidParams(f"l must be >= 0, got {l}")
    width = params.k + params.r + l
    n = shape.machines
    if n < width:
        raise InvalidParams(f"need at least k+r+l = {width} machines, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    # the last group folds in the remainder
    full = (n // width - 1) * width
    rows = np.sort(perm[:full].reshape(-1, width), axis=1)
    members = np.concatenate((rows.ravel(), np.sort(perm[full:])))
    bounds = np.append(np.arange(0, full + 1, width), n)
    return PlacementPlan(CODINGSETS, shape, l, seed, members=members, bounds=bounds)


def _distinct_rows(rng, rows, width, n):
    """rows x width matrix of distinct uniform machine ids per row; width <= n.
    A round redraws and rechecks only the rows that repeated an id in the
    round before, so the generator serves the same draws in the same order
    as a whole-matrix check."""
    if width * 2 > n:
        # collision-heavy regime: per-row partial shuffle
        out = np.empty((rows, width), dtype=np.int64)
        for i in range(rows):
            out[i] = rng.permutation(n)[:width]
        return out
    out = rng.integers(0, n, size=(rows, width))
    redrawn, drawn = np.arange(rows), out
    while True:
        sorted_rows = np.sort(drawn, axis=1)
        redrawn = redrawn[(sorted_rows[:, 1:] == sorted_rows[:, :-1]).any(axis=1)]
        if not len(redrawn):
            return out
        drawn = rng.integers(0, n, size=(len(redrawn), width))
        out[redrawn] = drawn


def build_eccache(shape, params, seed):
    """One independent uniform random (k+r)-subset per coding group.

    Each machine hosts slabs_per_machine slabs and every group consumes one
    slab on each of its k+r members, so a cluster of N machines supports
    N*S/(k+r) groups.
    """
    rows = eccache_members(shape, params, seed)
    bounds = np.arange(0, rows.size + 1, rows.shape[1])
    return PlacementPlan(ECCACHE, shape, 0, seed, members=rows.ravel(), bounds=bounds)


def eccache_members(shape, params, seed):
    """The groups x (k+r) matrix of machine ids build_eccache draws, one row per group."""
    width = params.k + params.r
    n = shape.machines
    if n < width:
        raise InvalidParams(f"need at least k+r = {width} machines, got {n}")
    count = max(1, round(n * shape.slabs_per_machine / width))
    return _distinct_rows(np.random.default_rng(seed), count, width, n)


def select_members(members, loads, count):
    """The ``count`` least-loaded of ``members``, ties broken by ascending id."""
    if len(members) < count:
        raise InvalidParams(f"{len(members)} members, needs {count}")
    # the sort is stable, so sorting ids first breaks load ties by id
    return sorted(sorted(members), key=loads.__getitem__)[:count]


def codingsets_loads(plan, count, params):
    """Per-machine slab counts once ranges 0 .. count-1 are placed on a
    codingsets plan by select_members, every machine starting at load 0.

    The groups are disjoint and their members sorted, so a group's ranges
    never meet another group's load, and taking the w = k+r least loaded
    members, ties to the lower id, deals its ranges round robin over the
    members in id order. After s ranges of a group of g members, the member
    at position p holds floor(s*w/g) + [p < s*w mod g]; the least loaded are
    then positions s*w mod g onward, cyclically, and the next range takes w
    of them. A group holding t ranges thus leaves position p at
    floor(t*w/g) + [p < t*w mod g].
    """
    sizes = np.diff(plan.bounds)
    held = np.bincount(plan.group_ids(count), minlength=len(sizes))
    base, extra = np.divmod(held * (params.k + params.r), sizes)
    group = np.repeat(np.arange(len(sizes)), sizes)
    position = np.arange(len(plan.members)) - plan.bounds[group]
    loads = np.zeros(plan.shape.machines, dtype=np.int64)
    loads[plan.members] = base[group] + (position < extra[group])
    return loads


def count_copysets(plan, params):
    """Number of distinct (r+1)-machine subsets whose loss can destroy data."""
    size = params.r + 1
    cuts = plan.bounds.tolist()
    if plan.scheme == CODINGSETS:
        # groups are disjoint, so per-group counts never overlap
        return sum(math.comb(hi - lo, size) for lo, hi in zip(cuts, cuts[1:]))
    ids = plan.members.tolist()
    seen = set()
    for lo, hi in zip(cuts, cuts[1:]):
        seen.update(itertools.combinations(sorted(ids[lo:hi]), size))
    return len(seen)


def loss_probability_analytic(scheme, shape, params, l):
    """Closed-form probability that a correlated failure loses any data.

    A group loses data when r+1 of its members fail together. With G groups
    and failure of floor(N*f) machines, each of the C(floor(N*f), r+1)
    failed subsets hits some group's copysets with probability ~ q = G *
    P_group, giving loss = 1 - (1-q)^C(floor(N*f), r+1).
    """
    n = shape.machines
    failures = math.floor(n * shape.failure_fraction)
    size = params.r + 1
    exponent = math.comb(failures, size) if failures >= size else 0
    if exponent == 0:
        return 0.0
    if scheme == CODINGSETS:
        width = params.k + params.r + l
        group_count = n / width
    elif scheme == ECCACHE:
        width = params.k + params.r
        group_count = n * shape.slabs_per_machine / width
    else:
        raise InvalidParams(f"unknown scheme {scheme!r}")
    p_group = math.comb(width, size) / math.comb(n, size)
    q = min(1.0, max(0.0, p_group * group_count))
    if q >= 1.0:
        return 1.0
    return -math.expm1(exponent * math.log1p(-q))


def _incidence_table(plan, n):
    """machine -> padded row of group ids (-1 pads), for vectorized overlap.

    The ids take the narrowest signed type that holds the group count,
    int16 up to 32,767 groups, so the per-trial sort moves fewer bytes.
    """
    members = plan.members
    # a stable sort by machine keeps each machine's groups in group order
    order = np.argsort(members, kind="stable")
    machine = members[order]
    counts = np.bincount(members, minlength=n)
    dtype = np.int16 if plan.group_count <= np.iinfo(np.int16).max else np.int32
    table = np.full((n, max(1, int(counts.max()))), -1, dtype=dtype)
    column = np.arange(len(order)) - (np.cumsum(counts) - counts)[machine]
    table[machine, column] = np.repeat(np.arange(plan.group_count), np.diff(plan.bounds))[order]
    return table


def _failure_sets(rng, spare, rows, failures, n):
    """rows x failures matrix; each row is a uniform failures-subset of range(n).

    With 2*failures <= n a row is the first ``failures`` distinct ids of
    2*failures iid draws from ``rng``; a prefix of distinct ids of an iid
    uniform stream is a uniform subset. A row with too few distinct ids
    continues its stream from ``spare``, rows taken in order. With
    2*failures > n, where short rows would be common, a row is the head of
    a permutation, the regime switch _distinct_rows uses.
    """
    if failures * 2 > n:
        return np.stack([rng.permutation(n)[:failures] for _ in range(rows)])
    draws = rng.integers(0, n, size=(rows, 2 * failures))
    out = draws[:, :failures].copy()
    head = np.sort(out, axis=1)
    bad = np.flatnonzero((head[:, 1:] == head[:, :-1]).any(axis=1))
    # sort (id, draw position) keys: an id's first draw leads its equals
    stream = draws[bad]
    span = 2 * failures
    keys = np.sort(stream * span + np.arange(span), axis=1)
    ids = keys // span
    lead = np.ones(keys.shape, dtype=bool)
    lead[:, 1:] = ids[:, 1:] != ids[:, :-1]
    first = np.zeros_like(lead)
    np.put_along_axis(first, keys - ids * span, lead, axis=1)
    keep = first & (np.cumsum(first, axis=1) <= failures)
    full = keep.sum(axis=1) == failures
    out[bad[full]] = stream[full][keep[full]].reshape(-1, failures)
    for i in bad[~full]:
        seen = dict.fromkeys(draws[i].tolist())  # keeps first-draw order
        while len(seen) < failures:
            seen.update(dict.fromkeys(spare.integers(0, n, failures - len(seen)).tolist()))
        out[i] = list(seen)[:failures]
    return out


def loss_probability_montecarlo(plan, shape, params, trials, seed):
    """Estimate loss probability by sampling uniform random failure sets.

    A trial loses data when >= r+1 of some group's members fail; a group's
    members are its whole extended group, the machines any of its ranges
    may sit on. Returns (estimate, 95% normal-approximation half-width).
    Trials are drawn in chunks of MC_CHUNK_TRIALS with independently
    spawned seeds and reduced by summing counts, so the result is
    independent of chunking order. Each chunk samples its failed machines
    directly (_failure_sets) and gathers their incidence rows in row blocks
    of at most MC_BLOCK_BYTES. The chunk generator fills rows in order and
    the spare generator serves short rows in order, so the blocks join into
    the chunk's draws and the estimate does not depend on the block size.
    """
    if trials < 1:
        raise InvalidParams(f"trials must be >= 1, got {trials}")
    n = shape.machines
    failures = math.floor(n * shape.failure_fraction)
    size = params.r + 1
    if failures < size:
        return 0.0, 0.0
    table = _incidence_table(plan, n)
    n_chunks = -(-trials // MC_CHUNK_TRIALS)
    seeds = np.random.SeedSequence(seed).spawn(n_chunks)
    # a trial row holds 2*failures int64 draws and failures*width incidence ids
    row_bytes = max(16 * failures, table.itemsize * failures * table.shape[1])
    block = max(1, MC_BLOCK_BYTES // row_bytes)
    losses = 0
    run = size - 1  # r+1 equal ids in a sorted row span this distance
    for ci in range(n_chunks):
        rng = np.random.default_rng(seeds[ci])
        spare = np.random.default_rng(seeds[ci].spawn(1)[0])
        t = min(MC_CHUNK_TRIALS, trials - ci * MC_CHUNK_TRIALS)
        for lo in range(0, t, block):
            rows = min(block, t - lo)
            failed = _failure_sets(rng, spare, rows, failures, n)
            hit = np.sort(table.take(failed, axis=0).reshape(rows, -1), axis=1)
            same = (hit[:, run:] == hit[:, : hit.shape[1] - run]) & (hit[:, run:] >= 0)
            losses += int(same.any(axis=1).sum())
    est = losses / trials
    hw = 1.96 * math.sqrt(est * (1.0 - est) / trials)
    return est, hw


@dataclass(frozen=True)
class LoadImbalance:
    """Cluster load dispersion: max/min ratio, coefficient of variation,
    least-loaded machine's utilization relative to the mean."""

    max_to_min: float
    cv: float
    min_utilization: float
    floored: bool


def load_imbalance(loads):
    """Dispersion metrics for a per-machine load vector.

    A minimum below ``LOAD_FLOOR`` (one slab's worth) is floored at it for
    the ratio and flagged so reports can call out the degenerate case.
    """
    arr = np.asarray(loads, dtype=np.float64)
    if arr.size == 0:
        raise InvalidParams("load vector is empty")
    lo = float(arr.min())
    hi = float(arr.max())
    mean = float(arr.mean())
    floored = lo < LOAD_FLOOR
    ratio = hi / max(lo, LOAD_FLOOR) if hi > 0 else 1.0
    cv = float(arr.std() / mean) if mean > 0 else 0.0
    min_util = lo / mean if mean > 0 else 0.0
    return LoadImbalance(ratio, cv, min_util, floored)
