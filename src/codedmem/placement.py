"""Slab placement schemes and correlated-failure data-loss analysis.

Two placement schemes are modeled. ``codingsets`` partitions the cluster
into disjoint extended groups of k+r+l machines and places each address
range on the k+r least-loaded members of one group, bounding the number of
copysets (machine subsets whose simultaneous failure loses data).
``eccache`` draws an independent random (k+r)-subset per range, which
scatters copysets across the whole cluster. ``power_of_two_pick`` is the
classic two-choice balancer used as a load-balancing baseline.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams

CODINGSETS = "codingsets"
ECCACHE = "eccache"
MEMBERSHIPS = ("extended", "chosen")

MC_CHUNK_TRIALS = 5000  # trials per spawned seed; fixes the estimate for a seed
MC_KEY_BYTES = 8 << 20  # cap on the float64 failure keys held at once


@dataclass(frozen=True)
class ClusterShape:
    """Cluster size, slabs hosted per machine, and correlated failure fraction."""

    machines: int
    slabs_per_machine: int = 1
    failure_fraction: float = 0.0

    def __post_init__(self):
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


@dataclass(frozen=True)
class ExtendedGroup:
    """A placement group: k+r+l candidate machines for one coding group."""

    index: int
    members: tuple
    l: int


@dataclass
class PlacementPlan:
    scheme: str
    shape: ClusterShape
    params: object
    l: int
    seed: int
    groups: list
    assignment: dict = field(default_factory=dict)
    default_policy: str = "uniform"
    _uniform_cache: np.ndarray = field(default=None, repr=False)

    def _uniform_assignment(self, count):
        cached = self._uniform_cache
        if cached is None or len(cached) < count:
            size = max(2 * count, 1024)
            rng = np.random.default_rng(np.random.SeedSequence((self.seed, 0x5EED)))
            self._uniform_cache = rng.integers(0, len(self.groups), size=size)
        return self._uniform_cache

    def group_for_range(self, range_id, policy=None):
        """Group index that hosts the given address range."""
        if self.scheme == ECCACHE:
            return range_id % len(self.groups)
        policy = policy or self.default_policy
        if policy == "round_robin":
            return range_id % len(self.groups)
        if policy == "uniform":
            return int(self._uniform_assignment(range_id + 1)[range_id])
        raise InvalidParams(f"unknown assignment policy {policy!r}")

    def place_range(self, range_id, loads, policy=None):
        """Pick the group and members for a range and record the assignment."""
        gid = self.group_for_range(range_id, policy)
        group = self.groups[gid]
        if self.scheme == ECCACHE:
            members = list(group.members)
        else:
            members = select_members(group, loads, self.params)
        self.assignment[range_id] = (gid, tuple(members))
        return gid, members


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
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    count = n // width
    groups = []
    for i in range(count):
        members = perm[i * width : (i + 1) * width]
        if i == count - 1:
            members = perm[i * width :]  # fold the remainder into the last group
        groups.append(ExtendedGroup(i, tuple(sorted(int(m) for m in members)), l))
    return PlacementPlan(CODINGSETS, shape, params, l, seed, groups)


def _distinct_rows(rng, rows, width, n):
    """rows x width matrix of distinct uniform machine ids per row."""
    if width > n:
        raise InvalidParams(f"group width {width} exceeds machine count {n}")
    if width * 2 > n:
        # collision-heavy regime: per-row partial shuffle
        out = np.empty((rows, width), dtype=np.int64)
        for i in range(rows):
            out[i] = rng.permutation(n)[:width]
        return out
    out = rng.integers(0, n, size=(rows, width))
    while True:
        sorted_rows = np.sort(out, axis=1)
        bad = (sorted_rows[:, 1:] == sorted_rows[:, :-1]).any(axis=1)
        if not bad.any():
            return out
        out[bad] = rng.integers(0, n, size=(int(bad.sum()), width))


def build_eccache(shape, params, seed):
    """One independent uniform random (k+r)-subset per coding group.

    Each machine hosts slabs_per_machine slabs and every group consumes one
    slab on each of its k+r members, so a cluster of N machines supports
    N*S/(k+r) groups.
    """
    width = params.k + params.r
    n = shape.machines
    if n < width:
        raise InvalidParams(f"need at least k+r = {width} machines, got {n}")
    count = max(1, round(n * shape.slabs_per_machine / width))
    rng = np.random.default_rng(seed)
    rows = _distinct_rows(rng, count, width, n)
    groups = [ExtendedGroup(i, tuple(row), 0) for i, row in enumerate(rows.tolist())]
    return PlacementPlan(ECCACHE, shape, params, 0, seed, groups)


def select_members(group, loads, params):
    """The k+r least-loaded group members, ties broken by ascending id."""
    width = params.k + params.r
    if len(group.members) < width:
        raise InvalidParams(
            f"group has {len(group.members)} members, needs {width}"
        )
    ranked = sorted(group.members, key=lambda m: (loads[m], m))
    return ranked[:width]


def power_of_two_pick(loads, rng):
    """Sample two distinct machines, return the less loaded (ties: smaller id)."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    n = len(loads)
    if n < 2:
        return 0
    a = int(rng.integers(0, n))
    b = int(rng.integers(0, n - 1))
    if b >= a:
        b += 1
    if loads[a] < loads[b]:
        return a
    if loads[b] < loads[a]:
        return b
    return min(a, b)


def count_copysets(plan, params):
    """Number of distinct (r+1)-machine subsets whose loss can destroy data."""
    size = params.r + 1
    if plan.scheme == CODINGSETS:
        # groups are disjoint, so per-group counts never overlap
        return sum(math.comb(len(g.members), size) for g in plan.groups)
    import itertools

    seen = set()
    for g in plan.groups:
        for combo in itertools.combinations(sorted(g.members), size):
            seen.add(combo)
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


def _incidence_table(plan, n, membership):
    """machine -> padded row of group ids (-1 pads), for vectorized overlap."""
    lists = [[] for _ in range(n)]
    if membership == "chosen" and plan.assignment:
        for gid, members in plan.assignment.values():
            for m in members:
                lists[m].append(gid)
    else:
        for g in plan.groups:
            for m in g.members:
                lists[m].append(g.index)
    width = max(1, max(len(v) for v in lists))
    table = np.full((n, width), -1, dtype=np.int64)
    for m, v in enumerate(lists):
        table[m, : len(v)] = v
    return table


def loss_probability_montecarlo(
    plan, shape, params, trials, seed, membership="extended"
):
    """Estimate loss probability by sampling uniform random failure sets.

    A trial loses data when >= r+1 members of some group's copyset universe
    fail. ``membership`` picks that universe: each group's extended members,
    or the members ranges were placed on. Returns (estimate, 95%
    normal-approximation half-width). Trials are drawn in chunks of
    MC_CHUNK_TRIALS with independently spawned seeds and reduced by summing
    counts, so the result is independent of chunking order. Each chunk's
    keys are drawn and reduced in row blocks of at most MC_KEY_BYTES; the
    generator fills rows in order, so the blocks join into the chunk's keys.
    """
    if trials < 1:
        raise InvalidParams(f"trials must be >= 1, got {trials}")
    if membership not in MEMBERSHIPS:
        raise InvalidParams(f"membership must be one of {MEMBERSHIPS}, got {membership!r}")
    n = shape.machines
    failures = math.floor(n * shape.failure_fraction)
    size = params.r + 1
    if failures < size:
        return 0.0, 0.0
    table = _incidence_table(plan, n, membership)
    n_chunks = -(-trials // MC_CHUNK_TRIALS)
    seeds = np.random.SeedSequence(seed).spawn(n_chunks)
    block = max(1, MC_KEY_BYTES // (8 * n))
    losses = 0
    run = size - 1  # r+1 equal ids in a sorted row span this distance
    for ci in range(n_chunks):
        rng = np.random.default_rng(seeds[ci])
        t = min(MC_CHUNK_TRIALS, trials - ci * MC_CHUNK_TRIALS)
        for lo in range(0, t, block):
            rows = min(block, t - lo)
            keys = rng.random((rows, n))
            failed = np.argpartition(keys, failures - 1, axis=1)[:, :failures]
            hit = np.sort(table[failed].reshape(rows, -1), axis=1)
            same = (hit[:, run:] == hit[:, :-run]) & (hit[:, run:] >= 0)
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


def load_imbalance(loads, epsilon=1.0):
    """Dispersion metrics for a per-machine load vector.

    A zero minimum is floored at ``epsilon`` (one slab's worth) for the
    ratio and flagged so reports can call out the degenerate case.
    """
    arr = np.asarray(loads, dtype=np.float64)
    if arr.size == 0:
        raise InvalidParams("load vector is empty")
    lo = float(arr.min())
    hi = float(arr.max())
    mean = float(arr.mean())
    floored = lo < epsilon
    ratio = hi / max(lo, epsilon) if hi > 0 else 1.0
    cv = float(arr.std() / mean) if mean > 0 else 0.0
    min_util = lo / mean if mean > 0 else 0.0
    return LoadImbalance(ratio, cv, min_util, floored)
