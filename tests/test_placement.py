"""Placement and data-loss analysis tests.

Frozen oracle values:
  - one (8+2) group, r=2 -> C(10,3) = 120 copysets
  - extended group of 12 (l=2), r=2 -> C(12,3) = 220 copysets
  - N=1000, l=2: 83 disjoint groups (82 of 12, remainder folded -> last has 16)
  - N=1000, S=16, k=8, r=2 eccache: 1600 groups, 16000 slab placements
  - loads [1,2,3,4] -> max/min 4.0, cv = sqrt(1.25)/2.5 = 0.4472135954999579
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from codedmem import analysis, placement
from codedmem.coding import CodecParams
from codedmem.errors import InvalidParams
from codedmem.manager import ManagerConfig, ResilienceManager
from codedmem.simulator import Cluster


def shape(n, s=1, f=0.0):
    return placement.ClusterShape(machines=n, slabs_per_machine=s, failure_fraction=f)


class TestCodingSetsPlan:
    def test_partition_1000_l2(self):
        plan = placement.build_codingsets(shape(1000), CodecParams(k=8, r=2), l=2, seed=1)
        assert len(plan.groups) == 83
        sizes = sorted(len(g.members) for g in plan.groups)
        assert sizes[:-1] == [12] * 82
        assert sizes[-1] == 16  # 4 leftover machines folded into the last group
        seen = sorted(m for g in plan.groups for m in g.members)
        assert seen == list(range(1000))  # disjoint and complete

    def test_partition_exact_fit(self):
        plan = placement.build_codingsets(shape(60), CodecParams(k=4, r=2), l=0, seed=2)
        assert len(plan.groups) == 10
        assert all(len(g.members) == 6 for g in plan.groups)

    def test_seed_determinism(self):
        a = placement.build_codingsets(shape(100), CodecParams(k=4, r=2), l=1, seed=9)
        b = placement.build_codingsets(shape(100), CodecParams(k=4, r=2), l=1, seed=9)
        c = placement.build_codingsets(shape(100), CodecParams(k=4, r=2), l=1, seed=10)
        assert [g.members for g in a.groups] == [g.members for g in b.groups]
        assert [g.members for g in a.groups] != [g.members for g in c.groups]

    def test_too_few_machines_rejected(self):
        with pytest.raises(InvalidParams):
            placement.build_codingsets(shape(5), CodecParams(k=4, r=2), l=0, seed=0)


class TestEcCachePlan:
    def test_group_count_and_slab_budget(self):
        plan = placement.build_eccache(shape(1000, s=16), CodecParams(k=8, r=2), seed=3)
        assert len(plan.groups) == 1600  # N*S/(k+r)
        assert all(len(set(g.members)) == 10 for g in plan.groups)
        # one slab per member per group: exactly N*S slab placements
        assert sum(len(g.members) for g in plan.groups) == 16000

    def test_members_in_range_and_deterministic(self):
        a = placement.build_eccache(shape(50, s=2), CodecParams(k=2, r=1), seed=4)
        b = placement.build_eccache(shape(50, s=2), CodecParams(k=2, r=1), seed=4)
        assert [g.members for g in a.groups] == [g.members for g in b.groups]
        assert all(0 <= m < 50 for g in a.groups for m in g.members)

    def test_tight_cluster(self):
        # N == k+r forces every group to use all machines
        plan = placement.build_eccache(shape(4, s=2), CodecParams(k=2, r=2), seed=5)
        assert all(sorted(g.members) == [0, 1, 2, 3] for g in plan.groups)


class TestClusterShape:
    @pytest.mark.parametrize("field, value", [
        ("machines", 1000.5),
        ("machines", 100.0),
        ("machines", True),
        ("machines", "100"),
        ("slabs_per_machine", 1.5),
        ("slabs_per_machine", True),
        ("failure_fraction", True),
        ("failure_fraction", "0.1"),
        ("failure_fraction", None),
        # and values out of range
        ("machines", 0),
        ("slabs_per_machine", 0),
        ("failure_fraction", 1.5),
    ])
    def test_bad_field_types_rejected(self, field, value):
        with pytest.raises(InvalidParams, match=f"{field} must be"):
            placement.ClusterShape(**{"machines": 10, field: value})

    def test_numpy_numbers_accepted(self):
        sh = placement.ClusterShape(np.int64(12), np.int32(2), np.float64(0.25))
        plan = placement.build_codingsets(sh, CodecParams(k=2, r=1), l=1, seed=0)
        assert plan.group_count == 3


def reference_codingsets_groups(sh, params, l, seed):
    """build_codingsets' groups as tuples, one sorted slice of the permutation each."""
    width = params.k + params.r + l
    n = sh.machines
    perm = np.random.default_rng(seed).permutation(n).tolist()
    count = n // width
    return [
        tuple(sorted(perm[i * width : (i + 1) * width if i < count - 1 else n]))
        for i in range(count)
    ]


def reference_eccache_groups(sh, params, seed):
    """build_eccache's groups as tuples, one row of eccache_members each."""
    return list(map(tuple, placement.eccache_members(sh, params, seed).tolist()))


def reference_incidence(plan, n, dtype):
    """machine -> row of group ids in group order, -1 pads, one member at a time."""
    lists = [[] for _ in range(n)]
    for g in plan.groups:
        for m in g.members:
            lists[m].append(g.index)
    table = np.full((n, max(1, max(map(len, lists)))), -1, dtype=dtype)
    for m, v in enumerate(lists):
        table[m, : len(v)] = v
    return table


PLAN_SHAPES = [
    # scheme, shape, params, l
    ("codingsets", shape(1000), CodecParams(k=8, r=2), 2),  # 83 groups, the last folded
    ("codingsets", shape(12), CodecParams(k=8, r=2), 2),  # n = k+r+l: one group
    ("codingsets", shape(50), CodecParams(k=4, r=2), 1),
    ("codingsets", shape(10000), CodecParams(k=8, r=2), 2),
    ("eccache", shape(1000, s=16), CodecParams(k=8, r=2), 0),
    ("eccache", shape(30, s=2), CodecParams(k=2, r=7), 0),  # rows are permutation heads
    ("eccache", shape(2000, s=100), CodecParams(k=4, r=2), 0),  # 33,333 groups
]


def random_plan_shapes(count, seed):
    rng = np.random.default_rng(seed)
    for trial in range(count):
        k, r, l = (int(v) for v in rng.integers((1, 0, 0), (7, 4, 4)))
        width = k + r + l
        n = int(rng.integers(width, 8 * width + 5))
        s = int(rng.integers(1, 6))
        yield ("codingsets" if trial % 2 else "eccache"), shape(n, s=s), CodecParams(k=k, r=r), l


def build(scheme, sh, params, l, seed):
    if scheme == "eccache":
        return placement.build_eccache(sh, params, seed)
    return placement.build_codingsets(sh, params, l, seed)


class TestPlanArrays:
    """A plan holds flat member arrays; its group list is derived on demand."""

    def test_groups_match_tuple_construction(self):
        shapes = PLAN_SHAPES + list(random_plan_shapes(120, seed=19))
        for seed, (scheme, sh, params, l) in enumerate(shapes):
            plan = build(scheme, sh, params, l, seed)
            if scheme == "eccache":
                rows, l = reference_eccache_groups(sh, params, seed), 0
            else:
                rows = reference_codingsets_groups(sh, params, l, seed)
            expect = [(i, members, l) for i, members in enumerate(rows)]
            assert [tuple(g) for g in plan.groups] == expect, (scheme, sh, params, l)
            assert plan.group_count == len(plan.groups)
            assert plan.groups is plan.groups  # built once, then kept

    @pytest.mark.parametrize("scheme, sh, params, l", PLAN_SHAPES)
    def test_incidence_table_matches_member_loop(self, scheme, sh, params, l):
        plan = build(scheme, sh, params, l, seed=4)
        dtype = np.int16 if len(plan.groups) <= np.iinfo(np.int16).max else np.int32
        got = placement._incidence_table(plan, sh.machines)
        expect = reference_incidence(plan, sh.machines, dtype)
        assert got.dtype == expect.dtype
        assert got.shape == expect.shape
        assert np.array_equal(got, expect)

    def test_incidence_table_of_a_group_list(self):
        plan = placement.PlacementPlan(
            scheme="eccache", shape=shape(5), l=0, seed=0,
            members=[3, 1, 2, 1, 4, 3],  # group 0 is (3, 1, 2), group 1 is (1, 4, 3)
            bounds=[0, 3, 6],
        )
        assert placement._incidence_table(plan, 5).tolist() == [
            [-1, -1], [0, 1], [0, -1], [0, 1], [1, -1],
        ]

    @pytest.fixture
    def made(self, monkeypatch):
        """The arguments of every ExtendedGroup built while the test runs."""
        made = []
        new = placement.ExtendedGroup.__new__

        def counting(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(placement.ExtendedGroup, "__new__", staticmethod(counting))
        return made

    def test_loss_and_balance_build_no_group_list(self, made):
        sh = shape(200, s=4, f=0.05)
        params = CodecParams(k=4, r=2)
        for scheme in ("eccache", "codingsets"):
            plan = build(scheme, sh, params, 2, seed=1)
            placement.loss_probability_montecarlo(plan, sh, params, trials=200, seed=2)
        analysis.run_load_balance({
            "schema_version": 1,
            "scenario": "balance",
            "seeds": [1],
            "cluster": {"machines": 200, "slabs_per_machine": 4},
            "code": {"k": 4, "r": 2},
            "policies": [{"name": "eccache"}, {"name": "codingsets", "l": 2}],
        })
        assert made == []
        placement.build_codingsets(sh, params, 2, 1).groups
        assert len(made) == 200 // 8  # the counter sees a group list when one is read

    def test_the_data_path_builds_no_group_list(self, made):
        params = CodecParams(k=2, r=1)
        cluster = Cluster(40, machine_bytes=1 << 22)
        plan = build("codingsets", shape(40), params, 1, seed=3)  # 10 groups of 4
        mgr = ResilienceManager(cluster, plan, params, config=ManagerConfig(page_size=64))
        for rid in range(300):
            arange = mgr.map_range(rid)
            lo, hi = plan.bounds[arange.group_id], plan.bounds[arange.group_id + 1]
            assert arange.group_members == tuple(plan.members[lo:hi].tolist())
        arange = mgr.ranges[7]
        cluster.evict_slab(arange.refs[1].slab_id)
        assert mgr.relocate(arange, 1).machine_id in arange.group_members
        assert made == []


class TestSelectMembers:
    def test_least_loaded_win(self):
        loads = {0: 3.0, 1: 1.0, 2: 1.0, 3: 2.0}
        got = placement.select_members((0, 1, 2, 3), loads, 2)
        assert got == [1, 2]

    def test_ties_break_by_id(self):
        loads = {3: 0.0, 5: 0.0, 7: 0.0, 9: 0.0}
        got = placement.select_members((5, 3, 9, 7), loads, 2)
        assert got == [3, 5]

    def test_too_few_members_rejected(self):
        with pytest.raises(InvalidParams, match="3 members, needs 4"):
            placement.select_members((0, 1, 2), [0, 0, 0], 4)

    @pytest.mark.parametrize("as_dict", [False, True])
    def test_matches_load_then_id_order(self, as_dict):
        rng = np.random.default_rng(12)
        for _ in range(300):
            size = int(rng.integers(2, 16))
            members = tuple(int(m) for m in rng.choice(40, size=size, replace=False))
            values = rng.integers(0, 4, size=40).astype(float).tolist()  # many ties
            loads = dict(enumerate(values)) if as_dict else values
            count = 1 + int(rng.integers(1, size))
            left, expect = list(members), []
            while len(expect) < count:
                pick = min(left, key=lambda m: (loads[m], m))
                left.remove(pick)
                expect.append(pick)
            assert placement.select_members(members, loads, count) == expect

    def test_scale_invariant(self):
        members = (0, 1, 2, 3, 4, 5)
        loads = [6.0, 5.0, 4.0, 3.0, 2.0, 1.0]
        scaled = [v * 1000.0 for v in loads]
        assert placement.select_members(members, loads, 4) == placement.select_members(
            members, scaled, 4
        )


def placed_one_by_one(plan, count, params):
    """Per-machine loads of ranges 0 .. count-1 placed by select_members in turn."""
    loads = [0] * plan.shape.machines
    for gid in plan.group_ids(count):
        members = plan.members[plan.bounds[gid] : plan.bounds[gid + 1]].tolist()
        for m in placement.select_members(members, loads, params.k + params.r):
            loads[m] += 1
    return loads


class TestCodingSetsLoads:
    @pytest.mark.parametrize(
        "n,k,r,l,count",
        [
            (1, 1, 0, 0, 5),  # one machine, one split per range
            (7, 1, 0, 0, 3),  # k=1, r=0, l=0: each range takes one member
            (11, 2, 1, 1, 2),  # fewer ranges than groups, the last folded
            (11, 2, 1, 1, 0),
            (10, 3, 2, 0, 40),  # every member of a group takes every range
            (23, 4, 2, 2, 500),
        ],
    )
    def test_edge_shapes_match_placing_one_by_one(self, n, k, r, l, count):
        params = CodecParams(k=k, r=r)
        plan = placement.build_codingsets(shape(n), params, l=l, seed=n + count)
        got = placement.codingsets_loads(plan, count, params)
        assert got.tolist() == placed_one_by_one(plan, count, params)

    def test_random_shapes_match_placing_one_by_one(self):
        rng = np.random.default_rng(18)
        seen = set()
        for trial in range(240):
            k, r, l = (int(v) for v in rng.integers((1, 0, 0), (5, 4, 5)))
            width = k + r + l
            n = int(rng.integers(width, 8 * width))
            groups = n // width
            count = int(rng.integers(0, 2 * groups)) if trial % 3 == 0 else int(rng.integers(0, 6 * n))
            params = CodecParams(k=k, r=r)
            plan = placement.build_codingsets(shape(n), params, l=l, seed=trial)
            got = placement.codingsets_loads(plan, count, params)
            assert got.tolist() == placed_one_by_one(plan, count, params), (n, k, r, l, count)
            seen.update(
                name
                for name, hit in [
                    ("k=1", k == 1),
                    ("r=0", r == 0),
                    ("l=0", l == 0),
                    ("folded", n % width and groups > 1),
                    ("fewer ranges than groups", count < groups),
                ]
                if hit
            )
        assert len(seen) == 5, seen

    def test_loads_within_a_group_differ_by_at_most_one(self):
        rng = np.random.default_rng(19)
        for trial in range(50):
            k, r, l = (int(v) for v in rng.integers((1, 0, 0), (9, 4, 4)))
            params = CodecParams(k=k, r=r)
            n = int(rng.integers(k + r + l, 400))
            plan = placement.build_codingsets(shape(n), params, l=l, seed=trial)
            loads = placement.codingsets_loads(plan, int(rng.integers(0, 3 * n)), params)
            for group in plan.groups:
                held = loads[list(group.members)]
                assert held.max() - held.min() <= 1, (trial, group.index)


class TestCopysets:
    def test_single_group_8_2(self):
        plan = placement.build_codingsets(shape(10), CodecParams(k=8, r=2), l=0, seed=0)
        assert len(plan.groups) == 1
        assert placement.count_copysets(plan, CodecParams(k=8, r=2)) == 120

    def test_extended_group_l2(self):
        plan = placement.build_codingsets(shape(12), CodecParams(k=8, r=2), l=2, seed=0)
        assert placement.count_copysets(plan, CodecParams(k=8, r=2)) == 220

    def test_codingsets_sum_with_fold(self):
        plan = placement.build_codingsets(shape(1000), CodecParams(k=8, r=2), l=2, seed=1)
        expect = 82 * math.comb(12, 3) + math.comb(16, 3)
        assert placement.count_copysets(plan, CodecParams(k=8, r=2)) == expect

    def test_overlapping_groups_deduplicated(self):
        plan = placement.PlacementPlan(
            scheme="eccache",
            shape=shape(4),
            l=0,
            seed=0,
            members=[0, 1, 2, 1, 2, 3],  # group 0 is (0, 1, 2), group 1 is (1, 2, 3)
            bounds=[0, 3, 6],
        )
        # 3 pairs per group, pair (1,2) shared -> 5 distinct
        assert placement.count_copysets(plan, CodecParams(k=2, r=1)) == 5


class TestAnalyticLoss:
    def test_codingsets_exact_small(self):
        # q = G * C(6,3)/C(60,3) = 200/34220, one failure triple
        got = placement.loss_probability_analytic(
            "codingsets", shape(60, f=0.05), CodecParams(k=4, r=2), l=0
        )
        assert got == pytest.approx(200 / 34220, rel=1e-12)

    def test_eccache_base_parameters(self):
        got = placement.loss_probability_analytic(
            "eccache", shape(1000, s=16, f=0.01), CodecParams(k=8, r=2), l=0
        )
        # independent rational-arithmetic oracle
        q = Fraction(math.comb(10, 3), math.comb(1000, 3)) * 1600
        expect = 1 - (1 - q) ** math.comb(10, 3)
        assert got == pytest.approx(float(expect), rel=1e-9)

    def test_codingsets_base_parameters(self):
        got = placement.loss_probability_analytic(
            "codingsets", shape(1000, s=16, f=0.01), CodecParams(k=8, r=2), l=2
        )
        q = Fraction(math.comb(12, 3), math.comb(1000, 3)) * Fraction(1000, 12)
        expect = 1 - (1 - q) ** math.comb(10, 3)
        assert got == pytest.approx(float(expect), rel=1e-9)

    def test_too_few_failures_is_zero(self):
        got = placement.loss_probability_analytic(
            "codingsets", shape(1000, f=0.002), CodecParams(k=8, r=2), l=2
        )
        assert got == 0.0

    def test_single_group_full_failure_is_one(self):
        got = placement.loss_probability_analytic(
            "codingsets", shape(10, f=1.0), CodecParams(k=8, r=2), l=0
        )
        assert got == 1.0

    def test_probability_clamped(self):
        # large S pushes q*G past 1; result must stay a probability
        got = placement.loss_probability_analytic(
            "eccache", shape(20, s=500, f=0.5), CodecParams(k=2, r=1), l=0
        )
        assert got == 1.0

    def test_monotone_in_f_s_l(self):
        params = CodecParams(k=8, r=2)
        fs = [0.004, 0.01, 0.03, 0.1, 0.3]
        ec = [
            placement.loss_probability_analytic("eccache", shape(1000, s=16, f=f), params, 0)
            for f in fs
        ]
        assert ec == sorted(ec)
        ss = [1, 4, 16, 64]
        by_s = [
            placement.loss_probability_analytic("eccache", shape(1000, s=s, f=0.01), params, 0)
            for s in ss
        ]
        assert by_s == sorted(by_s)
        ls = [0, 2, 4, 8]
        by_l = [
            placement.loss_probability_analytic("codingsets", shape(1000, s=16, f=0.01), params, l)
            for l in ls
        ]
        assert by_l == sorted(by_l)


def exhaustive_loss(plan, n, r_plus_1, failures):
    """Independent oracle: enumerate every failure set of the given size."""
    losing = 0
    total = 0
    group_sets = [set(g.members) for g in plan.groups]
    for combo in itertools.combinations(range(n), failures):
        total += 1
        fs = set(combo)
        if any(len(fs & g) >= r_plus_1 for g in group_sets):
            losing += 1
    return losing / total


class TestMonteCarloLoss:
    def test_zero_failures(self):
        plan = placement.build_codingsets(shape(60, f=0.0), CodecParams(k=4, r=2), l=0, seed=1)
        est, hw = placement.loss_probability_montecarlo(
            plan, shape(60, f=0.0), CodecParams(k=4, r=2), trials=1000, seed=2
        )
        assert (est, hw) == (0.0, 0.0)

    def test_matches_exhaustive_codingsets(self):
        sh = shape(18, f=2 / 18)
        params = CodecParams(k=2, r=1)
        plan = placement.build_codingsets(sh, params, l=0, seed=3)
        exact = exhaustive_loss(plan, 18, 2, 2)
        assert exact == pytest.approx(18 / 153)  # 6 groups of 3, within-group pairs
        est, hw = placement.loss_probability_montecarlo(plan, sh, params, trials=20000, seed=4)
        assert abs(est - exact) <= 3 * hw
        assert hw > 0

    def test_matches_exhaustive_eccache(self):
        sh = shape(30, s=2, f=0.1)
        params = CodecParams(k=2, r=1)
        plan = placement.build_eccache(sh, params, seed=5)
        exact = exhaustive_loss(plan, 30, 2, 3)
        est, hw = placement.loss_probability_montecarlo(plan, sh, params, trials=20000, seed=6)
        assert abs(est - exact) <= 3 * hw

    def test_r0_matches_exhaustive(self):
        # r = 0: one failed member loses its group, and the run test
        # compares each sorted id with itself
        sh = shape(20, f=0.05)
        params = CodecParams(k=3, r=0)
        for plan in (
            placement.build_eccache(sh, params, seed=1),
            placement.build_codingsets(sh, params, l=0, seed=1),
        ):
            exact = float(analysis.exhaustive_loss(plan, sh, params))
            est, hw = placement.loss_probability_montecarlo(plan, sh, params, trials=5000, seed=2)
            assert abs(est - exact) <= 3 * hw
        assert exact == 1.0  # codingsets: every machine sits in a group

    def test_exhaustive_loss_is_zero_below_r_plus_1_failures(self):
        sh = shape(20, f=0.1)  # two failed machines, r+1 = 3
        params = CodecParams(k=3, r=2)
        plan = placement.build_codingsets(sh, params, l=0, seed=1)
        assert analysis.exhaustive_loss(plan, sh, params) == 0

    def test_seed_and_chunk_independence(self):
        sh = shape(60, f=0.05)
        params = CodecParams(k=4, r=2)
        plan = placement.build_codingsets(sh, params, l=0, seed=7)
        a = placement.loss_probability_montecarlo(plan, sh, params, trials=5000, seed=8)
        b = placement.loss_probability_montecarlo(plan, sh, params, trials=5000, seed=8)
        assert a == b
        c = placement.loss_probability_montecarlo(plan, sh, params, trials=5000, seed=9)
        assert a != c

    def test_certain_loss(self):
        sh = shape(10, f=1.0)
        params = CodecParams(k=8, r=2)
        plan = placement.build_codingsets(sh, params, l=0, seed=10)
        est, hw = placement.loss_probability_montecarlo(plan, sh, params, trials=500, seed=11)
        assert est == 1.0

    def test_key_blocks_do_not_move_estimate(self, monkeypatch):
        # codingsets l=2 on 1,000 machines, 16 slabs, f=0.01: the value at the
        # default cap, where a 5,000-row chunk fits in one block
        sh = shape(1000, s=16, f=0.01)
        params = CodecParams(k=8, r=2)
        plan = placement.build_codingsets(sh, params, l=2, seed=1)
        expect = (0.0148, 0.0016735324307583645)
        assert placement.loss_probability_montecarlo(plan, sh, params, 20000, 1) == expect
        monkeypatch.setattr(placement, "MC_BLOCK_BYTES", 8)  # one row per block
        assert placement.loss_probability_montecarlo(plan, sh, params, 20000, 1) == expect

    def test_high_failure_fractions_finish(self):
        # 200 of 1,000 failed: a row of 200 iid draws is all distinct with
        # probability about e^-20, so rejecting whole rows would never end
        cfg = {
            "schema_version": 1,
            "scenario": "loss",
            "seeds": [1],
            "cluster": {"machines": 1000, "slabs_per_machine": 16},
            "code": {"k": 8, "r": 2},
            "schemes": [{"name": "eccache"}, {"name": "codingsets", "l": 2}],
            "failure_fraction": 0.2,
            "trials": 1000,
            "sweep": {"path": "failure_fraction", "values": [0.2, 0.45, 0.6]},
        }
        started = time.monotonic()
        _, rows = analysis.run_loss_curves(cfg)
        assert [row[8] for row in rows] == ["200", "200", "450", "450", "600", "600"]
        assert all(float(row[11]) == 1.0 for row in rows)
        assert time.monotonic() - started < 30.0


def reference_montecarlo(plan, sh, params, trials, seed):
    """loss_probability_montecarlo with an int64 incidence table, one block
    per chunk, and failure sets drawn one id at a time."""
    n = sh.machines
    failures = math.floor(n * sh.failure_fraction)
    table = reference_incidence(plan, n, np.int64)
    run = params.r
    losses = 0
    for ci, ss in enumerate(np.random.SeedSequence(seed).spawn(-(-trials // placement.MC_CHUNK_TRIALS))):
        rng = np.random.default_rng(ss)
        spare = np.random.default_rng(ss.spawn(1)[0])
        rows = min(placement.MC_CHUNK_TRIALS, trials - ci * placement.MC_CHUNK_TRIALS)
        if 2 * failures > n:
            failed = np.array([rng.permutation(n)[:failures] for _ in range(rows)])
        else:
            failed = np.array(reference_subsets(rng, spare, rows, failures, n))
        hit = np.sort(table[failed].reshape(rows, -1), axis=1)
        same = (hit[:, run:] == hit[:, : hit.shape[1] - run]) & (hit[:, run:] >= 0)
        losses += int(same.any(axis=1).sum())
    est = losses / trials
    return est, 1.96 * math.sqrt(est * (1.0 - est) / trials)


class TestMonteCarloOracle:
    """The narrow-int kernel against the int64 sort-and-compare kernel."""

    @pytest.mark.parametrize("scheme, sh, params, l, trials, dtype", [
        # 1,600 groups; a machine sits in up to ~30
        ("eccache", shape(1000, s=16, f=0.01), CodecParams(k=8, r=2), 0, 12000, np.int16),
        # 83 groups, the last of 16
        ("codingsets", shape(1000, s=16, f=0.01), CodecParams(k=8, r=2), 2, 12000, np.int16),
        # 7 groups of 7, the last folds in the 50th machine
        ("codingsets", shape(50, f=0.1), CodecParams(k=4, r=2), 1, 6000, np.int16),
        # 16 failed of 30: failure sets are permutation heads
        ("eccache", shape(30, f=0.54), CodecParams(k=2, r=7), 0, 3000, np.int16),
        ("codingsets", shape(30, f=0.54), CodecParams(k=2, r=7), 1, 3000, np.int16),
        # 33,333 groups take the int32 table
        ("eccache", shape(2000, s=100, f=0.005), CodecParams(k=4, r=2), 0, 300, np.int32),
    ])
    def test_matches_int64_kernel(self, scheme, sh, params, l, trials, dtype):
        if scheme == "eccache":
            plan = placement.build_eccache(sh, params, seed=4)
        else:
            plan = placement.build_codingsets(sh, params, l=l, seed=4)
        assert placement._incidence_table(plan, sh.machines).dtype == dtype
        got = placement.loss_probability_montecarlo(plan, sh, params, trials, seed=9)
        assert got == reference_montecarlo(plan, sh, params, trials, seed=9)
        assert 0.0 < got[0] < 1.0


def reference_subsets(rng, spare, rows, failures, n):
    """First ``failures`` distinct ids of each row's stream, one id at a time."""
    out = []
    for row in rng.integers(0, n, size=(rows, 2 * failures)).tolist():
        seen = []
        for m in row:
            if m not in seen and len(seen) < failures:
                seen.append(m)
        while len(seen) < failures:
            m = int(spare.integers(0, n))
            if m not in seen:
                seen.append(m)
        out.append(seen)
    return out


class TestFailureSets:
    def sample(self, rows, failures, n, seed=0, block=None):
        rng = np.random.default_rng(seed)
        spare = np.random.default_rng(seed + 1000)
        block = block or rows
        return np.concatenate([
            placement._failure_sets(rng, spare, min(block, rows - lo), failures, n)
            for lo in range(0, rows, block)
        ])

    @pytest.mark.parametrize("n, failures", [(1000, 10), (20, 10), (10, 6), (1000, 600)])
    def test_rows_hold_distinct_ids(self, n, failures):
        rows = self.sample(2000, failures, n)
        assert rows.shape == (2000, failures)
        assert rows.min() >= 0 and rows.max() < n
        assert all(len(set(row)) == failures for row in rows.tolist())

    def test_short_rows_continue_from_spare(self):
        # n=20, f=10: 20 draws hold fewer than 10 distinct ids in about 1 row of 150
        rng, spare = np.random.default_rng(3), np.random.default_rng(4)
        before = spare.bit_generator.state
        got = placement._failure_sets(rng, spare, 3000, 10, 20)
        assert spare.bit_generator.state != before
        rng, spare = np.random.default_rng(3), np.random.default_rng(4)
        assert got.tolist() == reference_subsets(rng, spare, 3000, 10, 20)

    def test_blocks_join(self):
        whole = self.sample(3000, 10, 20, seed=5)
        assert (self.sample(3000, 10, 20, seed=5, block=7) == whole).all()
        assert (self.sample(3000, 10, 20, seed=5, block=1) == whole).all()

    @pytest.mark.parametrize("n, failures, count", [(50, 5, 200_000), (20, 10, 20_000), (10, 6, 20_000)])
    def test_uniform_over_machines_and_pairs(self, n, failures, count):
        rows = self.sample(count, failures, n, seed=7)
        per_machine = np.bincount(rows.ravel(), minlength=n)
        mean = per_machine.mean()
        assert np.abs(per_machine - mean).max() <= 0.03 * mean
        a, b = np.triu_indices(failures, 1)
        lo = np.minimum(rows[:, a], rows[:, b])
        hi = np.maximum(rows[:, a], rows[:, b])
        iu, ju = np.triu_indices(n, 1)
        pairs = np.bincount((lo * n + hi).ravel(), minlength=n * n)[iu * n + ju]
        cv = pairs.std() / pairs.mean()
        assert cv <= 1.25 / math.sqrt(pairs.mean())  # the Poisson floor is 1/sqrt(mean)


class TestLoadImbalance:
    def test_frozen_example(self):
        got = placement.load_imbalance([1.0, 2.0, 3.0, 4.0])
        assert got.max_to_min == pytest.approx(4.0)
        assert got.cv == pytest.approx(0.4472135954999579, abs=1e-12)
        assert got.min_utilization == pytest.approx(0.4)
        assert not got.floored

    def test_zero_load_floor_flagged(self):
        got = placement.load_imbalance([0.0, 5.0])
        assert got.floored
        assert got.max_to_min == pytest.approx(5.0)
        assert got.min_utilization == 0.0

    def test_uniform_loads(self):
        got = placement.load_imbalance([7.0, 7.0, 7.0])
        assert got.max_to_min == pytest.approx(1.0)
        assert got.cv == pytest.approx(0.0)
        assert got.min_utilization == pytest.approx(1.0)


class TestAssignment:
    def test_uniform_deterministic_and_spread(self):
        plan = placement.build_codingsets(shape(60), CodecParams(k=4, r=2), l=0, seed=1)
        again = placement.build_codingsets(shape(60), CodecParams(k=4, r=2), l=0, seed=1)
        a = [plan.group_for_range(i) for i in range(2000)]
        b = [again.group_for_range(i) for i in range(2000)]
        assert a == b
        counts = np.bincount(a, minlength=10)
        assert counts.min() > 120  # roughly uniform over 10 groups (mean 200)

    def test_range_members_come_from_its_group(self):
        params = CodecParams(k=2, r=1)
        plan = placement.build_codingsets(shape(12), params, l=1, seed=2)
        gid = plan.group_for_range(5)
        assert 0 <= gid < 3  # 12/(2+1+1) = 3 groups
        members = placement.select_members(
            plan.groups[gid].members, dict.fromkeys(range(12), 0.0), params.k + params.r
        )
        assert len(members) == 3
        assert set(members) <= set(plan.groups[gid].members)

    def test_eccache_range_is_its_group(self):
        plan = placement.build_eccache(shape(30, s=2), CodecParams(k=2, r=1), seed=3)
        assert [plan.group_for_range(i) for i in (7, 27)] == [7, 7]  # 20 groups

    @pytest.mark.parametrize("scheme", ["codingsets", "eccache"])
    def test_group_ids_match_group_for_range(self, scheme):
        plan = self.plan(scheme)
        expect = [plan.group_for_range(i) for i in range(3000)]
        assert plan.group_ids(3000) == expect
        assert plan.group_for_range(np.int64(2999)) == expect[2999]

    @pytest.mark.parametrize("scheme", ["codingsets", "eccache"])
    @pytest.mark.parametrize("range_id", [-1, -5000, 1.0, "3", True, None])
    def test_bad_range_id_rejected(self, scheme, range_id):
        plan = self.plan(scheme)
        plan.group_ids(1024)  # fill the assignment cache; -1 must not index its end
        with pytest.raises(InvalidParams, match="range id"):
            plan.group_for_range(range_id)

    @staticmethod
    def plan(scheme):
        if scheme == "codingsets":
            return placement.build_codingsets(shape(60), CodecParams(k=4, r=2), l=0, seed=1)
        return placement.build_eccache(shape(30, s=2), CodecParams(k=2, r=1), seed=3)
