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
from fractions import Fraction

import numpy as np
import pytest

from codedmem import placement
from codedmem.coding import CodecParams
from codedmem.errors import InvalidParams


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


class TestSelectMembers:
    def test_least_loaded_win(self):
        group = placement.ExtendedGroup(0, (0, 1, 2, 3), l=2)
        loads = {0: 3.0, 1: 1.0, 2: 1.0, 3: 2.0}
        got = placement.select_members(group, loads, CodecParams(k=1, r=1))
        assert got == [1, 2]

    def test_ties_break_by_id(self):
        group = placement.ExtendedGroup(0, (5, 3, 9, 7), l=2)
        loads = {3: 0.0, 5: 0.0, 7: 0.0, 9: 0.0}
        got = placement.select_members(group, loads, CodecParams(k=1, r=1))
        assert got == [3, 5]

    def test_scale_invariant(self):
        group = placement.ExtendedGroup(0, (0, 1, 2, 3, 4, 5), l=2)
        loads = [6.0, 5.0, 4.0, 3.0, 2.0, 1.0]
        scaled = [v * 1000.0 for v in loads]
        p = CodecParams(k=2, r=2)
        assert placement.select_members(group, loads, p) == placement.select_members(
            group, scaled, p
        )


class TestPowerOfTwo:
    def test_lighter_half_preferred(self):
        loads = [0.0] * 50 + [100.0] * 50
        rng = np.random.default_rng(6)
        hits = sum(placement.power_of_two_pick(loads, rng) < 50 for _ in range(20000))
        # two uniform candidates: P(light) = 0.25 + 0.5 = 0.75
        assert abs(hits / 20000 - 0.75) < 0.02

    def test_tie_smaller_id(self):
        loads = [1.0, 1.0, 1.0]
        rng = np.random.default_rng(7)
        for _ in range(50):
            pick = placement.power_of_two_pick(loads, rng)
            assert pick in (0, 1, 2)
        # direct tie check via seed acceptance: equal loads -> min of the two candidates
        got = {placement.power_of_two_pick([5.0, 5.0], np.random.default_rng(i)) for i in range(20)}
        assert got == {0}

    def test_seed_determinism(self):
        loads = list(range(10, 0, -1))
        a = [placement.power_of_two_pick(loads, np.random.default_rng(8)) for _ in range(5)]
        b = [placement.power_of_two_pick(loads, np.random.default_rng(8)) for _ in range(5)]
        assert a == b


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
            params=CodecParams(k=2, r=1),
            l=0,
            seed=0,
            groups=[
                placement.ExtendedGroup(0, (0, 1, 2), l=0),
                placement.ExtendedGroup(1, (1, 2, 3), l=0),
            ],
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
        # codingsets l=2 on 1,000 machines, 16 slabs, f=0.01: the value the
        # unblocked loop gave, whose 5,000-row chunks each held 40 MB of keys
        sh = shape(1000, s=16, f=0.01)
        params = CodecParams(k=8, r=2)
        plan = placement.build_codingsets(sh, params, l=2, seed=1)
        expect = (0.01285, 0.0015609328205275202)
        assert placement.loss_probability_montecarlo(plan, sh, params, 20000, 1) == expect
        monkeypatch.setattr(placement, "MC_KEY_BYTES", 8 * 1000)  # one row per block
        assert placement.loss_probability_montecarlo(plan, sh, params, 20000, 1) == expect

    @pytest.mark.parametrize("membership", ["chosen", "extended"])
    def test_membership_values(self, membership):
        sh = shape(60, f=0.05)
        params = CodecParams(k=4, r=2)
        plan = placement.build_codingsets(sh, params, l=0, seed=7)
        est, _ = placement.loss_probability_montecarlo(
            plan, sh, params, trials=500, seed=8, membership=membership
        )
        assert 0.0 <= est <= 1.0

    @pytest.mark.parametrize("membership", ["extend", "Chosen", None])
    def test_unknown_membership_rejected(self, membership):
        sh = shape(60, f=0.0)  # rejected even where no trial would run
        params = CodecParams(k=4, r=2)
        plan = placement.build_codingsets(sh, params, l=0, seed=7)
        with pytest.raises(InvalidParams, match="membership"):
            placement.loss_probability_montecarlo(
                plan, sh, params, trials=500, seed=8, membership=membership
            )


class TestLoadImbalance:
    def test_frozen_example(self):
        got = placement.load_imbalance([1.0, 2.0, 3.0, 4.0])
        assert got.max_to_min == pytest.approx(4.0)
        assert got.cv == pytest.approx(0.4472135954999579, abs=1e-12)
        assert got.min_utilization == pytest.approx(0.4)
        assert not got.floored

    def test_zero_load_floor_flagged(self):
        got = placement.load_imbalance([0.0, 5.0], epsilon=1.0)
        assert got.floored
        assert got.max_to_min == pytest.approx(5.0)
        assert got.min_utilization == 0.0

    def test_uniform_loads(self):
        got = placement.load_imbalance([7.0, 7.0, 7.0])
        assert got.max_to_min == pytest.approx(1.0)
        assert got.cv == pytest.approx(0.0)
        assert got.min_utilization == pytest.approx(1.0)


class TestAssignment:
    def test_round_robin(self):
        plan = placement.build_codingsets(shape(60), CodecParams(k=4, r=2), l=0, seed=1)
        idx = [plan.group_for_range(i, policy="round_robin") for i in range(25)]
        assert idx == [i % 10 for i in range(25)]

    def test_uniform_deterministic_and_spread(self):
        plan = placement.build_codingsets(shape(60), CodecParams(k=4, r=2), l=0, seed=1)
        again = placement.build_codingsets(shape(60), CodecParams(k=4, r=2), l=0, seed=1)
        a = [plan.group_for_range(i) for i in range(2000)]
        b = [again.group_for_range(i) for i in range(2000)]
        assert a == b
        counts = np.bincount(a, minlength=10)
        assert counts.min() > 120  # roughly uniform over 10 groups (mean 200)

    def test_place_range_records_assignment(self):
        plan = placement.build_codingsets(shape(12), CodecParams(k=2, r=1), l=1, seed=2)
        loads = dict.fromkeys(range(12), 0.0)
        gid, members = plan.place_range(5, loads)
        assert 0 <= gid < 3  # 12/(2+1+1) = 3 groups
        assert len(members) == 3
        assert set(members) <= set(plan.groups[gid].members)
        assert plan.assignment[5] == (gid, tuple(members))

    def test_eccache_range_is_its_group(self):
        plan = placement.build_eccache(shape(30, s=2), CodecParams(k=2, r=1), seed=3)
        gid, members = plan.place_range(7, dict.fromkeys(range(30), 0.0))
        assert gid == 7
        assert tuple(members) == tuple(plan.groups[7].members)
