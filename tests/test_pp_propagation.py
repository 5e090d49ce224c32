"""Checks of the ordered pull-back rule for (p, p)-pairs.

All pure integer arithmetic: covers enter as invariant-only records
(tag, conductor), so rings here only supply p, e and the level range.
Worked values were computed by hand from the case table; the series
oracle re-derives a sample of them end to end elsewhere.
"""

import hashlib

import pytest
from hypothesis import given, strategies as st

from germrh.dvr_core import make_ring
from germrh.pp_propagation import (
    PPInput,
    conductor_relation_check,
    is_fiber_product_torsor,
    level_data,
    propagate,
    special_different,
    tower_propagate,
    upper_differents,
)
from germrh.torsor_norm import ETALE, MU_P, hn

R33 = make_ring(3, 3, 1, 4)   # v(p) = 6, divisible by p
R39 = make_ring(3, 9, 1, 2)   # v(p) = 18; levels 3, 6 divide the table
R32 = make_ring(3, 2, 1, 4)   # v(p) = 4, not divisible by 3
R55 = make_ring(5, 5, 1, 2)   # v(p) = 20


def pair(ring, t1, m1, t2, m2):
    return PPInput(level_data(t1, m1, ring),
                   level_data(t2, m2, ring), ring)


class TestPropagateCases:
    def test_etale_pair(self):
        r = propagate(pair(R33, ETALE, -5, ETALE, -2))
        assert (r.m1p, r.m2p) == (-2, -11)
        assert (r.c1p, r.c2p) == (2, 11)
        assert (r.g1p, r.g2p) == (ETALE, ETALE)
        assert (r.d1p, r.d2p) == (0, 0)
        assert r.delta_total == 0
        assert r.ds == 26

    def test_etale_pair_other_branch(self):
        r = propagate(pair(R33, ETALE, -2, ETALE, -5))
        assert (r.m1p, r.m2p) == (-11, -2)

    def test_etale_mu(self):
        r = propagate(pair(R33, ETALE, -4, MU_P, 2))
        assert (r.m1p, r.m2p) == (14, -4)
        assert (r.g1p, r.g2p) == (MU_P, ETALE)
        assert (r.d1p, r.d2p) == (6, 0)
        assert r.delta_total == 6

    def test_mu_etale_swapped_back(self):
        r = propagate(pair(R33, MU_P, 2, ETALE, -4))
        assert (r.m1p, r.m2p) == (-4, 14)
        assert (r.g1p, r.g2p) == (ETALE, MU_P)
        assert (r.d1p, r.d2p) == (0, 6)

    def test_hn_pair_incompatible_ring_keeps_conductors(self):
        # v(p)+n2 = 8 is not divisible by 3, so only the conductor
        # half of the result exists on this ring
        r = propagate(pair(R33, hn(1), 1, hn(2), 2))
        assert (r.m1p, r.m2p) == (2, -1)
        assert r.g1p is None and r.d1p is None
        assert r.delta_total is None
        assert r.ds == special_different(-1, -2, 3) == -18

    def test_mu_mu_both_zero_rejected(self):
        with pytest.raises(ValueError, match="use oracle"):
            propagate(pair(R33, MU_P, 0, MU_P, 0))

    def test_mu_mu_one_zero(self):
        r = propagate(pair(R33, MU_P, 0, MU_P, 2))
        assert (r.m1p, r.m2p) == (2, -4)
        assert (r.g1p, r.g2p) == (hn(2), hn(2))
        assert (r.d1p, r.d2p) == (2, 2)
        assert r.delta_total == 8

    def test_hn_mu(self):
        r = propagate(pair(R39, hn(3), 1, MU_P, 2))
        assert (r.m1p, r.m2p) == (4, 1)
        assert (r.d1p, r.d2p) == (10, 4)
        assert (r.g1p, r.g2p) == (hn(4), hn(7))
        assert r.delta_total == 22

    def test_hn_hn_levels_differ(self):
        r = propagate(pair(R39, hn(3), 1, hn(6), 2))
        assert (r.m1p, r.m2p) == (2, -1)
        assert (r.d1p, r.d2p) == (2, 8)
        assert (r.g1p, r.g2p) == (hn(8), hn(5))
        assert r.delta_total == 14

    def test_hn_hn_levels_reversed(self):
        r = propagate(pair(R39, hn(6), 2, hn(3), 1))
        assert (r.m1p, r.m2p) == (-1, 2)
        assert (r.d1p, r.d2p) == (8, 2)

    def test_hn_equal_levels_split_on_m(self):
        r = propagate(pair(R39, hn(3), 1, hn(3), 4))
        assert (r.m1p, r.m2p) == (4, -5)
        assert (r.g1p, r.g2p) == (hn(7), hn(7))
        rs = propagate(pair(R39, hn(3), 4, hn(3), 1))
        assert (rs.m1p, rs.m2p) == (-5, 4)

    def test_hn_fully_tied_pair(self):
        r = propagate(pair(R39, hn(3), 2, hn(3), 2))
        assert (r.m1p, r.m2p) == (2, 2)


class TestInputValidation:
    def test_level_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            pair(R33, hn(3), 1, ETALE, -1)

    def test_conductor_divisible_by_p_is_table_legal(self):
        # the pull-back rule is pure arithmetic; realizability of such a
        # conductor by a minimal equation is not its concern
        r = propagate(pair(R33, ETALE, -3, ETALE, -1))
        assert (r.m1p, r.m2p) == (-1, -7)

    def test_mu_zero_conductor_allowed(self):
        pair(R33, MU_P, 0, MU_P, 2)


class TestSpecialDifferent:
    def test_worked_pair(self):
        assert special_different(5, 2, 3) == 26
        assert special_different(2, 11, 3) == 26

    def test_trivial_conductors(self):
        assert special_different(1, 1, 3) == 0
        assert special_different(1, 1, 5) == 0


class TestConductorRelation:
    def test_worked_values(self):
        assert conductor_relation_check(5, 2, 2, 11, 3)
        assert not conductor_relation_check(5, 2, 2, 10, 3)

    @given(c=st.integers(-30, 30), x=st.integers(-30, 30),
           y=st.integers(-30, 30))
    def test_equal_conductors_any_equal_upper(self, c, x, y):
        assert conductor_relation_check(c, c, x, x, 3)
        assert conductor_relation_check(c, c, x, y, 3) == (x == y)


class TestUpperDifferents:
    def test_etale_mu_ignores_conductors(self):
        for m1, m2 in [(-1, 2), (-5, 0), (-7, 4)]:
            assert upper_differents(pair(R33, ETALE, m1, MU_P, m2)) == (6, 0)

    def test_mu_mu(self):
        assert upper_differents(pair(R33, MU_P, 1, MU_P, 2)) == (2, 2)

    def test_etale_pair(self):
        assert upper_differents(pair(R33, ETALE, -1, ETALE, -2)) == (0, 0)

    def test_etale_hn_preserves_level(self):
        assert upper_differents(pair(R33, ETALE, -1, hn(1), 2)) == (4, 0)

    def test_swap_mirrors(self):
        assert upper_differents(pair(R39, MU_P, 2, hn(3), 1)) == (4, 10)

    def test_incompatible_ring(self):
        with pytest.raises(ValueError, match="incompatible with table"):
            upper_differents(pair(R32, hn(1), 1, MU_P, 2))
        with pytest.raises(ValueError, match="incompatible with table"):
            upper_differents(pair(R32, MU_P, 1, MU_P, 2))


class TestFiberProductCriterion:
    def test_pairs(self):
        assert is_fiber_product_torsor([ETALE, MU_P])
        assert not is_fiber_product_torsor([MU_P, hn(1)])
        assert is_fiber_product_torsor([ETALE, ETALE])

    def test_triples(self):
        assert is_fiber_product_torsor([ETALE, ETALE, MU_P])
        assert not is_fiber_product_torsor([ETALE, MU_P, MU_P])

    def test_needs_two(self):
        with pytest.raises(ValueError, match="at least two"):
            is_fiber_product_torsor([ETALE])


class TestTower:
    def test_all_etale_example(self):
        levels = [level_data(ETALE, -c, R33) for c in (2, 3, 5)]
        t = tower_propagate(levels, R33)
        assert t["c_top"] == (23, 2)
        assert t["pairs"][0].c2p == 2 and t["pairs"][1].c1p == 9

    def test_equal_conductors_match_manual_iteration(self):
        levels = [level_data(ETALE, -2, R33)] * 3
        t = tower_propagate(levels, R33)
        assert t["c_top"][0] == 2
        r12 = propagate(PPInput(levels[0], levels[1], R33))
        r23 = propagate(PPInput(levels[1], levels[2], R33))
        top = propagate(pair(R33, r12.g2p, r12.m2p, r23.g1p, r23.m1p))
        assert t["c_top"] == (top.c1p, top.c2p)

    def test_two_levels_degenerate(self):
        g1 = level_data(ETALE, -2, R33)
        g2 = level_data(MU_P, 1, R33)
        t = tower_propagate([g1, g2], R33)
        assert t["pairs"] == [propagate(PPInput(g1, g2, R33))]
        assert "top" not in t

    def test_height_bound(self):
        g = level_data(ETALE, -1, R33)
        with pytest.raises(ValueError, match="height"):
            tower_propagate([g] * 4, R33)

    def test_needs_different_block(self):
        levels = [level_data(hn(1), 1, R32), level_data(MU_P, 2, R32),
                  level_data(ETALE, -1, R32)]
        with pytest.raises(ValueError, match="different block"):
            tower_propagate(levels, R32)


@st.composite
def tagged_cover(draw, p=3, r=9):
    kind = draw(st.sampled_from(["Etale", "Hn", "MuP"]))
    tag = hn(draw(st.integers(1, r - 1))) if kind == "Hn" else (
        ETALE if kind == "Etale" else MU_P)
    m = draw(st.integers(-20, 20).filter(lambda v: v % p != 0))
    return tag, m


class TestPropagateProperties:
    @given(a=tagged_cover(), b=tagged_cover())
    def test_swap_mirrors_everything(self, a, b):
        r = propagate(pair(R39, *a, *b))
        rs = propagate(pair(R39, *b, *a))
        assert (rs.m1p, rs.m2p) == (r.m2p, r.m1p)
        assert (rs.d1p, rs.d2p) == (r.d2p, r.d1p)
        assert (rs.g1p, rs.g2p) == (r.g2p, r.g1p)
        assert rs.ds == r.ds and rs.delta_total == r.delta_total

    @given(a=tagged_cover(), b=tagged_cover())
    def test_closed_form_invariants(self, a, b):
        inp = pair(R39, *a, *b)
        r = propagate(inp)
        assert (r.c1p, r.c2p) == (-r.m1p, -r.m2p)
        assert conductor_relation_check(inp.g1.c, inp.g2.c, r.c1p, r.c2p, 3)
        assert r.ds == special_different(inp.g1.c, r.c1p, 3)
        assert r.ds == special_different(inp.g2.c, r.c2p, 3)
        assert r.m1p % 3 != 0 and r.m2p % 3 != 0
        if r.d1p is not None:
            assert r.delta_total == inp.g1.delta + r.d1p
            assert r.delta_total == inp.g2.delta + r.d2p

    @given(a=tagged_cover(p=5, r=5), b=tagged_cover(p=5, r=5))
    def test_invariants_p5(self, a, b):
        inp = pair(R55, *a, *b)
        r = propagate(inp)
        assert conductor_relation_check(inp.g1.c, inp.g2.c, r.c1p, r.c2p, 5)
        assert r.ds == special_different(inp.g2.c, r.c2p, 5)


PINNED_SHA256 = (
    "a6e1d903af79caa71ab0ee0b29c195b2f1d95b449141698653edcf155d2444bb")


def _pinned_serialisation() -> str:
    """Every PPResult field (or the error) on four rings, plus towers.

    Every ordered tag pair with m in [-7, 7] on R32, R33, R39 and R55,
    then the top conductors of a small set of towers of three.
    """
    lines = []
    for ring in (R32, R33, R39, R55):
        tags = [ETALE, MU_P] + [hn(n) for n in range(1, ring.v_lambda)]
        covers = [level_data(t, m, ring) for t in tags for m in range(-7, 8)]
        for g1 in covers:
            for g2 in covers:
                try:
                    r = propagate(PPInput(g1, g2, ring))
                    row = [r.m1p, r.m2p, r.c1p, r.c2p, r.g1p, r.g2p,
                           r.d1p, r.d2p, r.ds, r.delta_total]
                except ValueError as err:
                    row = [err]
                lines.append(" ".join(map(str, [ring.p, ring.v_lambda,
                                                g1.group_tag, g1.m,
                                                g2.group_tag, g2.m, *row])))
    for ring in (R33, R39):
        tags = [ETALE, MU_P] + [hn(n) for n in range(1, ring.v_lambda)]
        covers = [level_data(t, m, ring) for t in tags for m in (-2, 1)]
        for g1 in covers:
            for g2 in covers:
                for g3 in covers:
                    try:
                        top = tower_propagate([g1, g2, g3], ring)["c_top"]
                    except ValueError as err:
                        top = err
                    lines.append(" ".join(map(str, [
                        ring.v_lambda, g1.group_tag, g1.m, g2.group_tag,
                        g2.m, g3.group_tag, g3.m, top])))
    return "\n".join(lines)


def test_pinned_values_of_the_pull_back_rule():
    # recorded from the two canonical-order case tables this rule replaced
    digest = hashlib.sha256(_pinned_serialisation().encode()).hexdigest()
    assert digest == PINNED_SHA256
