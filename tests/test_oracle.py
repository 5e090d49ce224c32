"""Base change by brute force against the closed-form tables.

Every conductor row pp_propagation predicts is recomputed here from
series arithmetic alone: expand the boundary parameter of the first
cover, substitute it into the second equation, read the invariants off
the result.  The two routes share no case analysis, so each row that
agrees is a genuine cross-check, including the rows where the table
hands back no group-scheme level (tag None) and the row it refuses
outright (both conductors zero).

Window economics drive the fixture sizes.  Pairs with an etale factor
read at the residue level where arithmetic is cheap; pairs over a
non-etale base invert the parameter change over R on the window of the
presented equation, and that inversion dominates the runtime.  hi=60 is
wide enough for the doubled stability pass of every reading below and
keeps the level-over-level rows in single-digit seconds.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germrh import oracle
from germrh.dvr_core import make_ring
from germrh.laurent import KLaurent, RLaurent, ksubstitute, substitute
from germrh.oracle import (
    boundary_reducedness,
    oracle_conductor,
    parameter_expansion,
    pullback,
)
from germrh.pp_propagation import (
    PPInput,
    is_fiber_product_torsor,
    level_data,
    propagate,
)
from germrh.torsor_norm import ETALE, MU_P, TorsorEquation, classify, hn

R33 = make_ring(3, 3, 1, 4)
R93 = make_ring(3, 9, 1, 4)

W = 60


def series(ring, terms, hi=W):
    return RLaurent.from_terms(ring, terms, hi=hi)


def kummer(ring, terms, hi=W):
    return TorsorEquation("Kummer", series(ring, terms, hi))


def etale(ring, terms, hi=W):
    return TorsorEquation("Etale", series(ring, terms, hi))


def level(ring, terms, n, hi=W):
    return TorsorEquation("Hn", series(ring, terms, hi), n=n)


EQ33 = {
    "et5": etale(R33, {-5: 1}),
    "et2": etale(R33, {-2: 1}),
    "mu2": kummer(R33, {0: 1, 2: 1}),
    "mu4": kummer(R33, {0: 1, 4: 1}),
    "h1": level(R33, {1: 1, 2: 1}, n=1),
    "h2": level(R33, {2: 1, 3: 1}, n=2),
    "rk1": kummer(R33, {1: 1}),
    "rk2": kummer(R33, {1: 1, 3: 1}),
}
TD33 = {k: classify(v) for k, v in EQ33.items()}

EQ93 = {
    "et2": etale(R93, {-2: 1}),
    "mu2": kummer(R93, {0: 1, 2: 1}),
    "mu4": kummer(R93, {0: 1, 4: 1}),
    "h3": level(R93, {1: 1, 2: 1}, n=3),
    "h6": level(R93, {2: 1, 3: 1}, n=6),
}
TD93 = {k: classify(v) for k, v in EQ93.items()}

# (base, pulled cover, conductor, group tag) with the numbers pinned:
# both routes have to agree with each other and with these
GRID33 = [
    ("et5", "et2", -2, ETALE),
    ("et2", "et5", -11, ETALE),
    ("et2", "mu2", 10, MU_P),
    ("mu2", "et2", -2, ETALE),
    ("et2", "h1", 7, hn(1)),
    ("h1", "et2", -2, ETALE),
    ("mu2", "mu4", 4, hn(2)),
    ("mu4", "mu2", -2, hn(2)),
    ("mu2", "h1", 1, None),
    ("h1", "mu2", 4, None),
    ("mu4", "h1", 1, None),
    ("h1", "mu4", 10, None),
    ("h1", "h2", 2, None),
    ("h2", "h1", -1, None),
]

# same shapes at r=9, where the wider level range makes every one of
# these rows land on an integral level
GRID93 = [
    ("mu2", "mu4", 4, hn(6)),
    ("mu4", "mu2", -2, hn(6)),
    ("mu2", "h3", 1, hn(7)),
    ("h3", "mu2", 4, hn(4)),
    ("h3", "h6", 2, hn(8)),
    ("h6", "h3", -1, hn(5)),
    ("et2", "h3", 7, hn(3)),
    ("h3", "et2", -2, ETALE),
]


class TestParameterExpansion:
    def test_monomial_kummer_is_a_plain_pth_power(self):
        t = parameter_expansion(TD33["rk1"])
        assert t.support() == [3]
        assert (t - RLaurent.monomial(R33, 3, prec=t.prec)).is_zero()

    def test_kummer_defining_relation(self):
        td = TD33["mu2"]
        t = parameter_expansion(td)
        one = RLaurent.one(R33, prec=t.prec)
        rel = (one + RLaurent.from_terms(R33, {td.m: 1}, prec=t.prec)) ** 3
        assert (t * t - (rel - one)).is_zero()

    @pytest.mark.parametrize("name", ["h1", "h2"])
    def test_level_defining_relation(self, name):
        td = TD33[name]
        t = parameter_expansion(td)
        m, n = td.m, td.group_tag.n
        one = RLaurent.one(R33, prec=t.prec)
        zm = RLaurent.from_terms(R33, {m: R33.pi_power(n)}, prec=t.prec)
        rel = (one + zm) ** 3 - one
        assert ((t ** m).scale(R33.pi_power(n * 3)) - rel).is_zero()

    def test_negative_conductor_level_relation(self):
        # T^m pi^{np} = rel with m < 0, multiplied through by T^{-m}
        td = classify(level(R33, {-2: 1, 0: 2}, n=1))
        assert td.m == -2
        t = parameter_expansion(td)
        one = RLaurent.one(R33, prec=t.prec)
        zm = RLaurent.from_terms(R33, {-2: R33.pi_power(1)}, prec=t.prec)
        rel = (one + zm) ** 3 - one
        assert (rel * t * t - one.scale(R33.pi_power(3))).is_zero()

    def test_etale_geometric_tail(self):
        td = classify(etale(R33, {-1: 1}, hi=4))
        t = parameter_expansion(td, hi=11)
        expect = KLaurent.from_terms(R33.field, {3: 1, 5: 1, 7: 1, 9: 1,
                                                 11: 1}, hi=11)
        assert (t - expect).is_zero()

    def test_etale_residue_relation(self):
        # t^m = z^{mp} - z^m, m = -2, multiplied through by t^{-m}
        t = parameter_expansion(TD33["et2"], hi=20)
        body = KLaurent.from_terms(R33.field, {-6: 1, -2: -1}, hi=20)
        prod = (t * t * body).restrict_hi(10)
        assert (prod - KLaurent.one(R33.field).restrict_hi(10)).is_zero()


class TestPairGrid:
    """Every closed-form row at r=3, recomputed by series base change."""

    @pytest.mark.parametrize("b1,b2,mp,tag", GRID33,
                             ids=[f"{a}-{b}" for a, b, *_ in GRID33])
    def test_row(self, b1, b2, mp, tag):
        got = oracle_conductor(EQ33[b1], EQ33[b2])
        assert got == (mp, tag)
        res = propagate(PPInput(TD33[b1], TD33[b2], R33))
        assert (res.m1p, res.g1p) == got
        if tag is None:
            assert res.d1p is None
        else:
            assert res.d1p == level_data(tag, mp, R33).delta


class TestPairGridDeepLevels:
    """The r=9 rerun: the same pair shapes with room for levels up to 8,
    so the upper tags and different degrees are integral throughout."""

    @pytest.mark.parametrize("b1,b2,mp,tag", GRID93,
                             ids=[f"{a}-{b}" for a, b, *_ in GRID93])
    def test_row(self, b1, b2, mp, tag):
        got = oracle_conductor(EQ93[b1], EQ93[b2])
        assert got == (mp, tag)
        res = propagate(PPInput(TD93[b1], TD93[b2], R93))
        assert (res.m1p, res.g1p) == got
        assert res.d1p == level_data(tag, mp, R93).delta


class TestZeroConductorPair:
    """Monomial-parameter pairs fall outside the closed-form table (both
    conductors vanish); the series route still reads them, and the
    reading is pinned here in both roles."""

    def test_pinned_reading(self):
        assert oracle_conductor(EQ33["rk1"], EQ33["rk2"]) == (2, hn(2))
        assert oracle_conductor(EQ33["rk2"], EQ33["rk1"]) == (2, hn(2))

    def test_table_defers_to_series(self):
        with pytest.raises(ValueError, match="both conductors vanish"):
            propagate(PPInput(TD33["rk1"], TD33["rk2"], R33))


class TestSelfPullback:
    @pytest.mark.parametrize("name", ["mu2", "et2", "rk1"])
    def test_vanishing_class(self, name):
        with pytest.raises(ValueError, match="not generically disjoint"):
            oracle_conductor(EQ33[name], EQ33[name])

    def test_detected_through_a_moved_presentation(self):
        v = series(R33, {0: 1, 1: 2, 3: 1})
        other = TorsorEquation("Kummer", EQ33["mu2"].u * v ** 3)
        with pytest.raises(ValueError, match="not generically disjoint"):
            oracle_conductor(EQ33["mu2"], other)


class TestReadingInvariance:
    """The reading sees the class and the cover, never the chosen
    presentation of either."""

    def test_pth_power_factor_on_the_pulled_cover(self):
        v = series(R33, {0: 1, 1: 2, 3: 1})
        moved = TorsorEquation("Kummer", EQ33["mu4"].u * v ** 3)
        assert oracle_conductor(EQ33["mu2"], moved) == (4, hn(2))

    def test_pth_power_factor_on_the_base(self):
        v = series(R33, {0: 1, 2: 1})
        moved = TorsorEquation("Kummer", EQ33["mu2"].u * v ** 3)
        assert oracle_conductor(moved, EQ33["h1"]) == (1, None)

    def test_presentation_move_on_the_base(self):
        s = series(R33, {0: 1, 1: 1, 2: 2})
        phi = RLaurent.monomial(R33, 1, prec=EQ33["mu2"].u.prec) * s
        moved = TorsorEquation("Kummer", substitute(EQ33["mu2"].u, phi))
        assert oracle_conductor(moved, EQ33["h1"]) == (1, None)

    def test_coboundary_on_an_etale_class(self):
        # t^{-2} plus the coboundary t^{-3} - t^{-1}: same class as et2
        moved = TorsorEquation("Etale", series(R33, {-3: 1, -2: 1, -1: 2}))
        assert classify(moved).m == -2
        assert oracle_conductor(moved, EQ33["h1"]) == (7, hn(1))


class TestReversionWitness:
    """The parameter reversion re-checked from its output alone, with
    series products and comparisons: phi solves its equation on its whole
    window at its precision, and the wide read's phi cut to the narrow
    window is the narrow read's phi."""

    @staticmethod
    def presented(b1, b2):
        eq1, eq2 = EQ33[b1], EQ33[b2]
        hi = oracle._default_hi(eq1, eq2)
        return [dict(oracle._conductor_once(eq1, TD33[b1], eq2, TD33[b2],
                                            w, wide)[2].stage_log)
                ["presented_parameter"]
                for w, wide in ((hi, False), (2 * hi, True))]

    @pytest.mark.parametrize("b1,b2", [("h1", "h2"), ("mu2", "h1")])
    def test_presented_parameter(self, b1, b2):
        s = TD33[b1].parameter_change
        x = RLaurent.monomial(R33, 1, prec=s.prec)
        narrow, wide = self.presented(b1, b2)
        assert narrow.hi < wide.hi
        for phi in (narrow, wide):
            resid = phi * substitute(s, phi) - x
            assert (resid.hi, resid.prec) == (phi.hi, phi.prec)
            assert resid.is_zero()
        assert (wide.restrict(hi=narrow.hi) - narrow).is_zero()

    @pytest.mark.parametrize("ring,terms", [
        (R33, {-4: 1, -2: 2, -1: 1}), (R93, {-7: 2, -5: 1, -1: 1})])
    def test_original_parameter(self, ring, terms):
        td = classify(etale(ring, terms, hi=30))
        sbar = td.parameter_change.residue()
        assert len(sbar.coeffs) > 1
        t, _ = oracle._original_parameter_k(td, 57)
        resid = t * ksubstitute(sbar, t) - parameter_expansion(td, hi=57)
        assert t.hi == resid.hi == 57
        assert resid.is_zero()


REDUCED = [
    ("et5", "et2", True),
    ("et2", "mu2", True),
    ("et2", "h1", True),
    ("mu2", "h1", False),
    ("mu2", "mu4", False),
    ("h1", "h2", False),
]


class TestBoundaryReducedness:
    @pytest.mark.parametrize("b1,b2,want", REDUCED,
                             ids=[f"{a}-{b}" for a, b, _ in REDUCED])
    def test_matches_fiber_product_criterion(self, b1, b2, want):
        got = boundary_reducedness(EQ33[b1], EQ33[b2])
        assert got is want
        tags = [TD33[b1].group_tag, TD33[b2].group_tag]
        assert got == is_fiber_product_torsor(tags)


class TestStageLog:
    def test_ring_route(self):
        m, tag, peq = oracle_conductor(EQ33["mu2"], EQ33["h1"],
                                       with_log=True)
        assert (m, tag) == (1, None)
        assert peq.variable == "Z"
        log = dict(peq.stage_log)
        assert log["route"] == "ring"
        assert log["read"] == (1, "None")
        for key in ("presented_parameter", "inversion_steps",
                    "composed_depth", "level_wrap", "reduction_witness"):
            assert key in log

    def test_residue_route(self):
        m, tag, peq = oracle_conductor(EQ33["h1"], EQ33["et2"],
                                       with_log=True)
        assert (m, tag) == (-2, ETALE)
        assert peq.variable == "z"
        log = dict(peq.stage_log)
        assert log["route"] == "residue"
        assert log["read"] == (-2, "etale")
        for key in ("parameter", "residue_body", "composed",
                    "constant_folded", "as_reduce_witness"):
            assert key in log


class TestDiagnostics:
    def test_narrow_base_window(self):
        a = kummer(R33, {0: 1, 2: 1}, hi=10)
        b = level(R33, {1: 1, 2: 1}, n=1, hi=10)
        with pytest.raises(ValueError, match="widen window"):
            oracle_conductor(a, b)

    def test_etale_pullback_needs_residue_parameter(self):
        with pytest.raises(ValueError, match="residue level"):
            pullback(EQ33["et2"], parameter_expansion(TD33["mu2"]))

    def test_reading_survives_explicit_window(self):
        assert oracle_conductor(EQ33["et2"], EQ33["mu2"], hi=40) == \
            (10, MU_P)

    def test_single_pass_agrees(self):
        got = oracle_conductor(EQ33["mu2"], EQ33["mu4"],
                               check_stability=False)
        assert got == (4, hn(2))


@pytest.mark.parametrize("eq1,eq2,read", [
    (etale(R33, {-5: 1}), etale(R33, {-5: 1, -2: 1}), (-2, ETALE)),
    (kummer(R33, {0: 1, 2: 1}), kummer(R33, {0: 1, 2: 1, 3: 1}), (5, hn(2))),
    (level(R33, {1: 1, 2: 1}, n=1), level(R33, {1: 1, 2: 2}, n=1), (2, None)),
], ids=["etale", "mu_p", "hn"])
def test_equal_tags_and_conductors_leave_the_table(eq1, eq2, read):
    # the leads meet, so the reading comes from where the covers differ;
    # this is why the CLI's closed form refuses such pairs
    td1, td2 = classify(eq1), classify(eq2)
    assert (td1.group_tag, td1.m) == (td2.group_tag, td2.m)
    res = propagate(PPInput(td1, td2, R33))
    assert oracle_conductor(eq1, eq2) == read != (res.m1p, res.g1p)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=-8, max_value=-1),
       st.integers(min_value=-8, max_value=-1),
       st.lists(st.tuples(st.integers(min_value=-7, max_value=-1),
                          st.integers(min_value=1, max_value=2)),
                max_size=4),
       st.lists(st.tuples(st.integers(min_value=-7, max_value=-1),
                          st.integers(min_value=1, max_value=2)),
                max_size=4))
def test_etale_pairs_match_table_hypothesis(m1, m2, tail1, tail2):
    # leads stay 1 so every normalization root exists over F_p; equal
    # folded conductors are skipped (the two candidate upper exponents
    # collide there and the table assumes they do not)
    terms1 = {m1: 1}
    for exp, c in tail1:
        if exp > m1:
            terms1.setdefault(exp, c)
    terms2 = {m2: 1}
    for exp, c in tail2:
        if exp > m2:
            terms2.setdefault(exp, c)
    a = etale(R33, terms1, hi=30)
    b = etale(R33, terms2, hi=30)
    try:
        td1, td2 = classify(a), classify(b)
    except ValueError as err:
        # p-divisible leads fold; a tail term can cancel the whole class
        assert "trivial" in str(err)
        return
    if td1.m == td2.m:
        return
    res = propagate(PPInput(td1, td2, R33))
    got = oracle_conductor(a, b)
    assert got == (res.m1p, res.g1p)
    assert got[1] == ETALE
