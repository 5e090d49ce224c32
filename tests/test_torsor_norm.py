"""Cover classification: group tags, conductors, exact normal forms and
the parameter-change bookkeeping.

Series are built at the default working precision r(p+1)+2 rather than
at full p-capacity: normalization roots mix valuation levels, and at
capacity precision the honest trust window of the root collapses (every
level of junk stays relevant), which is exactly the regime the policy
precision avoids.
"""

import random

import pytest

from germrh.dvr_core import make_ring
from germrh.laurent import (
    KLaurent,
    RLaurent,
    as_reduce_witness,
    ksubstitute,
    substitute,
)
from germrh.torsor_norm import (
    ETALE,
    MU_P,
    GroupTag,
    TorsorData,
    TorsorEquation,
    classify,
    hn,
)

R32 = make_ring(3, 2, 1, 6)
R33 = make_ring(3, 3, 1, 8)
R52 = make_ring(5, 2, 1, 6)
RS2 = make_ring(3, 2, 2, 6)

W = 18


def npol(ring) -> int:
    r = ring.e // (ring.p - 1)
    return r * (ring.p + 1) + 2


def series(ring, terms, hi=W):
    return RLaurent.from_terms(ring, terms, lo=min(terms), hi=hi,
                               prec=npol(ring))


def kummer(ring, terms, hi=W):
    return TorsorEquation("Kummer", series(ring, terms, hi))


def invariants(td: TorsorData):
    return td.group_tag, td.m, td.c, td.delta


def _at_prec(u: RLaurent, q: int) -> RLaurent:
    return RLaurent(u.ring, dict(u.coeffs), u.lo, u.hi, q)


def _residual(eq: TorsorEquation, td: TorsorData) -> RLaurent:
    """u * w^p - normal(T*s), zero on the common trust window."""
    ring = eq.ring
    s, w = td.parameter_change, td.witness
    assert s is not None and w is not None
    phi = RLaurent.monomial(ring, 1, prec=s.prec) * s
    norm = td.normalized_equation
    if norm.kind == "Hn":
        rhs = RLaurent.one(ring, prec=norm.u.prec) + substitute(
            norm.u, phi).scale(ring.pi_power(norm.n * ring.p))
    else:
        rhs = substitute(norm.u, phi)
    if eq.kind == "Hn":
        lhs_u = RLaurent.one(ring, prec=eq.u.prec) + eq.u.scale(
            ring.pi_power(eq.n * ring.p))
    else:
        lhs_u = eq.u
    return lhs_u * (w ** ring.p) - rhs


def check_normal_form(eq: TorsorEquation, td: TorsorData):
    """Graded witness check.

    Mixed-valuation corrections make the trust window of the recomposed
    side genuinely narrow at full precision, so agreement is asserted
    grade by grade: full precision on whatever window survives, then
    coarser rebuilds until the window clears the normal form's support.
    """
    ref = invariants(td)
    bar = max(td.normalized_equation.u.support()) + 1
    for q in range(eq.u.prec, 1, -1):
        eqq = TorsorEquation(eq.kind, _at_prec(eq.u, q), n=eq.n)
        try:
            tdq = classify(eqq)
        except ValueError:
            break
        assert invariants(tdq) == ref
        d = _residual(eqq, tdq)
        assert d.is_zero(), f"normal form mismatch mod pi^{q}"
        if d.hi >= bar:
            return
    raise AssertionError("no grade kept a window past the normal form")


class TestClassifyKummer:
    def test_monomial_parameter(self):
        td = classify(kummer(R32, {1: 1}))
        assert invariants(td) == (MU_P, 0, 0, 4)
        assert td.normalized_equation.u.support() == [1]

    def test_one_plus_t_squared(self):
        td = classify(kummer(R32, {0: 1, 2: 1}))
        assert invariants(td) == (MU_P, 2, -2, 4)

    def test_unit_times_monomial(self):
        eq = kummer(R32, {1: 1, 2: R32.pi_power(1)})
        td = classify(eq)
        assert invariants(td) == (MU_P, 0, 0, 4)
        check_normal_form(eq, td)

    def test_generic_a2_with_junk(self):
        eq = kummer(R32, {0: 1, 3: 1, 4: 1, 5: 1})
        td = classify(eq)
        assert invariants(td) == (MU_P, 4, -4, 4)
        check_normal_form(eq, td)

    def test_lead_root_needs_bigger_field(self):
        # 2 has no 4th root in F_3; it does in F_9
        eq = kummer(R32, {0: 1, 4: 2})
        with pytest.raises(ValueError, match="residue field too small"):
            classify(eq)
        eq9 = kummer(RS2, {0: 1, 4: 2})
        td = classify(eq9)
        assert invariants(td) == (MU_P, 4, -4, 4)
        check_normal_form(eq9, td)

    def test_negative_monomial_exponent(self):
        td = classify(kummer(R32, {-4: 1, -3: 1}))
        assert td.group_tag is MU_P and td.m == 0
        # h = -4 mod 3 = 2
        assert td.normalized_equation.u.support() == [2]

    def test_reroute_to_level(self):
        eq = kummer(R32, {0: 1, 1: R32.pi_power(3)})
        td = classify(eq)
        assert invariants(td) == (hn(1), 1, -1, 2)
        check_normal_form(eq, td)

    def test_reroute_to_etale(self):
        eq = kummer(R32, {0: 1, -1: R32.pi_power(6)})
        td = classify(eq)
        assert invariants(td) == (ETALE, -1, 1, 0)

    def test_stratum_off_the_p_grid_has_no_presentation(self):
        # the reduction engine reads tau = 1 happily; it is the
        # classifier that has no integral level to present it at
        eq = kummer(R32, {0: 1, 1: R32.pi_power(1)})
        with pytest.raises(ValueError, match="integral level"):
            classify(eq)

    def test_trivial_is_an_error(self):
        v = series(R32, {0: 1, 1: 1}, hi=12)
        with pytest.raises(ValueError, match="trivial"):
            classify(TorsorEquation("Kummer", v ** 3))

    def test_non_unit_rejected(self):
        eq = kummer(R32, {1: R32.pi_power(1)})
        with pytest.raises(ValueError, match="unit required"):
            classify(eq)


class TestClassifyHn:
    def test_declared_level(self):
        eq = TorsorEquation("Hn", series(R32, {5: 1}), n=1)
        td = classify(eq)
        assert invariants(td) == (hn(1), 5, -5, 2)

    def test_level_window(self):
        u = series(R32, {1: 1})
        with pytest.raises(ValueError, match="0 < n"):
            TorsorEquation("Hn", u, n=2)
        with pytest.raises(ValueError, match="0 < n"):
            TorsorEquation("Hn", u, n=0)

    def test_overstated_level(self):
        eq = TorsorEquation("Hn", series(R32, {3: 1}), n=1)
        with pytest.raises(ValueError, match="level n overstated"):
            classify(eq)

    def test_normal_form_roundtrip(self):
        eq = TorsorEquation("Hn", series(R33, {2: 1, 3: 1, 4: 1}), n=2)
        td = classify(eq)
        assert invariants(td) == (hn(2), 2, -2, 6 - 2 * 2)
        check_normal_form(eq, td)

    def test_negative_conductor_variable(self):
        eq = TorsorEquation("Hn", series(R32, {-2: 1, 0: 2}), n=1)
        td = classify(eq)
        assert td.m == -2 and td.c == 2
        check_normal_form(eq, td)


class TestClassifyEtale:
    def test_spec_monomial(self):
        eq = TorsorEquation("Etale", series(R32, {-2: 1}, hi=2))
        td = classify(eq)
        assert invariants(td) == (ETALE, -2, 2, 0)

    def test_p_divisible_support_folds(self):
        eq = TorsorEquation("Etale", series(R32, {-3: 1}, hi=2))
        td = classify(eq)
        assert invariants(td) == (ETALE, -1, 1, 0)

    def test_coboundary_is_trivial(self):
        eq = TorsorEquation("Etale", series(R32, {2: 1}, hi=8))
        with pytest.raises(ValueError, match="trivial"):
            classify(eq)

    def test_residue_normalization_is_exact(self):
        u = series(R32, {-5: 1, -4: 2, -2: 1, -1: 1}, hi=6)
        eq = TorsorEquation("Etale", u)
        td = classify(eq)
        assert td.m == -5
        red, m, _ = as_reduce_witness(u.residue())
        sbar = td.parameter_change.residue()
        F = R32.field
        phi = KLaurent.monomial(F, 1) * sbar
        out = ksubstitute(red, phi, hi=sbar.hi)
        expect = KLaurent.monomial(F, td.m)
        assert (out - expect).restrict_hi(out.hi).is_zero()


class TestSimplify:
    def test_fixed_points(self):
        for eq in (kummer(R32, {0: 1, 2: 1}),
                   TorsorEquation("Etale", series(R32, {-2: 1}, hi=2)),
                   TorsorEquation("Hn", series(R32, {5: 1}), n=1)):
            norm = classify(eq).normalized_equation
            td1, td2 = classify(eq), classify(norm)
            assert invariants(td1) == invariants(td2)
            norm2 = classify(norm).normalized_equation
            assert norm2.kind == norm.kind
            assert norm2.u.support() == norm.u.support()

    def test_monomial_times_unit(self):
        eq = kummer(R32, {1: 1, 2: R32.pi_power(1)})
        norm = classify(eq).normalized_equation
        assert norm.kind == "Kummer" and norm.u.support() == [1]


class TestParameterChangeInvariance:
    @pytest.mark.parametrize("ring", [R32, R52])
    def test_kummer_invariants_stable(self, ring):
        rng = random.Random(ring.p)
        eq = kummer(ring, {0: 1, ring.p + 1: 1}, hi=24)
        ref = invariants(classify(eq))
        for _ in range(4):
            s_terms = {0: 1}
            for e in range(1, 4):
                if rng.random() < 0.7:
                    s_terms[e] = rng.randrange(1, ring.p)
            s = RLaurent.from_terms(ring, s_terms, lo=0, hi=24,
                                    prec=npol(ring))
            phi = RLaurent.monomial(ring, 1, prec=npol(ring)) * s
            moved = substitute(eq.u, phi)
            td = classify(TorsorEquation("Kummer", moved))
            assert invariants(td) == ref

    def test_pth_power_factor_invisible(self):
        eq = kummer(R32, {0: 1, 2: 1}, hi=24)
        ref = invariants(classify(eq))
        v = RLaurent.from_terms(R32, {0: 1, 1: 2, 3: 1}, lo=0, hi=24,
                                prec=npol(R32))
        td = classify(TorsorEquation("Kummer", eq.u * v ** 3))
        assert invariants(td) == ref


class TestDifferentDegree:
    def test_group_switch(self):
        mu = classify(kummer(R32, {0: 1, 2: 1}))
        assert mu.delta == 4
        lv = classify(TorsorEquation("Hn", series(R32, {5: 1}), n=1))
        assert lv.delta == 2
        et = classify(TorsorEquation("Etale", series(R32, {-2: 1}, hi=2)))
        assert et.delta == 0

    def test_p5_values(self):
        mu = classify(kummer(R52, {0: 1, 2: 1}))
        assert mu.delta == 8
        lv = classify(TorsorEquation("Hn", series(R52, {1: 1}), n=1))
        assert lv.delta == 8 - 4


class TestGroupTag:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown group tag"):
            GroupTag("GL2")
        with pytest.raises(ValueError, match="level n"):
            GroupTag("MuP", n=1)
        with pytest.raises(ValueError, match="level n"):
            GroupTag("Hn")

    def test_str(self):
        assert str(hn(2)) == "H_2"
        assert str(MU_P) == "mu_p"
        assert str(ETALE) == "etale"

    def test_equation_kind_validation(self):
        u = series(R32, {0: 1}, hi=4)
        with pytest.raises(ValueError, match="unknown equation kind"):
            TorsorEquation("ArtinSchreier", u)
        with pytest.raises(ValueError, match="only applies"):
            TorsorEquation("Kummer", u, n=1)
