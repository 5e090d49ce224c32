"""Laurent-series layer: windows, packed multiplication, binomial powers,
Artin-Schreier reduction and p-th-power stripping."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germrh.dvr_core import make_ring, val
from germrh.laurent import (
    INF_EXP,
    KLaurent,
    RLaurent,
    ZERO_CLASS,
    as_reduce_witness,
    binom_power,
    invert_unit,
    is_pth_power,
    kbinom_power,
    ksubstitute,
    reduce_kummer_unit,
    series_root,
    substitute,
)

R32 = make_ring(3, 2, 1, 6)
R33 = make_ring(3, 3, 1, 8)
R52 = make_ring(5, 2, 1, 6)
RS2 = make_ring(3, 2, 2, 4)


def random_series(ring, rng, lo=-4, hi=6, density=0.6):
    terms = {}
    for exp in range(lo, hi + 1):
        if rng.random() < density:
            terms[exp] = ring.from_int(rng.randrange(1, ring.pM))
    if not terms:
        terms[0] = ring.one()
    return RLaurent.from_terms(ring, terms, lo=lo, hi=hi)


def random_kseries(field, rng, lo=-5, hi=6, density=0.6):
    terms = {}
    for exp in range(lo, hi + 1):
        if rng.random() < density:
            terms[exp] = field.from_int(rng.randrange(1, field.q))
    if not terms:
        terms[0] = field.one
    return KLaurent(field, terms, hi)


class TestWindows:
    def test_reject_inverted_window(self):
        with pytest.raises(ValueError, match="widen window"):
            RLaurent(R32, {}, 3, 1, 8)

    def test_coeff_above_hi_is_an_error(self):
        u = RLaurent.from_terms(R32, {0: 1}, lo=0, hi=4)
        with pytest.raises(ValueError, match="widen window"):
            u.coeff(5)

    def test_coeff_below_lo_is_negligible_zero(self):
        u = RLaurent.from_terms(R32, {0: 1}, lo=-2, hi=4)
        assert u.coeff(-4).val() is not None or u.coeff(-4).prec == u.prec

    def test_constructor_drops_negligible(self):
        c = R32.pi_power(5)
        u = RLaurent(R32, {0: c}, 0, 4, 5)
        assert u.is_zero()

    def test_add_takes_min_windows(self):
        a = RLaurent.from_terms(R32, {0: 1}, lo=-3, hi=7)
        b = RLaurent.from_terms(R32, {1: 1}, lo=-1, hi=5)
        c = a + b
        assert (c.lo, c.hi) == (-3, 5)

    def test_mul_window_uses_stored_support(self):
        # a trusted to 7 with lowest stored exponent 2, b trusted to 5
        # with lowest stored 1: product trusted to min(7+1, 5+2) = 7
        a = RLaurent.from_terms(R32, {2: 1, 4: 1}, lo=0, hi=7)
        b = RLaurent.from_terms(R32, {1: 1}, lo=0, hi=5)
        assert (a * b).hi == 7

    def test_shift_keeps_infinite_window_infinite(self):
        u = RLaurent.from_terms(R32, {1: 1})
        assert u.shift(-4).hi == INF_EXP
        assert (u.hi, u.lo) == (INF_EXP, 1)

    def test_insufficient_coefficient_precision_rejected(self):
        c = R32.one().with_prec(3)
        with pytest.raises(ValueError, match="series precision"):
            RLaurent(R32, {0: c}, 0, 2, 8)


class TestMultiplication:
    @pytest.mark.parametrize("ring", [R32, R52, RS2])
    def test_matches_direct_convolution(self, ring):
        rng = random.Random(11)
        for _ in range(8):
            a = random_series(ring, rng)
            b = random_series(ring, rng)
            prod = a * b
            for exp in range(prod.lo, prod.hi + 1):
                direct = ring.zero(prod.prec)
                for i, ca in a.coeffs.items():
                    j = exp - i
                    if j in b.coeffs:
                        direct = direct + ca * b.coeffs[j]
                assert prod.coeff(exp).eq_mod(direct.with_prec(prod.prec),
                                              prod.prec)

    def test_one_is_neutral(self):
        rng = random.Random(5)
        u = random_series(R32, rng)
        assert (u * RLaurent.one(R32)).eq_mod(u)

    def test_lo_is_additive(self):
        a = RLaurent.from_terms(R32, {-2: 1}, lo=-2, hi=3)
        b = RLaurent.from_terms(R32, {-1: 1}, lo=-1, hi=3)
        assert (a * b).lo == -3

    def test_pow_matches_repeated_mul(self):
        rng = random.Random(7)
        u = random_series(R32, rng, lo=0, hi=4)
        assert (u ** 3).eq_mod(u * u * u)


class TestInversion:
    def test_geometric_series_identity(self):
        # (1+T) * (1 - T + T^2 - ...) = 1 up to the window
        u = RLaurent.from_terms(R32, {0: 1, 1: 1}, lo=0, hi=10)
        inv = invert_unit(u)
        prod = u * inv
        assert prod.eq_mod(RLaurent.one(R32, prec=prod.prec).restrict(
            lo=prod.lo, hi=prod.hi))

    def test_pi_tail_inverse_needs_no_bound(self):
        # 1 + pi*T is invertible even on an infinite window: the tail gains
        # valuation, not just exponent
        u = RLaurent.from_terms(R32, {0: 1, 1: R32.pi_power(1)})
        inv = invert_unit(u)
        assert (u * inv).eq_mod(RLaurent.one(R32))
        assert [val(inv.coeff(k)) for k in range(4)] == [0, 1, 2, 3]

    def test_non_unit_rejected(self):
        u = RLaurent.from_terms(R32, {0: R32.pi_power(1)}, lo=0, hi=4)
        with pytest.raises(ValueError, match="non-unit"):
            invert_unit(u)

    def test_unit_with_negative_lead(self):
        u = RLaurent.from_terms(R32, {-2: 1, 0: 1}, lo=-2, hi=6)
        assert (u * invert_unit(u)).eq_mod(RLaurent.one(R32).restrict(hi=4))



class TestBinomPower:
    def test_integer_exponent_matches_pow(self):
        u = RLaurent.from_terms(R32, {0: 1, 1: 2, 2: 1}, lo=0, hi=8)
        assert binom_power(u, 3).eq_mod((u ** 3).restrict(hi=8))

    def test_negative_one_is_the_inverse(self):
        u = RLaurent.from_terms(R32, {0: 1, 1: 1}, lo=0, hi=9)
        w = binom_power(u, -1)
        assert (u * w).eq_mod(RLaurent.one(R32, prec=w.prec).restrict(
            lo=0, hi=9))

    def test_half_squares_back(self):
        u = RLaurent.from_terms(R32, {0: 1, 1: 1}, lo=0, hi=8)
        s = binom_power(u, Fraction(1, 2))
        sq = s * s
        assert sq.eq_mod(u.restrict(hi=sq.hi))

    def test_p_in_denominator_rejected(self):
        u = RLaurent.from_terms(R32, {0: 1, 1: 1}, lo=0, hi=8)
        with pytest.raises(ValueError, match="denominator divisible by p"):
            binom_power(u, Fraction(1, 3))

    def test_exact_series_needs_bound(self):
        u = RLaurent.from_terms(R32, {0: 1, 1: 1})
        with pytest.raises(ValueError, match="truncation bound"):
            binom_power(u, -1)

    def test_constant_offset_rejected(self):
        u = RLaurent.from_terms(R32, {0: 2, 1: 1}, lo=0, hi=8)
        with pytest.raises(ValueError, match="binomial base"):
            binom_power(u, -1)

    def test_exponent_zero(self):
        u = RLaurent.from_terms(R32, {0: 1, 2: 1}, lo=0, hi=6)
        assert binom_power(u, 0).eq_mod(RLaurent.one(R32).restrict(hi=6))


class TestKBinomPower:
    def test_geometric_inverse(self):
        # (1 - z^2)^(-1) = 1 + z^2 + z^4 + ...
        F = R33.field
        base = KLaurent.from_terms(F, {0: 1, 2: -1}, hi=11)
        s = kbinom_power(base, -1)
        assert s.coeffs == {e: F.one for e in range(0, 12, 2)}

    def test_half_squares_back(self):
        F = R52.field
        base = KLaurent.from_terms(F, {0: 1, 1: 1, 3: 2}, hi=9)
        s = kbinom_power(base, Fraction(1, 2))
        assert ((s * s) - base).restrict_hi(9).is_zero()

    def test_integer_exponent_matches_pow(self):
        F = R33.field
        base = KLaurent.from_terms(F, {0: 1, 1: 2, 2: 1}, hi=7)
        assert (kbinom_power(base, 4) - (base ** 4).restrict_hi(7)).is_zero()

    def test_inverse_root_composes(self):
        # ((1+B)^(1/m))^(-m) * (1+B) = 1
        F = R33.field
        base = KLaurent.from_terms(F, {0: 1, 2: 1, 5: 2}, hi=12)
        s = kbinom_power(base, Fraction(1, -4))
        prod = (s ** 4) * base
        assert (prod - KLaurent.one(F)).restrict_hi(12).is_zero()

    def test_p_in_denominator_rejected(self):
        F = R33.field
        base = KLaurent.from_terms(F, {0: 1, 1: 1}, hi=8)
        with pytest.raises(ValueError, match="denominator divisible by p"):
            kbinom_power(base, Fraction(2, 3))

    def test_exact_base_rejected(self):
        F = R33.field
        base = KLaurent.from_terms(F, {0: 1, 1: 1})
        with pytest.raises(ValueError, match="truncation bound"):
            kbinom_power(base, -1)

    def test_nonpositive_offset_rejected(self):
        F = R33.field
        base = KLaurent.from_terms(F, {-1: 1, 0: 1, 1: 1}, hi=8)
        with pytest.raises(ValueError, match="positive-exponent"):
            kbinom_power(base, -1)


class TestSeriesRoot:
    def test_frozen_square_root_of_one_plus_t(self):
        # (1+T)^(1/2) over Z_3: residues of the first coefficients follow
        # C(1/2, j) mod 3 = 1, 2, 1, ...
        u = RLaurent.from_terms(R32, {0: 1, 1: 1}, lo=0, hi=8)
        s = series_root(u, 2)
        assert (s * s).eq_mod(u.restrict(hi=(s * s).hi))
        assert s.coeff(0).residue() == R32.field.from_int(1)
        assert s.coeff(1).residue() == R32.field.from_int(2)

    def test_monomial_shift(self):
        u = RLaurent.from_terms(R32, {4: 1, 5: 1}, lo=4, hi=10)
        s = series_root(u, 2)
        assert s.min_support() == 2
        assert (s * s).eq_mod(u.restrict(hi=(s * s).hi))

    def test_lead_exponent_divisibility(self):
        u = RLaurent.from_terms(R32, {3: 1}, lo=3, hi=8)
        with pytest.raises(ValueError, match="not divisible by the root"):
            series_root(u, 2)

    def test_degree_coprime_to_p(self):
        u = RLaurent.from_terms(R32, {0: 1}, lo=0, hi=8)
        with pytest.raises(ValueError, match="coprime"):
            series_root(u, 3)

    @pytest.mark.parametrize("ring,m", [(R32, 2), (R32, 4), (R52, 3)])
    def test_random_roots_square_back(self, ring, m):
        rng = random.Random(m * 17)
        for _ in range(4):
            u = random_series(ring, rng, lo=0, hi=6)
            u = u + RLaurent.one(ring)  # keep the lead a unit at exponent 0
            if u.coeff(0).val() != 0:
                continue
            s = series_root(u, m)
            sm = s ** m
            assert sm.eq_mod(u.restrict(hi=sm.hi, prec=sm.prec))


class TestSubstitute:
    def test_monomial_plug_in(self):
        u = RLaurent.from_terms(R32, {1: 1, 3: 1}, lo=1)
        phi = RLaurent.monomial(R32, 3)
        assert substitute(u, phi).support() == [3, 9]

    def test_negative_exponents_use_the_inverse(self):
        u = RLaurent.from_terms(R32, {-1: 1}, lo=-1)
        phi = RLaurent.from_terms(R32, {1: 1, 2: 1}, lo=1, hi=9)
        out = substitute(u, phi)
        # T^{-1} at phi: out * phi = 1 on the common window
        prod = out * phi
        assert prod.eq_mod(RLaurent.one(R32, prec=prod.prec).restrict(
            lo=prod.lo, hi=prod.hi))

    def test_additive_in_u(self):
        rng = random.Random(23)
        a = random_series(R32, rng, lo=-2, hi=3)
        b = random_series(R32, rng, lo=-2, hi=3)
        phi = RLaurent.from_terms(R32, {1: 1, 2: R32.pi_power(1)},
                                  lo=1, hi=12)
        lhs = substitute(a + b, phi)
        rhs = substitute(a, phi) + substitute(b, phi)
        assert lhs.eq_mod(rhs.restrict(lo=lhs.lo, hi=lhs.hi, prec=lhs.prec))

    def test_residue_compatibility(self):
        u = RLaurent.from_terms(R32, {-2: 1, 1: 2}, lo=-2, hi=6)
        phi = RLaurent.from_terms(R32, {1: 1, 3: 1}, lo=1, hi=12)
        down = substitute(u, phi).residue()
        across = ksubstitute(u.residue(), phi.residue(), hi=down.hi)
        diff = (down - across).restrict_hi(down.hi)
        assert diff.is_zero()


class TestKLaurent:
    def test_mul_matches_schoolbook(self):
        F = R32.field
        rng = random.Random(3)
        for _ in range(10):
            a = random_kseries(F, rng)
            b = random_kseries(F, rng)
            ab = a * b
            direct = {}
            for i, x in a.coeffs.items():
                for j, y in b.coeffs.items():
                    k = i + j
                    direct[k] = F.add(direct.get(k, F.zero), F.mul(x, y))
            direct = {k: v for k, v in direct.items()
                      if any(v) and k <= ab.hi}
            assert ab.coeffs == direct

    def test_inverse_on_window(self):
        F = R32.field
        u = KLaurent.from_terms(F, {-1: 2, 0: 1, 2: 1}, hi=7)
        inv = u.inverse()
        prod = (u * inv).restrict_hi(inv.hi - 1)
        assert prod.coeffs == {0: F.one}

    def test_exact_inverse_needs_bound(self):
        F = R32.field
        u = KLaurent.from_terms(F, {0: 1, 1: 1})
        with pytest.raises(ValueError, match="truncation bound"):
            u.inverse()
        inv = u.inverse(hi=6)
        assert (u * inv).restrict_hi(6).coeffs == {0: F.one}

    def test_frobenius_pth_root_roundtrip(self):
        F = R33.field
        rng = random.Random(9)
        u = random_kseries(F, rng)
        assert u.frobenius().pth_root().coeffs == u.coeffs
        v = KLaurent.from_terms(F, {1: 1})
        with pytest.raises(ValueError, match="support not divisible"):
            v.pth_root()

    def test_is_pth_power(self):
        F = R32.field
        assert is_pth_power(KLaurent.from_terms(F, {-3: 1, 0: 2, 6: 1}))
        assert not is_pth_power(KLaurent.from_terms(F, {-3: 1, 2: 1}))
        with pytest.raises(ValueError, match="zero series"):
            is_pth_power(KLaurent.zero(F))

    def test_residue_series(self):
        u = RLaurent.from_terms(R32, {0: 1, 1: R32.pi_power(1), 2: 2},
                                lo=0, hi=5)
        r = u.residue()
        assert r.support() == [0, 2]


class TestAsReduce:
    def test_fold_negative_p_divisible(self):
        F = R32.field
        red, m = as_reduce_witness(KLaurent.from_terms(F, {-3: 1}, hi=0))[:2]
        assert m == -1 and red.support() == [-1]

    def test_positive_part_is_a_coboundary(self):
        F = R32.field
        red, m = as_reduce_witness(KLaurent.from_terms(F, {2: 1}, hi=8))[:2]
        assert m is ZERO_CLASS and red.is_zero()

    def test_coprime_negative_part_survives(self):
        F = R32.field
        red, m = as_reduce_witness(KLaurent.from_terms(F, {-2: 1}, hi=0))[:2]
        assert m == -2 and red.support() == [-2]

    def test_constant_needs_trace_zero(self):
        # x^p - x = 1 is insoluble over F_3 and F_9 (trace of 1 is s mod 3)
        for ring in (R32, RS2):
            u = KLaurent.from_terms(ring.field, {0: 1}, hi=4)
            with pytest.raises(ValueError, match="residue field too small"):
                as_reduce_witness(u)

    def test_solvable_constant_over_f9(self):
        F = RS2.field
        g = F.element((0, 1))
        c0 = F.sub(F.pow(g, 3), g)
        red, m, b = as_reduce_witness(KLaurent.from_terms(F, {0: c0}, hi=4))
        assert m is ZERO_CLASS
        assert F.sub(F.pow(b.coeff(0), 3), b.coeff(0)) == c0

    def test_window_guard(self):
        F = R32.field
        with pytest.raises(ValueError, match="widen window"):
            as_reduce_witness(KLaurent.from_terms(F, {-3: 1}, hi=-2))

    def test_witness_identity_randomized(self):
        rng = random.Random(31)
        for ring in (R32, R52, RS2):
            F = ring.field
            for _ in range(6):
                u = random_kseries(F, rng, lo=-9, hi=7)
                # keep the constant term soluble
                if 0 in u.coeffs:
                    u = u + KLaurent.from_terms(F, {0: F.neg(u.coeffs[0])},
                                                hi=u.hi)
                red, m, b = as_reduce_witness(u)
                coby = b.frobenius() - b
                diff = u - red - coby
                assert diff.restrict_hi(min(u.hi, diff.hi)).is_zero()
                if m is not ZERO_CLASS:
                    assert m < 0 and m % F.p != 0
                    assert all(e < 0 and e % F.p for e in red.coeffs)

    def test_idempotent(self):
        F = R32.field
        u = KLaurent.from_terms(F, {-9: 2, -4: 1, 2: 1}, hi=8)
        red, m = as_reduce_witness(u)[:2]
        red2, m2 = as_reduce_witness(red)[:2]
        assert m2 == m and red2.coeffs == red.coeffs


class TestStripPthPowers:
    def test_coprime_lead_passes_through(self):
        u = RLaurent.from_terms(R32, {1: 1, 2: 1}, lo=1, hi=8)
        out, w, state = reduce_kummer_unit(u)
        assert state == {"kind": "a1", "l": 1}
        assert out.eq_mod(u) and w.eq_mod(RLaurent.one(R32))

    def test_monomial_power_stripped(self):
        v = RLaurent.from_terms(R32, {0: 1, 1: 1}, lo=0, hi=8)
        u = v.shift(3)
        out, w, state = reduce_kummer_unit(u)
        assert state == {"kind": "a2", "m": 1}
        assert out.min_support() == 0
        chk = u * (w ** 3)
        assert chk.eq_mod(out.restrict(hi=chk.hi, prec=chk.prec))

    def test_negative_monomial_power_stripped(self):
        v = RLaurent.from_terms(R32, {0: 1, 4: 1}, lo=0, hi=8)
        u = v.shift(-6)
        out, w, _ = reduce_kummer_unit(u)
        assert out.min_support() == 0
        chk = u * (w ** 3)
        assert chk.eq_mod(out.restrict(hi=chk.hi, prec=chk.prec))

    def test_residue_pth_power_reaches_level(self):
        # residue (1+Z^2)^3 strips to 1; the next stratum sits at v(3) = 6
        # when r = 3, i.e. level n = 2, with conductor exponent 2
        u = RLaurent.from_terms(R33, {0: 1, 6: 1}, lo=0, hi=40)
        out, w, state = reduce_kummer_unit(u)
        assert state == {"kind": "level", "tau": 6, "m": 2}
        chk = u * (w ** 3)
        assert chk.eq_mod(out.restrict(hi=chk.hi, prec=chk.prec))

    def test_level_read_direct(self):
        u = RLaurent.from_terms(R32, {0: 1, 1: R32.pi_power(3)}, lo=0, hi=20)
        out, w, state = reduce_kummer_unit(u)
        assert state == {"kind": "level", "tau": 3, "m": 1}

    def test_etale_stratum(self):
        u = RLaurent.from_terms(R32, {0: 1, -1: R32.pi_power(6)},
                                lo=-1, hi=20)
        out, w, state = reduce_kummer_unit(u)
        assert state["kind"] == "etale" and state["tau"] >= 6

    def test_trivial_torsor(self):
        v = RLaurent.from_terms(R32, {0: 1, 1: 1}, lo=0, hi=12)
        u = v ** 3
        with pytest.raises(ValueError, match="trivial"):
            reduce_kummer_unit(u)

    def test_stratum_off_the_p_grid_is_still_read(self):
        # tau = 1 is no group-scheme level, but the stratum carries a
        # coprime exponent and the engine reports what it sees; rejecting
        # off-grid strata is the classifier's business, not the engine's
        u = RLaurent.from_terms(R32, {0: 1, 1: R32.pi_power(1)}, lo=0, hi=12)
        out, w, state = reduce_kummer_unit(u)
        assert state == {"kind": "level", "tau": 1, "m": 1}
        chk = u * (w ** 3)
        assert chk.eq_mod(out.restrict(hi=chk.hi, prec=chk.prec))

    def test_absorption_walks_up(self):
        # stratum at pi^3 is a p-th power shape; absorbing it moves the
        # datum up; at r=2 the next stop is the residue -3 pi T at
        # v(3 pi) = 5, off the p-grid but readable
        u = RLaurent.from_terms(R32, {0: 1, 3: R32.pi_power(3)}, lo=0, hi=30)
        out, w, state = reduce_kummer_unit(u)
        assert state == {"kind": "level", "tau": 5, "m": 1}
        chk = u * (w ** 3)
        assert chk.eq_mod(out.restrict(hi=chk.hi, prec=chk.prec))

    def test_off_grid_stratum_without_coprime_exponent(self):
        # tau = 1 cannot absorb (not p-divisible) and the body has only
        # the p-divisible exponent 3: genuinely no reading
        u = RLaurent.from_terms(R32, {0: 1, 3: R32.pi_power(1)}, lo=0, hi=30)
        with pytest.raises(ValueError, match="no stable reading"):
            reduce_kummer_unit(u)

    def test_absorption_then_level_read(self):
        # the stratum pi^3 T^3 absorbs into (1+pi T)^3; the pi^6 T term then
        # carries the lowest stratum, v = 6 = 3*2, read as level 2 with m = 1
        # (the absorption residue -3 pi T sits higher, at v(3 pi) = 7)
        u = RLaurent.from_terms(
            R33, {0: 1, 3: R33.pi_power(3), 1: R33.pi_power(6)},
            lo=0, hi=40)
        out, w, state = reduce_kummer_unit(u)
        assert state == {"kind": "level", "tau": 6, "m": 1}
        chk = u * (w ** 3)
        assert chk.eq_mod(out.restrict(hi=chk.hi, prec=chk.prec))

    def test_absorption_residue_read_at_coprime_valuation(self):
        # with nothing below it, the absorption residue at v(3 pi) = 7
        # (coprime to p, under pr = 9) is itself the stratum that stops
        # the walk
        u = RLaurent.from_terms(R33, {0: 1, 3: R33.pi_power(3)}, lo=0, hi=40)
        out, w, state = reduce_kummer_unit(u)
        assert state == {"kind": "level", "tau": 7, "m": 1}
        chk = u * (w ** 3)
        assert chk.eq_mod(out.restrict(hi=chk.hi, prec=chk.prec))

    def test_witness_randomized(self):
        rng = random.Random(41)
        hits = 0
        for _ in range(12):
            u = random_series(R32, rng, lo=0, hi=7)
            u = u + RLaurent.one(R32)
            if u.coeff(0).val() != 0:
                continue
            try:
                out, w, state = reduce_kummer_unit(u)
            except ValueError:
                continue
            hits += 1
            chk = u * (w ** 3)
            assert chk.eq_mod(out.restrict(hi=chk.hi, prec=chk.prec))
        assert hits >= 4


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-6, max_value=6),
       st.integers(min_value=-6, max_value=6),
       st.integers(min_value=1, max_value=80))
def test_monomial_products_hypothesis(i, j, c):
    a = RLaurent.monomial(R32, i, c)
    b = RLaurent.monomial(R32, j, c)
    prod = a * b
    assert prod.coeff(i + j).eq_mod(R32.from_int(c * c), prod.prec)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=-6, max_value=8),
                          st.integers(min_value=1, max_value=242)),
                min_size=1, max_size=6))
def test_invert_unit_roundtrip_hypothesis(entries):
    terms = {0: 1}
    for exp, c in entries:
        terms.setdefault(exp, c)
    u = RLaurent.from_terms(R32, terms, lo=min(terms), hi=10)
    if u.coeff(0).val() != 0:
        u = u + RLaurent.one(R32).restrict(hi=10)
    if all(c.val() != 0 for c in u.coeffs.values()):
        return
    inv = invert_unit(u)
    prod = u * inv
    if prod.hi < 0:
        # high-valuation deep-negative terms can shrink the trusted window
        # below exponent 0; there the exact product 1 reads as negligible
        assert prod.is_zero()
    else:
        assert prod.eq_mod(RLaurent.one(R32, prec=prod.prec).restrict(
            lo=min(prod.lo, 0), hi=prod.hi))
