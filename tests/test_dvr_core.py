import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germrh.dvr_core import (
    ABOVE_PRECISION,
    Fq,
    make_ring,
    unit_root,
    val,
)

R32 = make_ring(3, 2, 1, 6)
R31 = make_ring(3, 1, 1, 4)
R52 = make_ring(5, 2, 1, 6)
R33 = make_ring(3, 3, 1, 8)
RS2 = make_ring(3, 2, 2, 4)

RINGS = [R32, R31, R52, R33, RS2]


def random_elem(ring, rng, unit=False):
    coeffs = [tuple(rng.randrange(ring.pM) for _ in range(ring.s))
              for _ in range(ring.e)]
    if unit:
        lead = list(coeffs[0])
        if lead[0] % ring.p == 0:
            lead[0] += 1
        coeffs[0] = tuple(lead)
    from germrh.dvr_core import RElem
    return RElem(ring, tuple(coeffs), ring.e * ring.M)


class TestMakeRing:
    def test_eisenstein_p3_r2(self):
        assert R32.e == 4
        assert R32.v_lambda == 2
        assert R32.eisenstein == (3, 0, 3, 0, 1)

    def test_small_rings(self):
        assert R31.e == 2
        assert R31.v_lambda == 1
        assert R52.e == 8
        assert R52.v_lambda == 2

    def test_eisenstein_shape(self):
        for ring in RINGS:
            eis = ring.eisenstein
            assert len(eis) == ring.e + 1
            assert eis[-1] == 1
            assert eis[0] % ring.p == 0
            assert eis[0] % ring.p**2 != 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_ring(4, 2, 1, 4)
        with pytest.raises(ValueError):
            make_ring(3, 2, 1, 1)
        with pytest.raises(ValueError):
            make_ring(3, 0, 1, 4)


class TestValuation:
    def test_val_p_is_e(self):
        for ring in RINGS:
            assert ring.p_elem.val() == ring.e

    def test_val_one_and_lambda(self):
        for ring in RINGS:
            assert ring.one().val() == 0
            assert ring.lam.val() == ring.r

    def test_pi_times_pi_top(self):
        for ring in RINGS:
            x = ring.pi_power(1) * ring.pi_power(ring.e - 1)
            assert x.val() == ring.e

    def test_lambda_power_p(self):
        for ring in RINGS:
            assert (ring.lam ** ring.p).val() == ring.p * ring.r

    def test_above_precision_marker(self):
        z = R32.zero()
        assert z.val() is None
        assert val(z) is ABOVE_PRECISION
        assert val(R32.one()) == 0

    def test_val_additive_on_products(self):
        rng = random.Random(11)
        for _ in range(200):
            ring = rng.choice(RINGS)
            x = random_elem(ring, rng)
            y = random_elem(ring, rng)
            vx, vy = x.val(), y.val()
            if vx is None or vy is None:
                continue
            prod = x * y
            if vx + vy < prod.prec:
                assert prod.val() == vx + vy

    def test_val_ultrametric(self):
        rng = random.Random(12)
        for _ in range(200):
            ring = rng.choice(RINGS)
            x = random_elem(ring, rng)
            y = random_elem(ring, rng)
            vx, vy = x.val(), y.val()
            if vx is None or vy is None:
                continue
            v = (x + y).val_floor()
            assert v >= min(vx, vy)
            if vx != vy:
                assert v == min(vx, vy)


class TestZeta:
    def test_zeta_p_power_is_one(self):
        for ring in RINGS:
            z = ring.zeta ** ring.p
            assert z.eq_mod(ring.one(), z.prec)

    def test_zeta_not_one(self):
        for ring in RINGS:
            assert not ring.zeta.eq_mod(ring.one(), ring.r + 1)

    def test_cyclotomic_sum_vanishes(self):
        for ring in RINGS:
            total = ring.zero()
            for j in range(ring.p):
                total = total + ring.zeta ** j
            assert total.val() is None or total.val() >= total.prec - ring.e

    def test_pi_e_is_minus_p_unit(self):
        for ring in RINGS:
            lhs = ring.pi_power(ring.e)
            rhs = -(ring.p_elem * ring.unit_E)
            assert lhs.eq_mod(rhs, lhs.prec)


class TestArith:
    def test_identity(self):
        x = random_elem(R32, random.Random(3))
        assert (x * R32.one()).eq_mod(x, x.prec)

    def test_operators(self):
        x, y = R32.from_int(7), R32.from_int(5)
        assert (x + y).eq_mod(R32.from_int(12), 4)
        assert (x - y).eq_mod(R32.from_int(2), 4)
        assert (x * y).eq_mod(R32.from_int(35), 4)
        assert (x * y.inverse() * y).eq_mod(x, x.prec)

    def test_ring_mismatch(self):
        with pytest.raises(ValueError, match="ring mismatch"):
            R32.one() + R31.one()

    def test_div_by_nonunit(self):
        with pytest.raises(ValueError, match="non-unit"):
            R32.one() * R32.lam.inverse()

    def test_inverse_roundtrip(self):
        rng = random.Random(4)
        for _ in range(50):
            ring = rng.choice(RINGS)
            u = random_elem(ring, rng, unit=True)
            assert (u * u.inverse()).eq_mod(ring.one(), u.prec)


class TestExactDivPi:
    def test_roundtrip(self):
        rng = random.Random(5)
        for _ in range(100):
            ring = rng.choice(RINGS)
            u = random_elem(ring, rng, unit=True)
            j = rng.randrange(0, 2 * ring.e)
            x = u * ring.pi_power(j)
            q = x.exact_div_pi(j)
            assert q.eq_mod(u, q.prec)

    def test_rejects_insufficient_valuation(self):
        with pytest.raises(ValueError, match="not divisible"):
            R32.one().exact_div_pi(1)

    def test_divide_p_by_pi_e(self):
        for ring in RINGS:
            q = ring.p_elem.exact_div_pi(ring.e)
            assert q.val() == 0
            assert (q * ring.pi_power(ring.e)).eq_mod(ring.p_elem, q.prec)


class TestUnitRoot:
    def test_root_of_one(self):
        for m in (1, 2, 4, 7):
            assert unit_root(R32.one(), m).eq_mod(R32.one(), R32.e * R32.M)

    def test_square_root_exists(self):
        x = R32.from_int(1) + R32.pi_power(1) * R32.from_int(2)
        y = unit_root(x, 2)
        assert (y * y).eq_mod(x, y.prec)
        assert y.residue() == R32.field.from_int(1)

    def test_square_root_missing(self):
        x = R32.from_int(2)
        with pytest.raises(ValueError, match="residue field too small"):
            unit_root(x, 2)

    def test_negative_degree(self):
        x = R32.from_int(1) + R32.pi_power(2)
        y = unit_root(x, -2)
        assert (y ** (-2)).eq_mod(x, y.prec)

    def test_random_roots(self):
        rng = random.Random(6)
        for _ in range(100):
            ring = rng.choice(RINGS)
            u = random_elem(ring, rng, unit=True)
            m = rng.choice([m for m in (1, 2, 4, 5, 7, 8)
                            if m % ring.p != 0])
            try:
                y = unit_root(u, m)
            except ValueError as err:
                assert "residue field too small" in str(err)
                continue
            assert (y ** m).eq_mod(u, y.prec)

    def test_rejects_p_divisible_degree(self):
        with pytest.raises(ValueError, match="coprime"):
            unit_root(R32.one(), 3)


class TestResidueField:
    def test_residue_of_pi_and_zeta(self):
        for ring in RINGS:
            assert ring.pi_power(1).residue() == ring.field.zero
            assert ring.zeta.residue() == ring.field.one
            a = ring.field.from_int(ring.p + 1)
            assert ring.from_residue(a).residue() == a

    def test_residue_homomorphism(self):
        rng = random.Random(7)
        for _ in range(100):
            ring = rng.choice(RINGS)
            F = ring.field
            x = random_elem(ring, rng)
            y = random_elem(ring, rng)
            assert (x + y).residue() == F.add(x.residue(), y.residue())
            assert (x * y).residue() == F.mul(x.residue(), y.residue())

    def test_frobenius_bijective(self):
        for p, s in [(3, 1), (3, 2), (5, 1), (5, 2), (2, 3)]:
            F = Fq(p, s)
            seen = {F.frobenius(a) for a in F.elements()}
            assert len(seen) == F.q
            for a in F.elements():
                assert F.frobenius(F.frobenius_inv(a)) == a

    def test_nth_root_smallest(self):
        F = Fq(3, 2)
        # 1 has several 4th roots; the reported one is least in encoding order
        root = F.nth_root(F.one, 4)
        assert F.pow(root, 4) == F.one
        for n in range(F.to_int(root)):
            assert F.pow(F.from_int(n), 4) != F.one

    def test_nth_root_failure_message(self):
        F = Fq(3, 1)
        with pytest.raises(ValueError, match="residue field too small"):
            F.nth_root(F.from_int(2), 2)

    def test_field_inverse(self):
        for p, s in [(3, 2), (5, 1)]:
            F = Fq(p, s)
            for a in F.elements():
                if a == F.zero:
                    continue
                assert F.mul(a, F.inv(a)) == F.one


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-400, max_value=400),
       st.integers(min_value=-400, max_value=400))
def test_from_int_is_homomorphic(a, b):
    x, y = R32.from_int(a), R32.from_int(b)
    assert (x + y).eq_mod(R32.from_int(a + b), 8)
    assert (x * y).eq_mod(R32.from_int(a * b), 8)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=30))
def test_pi_power_valuation(j):
    x = R32.pi_power(j)
    full = R32.e * R32.M
    if j < full:
        assert x.val() == j
    else:
        assert x.val() is None
