"""Exact finite-precision arithmetic in a ramified p-adic valuation ring.

The ring is R = W[pi] where W is the unramified extension of Z_p with
residue field F_{p^s} (truncated at p^M) and pi satisfies the Eisenstein
relation E(pi) = 0 for

    E(x) = ((1 + x^r)^p - 1) / x^r = sum_{k=1}^{p} C(p,k) x^{r(k-1)}.

Consequences used everywhere downstream:

  * e := v(p) = r(p-1) and v(pi) = 1;
  * zeta_p := 1 + pi^r satisfies zeta_p^p = 1, so R contains a primitive
    p-th root of unity and lambda := zeta_p - 1 equals pi^r exactly;
  * pi^e = -p * unit_E with unit_E = 1 + sum_{k=2}^{p-1} (C(p,k)/p) pi^{r(k-1)}.

Elements are vectors of length e over the Galois ring GR(p^M, s)
(the coefficients of 1, pi, ..., pi^{e-1}), together with the pi-adic
precision to which the element is actually known.  Valuations are only
reported when certified strictly below that precision; everything else
is "indistinguishable from zero".  All values are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache


class _AbovePrecision:
    """Marker: no valuation certified below the known precision."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "above_precision"


ABOVE_PRECISION = _AbovePrecision()


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# residue field F_{p^s}
# ---------------------------------------------------------------------------

def _poly_mul_mod_p(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_mod(a, mod, p):
    # mod is monic
    a = list(a)
    d = len(mod) - 1
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i] % p
        if c:
            for j in range(d + 1):
                a[i - d + j] = (a[i - d + j] - c * mod[j]) % p
        a[i] = 0
    return [c % p for c in a[:d]]


def _monic_polys(p, deg):
    for n in range(p ** deg):
        coeffs = []
        m = n
        for _ in range(deg):
            coeffs.append(m % p)
            m //= p
        yield coeffs + [1]


def _is_irreducible(poly, p):
    deg = len(poly) - 1
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for g in _monic_polys(p, d):
            # trial division: remainder of poly by g
            r = _poly_mod(poly, g, p)
            if all(c == 0 for c in r):
                return False
    return True


def _find_modulus(p, s):
    """First monic irreducible of degree s in integer-encoding order.

    The encoding orders candidates x^s + c_{s-1}x^{s-1} + ... + c_0 by the
    base-p integer with digits (c_0, c_1, ...); the choice is therefore
    deterministic across runs and platforms.
    """
    for poly in _monic_polys(p, s):
        if _is_irreducible(poly, p):
            return tuple(poly)
    raise AssertionError("no irreducible polynomial found")


class Fq:
    """Arithmetic in F_{p^s}; elements are tuples of s ints in [0, p)."""

    def __init__(self, p: int, s: int):
        self.p = p
        self.s = s
        self.q = p ** s
        self.modulus = _find_modulus(p, s)
        # reduction rows: x^{s+j} as a vector, j = 0..s-2
        rows = []
        row = [(-c) % p for c in self.modulus[:s]]
        rows.append(tuple(row))
        for _ in range(s - 2):
            top = row[-1]
            row = [0] + row[:-1]
            if top:
                row = [(row[i] + top * rows[0][i]) % p for i in range(s)]
            rows.append(tuple(row))
        self._fold = rows
        self.zero = (0,) * s
        self.one = tuple([1] + [0] * (s - 1))

    def element(self, digits) -> tuple:
        digits = list(digits)[: self.s]
        digits += [0] * (self.s - len(digits))
        return tuple(d % self.p for d in digits)

    def from_int(self, n: int) -> tuple:
        digits = []
        n %= self.q
        for _ in range(self.s):
            digits.append(n % self.p)
            n //= self.p
        return tuple(digits)

    def to_int(self, a: tuple) -> int:
        n = 0
        for d in reversed(a):
            n = n * self.p + d
        return n

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        if self.s == 1:
            return ((a[0] * b[0]) % self.p,)
        raw = _poly_mul_mod_p(a, b, self.p)
        out = list(raw[: self.s]) + [0] * (self.s - min(self.s, len(raw)))
        for j, c in enumerate(raw[self.s:]):
            if c:
                fold = self._fold[j]
                for i in range(self.s):
                    out[i] = (out[i] + c * fold[i]) % self.p
        return tuple(out)

    def pow(self, a, n: int):
        if n < 0:
            return self.pow(self.inv(a), -n)
        result = self.one
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of 0 in F_q")
        return self.pow(a, self.q - 2)

    def frobenius(self, a):
        return self.pow(a, self.p)

    def frobenius_inv(self, a):
        # x -> x^p is a bijection with inverse x -> x^(p^(s-1))
        return self.pow(a, self.p ** (self.s - 1))

    def nth_root(self, a, m: int):
        """Smallest m-th root of a in integer-encoding order.

        Every element has a p-th root (Frobenius is bijective), but m-th
        roots for gcd(m, q-1) > 1 need not exist in a finite model of an
        algebraically closed field; that failure is always loud.
        """
        if m < 0:
            return self.inv(self.nth_root(a, -m))
        if a == self.zero:
            if m == 0:
                raise ValueError("0th root of 0")
            return self.zero
        for n in range(self.q):
            x = self.from_int(n)
            if self.pow(x, m) == a:
                return x
        raise ValueError("residue field too small; increase s")

    def elements(self):
        for n in range(self.q):
            yield self.from_int(n)


# ---------------------------------------------------------------------------
# the ramified ring R
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RingDescriptor:
    """Immutable description of R plus precomputed fold tables.

    Shareable read-only between threads; every operation on elements is a
    pure function of its inputs.
    """

    p: int
    r: int
    s: int
    M: int
    e: int
    v_lambda: int
    eisenstein: tuple
    field: Fq
    pM: int
    gr_modulus: tuple
    gr_fold: tuple
    fold: tuple

    def __repr__(self):
        return f"RingDescriptor(p={self.p}, r={self.r}, s={self.s}, M={self.M})"

    # -- Galois ring GR(p^M, s): tuples of s ints mod p^M ------------------

    def gr_zero(self):
        return (0,) * self.s

    def gr_one(self):
        return tuple([1] + [0] * (self.s - 1))

    def gr_from_int(self, n: int):
        return tuple([n % self.pM] + [0] * (self.s - 1))

    def gr_add(self, a, b):
        return tuple((x + y) % self.pM for x, y in zip(a, b))

    def gr_sub(self, a, b):
        return tuple((x - y) % self.pM for x, y in zip(a, b))

    def gr_neg(self, a):
        return tuple((-x) % self.pM for x in a)

    def gr_mul(self, a, b):
        if self.s == 1:
            return ((a[0] * b[0]) % self.pM,)
        s, pM = self.s, self.pM
        raw = [0] * (2 * s - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    raw[i + j] = (raw[i + j] + ai * bj) % pM
        out = list(raw[:s])
        for j in range(s - 1):
            c = raw[s + j]
            if c:
                fold = self.gr_fold[j]
                for i in range(s):
                    out[i] = (out[i] + c * fold[i]) % pM
        return tuple(out)

    def gr_residue(self, a):
        return tuple(x % self.p for x in a)

    def gr_lift(self, a):
        return tuple(x % self.pM for x in a)

    def gr_val(self, a) -> int:
        """p-adic valuation of a GR element as stored; M if zero mod p^M."""
        v = self.M
        for x in a:
            if x:
                w = 0
                while x % self.p == 0:
                    x //= self.p
                    w += 1
                if w < v:
                    v = w
        return v

    # -- element constructors ----------------------------------------------

    def zero(self, prec: int | None = None) -> "RElem":
        prec = self.e * self.M if prec is None else prec
        return RElem(self, ((0,) * self.s,) * self.e, prec)

    def one(self) -> "RElem":
        return self.from_int(1)

    def from_int(self, n: int) -> "RElem":
        coeffs = [self.gr_zero()] * self.e
        coeffs[0] = self.gr_from_int(n)
        return RElem(self, tuple(coeffs), self.e * self.M)

    def pi_power(self, j: int) -> "RElem":
        if j < 0:
            raise ValueError("pi_power wants a nonnegative exponent")
        coeffs = [self.gr_zero()] * (self.e)
        full = self.e * self.M
        if j >= full:
            return self.zero(full)
        q, rem = divmod(j, self.e)
        elem = RElem(self, tuple(
            coeffs[:rem] + [self.gr_one()] + coeffs[rem + 1:]), full)
        if q:
            # pi^e = -p * unit_E
            scale = self.from_int((-self.p) ** q) * self.unit_E ** q
            elem = elem * scale
        return elem

    def from_residue(self, a) -> "RElem":
        coeffs = [self.gr_zero()] * self.e
        coeffs[0] = self.gr_lift(a)
        return RElem(self, tuple(coeffs), self.e * self.M)

    @property
    def zeta(self) -> "RElem":
        return self.one() + self.pi_power(self.r)

    @property
    def lam(self) -> "RElem":
        return self.pi_power(self.r)

    @property
    def p_elem(self) -> "RElem":
        return self.from_int(self.p)

    @property
    def unit_E(self) -> "RElem":
        return self._unit_E  # set by make_ring

    @property
    def unit_E_inv(self) -> "RElem":
        return self._unit_E_inv


def make_ring(p: int, r: int, s: int, M: int) -> RingDescriptor:
    """Build the descriptor for R with v(lambda) = r over GR(p^M, s)."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if r < 1 or s < 1:
        raise ValueError("need r >= 1 and s >= 1")
    if M < 2:
        raise ValueError("need M >= 2 to separate zeta_p from 1")
    return _make_ring_cached(p, r, s, M)


@lru_cache(maxsize=64)
def _make_ring_cached(p, r, s, M):
    e = r * (p - 1)
    pM = p ** M
    field = Fq(p, s)
    eis = [0] * (e + 1)
    for k in range(1, p + 1):
        eis[r * (k - 1)] += math.comb(p, k)
    gr_modulus = tuple(c % pM for c in field.modulus)

    # GR fold rows: y^{s+j} for j = 0..s-2, as vectors over Z/p^M
    gr_rows = []
    if s > 1:
        row = [(-c) % pM for c in gr_modulus[:s]]
        gr_rows.append(tuple(row))
        for _ in range(s - 2):
            top = row[-1]
            row = [0] + row[:-1]
            if top:
                row = [(row[i] + top * gr_rows[0][i]) % pM for i in range(s)]
            gr_rows.append(tuple(row))

    ring = RingDescriptor(
        p=p, r=r, s=s, M=M, e=e, v_lambda=r,
        eisenstein=tuple(eis), field=field, pM=pM,
        gr_modulus=gr_modulus, gr_fold=tuple(gr_rows), fold=(),
    )

    # pi fold rows: pi^{e+j} for j = 0..e-2, as GR coefficient vectors.
    # Row 0 comes from E(pi) = 0: pi^e = -sum_{k<p} C(p,k) pi^{r(k-1)}.
    zero = ring.gr_zero()
    row = [zero] * e
    for k in range(1, p):
        idx = r * (k - 1)
        row[idx] = ring.gr_add(row[idx], ring.gr_from_int(-math.comb(p, k)))
    rows = [tuple(row)]
    for _ in range(e - 2):
        prev = rows[-1]
        top = prev[-1]
        row = [zero] + list(prev[:-1])
        if top != zero:
            base = rows[0]
            row = [ring.gr_add(row[i], ring.gr_mul(top, base[i]))
                   for i in range(e)]
        rows.append(tuple(row))
    object.__setattr__(ring, "fold", tuple(rows))

    coeffs = [zero] * e
    coeffs[0] = ring.gr_one()
    for k in range(2, p):
        idx = r * (k - 1)
        coeffs[idx] = ring.gr_add(coeffs[idx],
                                  ring.gr_from_int(math.comb(p, k) // p))
    unit_e = RElem(ring, tuple(coeffs), e * M)
    object.__setattr__(ring, "_unit_E", unit_e)
    object.__setattr__(ring, "_unit_E_inv", unit_e.inverse())
    return ring


class RElem:
    """Element of R known modulo pi^prec, stored on the basis 1..pi^{e-1}.

    Distinct basis slots carry distinct valuations mod e, so the valuation
    of a nonzero element is read off exactly as min_i (e*v_p(c_i) + i);
    there is never cancellation between slots.
    """

    __slots__ = ("ring", "coeffs", "prec")

    def __init__(self, ring: RingDescriptor, coeffs: tuple, prec: int):
        self.ring = ring
        self.coeffs = coeffs
        self.prec = min(prec, ring.e * ring.M)

    # -- representation ------------------------------------------------------

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if any(c):
                val = c[0] if self.ring.s == 1 else c
                terms.append(f"{val}*pi^{i}" if i else f"{val}")
        body = " + ".join(terms) if terms else "0"
        return f"<{body} mod pi^{self.prec}>"

    def __eq__(self, other):
        return (isinstance(other, RElem) and self.ring is other.ring
                and self.coeffs == other.coeffs and self.prec == other.prec)

    def __hash__(self):
        return hash((id(self.ring), self.coeffs, self.prec))

    # -- valuation -----------------------------------------------------------

    def val(self) -> int | None:
        """Certified pi-adic valuation, or None when >= prec."""
        best = None
        e = self.ring.e
        for i, c in enumerate(self.coeffs):
            v = self.ring.gr_val(c)
            if v < self.ring.M:
                t = e * v + i
                if best is None or t < best:
                    best = t
        if best is None or best >= self.prec:
            return None
        return best

    def val_floor(self) -> int:
        v = self.val()
        return self.prec if v is None else v

    def is_zero(self) -> bool:
        return self.val() is None

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if self.ring is not other.ring:
            raise ValueError("ring mismatch")

    def __add__(self, other):
        self._check(other)
        ring = self.ring
        coeffs = tuple(ring.gr_add(a, b)
                       for a, b in zip(self.coeffs, other.coeffs))
        return RElem(ring, coeffs, min(self.prec, other.prec))

    def __sub__(self, other):
        self._check(other)
        ring = self.ring
        coeffs = tuple(ring.gr_sub(a, b)
                       for a, b in zip(self.coeffs, other.coeffs))
        return RElem(ring, coeffs, min(self.prec, other.prec))

    def __neg__(self):
        ring = self.ring
        return RElem(ring, tuple(ring.gr_neg(a) for a in self.coeffs),
                     self.prec)

    def __mul__(self, other):
        self._check(other)
        ring = self.ring
        e = ring.e
        zero = ring.gr_zero()
        raw = [zero] * (2 * e - 1)
        for i, a in enumerate(self.coeffs):
            if a != zero:
                for j, b in enumerate(other.coeffs):
                    if b != zero:
                        raw[i + j] = ring.gr_add(raw[i + j], ring.gr_mul(a, b))
        out = list(raw[:e])
        for j in range(e - 1):
            c = raw[e + j]
            if c != zero:
                fold = ring.fold[j]
                for i in range(e):
                    if fold[i] != zero:
                        out[i] = ring.gr_add(out[i], ring.gr_mul(c, fold[i]))
        prec = min(self.prec + other.val_floor(),
                   other.prec + self.val_floor())
        return RElem(ring, tuple(out), prec)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.ring.one()
        result = RElem(self.ring, result.coeffs, self.ring.e * self.ring.M)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def inverse(self) -> "RElem":
        if self.val() != 0:
            raise ValueError("division by non-unit")
        ring = self.ring
        z = ring.from_residue(ring.field.inv(self.residue()))
        z = RElem(ring, z.coeffs, self.prec)
        two = ring.from_int(2)
        steps = max(1, (self.prec - 1).bit_length() + 1)
        for _ in range(steps):
            z = z * (two - self * z)
        return RElem(ring, z.coeffs, self.prec)

    def residue(self):
        if self.prec < 1:
            raise ValueError("no certified residue at precision 0")
        return self.ring.gr_residue(self.coeffs[0])

    def with_prec(self, prec: int) -> "RElem":
        return RElem(self.ring, self.coeffs, min(prec, self.prec))

    def eq_mod(self, other, k: int) -> bool:
        d = self - other
        if d.prec < k:
            raise ValueError(f"cannot compare mod pi^{k} at precision {d.prec}")
        v = d.val()
        return v is None or v >= k

    # -- exact division by powers of pi --------------------------------------

    def exact_div_pi(self, j: int) -> "RElem":
        """Divide by pi^j; requires certified valuation >= j.

        Uses pi^e = -p*unit_E: a full-e division is a coefficient-wise
        division by p followed by the unit correction, costing one level of
        p-capacity; a partial division shifts by pi^{e-j} first.
        """
        if j < 0:
            raise ValueError("negative shift")
        if j == 0:
            return self
        if self.val_floor() < j:
            raise ValueError(f"element not divisible by pi^{j} "
                             f"(valuation floor {self.val_floor()})")
        ring = self.ring
        q, rho = divmod(j, ring.e)
        x = self
        for _ in range(q):
            x = x._div_pi_e()
        for _ in range(rho):
            x = x._div_pi_once()
        return RElem(ring, x.coeffs, min(x.prec, self.prec - j))

    def _div_pi_once(self) -> "RElem":
        """One pi step: slot shift plus top-slot wrap of the constant slot.

        c_0/pi = -(c_0/p) * unit_E^{-1} * pi^{e-1}, so only the wrapped
        slot pays a p-level while the shifted slots keep full capacity.
        Going digit by digit beats multiplying up to a full pi^e block,
        which would truncate at capacity and cost e - rho extra digits.
        """
        ring = self.ring
        p = ring.p
        c0 = self.coeffs[0]
        if any(d % p for d in c0):
            raise ValueError("element not divisible by pi at capacity")
        zero_gr = (0,) * ring.s
        shifted = RElem(ring, self.coeffs[1:] + (zero_gr,), self.prec - 1)
        b = RElem(ring,
                  (tuple(d // p for d in c0),) + (zero_gr,) * (ring.e - 1),
                  ring.e * (ring.M - 1))
        corr = b * ring.unit_E_inv * ring.pi_power(ring.e - 1)
        return shifted - corr

    def _div_pi_e(self) -> "RElem":
        ring = self.ring
        p = ring.p
        new = []
        for c in self.coeffs:
            if any(d % p for d in c):
                raise ValueError("element not divisible by pi^e at capacity")
            new.append(tuple(d // p for d in c))
        quot = RElem(ring, tuple(new),
                     min(self.prec - ring.e, ring.e * (ring.M - 1)))
        return -(quot * ring.unit_E_inv)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def val(x: RElem):
    v = x.val()
    return ABOVE_PRECISION if v is None else v


def unit_root(x: RElem, m: int) -> RElem:
    """The m-th root of a unit x whose residue root is chosen smallest.

    Newton iteration from the designated residue root; gcd(m, p) = 1 keeps
    the derivative m*y^{m-1} invertible so the lift is unique given the
    residue choice.
    """
    ring = x.ring
    if x.val() != 0:
        raise ValueError("unit_root needs a unit")
    if math.gcd(m, ring.p) != 1:
        raise ValueError("root degree must be coprime to p")
    if m == 1:
        return x
    if m < 0:
        return unit_root(x, -m).inverse()
    root = ring.field.nth_root(x.residue(), m)
    y = ring.from_residue(root).with_prec(x.prec)
    inv_m = ring.from_int(m).inverse()
    steps = max(1, (x.prec - 1).bit_length() + 1)
    for _ in range(steps):
        ym1 = y ** (m - 1)
        y = y - (ym1 * y - x) * inv_m * ym1.inverse()
    return y
