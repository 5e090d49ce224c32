"""Truncated Laurent series over the ramified ring R and its residue field.

Two series types, both immutable:

  * RLaurent: sparse series over R with a tracked exponent window [lo, hi]
    and a uniform pi-adic precision N.  The contract is three-sided: stored
    coefficients are exact mod pi^N; exponents below lo carry coefficients
    of valuation >= N (negligible); exponents above hi are untracked.
  * KLaurent: sparse series over F_{p^s} whose support is exact up to an
    upper truncation bound hi.

Window bookkeeping under multiplication uses the minimum of the *stored*
support (not the nominal lo): coefficients below the minimal stored
exponent are negligible, and negligible times integral stays negligible,
so only untracked-times-stored terms limit the trustworthy range.  All
window exhaustion is a loud error; nothing is truncated silently.

Each series type has one multiply for every residue degree s, a Kronecker
substitution: the whole series becomes one big integer and the convolution
runs inside a single integer product (gmpy2 supplies it when installed).
The coefficient ring is a second Kronecker variable.  Over R an exponent
takes (2e-1)*(2s-1) digits, and pi^t y^k of a coefficient (y the generator
of GR(p^M, s)) sits at digit t*(2s-1) + k, leaving room for the unreduced
product of two coefficients; over F_{p^s} an exponent takes 2s-1 digits
with x^k at digit k.  Digits are 1, 2, 4 or 8 bytes wide, or 8-byte limbs
beyond that, so the product unpacks in one pass.  The digits with t < e
and k < s are the product's coordinates as they stand, and a fold map
built once per ring (RingDescriptor.digit_fold, Fq.digit_fold) adds every
other digit, times a factor, to the coordinates it reduces to through the
Galois-ring modulus and the Eisenstein relation.
"""

from __future__ import annotations

import math
import sys
from array import array
from fractions import Fraction

from .dvr_core import Fq, RElem, RingDescriptor

try:
    from gmpy2 import mpz as _mpz

    def _bigmul(a: int, b: int) -> int:
        return int(_mpz(a) * _mpz(b))
except ImportError:
    # gmpy2 is the optional `fast` extra (pyproject.toml).  Without it the
    # product is Python's own; every figure in perfbench/README.md and the
    # BENCH_*.json files was measured on this plain-int product.
    def _bigmul(a: int, b: int) -> int:
        return a * b


# array typecode per item size in bytes
_CODES = {array(code).itemsize: code for code in "BHILQ"}


def _digit_width(bound: int) -> int:
    """Bytes per packed digit holding values up to bound: 1, 2, 4 or 8,
    or a multiple of 8 read as 8-byte limbs."""
    nbytes = (bound.bit_length() + 7) // 8
    if nbytes > 8:
        return -(-nbytes // 8) * 8
    return 1 << (nbytes - 1).bit_length()


def _unpack(P: int, ndigits: int, width: int):
    """The ndigits digits of P in base 2^(8*width), lowest first, as an
    array, or as a list when they are wider than 8 bytes."""
    words = array(_CODES[min(width, 8)], P.to_bytes(ndigits * width, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    if width <= 8:
        return words
    limbs = [words[j::width // 8].tolist() for j in range(width // 8)]
    return [sum(w << (64 * j) for j, w in enumerate(ws)) for ws in zip(*limbs)]


INF_EXP = 10 ** 9


class _ZeroClass:
    """Marker: the class vanishes (an Artin-Schreier coboundary)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "zero_class"


ZERO_CLASS = _ZeroClass()


def _product_hi(a, b) -> int:
    """Trusted top exponent of a*b: the untracked terms above one factor's
    hi meet the other factor's lowest stored term; with nothing stored on
    either side, untracked meets untracked above hi_a + hi_b."""
    tops = [x.hi + s for x, s in ((a, b.min_support()), (b, a.min_support()))
            if s is not None]
    return _clamp_exp(min(tops) if tops else a.hi + b.hi)


def _square_multiply(base, n: int, one):
    """base**n for n >= 0 by square-and-multiply, starting from one."""
    result = one
    while n:
        if n & 1:
            result = result * base
        if n > 1:
            base = base * base
        n >>= 1
    return result


def _exp_str(x: int) -> str:
    """An exponent bound as printed: the clamped sentinels read as +-inf."""
    return "inf" if x >= INF_EXP else "-inf" if x <= -INF_EXP else str(x)


def _clamp_exp(x: int) -> int:
    # saturate: sentinel +- small offsets must stay sentinels, so anything
    # beyond half-range (far above any real window) folds back to infinity
    if x >= INF_EXP // 2:
        return INF_EXP
    if x <= -INF_EXP // 2:
        return -INF_EXP
    return x


# ---------------------------------------------------------------------------
# series over R
# ---------------------------------------------------------------------------

class RLaurent:
    __slots__ = ("ring", "coeffs", "lo", "hi", "prec")

    def __init__(self, ring: RingDescriptor, coeffs: dict, lo: int, hi: int,
                 prec: int):
        if hi < lo:
            raise ValueError("widen window")
        prec = min(prec, ring.e * ring.M)
        if prec < 1:
            raise ValueError("increase precision")
        kept = {}
        for exp, c in coeffs.items():
            if exp < lo or exp > hi:
                continue
            if c.prec < prec:
                raise ValueError(
                    f"coefficient at T^{exp} known to pi^{c.prec} < series "
                    f"precision {prec}")
            v = c.val()
            if v is None or v >= prec:
                continue
            # coefficients carry exactly the series precision: representatives
            # must not claim certainty beyond the uniform contract
            kept[exp] = c if c.prec == prec else c.with_prec(prec)
        self.ring = ring
        self.coeffs = kept
        self.lo = _clamp_exp(lo)
        self.hi = _clamp_exp(hi)
        self.prec = prec

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_terms(ring, terms: dict, lo: int | None = None,
                   hi: int = INF_EXP, prec: int | None = None) -> "RLaurent":
        """Series with the given exact finite terms; ints are lifted."""
        prec = ring.e * ring.M if prec is None else prec
        coeffs = {}
        for exp, c in terms.items():
            if isinstance(c, int):
                c = ring.from_int(c)
            coeffs[int(exp)] = c
        if lo is None:
            lo = min(coeffs, default=0)
        return RLaurent(ring, coeffs, lo, hi, prec)

    @staticmethod
    def zero(ring, lo=-INF_EXP, hi=INF_EXP, prec=None) -> "RLaurent":
        prec = ring.e * ring.M if prec is None else prec
        return RLaurent(ring, {}, lo, hi, prec)

    @staticmethod
    def one(ring, prec=None) -> "RLaurent":
        return RLaurent.from_terms(ring, {0: 1}, lo=0, prec=prec)

    @staticmethod
    def monomial(ring, exp: int, coeff=1, prec=None) -> "RLaurent":
        return RLaurent.from_terms(ring, {exp: coeff}, lo=exp, prec=prec)

    # -- inspection ----------------------------------------------------------

    def __repr__(self):
        n = len(self.coeffs)
        return (f"<RLaurent {n} terms on [{_exp_str(self.lo)}, "
                f"{_exp_str(self.hi)}] mod pi^{self.prec}>")

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self):
        return sorted(self.coeffs)

    def min_support(self) -> int | None:
        return min(self.coeffs) if self.coeffs else None

    def coeff(self, exp: int) -> RElem:
        if exp > self.hi:
            raise ValueError("widen window")
        c = self.coeffs.get(exp)
        if c is None:
            return self.ring.zero(self.prec)
        return c

    def restrict(self, lo=None, hi=None, prec=None) -> "RLaurent":
        """Weaken the contract to a smaller window or precision."""
        lo = self.lo if lo is None else max(lo, self.lo)
        hi = self.hi if hi is None else min(hi, self.hi)
        prec = self.prec if prec is None else min(prec, self.prec)
        return RLaurent(self.ring, self.coeffs, lo, hi, prec)

    def eq_mod(self, other: "RLaurent") -> bool:
        """Equality on the common window at the common precision."""
        d = self - other
        return d.is_zero()

    # -- ring operations -----------------------------------------------------

    def _check(self, other):
        if self.ring is not other.ring:
            raise ValueError("ring mismatch")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            cur = out.get(exp)
            out[exp] = c if cur is None else cur + c
        return RLaurent(self.ring, out, min(self.lo, other.lo),
                        min(self.hi, other.hi), min(self.prec, other.prec))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RLaurent(self.ring, {e: -c for e, c in self.coeffs.items()},
                        self.lo, self.hi, self.prec)

    def scale(self, c: RElem | int) -> "RLaurent":
        if isinstance(c, int):
            c = self.ring.from_int(c)
        if c.val() is None:
            return RLaurent(self.ring, {}, self.lo, self.hi, self.prec)
        return RLaurent(self.ring, {e: x * c for e, x in self.coeffs.items()},
                        self.lo, self.hi, min(self.prec, c.prec))

    def shift(self, k: int) -> "RLaurent":
        """Multiply by T^k exactly."""
        return RLaurent(self.ring, {e + k: c for e, c in self.coeffs.items()},
                        _clamp_exp(self.lo + k), _clamp_exp(self.hi + k),
                        self.prec)

    def __mul__(self, other):
        self._check(other)
        prec = min(self.prec, other.prec)
        lo = _clamp_exp(self.lo + other.lo)
        hi = _product_hi(self, other)
        if not (self.coeffs and other.coeffs):
            return RLaurent(self.ring, {}, min(lo, hi), hi, prec)
        out = _packed_mul_r(self.ring, self.coeffs, other.coeffs)
        return RLaurent(self.ring, out, lo, hi, prec)

    def __pow__(self, n: int):
        if n < 0:
            return invert_unit(self) ** (-n)
        return _square_multiply(self, n, RLaurent.one(self.ring,
                                                      prec=self.prec))

    # -- residue and units ---------------------------------------------------

    def residue(self) -> "KLaurent":
        coeffs = {}
        for exp, c in self.coeffs.items():
            res = c.residue()
            if any(res):
                coeffs[exp] = res
        return KLaurent(self.ring.field, coeffs, self.hi)

    def unit_lead(self):
        """(exp, coeff) of the lowest valuation-0 term; error if non-unit."""
        best = None
        for exp, c in self.coeffs.items():
            if c.val() == 0 and (best is None or exp < best):
                best = exp
        if best is None:
            raise ValueError("inverting non-unit")
        return best, self.coeffs[best]


def _packed_mul_r(ring, A: dict, B: dict) -> dict:
    """Kronecker multiplication over R in the module docstring's layout;
    the product is read as one column per digit across exponents."""
    e, s, pM = ring.e, ring.s, ring.pM
    step = 2 * s - 1
    row = (2 * e - 1) * step
    sa, sb = min(A), min(B)
    la, lb = max(A) - sa + 1, max(B) - sb + 1
    width = _digit_width(min(la, lb) * e * s * (pM - 1) ** 2)

    def pack(coeffs, smin, length):
        buf = bytearray(length * row * width)
        for exp, c in coeffs.items():
            base = (exp - smin) * row
            for t, g in enumerate(c.coeffs):
                for k, v in enumerate(g):
                    if v:
                        off = (base + t * step + k) * width
                        buf[off:off + width] = v.to_bytes(width, "little")
        return int.from_bytes(buf, "little")

    nout = la + lb - 1
    words = _unpack(_bigmul(pack(A, sa, la), pack(B, sb, lb)), nout * row,
                    width)
    cols = [words[d::row] for d in range(row)]
    acc = [cols[t * step + k] for t in range(e) for k in range(s)]
    for d, indices, factors in ring.digit_fold:
        col = cols[d]
        if any(col):
            for i, f in zip(indices, factors):
                acc[i] = [a + x * f for a, x in zip(acc[i], col)]
    full = e * ring.M
    out = {}
    for n, vec in enumerate(zip(*acc)):
        if any(vec):
            vec = [v % pM for v in vec]
            if any(vec):
                out[n + sa + sb] = RElem(ring, tuple(zip(*[iter(vec)] * s)),
                                         full)
    return out


# ---------------------------------------------------------------------------
# series over the residue field
# ---------------------------------------------------------------------------

class KLaurent:
    __slots__ = ("field", "coeffs", "hi")

    def __init__(self, field: Fq, coeffs: dict, hi: int = INF_EXP):
        self.field = field
        self.coeffs = {e: c for e, c in coeffs.items()
                       if e <= hi and any(c)}
        self.hi = _clamp_exp(hi)

    @staticmethod
    def from_terms(field, terms: dict, hi: int = INF_EXP) -> "KLaurent":
        coeffs = {}
        for exp, c in terms.items():
            if isinstance(c, int):
                # integers embed as constants (from_int is the enumeration
                # encoding, not the ring homomorphism, once s > 1)
                c = field.from_int(c % field.p)
            coeffs[int(exp)] = c
        return KLaurent(field, coeffs, hi)

    @staticmethod
    def zero(field, hi=INF_EXP) -> "KLaurent":
        return KLaurent(field, {}, hi)

    @staticmethod
    def one(field) -> "KLaurent":
        return KLaurent.from_terms(field, {0: 1})

    @staticmethod
    def monomial(field, exp: int, coeff=1) -> "KLaurent":
        return KLaurent.from_terms(field, {exp: coeff})

    def __repr__(self):
        return (f"<KLaurent {len(self.coeffs)} terms, "
                f"hi={_exp_str(self.hi)}>")

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self):
        return sorted(self.coeffs)

    def min_support(self) -> int | None:
        return min(self.coeffs) if self.coeffs else None

    def coeff(self, exp: int):
        if exp > self.hi:
            raise ValueError("widen window")
        return self.coeffs.get(exp, self.field.zero)

    def _check(self, other):
        if self.field is not other.field:
            raise ValueError("field mismatch")

    def __add__(self, other):
        self._check(other)
        F = self.field
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            cur = out.get(exp)
            out[exp] = c if cur is None else F.add(cur, c)
        return KLaurent(F, out, min(self.hi, other.hi))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        F = self.field
        return KLaurent(F, {e: F.neg(c) for e, c in self.coeffs.items()},
                        self.hi)

    def scale(self, c) -> "KLaurent":
        F = self.field
        if isinstance(c, int):
            c = F.from_int(c % F.p)
        if not any(c):
            return KLaurent(F, {}, self.hi)
        return KLaurent(F, {e: F.mul(x, c) for e, x in self.coeffs.items()},
                        self.hi)

    def shift(self, k: int) -> "KLaurent":
        return KLaurent(self.field,
                        {e + k: c for e, c in self.coeffs.items()},
                        _clamp_exp(self.hi + k))

    def __mul__(self, other):
        self._check(other)
        F = self.field
        hi = _product_hi(self, other)
        if not (self.coeffs and other.coeffs):
            return KLaurent(F, {}, hi)
        return KLaurent(F, _packed_mul_k(F, self.coeffs, other.coeffs), hi)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return _square_multiply(self, n, KLaurent.one(self.field))

    def inverse(self, hi: int | None = None) -> "KLaurent":
        """Inverse of a nonzero series: lead^-1 t^-m * sum (-rho)^k.

        A finite exact series has an infinite inverse, so a finite bound
        must come either from self.hi or from the hi argument.
        """
        F = self.field
        m = self.min_support()
        if m is None:
            raise ZeroDivisionError("inverting the zero series")
        out_hi = INF_EXP if hi is None else hi
        if self.hi < INF_EXP:
            out_hi = min(out_hi, self.hi - 2 * m)
        if out_hi >= INF_EXP:
            raise ValueError("inverse of an exact series needs an explicit "
                             "truncation bound")
        lead_inv = F.inv(self.coeffs[m])
        one = KLaurent.one(F)
        inner = out_hi + m  # the geometric sum is the inverse times lead*t^m
        rho = (self.shift(-m).scale(lead_inv) - one).restrict_hi(inner)
        acc = one
        term = one
        sign = -1
        while True:
            term = (term * rho).restrict_hi(inner)
            if term.is_zero():
                break
            acc = acc + (term.scale(-1) if sign < 0 else term)
            sign = -sign
        return acc.scale(lead_inv).shift(-m).restrict_hi(out_hi)

    def restrict_hi(self, hi: int) -> "KLaurent":
        return KLaurent(self.field, self.coeffs, min(self.hi, hi))

    def frobenius(self) -> "KLaurent":
        F = self.field
        return KLaurent(F, {e * self.field.p: F.frobenius(c)
                            for e, c in self.coeffs.items()},
                        _clamp_exp(self.hi * F.p if self.hi < INF_EXP
                                   else INF_EXP))

    def pth_root(self) -> "KLaurent":
        """Inverse of Frobenius; requires support inside pZ."""
        F = self.field
        out = {}
        for e, c in self.coeffs.items():
            if e % F.p:
                raise ValueError("support not divisible by p")
            out[e // F.p] = F.frobenius_inv(c)
        hi = self.hi // F.p if self.hi < INF_EXP else INF_EXP
        return KLaurent(F, out, hi)


def _packed_mul_k(field: Fq, A: dict, B: dict) -> dict:
    """Kronecker multiplication over F_{p^s} in the module docstring's
    layout; the product is read as one column per digit across exponents."""
    p, s = field.p, field.s
    step = 2 * s - 1
    sa, sb = min(A), min(B)
    la, lb = max(A) - sa + 1, max(B) - sb + 1
    width = _digit_width(min(la, lb) * s * (p - 1) ** 2)

    def pack(coeffs, smin, length):
        buf = bytearray(length * step * width)
        for exp, c in coeffs.items():
            base = (exp - smin) * step
            for k, v in enumerate(c):
                if v:
                    off = (base + k) * width
                    buf[off:off + width] = v.to_bytes(width, "little")
        return int.from_bytes(buf, "little")

    nout = la + lb - 1
    words = _unpack(_bigmul(pack(A, sa, la), pack(B, sb, lb)), nout * step,
                    width)
    cols = [words[k::step] for k in range(step)]
    for d, indices, factors in field.digit_fold:
        for i, f in zip(indices, factors):
            cols[i] = [a + x * f for a, x in zip(cols[i], cols[d])]
    coeffs = zip(*[[v % p for v in col] for col in cols[:s]])
    return {n + sa + sb: c for n, c in enumerate(coeffs) if any(c)}


# ---------------------------------------------------------------------------
# module-level series operations
# ---------------------------------------------------------------------------

def invert_unit(u: RLaurent) -> RLaurent:
    """Inverse of a unit of R[[T]]{T^-1}: geometric series around the
    lowest valuation-0 term (everything below it carries positive
    valuation, so the binomial tail converges)."""
    ell, lead = u.unit_lead()
    one = RLaurent.one(u.ring, prec=u.prec)
    rho = u.shift(-ell).scale(lead.inverse()) - one
    inv = binom_power(one + rho, -1)
    return inv.scale(lead.inverse()).shift(-ell)


def _binomials(alpha: Fraction, p: int, floor: int, guard: int,
               exhausted: str):
    """Yield C(alpha, j) mod p^floor for j = 1..guard.

    alpha runs through an integer surrogate congruent to it modulo a power
    of p padded for the p-part of j!, so every value is exact; `exhausted`
    names the budget to raise when that padding runs out.
    """
    K = floor + guard // (p - 1) + 4
    mod = p ** K
    a_int = (alpha.numerator * pow(alpha.denominator, -1, mod)) % mod
    C = 1
    for j in range(1, guard + 1):
        numer = (C * ((a_int - j + 1) % mod)) % mod
        vj, jj = 0, j
        while jj % p == 0:
            jj //= p
            vj += 1
        if vj:
            if numer % (p ** vj):
                raise ArithmeticError("binomial recurrence lost p-divisibility")
            numer //= p ** vj
            K -= vj
            mod = p ** K
            if K < floor:
                raise ValueError("binomial series exhausted the p-capacity "
                                 f"guard; {exhausted}")
        C = (numer * pow(jj, -1, mod)) % mod
        yield C % p ** floor


def binom_power(base: RLaurent, alpha) -> RLaurent:
    """(1+B)^alpha for alpha in Z_p given as int or Fraction.

    Binomial coefficients C(alpha, j) are evaluated through an integer
    congruent to alpha modulo a power of p large enough to absorb the
    denominators of j!, so every coefficient is exact mod p^M.
    """
    alpha = Fraction(alpha)
    ring = base.ring
    p = ring.p
    if alpha.denominator % p == 0:
        raise ValueError("binomial exponent denominator divisible by p")
    one = RLaurent.one(ring, prec=base.prec)
    B = base - one
    finite_hi = B.hi < INF_EXP
    for exp, c in B.coeffs.items():
        if exp <= 0 and c.val() == 0:
            raise ValueError("binomial base must be 1 + (positive valuation "
                             "or positive exponent) terms")
        if exp > 0 and c.val() == 0 and not finite_hi:
            raise ValueError("binomial power of an exact series needs a "
                             "truncation bound")
    if alpha == 0:
        return one + B.scale(0)
    # Iteration bound: val-0 factors raise the exponent past B.hi, all
    # others raise the valuation past the precision, so lo never enters.
    guard = base.prec + (max(B.hi, 0) if finite_hi else 0) + 32
    acc = one
    term = one
    for C in _binomials(alpha, p, ring.M, guard, "increase precision"):
        term = term * B
        if finite_hi:
            # the sum is only trusted up to B's window; dropping higher
            # exponents is what lets exponent-gaining tails terminate
            term = term.restrict(hi=B.hi)
        if term.is_zero():
            return acc.restrict(hi=B.hi) if finite_hi else acc
        acc = acc + term.scale(C)
    raise ValueError("binomial series did not converge within the "
                     "window/precision budget")


def kbinom_power(base: KLaurent, alpha) -> KLaurent:
    """(1+B)^alpha over the residue field, alpha in Z_p as int or Fraction.

    Residue twin of binom_power.  B must consist of positive-exponent
    terms and carry a finite hi: the only way a term dies here is by
    climbing past the window, so an exact base would never terminate.
    """
    alpha = Fraction(alpha)
    F = base.field
    p = F.p
    if alpha.denominator % p == 0:
        raise ValueError("binomial exponent denominator divisible by p")
    one = KLaurent.one(F)
    B = base - one
    if B.is_zero():
        return KLaurent(F, {0: F.one}, base.hi)
    if B.min_support() <= 0:
        raise ValueError("binomial base must be 1 + positive-exponent terms")
    if B.hi >= INF_EXP:
        raise ValueError("binomial power of an exact series needs a "
                         "truncation bound")
    acc = KLaurent(F, {0: F.one}, B.hi)
    if alpha == 0:
        return acc
    term = acc
    for C in _binomials(alpha, p, 1, B.hi // B.min_support() + 2,
                        "widen the window"):
        term = (term * B).restrict_hi(B.hi)
        if term.is_zero():
            return acc
        acc = acc + term.scale(C)
    raise AssertionError("term with exponent above hi survived restrict_hi")


def series_root(u: RLaurent, m: int) -> RLaurent:
    """m-th root of a unit (gcd(m,p)=1) with the designated residue root."""
    from .dvr_core import unit_root as _unit_root
    ring = u.ring
    if math.gcd(m, ring.p) != 1:
        raise ValueError("root degree must be coprime to p")
    if m == 1:
        return u
    ell, lead = u.unit_lead()
    if ell % m:
        raise ValueError("leading exponent not divisible by the root degree")
    root_lead = _unit_root(lead, m)
    one = RLaurent.one(ring, prec=u.prec)
    rho = u.shift(-ell).scale(lead.inverse()) - one
    s = binom_power(one + rho, Fraction(1, m))
    return s.scale(root_lead).shift(ell // m)


def _powers(exps, phi, invert):
    """(i, phi^i) over the nonzero exponents i, walking the powers of phi
    incrementally away from 0 in each direction.  invert() gives phi^-1
    and runs only when some exponent is negative."""
    for sign in (1, -1):
        ks = sorted(sign * i for i in exps if sign * i > 0)
        if not ks:
            continue
        base = phi if sign > 0 else invert()
        power, cur = None, 0
        for k in ks:
            step = base ** (k - cur)
            power = step if power is None else power * step
            cur = k
            yield sign * k, power


def substitute(u: RLaurent, phi: RLaurent) -> RLaurent:
    """Evaluate u at T = phi; powers of phi are walked incrementally."""
    ring = u.ring
    if ring is not phi.ring:
        raise ValueError("ring mismatch")
    prec = min(u.prec, phi.prec)
    acc = RLaurent.zero(ring, lo=-INF_EXP, hi=INF_EXP, prec=prec)
    if 0 in u.coeffs:
        acc = acc + RLaurent.from_terms(ring, {0: u.coeffs[0]}, lo=0,
                                        prec=prec)
    for i, power in _powers(u.coeffs, phi, lambda: invert_unit(phi)):
        acc = acc + power.scale(u.coeffs[i])
    return acc


def ksubstitute(u: KLaurent, phi: KLaurent, hi: int | None = None) -> KLaurent:
    """Residue-level substitution; hi bounds the inverse when needed."""
    F = u.field
    acc = KLaurent.zero(F)
    if 0 in u.coeffs:
        acc = acc + KLaurent.from_terms(F, {0: u.coeffs[0]})
    for i, power in _powers(u.coeffs, phi, lambda: phi.inverse(hi=hi)):
        acc = acc + power.scale(u.coeffs[i])
    return acc


def div_pi(u: RLaurent, j: int) -> RLaurent:
    """Divide exactly by pi^j; every stored coefficient must have
    valuation >= j.  Series precision drops to prec - j."""
    if j == 0:
        return u
    if j < 0:
        raise ValueError("div_pi wants a nonnegative power")
    out = {e: c.exact_div_pi(j) for e, c in u.coeffs.items()}
    return RLaurent(u.ring, out, u.lo, u.hi, u.prec - j)


def is_pth_power(u: KLaurent) -> bool:
    """Support inside pZ; coefficients always have p-th roots in F_{p^s}."""
    if u.is_zero():
        raise ValueError("zero series has no p-power type")
    return all(e % u.field.p == 0 for e in u.coeffs)


def as_reduce_witness(u: KLaurent):
    """Artin-Schreier reduction of a class in k((t)) / (b^p - b).

    Returns (representative, m, b) with u - representative = b^p - b on the
    common trust window.  The representative is supported on negative
    exponents coprime to p; m is its lowest exponent, or the zero_class
    marker when the class vanishes.  Processing order: the nonnegative part
    is folded by the tail-sum identity, then p-divisible negative exponents
    are folded from the most negative upward.
    """
    F = u.field
    p = F.p
    if u.hi < -1:
        raise ValueError("widen window")
    witness = KLaurent.zero(F)
    cur = dict(u.coeffs)

    c0 = cur.pop(0, None)
    if c0 is not None:
        sol = None
        for x in F.elements():
            if F.sub(F.pow(x, p), x) == c0:
                sol = x
                break
        if sol is None:
            raise ValueError("residue field too small; increase s")
        if any(sol):
            witness = witness + KLaurent.from_terms(F, {0: sol})

    posdict = {e: c for e, c in cur.items() if e > 0}
    if posdict:
        for e in posdict:
            del cur[e]
        g = KLaurent(F, posdict, u.hi)
        bound = u.hi if u.hi < INF_EXP else p * max(posdict) + 1
        tail = g.restrict_hi(bound)
        w = KLaurent.zero(F, hi=bound)
        while not tail.is_zero():
            w = w + tail
            tail = tail.frobenius().restrict_hi(bound)
        witness = witness + w.scale(-1)

    while True:
        negs = [e for e in cur if e < 0 and e % p == 0]
        if not negs:
            break
        j = min(negs)
        a = cur.pop(j)
        root = F.frobenius_inv(a)
        tgt = j // p
        prev = cur.get(tgt, F.zero)
        merged = F.add(prev, root)
        if any(merged):
            cur[tgt] = merged
        elif tgt in cur:
            del cur[tgt]
        witness = witness + KLaurent.from_terms(F, {tgt: root})

    red = KLaurent(F, cur, u.hi)
    if red.is_zero():
        return red, ZERO_CLASS, witness
    return red, red.min_support(), witness


def reduce_kummer_unit(u: RLaurent):
    """Normalize the right side of Z^p = u by removing p-th power factors.

    Returns (u', w, state) with u' = u * w^p and state one of
      {"kind": "a1", "l": l}                residue minimal exponent coprime
      {"kind": "a2", "m": m}                residue read after monomial strip
      {"kind": "level", "tau": tau, "m": m}  reading at a positive stratum
      {"kind": "etale", "tau": tau}         all strata at or above v(lambda^p)
    Absorption multiplies by (1 + pi^{tau/p} g)^{-p} where g lifts the p-th
    root of the stratum residue; each pass strictly raises the minimal
    coefficient valuation, so the budget pr + 16 is never the binding
    constraint for legal inputs.
    """
    ring = u.ring
    p = ring.p
    pr = p * ring.r
    one = RLaurent.one(ring, prec=u.prec)
    w = one

    res = u.residue()
    if res.is_zero():
        raise ValueError("unit required (residue vanishes at this precision)")
    l = res.min_support()
    if l % p:
        return u, w, {"kind": "a1", "l": l}
    coprime = [e for e in res.coeffs if e % p]
    if coprime:
        # strip the monomial p-power t^l so the unit part starts at 0
        c = res.coeffs[l]
        root = ring.field.frobenius_inv(c)
        mono = RLaurent.from_terms(
            ring, {l // p: ring.from_residue(root)}, prec=u.prec)
        winv = invert_unit(mono)
        u = u * (winv ** p)
        w = w * winv
        m = min(coprime) - l
        return u, w, {"kind": "a2", "m": m}
    # residue is a p-th power as a whole: one Frobenius strip clears it
    groot = res.pth_root()
    glift = RLaurent(ring, {e: ring.from_residue(c)
                            for e, c in groot.coeffs.items()},
                     u.lo, u.hi, u.prec)
    winv = invert_unit(glift)
    u = u * (winv ** p)
    w = w * winv

    for _ in range(pr + 16):
        D = u - one
        if D.is_zero():
            raise ValueError("trivial torsor (p-th power to precision)")
        tau = min(c.val() for c in D.coeffs.values())
        if tau >= pr:
            return u, w, {"kind": "etale", "tau": tau}
        stratum = {e: c for e, c in D.coeffs.items() if c.val() == tau}
        coprime = [e for e in stratum if e % p]
        if coprime:
            # tau need not be divisible by p: composed units can land
            # between levels; interpreting tau/p is the caller's business
            return u, w, {"kind": "level", "tau": tau, "m": min(coprime)}
        if tau % p:
            raise ValueError(
                f"no stable reading: stratum valuation {tau} is not "
                f"divisible by p and carries no coprime exponent")
        n = tau // p
        sres = KLaurent(ring.field,
                        {e: c.exact_div_pi(tau).residue()
                         for e, c in stratum.items()}, D.hi)
        groot = sres.pth_root()
        glift = RLaurent(ring,
                         {e: ring.pi_power(n) * ring.from_residue(c)
                          for e, c in groot.coeffs.items()},
                         u.lo, u.hi, u.prec)
        absorber = one + glift
        u = u * binom_power(absorber, -p)
        w = w * invert_unit(absorber)
    raise ValueError("increase precision/window (no stable reading within "
                     "the iteration budget)")

