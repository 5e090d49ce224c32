"""Classification and normal forms for degree-p covers of a boundary germ.

A cover of the boundary Spf(R[[T]]{T^-1}) is presented by one of three
equation shapes, and classification sorts it into its group scheme and
conductor data:

  * Kummer  Z^p = u                        multiplicative reduction paths
  * Hn      (1 + pi^n Z)^p = 1 + pi^{np} u  intermediate level 0 < n < v(lambda)
  * Etale   (1 + lambda Z)^p = 1 + lambda^p u  additive/residue level

The heavy lifting is the p-th-power stripping machine from the series
layer; here its terminal states are read off and, for each case, an exact
normal form is produced together with the parameter change T' = T*s (s a
unit stored in the old parameter) and the unit witness w accounting for
the stripped p-th powers: u * w^p = normal_form(T*s).  For etale covers
the normalization lives at the residue level, where the class actually
has its invariants.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dvr_core import RingDescriptor
from .laurent import (
    INF_EXP,
    KLaurent,
    RLaurent,
    ZERO_CLASS,
    as_reduce_witness,
    binom_power,
    div_pi,
    invert_unit,
    ksubstitute,
    reduce_kummer_unit,
    series_root,
)


@dataclass(frozen=True)
class GroupTag:
    """Group scheme of the cover: MuP, Hn (with its level), or Etale."""

    kind: str
    n: int | None = None

    def __post_init__(self):
        if self.kind not in ("MuP", "Hn", "Etale"):
            raise ValueError(f"unknown group tag {self.kind!r}")
        if (self.kind == "Hn") != (self.n is not None):
            raise ValueError("level n is required exactly for Hn")
        if self.kind == "Hn" and self.n < 1:
            raise ValueError("Hn level must be positive")

    def __str__(self):
        if self.kind == "Hn":
            return f"H_{self.n}"
        return {"MuP": "mu_p", "Etale": "etale"}[self.kind]


MU_P = GroupTag("MuP")
ETALE = GroupTag("Etale")


def hn(n: int) -> GroupTag:
    return GroupTag("Hn", n)


@dataclass(frozen=True)
class TorsorEquation:
    """One cover presentation; `n` is only meaningful for kind "Hn"."""

    kind: str
    u: RLaurent
    n: int | None = None

    def __post_init__(self):
        if self.kind not in ("Kummer", "Hn", "Etale"):
            raise ValueError(f"unknown equation kind {self.kind!r}")
        if self.kind == "Hn":
            if self.n is None or not 0 < self.n < self.u.ring.v_lambda:
                raise ValueError("Hn level must satisfy 0 < n < v(lambda)")
        elif self.n is not None:
            raise ValueError("level n only applies to Hn equations")

    @property
    def ring(self) -> RingDescriptor:
        return self.u.ring


@dataclass(frozen=True)
class TorsorData:
    """Classification result.

    c = -m always; delta is in v_K units.  parameter_change is the unit s
    of the change T' = T*s written in the old parameter (residue-level
    lift for etale covers); witness is the unit w with
    u * w^p = normal_form(T*s), absent where the normalization happened
    on the residue.  Invariant-only records (tower bookkeeping) leave
    the equation empty.
    """

    group_tag: GroupTag
    m: int
    c: int
    delta: int
    normalized_equation: TorsorEquation | None
    parameter_change: RLaurent | None = None
    witness: RLaurent | None = None


def classify(eq: TorsorEquation) -> TorsorData:
    """Group scheme, conductor and exact normal form of a cover."""
    if eq.kind == "Etale":
        return _classify_etale(eq.u)
    if eq.kind == "Hn":
        return _classify_hn(eq.n, eq.u)
    return _classify_kummer(eq.u)


# ---------------------------------------------------------------------------
# Kummer presentations
# ---------------------------------------------------------------------------

def _classify_kummer(u: RLaurent) -> TorsorData:
    ring = u.ring
    out, w, state = reduce_kummer_unit(u)
    if state["kind"] == "a1":
        return _normalize_monomial(u, state["l"])
    if state["kind"] == "a2":
        return _normalize_direct_root(u, out, w, state["m"], 0)
    if state["kind"] == "level":
        if state["tau"] % ring.p:
            raise ValueError(
                f"no stable reading: stratum valuation {state['tau']} is "
                "not divisible by p (no presentation at an integral level)")
        return _normalize_direct_root(u, out, w, state["m"], state["tau"])
    # etale stratum: peel lambda^p and classify the leftover additively
    pr = ring.p * ring.v_lambda
    body = div_pi(out - RLaurent.one(ring, prec=out.prec), pr)
    td = _classify_etale(body)
    # record the p-th powers stripped on the way down
    return TorsorData(td.group_tag, td.m, td.c, td.delta,
                      td.normalized_equation, td.parameter_change, w)


def _normalize_monomial(u: RLaurent, l: int) -> TorsorData:
    """Residue lead exponent l coprime to p: Z^p = T^h with h = l mod p.

    With v = u T^{-l} and s the h-th root of v, the change T' = T*s and
    witness w = T^{-q} (l = h + pq) give u * w^p = (T')^h exactly.
    """
    ring = u.ring
    p = ring.p
    h = l % p
    q = (l - h) // p
    v = u.shift(-l)
    s = series_root(v, h)
    w = RLaurent.monomial(ring, -q, prec=u.prec)
    norm = TorsorEquation("Kummer", RLaurent.monomial(ring, h, prec=u.prec))
    return TorsorData(MU_P, 0, 0, ring.e, norm, s, w)


def _normalize_direct_root(u: RLaurent, out: RLaurent, w: RLaurent,
                           m: int, tau: int) -> TorsorData:
    """Stripped unit out = 1 + D with stratum valuation tau (0 for mu_p)
    and lowest coprime stratum exponent m: one more multi-term strip
    removes the p-divisible stratum exponents below m, and then
    s = (pi^-tau D T^-m)^(1/m) turns the equation into
    1 + pi^tau (T')^m on the nose."""
    ring = u.ring
    p = ring.p
    one = RLaurent.one(ring, prec=out.prec)
    D = out - one
    low = {e: c for e, c in D.coeffs.items()
           if c.val() == tau and e < m and e % p == 0}
    if low:
        n = tau // p
        sres = KLaurent(ring.field,
                        {e: (c.exact_div_pi(tau) if tau else c).residue()
                         for e, c in low.items()}, D.hi)
        groot = sres.pth_root()
        scale = ring.pi_power(n) if n else ring.one()
        g = RLaurent(ring,
                     {e: scale * ring.from_residue(c)
                      for e, c in groot.coeffs.items()},
                     out.lo, out.hi, out.prec)
        absorber = one + g
        out = out * binom_power(absorber, -p)
        w = w * invert_unit(absorber)
        D = out - RLaurent.one(ring, prec=out.prec)
    body = div_pi(D, tau) if tau else D
    s = series_root(body.shift(-m), m)
    if tau:
        n = tau // p
        norm = TorsorEquation(
            "Hn", RLaurent.monomial(ring, m, prec=body.prec), n=n)
        tag = hn(n)
        delta = ring.e - n * (p - 1)
    else:
        norm_u = one + RLaurent.monomial(ring, m, prec=out.prec)
        norm = TorsorEquation("Kummer", norm_u)
        tag = MU_P
        delta = ring.e
    return TorsorData(tag, m, -m, delta, norm, s, w)


# ---------------------------------------------------------------------------
# declared-level and etale presentations
# ---------------------------------------------------------------------------

def _classify_hn(n: int, u: RLaurent) -> TorsorData:
    """(1 + pi^n Z)^p = 1 + pi^{np} u at the declared level n: the
    conductor is read off u's residue directly and the normalization is
    delegated to the equivalent Kummer presentation."""
    ring = u.ring
    res = u.residue()
    if res.is_zero():
        raise ValueError("unit required (residue vanishes at this precision)")
    coprime = [e for e in res.coeffs if e % ring.p]
    if not coprime:
        raise ValueError("level n overstated: every residue exponent of u "
                         "is divisible by p")
    m = min(coprime)
    tau = n * ring.p
    v = RLaurent.one(ring, prec=u.prec) + u.scale(ring.pi_power(tau))
    out, w, state = reduce_kummer_unit(v)
    if state != {"kind": "level", "tau": tau, "m": m}:
        raise ValueError("level n overstated: the stratum reading moved "
                         f"away from the declared level (got {state})")
    return _normalize_direct_root(v, out, w, m, tau)


def _classify_etale(u: RLaurent) -> TorsorData:
    ring = u.ring
    red, m, _ = as_reduce_witness(u.residue())
    if m is ZERO_CLASS:
        raise ValueError("trivial torsor: the residue class is an "
                         "Artin-Schreier coboundary")
    sbar = _monomialize_residue(red, m)
    s_lift = RLaurent(ring,
                      {e: ring.from_residue(c)
                       for e, c in sbar.coeffs.items()},
                      min(sbar.coeffs), sbar.hi, ring.e * ring.M)
    norm = TorsorEquation(
        "Etale", RLaurent.monomial(ring, m, prec=u.prec))
    return TorsorData(ETALE, m, -m, 0, norm, s_lift, None)


def _monomialize_residue(red: KLaurent, m: int) -> KLaurent:
    """Unit sbar of k[[t]] with red(t*sbar) = t^m exactly.

    Newton iteration: the s-derivative of red(t*s) is (sum i c_i (ts)^i)/s
    whose lead coefficient m*c_m is a unit precisely because gcd(m,p)=1.
    """
    F = red.field
    work_hi = red.hi if red.hi < INF_EXP else 4 * abs(m) + 16
    work_hi = max(work_hi, abs(m) + 8)
    redD = KLaurent(F, {e: F.mul(F.from_int(e % F.p), c)
                        for e, c in red.coeffs.items()}, red.hi)
    target = KLaurent.monomial(F, m)
    gamma = F.nth_root(F.inv(red.coeffs[m]), m)
    s = KLaurent(F, {0: gamma}, work_hi)
    t_mono = KLaurent.monomial(F, 1)
    for _ in range(40):
        phi = (t_mono * s).restrict_hi(work_hi + 1)
        err = (ksubstitute(red, phi, hi=work_hi) - target).restrict_hi(
            work_hi)
        if err.is_zero():
            return s
        deriv = ksubstitute(redD, phi, hi=work_hi)
        s = (s - err * s * deriv.inverse(hi=work_hi)).restrict_hi(work_hi)
    raise ValueError("increase precision/window (residue normalization "
                     "did not converge)")
