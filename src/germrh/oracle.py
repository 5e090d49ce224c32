"""Brute-force base change: the independent route to upper conductors.

The closed forms in pp_propagation predict what happens one level up
without ever leaving integer arithmetic.  This module recomputes the
same invariants the slow way: expand the covering boundary parameter of
the first cover as a Laurent series, substitute it into the second
equation, and classify whatever comes out.  Nothing here consults the
case tables, so agreement between the two routes is a real check.

Pairs with an etale factor are handled at the residue level: etale base
change leaves the different alone and the pulled-back class already
lives in the special fibre.  All other pairs stay over R, where the
p-th-power stripping engine rediscovers the level of the pulled-back
equation on its own (it is allowed to land on a different group scheme
than either input; that is the phenomenon being measured).

Series bookkeeping over R splits by direction.  The normal-form
expansion T' = Z^p(1+B)^{1/m} has a tail of unbounded negative exponent
but strictly positive valuation, so everything built from it stays on
an unbounded window and is simply truncated in valuation; the parameter
change s, by contrast, is only known on the window of the presented
equation, so its compositional inversion happens in nonnegative
exponents where windows survive.  Composing the two views at the end
keeps every intermediate exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .laurent import (
    KLaurent,
    RLaurent,
    ZERO_CLASS,
    _powers,
    as_reduce_witness,
    binom_power,
    div_pi,
    is_pth_power,
    kbinom_power,
    ksubstitute,
    reduce_kummer_unit,
    substitute,
)
from .torsor_norm import ETALE, MU_P, TorsorData, TorsorEquation, classify, hn

__all__ = [
    "PulledBackEquation",
    "boundary_reducedness",
    "oracle_conductor",
    "parameter_expansion",
    "pullback",
]

_DISJOINT = ("trivial pullback: the covers are not generically disjoint "
             "(the pulled-back class vanishes)")


@dataclass(frozen=True)
class PulledBackEquation:
    """One cover base-changed along the boundary of another.

    rhs is the series the conductor is read from: the full Kummer unit
    over R (variable Z) for pairs without an etale factor, the residue
    class body (variable z) otherwise.  stage_log records every
    reduction applied on the way, each with the witness that makes the
    step re-checkable; its inversion_steps and parameter_steps count the
    passes of the Newton reversion that solved for the parameter.
    """

    variable: str
    rhs: RLaurent | KLaurent
    stage_log: tuple = ()


def parameter_expansion(td: TorsorData, hi: int | None = None):
    """Normal-form boundary parameter as a series in the covering one.

    Etale covers expand at the residue level: with z1 = z^m the relation
    z1^p - z1 = t^m forces t = z^p (1 - z^{-m(p-1)})^{1/m}, and hi bounds
    the geometric tail.  Over R the defining relation is solved the same
    way: T^m = pi^{-np}((1 + pi^n Z^m)^p - 1) = Z^{mp}(1 + B) gives
    T = Z^p (1 + B)^{1/m}, exact on an unbounded window to the precision
    surviving the division (n = 0 for mu_p; the monomial case is plain
    T = Z^p).  Both worlds take the principal root, constant term 1.
    """
    tag = td.group_tag
    if td.normalized_equation is None:
        raise ValueError("expansion needs a classified cover, not an "
                         "invariant-only record")
    ring = td.normalized_equation.ring
    p = ring.p
    m = td.m
    if tag.kind == "Etale":
        hi_k = abs(m) * (p + 2) + 4 * p if hi is None else hi
        base = KLaurent.from_terms(ring.field, {0: 1, -m * (p - 1): -1},
                                   hi=hi_k - p)
        return kbinom_power(base, Fraction(1, m)).shift(p)
    if tag.kind == "MuP" and m == 0:
        return RLaurent.monomial(ring, p)
    n = tag.n if tag.kind == "Hn" else 0
    one = RLaurent.one(ring)
    rel = (one + RLaurent.from_terms(ring, {m: ring.pi_power(n)})) ** p - one
    if n:
        rel = div_pi(rel, n * p)
    return binom_power(rel.shift(-m * p), Fraction(1, m)).shift(p)


def pullback(eq2: TorsorEquation, texpr,
             hi: int | None = None) -> PulledBackEquation:
    """Base-change eq2 along another cover's parameter expansion.

    A residue-level texpr pulls the residue class body of eq2 (the raw
    residue when faithful, the peeled stratum body when the presentation
    buries the class under p-th powers).  An R-level texpr pulls the
    full defining unit, re-wrapped at the declared level for Hn.
    """
    log = []
    if isinstance(texpr, KLaurent):
        body = _residue_body(eq2)
        log.append(("residue_body", body))
        rhs = ksubstitute(body, texpr, hi=hi)
        log.append(("composed", rhs))
        return PulledBackEquation("z", rhs, tuple(log))
    if eq2.kind == "Etale":
        raise ValueError("etale equations pull back at the residue level; "
                         "pass a residue expansion")
    rhs = substitute(eq2.u, texpr)
    log.append(("composed", rhs))
    if eq2.kind == "Hn":
        tau = eq2.n * eq2.ring.p
        one = RLaurent.one(eq2.ring, prec=rhs.prec)
        rhs = one + rhs.scale(eq2.ring.pi_power(tau))
        log.append(("level_wrap", tau))
    return PulledBackEquation("Z", rhs, tuple(log))


def oracle_conductor(eq1: TorsorEquation, eq2: TorsorEquation,
                     hi: int | None = None, check_stability: bool = True,
                     with_log: bool = False):
    """Conductor and group tag of eq2 pulled back over eq1's cover.

    Classifies both inputs, expands eq1's original (pre-normalization)
    boundary parameter, substitutes it into eq2, and reads the result:
    by re-classification over R when no etale factor is present, by the
    residue reading rules otherwise.  The reading is recomputed with a
    deeper valuation cut and a wider exponent window and must agree,
    else "not determined at precision".
    """
    td1 = classify(eq1)
    td2 = classify(eq2)
    hi0 = _default_hi(eq1, eq2) if hi is None else hi
    m1, tag1, peq = _conductor_once(eq1, td1, eq2, td2, hi0, wide=False)
    if check_stability:
        m2b, tag2b, _ = _conductor_once(eq1, td1, eq2, td2, 2 * hi0,
                                        wide=True)
        if (m1, tag1) != (m2b, tag2b):
            raise ValueError(
                f"not determined at precision {eq1.u.prec} (window {hi0}): "
                f"widening the reading moved it from "
                f"{(m1, str(tag1))} to {(m2b, str(tag2b))}")
    if with_log:
        return m1, tag1, peq
    return m1, tag1


def boundary_reducedness(eq1: TorsorEquation, eq2: TorsorEquation,
                         hi: int | None = None) -> bool:
    """Reducedness of the special fibre of the fibre-product boundary.

    An etale factor keeps a separable additive equation mod pi, so two
    etale factors are always reduced.  Otherwise the non-etale factor
    degenerates to Z^p = (pulled-back unit) and reducedness is exactly
    that unit not being a p-th power: over a non-etale base the
    parameter expansion lands in k((z^p)) and kills every coprime
    exponent; over an etale base the correction tail supplies one.
    """
    td1 = classify(eq1)
    td2 = classify(eq2)
    if td2.group_tag.kind == "Etale" and td1.group_tag.kind != "Etale":
        eq1, eq2, td1, td2 = eq2, eq1, td2, td1
    if td2.group_tag.kind == "Etale":
        return True
    hi0 = _default_hi(eq1, eq2) if hi is None else hi
    tbar, _ = _parameter_residue(td1, hi0)
    return not is_pth_power(pullback(eq2, tbar, hi=hi0).rhs)


# ---------------------------------------------------------------------------
# the two routes
# ---------------------------------------------------------------------------

def _conductor_once(eq1, td1, eq2, td2, hi, wide):
    if "Etale" in (td1.group_tag.kind, td2.group_tag.kind):
        return _residue_route(td1, eq2, td2, hi)
    ring = eq1.ring
    pr = ring.p * ring.r
    s = td1.parameter_change
    if s.hi < pr + 4:
        raise ValueError("widen window: the base equation is too narrow "
                         "to invert its parameter change")
    hi_x = s.hi if wide else max(pr + 4, s.hi // 2)
    phi, steps = _presented_parameter(s, hi_x)
    psi = substitute(eq2.u, phi)
    n1 = td1.group_tag.n if td1.group_tag.kind == "Hn" else 0
    cap = min(psi.prec, ring.e * ring.M - n1 * ring.p)
    depth = min((pr + 4) * (2 if wide else 1), cap)
    if depth < pr + 2:
        raise ValueError("increase precision: the composed unit cannot "
                         "reach the p-th power threshold")
    v = _compose_exact(psi, td1, depth)
    log = (("route", "ring"), ("presented_parameter", phi),
           ("inversion_steps", steps), ("composed_depth", depth))
    if td2.group_tag.kind == "Hn":
        tau2 = td2.group_tag.n * ring.p
        one = RLaurent.one(ring, prec=v.prec)
        v = one + v.scale(ring.pi_power(tau2))
        log += (("level_wrap", tau2),)
    if any(e for e in v.residue().coeffs):
        # a rich residue sends the stripping engine through val-0
        # absorbers whose inverses only terminate on a finite window;
        # level-wrapped pullbacks keep the unbounded window, where every
        # absorber carries positive valuation
        v = v.restrict(hi=min(ring.p * hi_x, hi))
    try:
        out, w, state = reduce_kummer_unit(v)
    except ValueError as err:
        if "trivial torsor" in str(err):
            raise ValueError(_DISJOINT) from err
        raise
    log += (("reduction_witness", w),)
    # reading only; the reduced unit is never renormalized, so this works
    # over residue fields too small to host the normal-form root choices
    if state["kind"] == "a1":
        m, tag = 0, MU_P
    elif state["kind"] == "a2":
        m, tag = state["m"], MU_P
    elif state["kind"] == "level":
        # a stratum off the p-grid has no group-scheme level; the tag is
        # None exactly where the closed-form tables go non-integral
        tau = state["tau"]
        m = state["m"]
        tag = hn(tau // ring.p) if tau % ring.p == 0 else None
    else:
        one = RLaurent.one(ring, prec=out.prec)
        body = div_pi(out - one, ring.p * ring.v_lambda)
        wbar, log = _fold_constant(body.residue(), log)
        _, m, wit = as_reduce_witness(wbar)
        if m is ZERO_CLASS:
            raise ValueError(_DISJOINT)
        tag = ETALE
        log += (("as_reduce_witness", wit),)
    log += (("read", (m, str(tag))),)
    return m, tag, PulledBackEquation("Z", v, log)


def _residue_route(td1, eq2, td2, hi):
    tbar, steps = _parameter_residue(td1, hi)
    peq = pullback(eq2, tbar, hi=hi)
    log = (("route", "residue"), ("parameter", tbar),
           ("parameter_steps", steps)) + peq.stage_log
    kind2 = td2.group_tag.kind
    if kind2 == "Etale":
        wbar, log = _fold_constant(peq.rhs, log)
        _, mprime, wit = as_reduce_witness(wbar)
        if mprime is ZERO_CLASS:
            raise ValueError(_DISJOINT)
        tag = ETALE
        log += (("as_reduce_witness", wit),)
    elif kind2 == "MuP":
        mprime, strip_log = _mu_read(peq.rhs)
        tag = MU_P
        log += strip_log
    else:
        mprime = _alpha_read(peq.rhs)
        tag = td2.group_tag
    log += (("read", (mprime, str(tag))),)
    return mprime, tag, PulledBackEquation(peq.variable, peq.rhs, log)


def _residue_body(eq: TorsorEquation) -> KLaurent:
    """Residue series carrying the class of the cover.

    Raw residues are faithful for etale and declared-level equations and
    for Kummer units readable mod pi; a Kummer presentation whose class
    hides below the residue is peeled down to its stratum body first.
    """
    if eq.kind != "Kummer":
        return eq.u.residue()
    out, _, state = reduce_kummer_unit(eq.u)
    if state["kind"] in ("a1", "a2"):
        return eq.u.residue()
    one = RLaurent.one(eq.ring, prec=out.prec)
    if state["kind"] == "level":
        return div_pi(out - one, state["tau"]).residue()
    return div_pi(out - one, eq.ring.p * eq.ring.v_lambda).residue()


def _fold_constant(w: KLaurent, log):
    """Drop the constant slot before an additive reduction.

    The invariants are geometric, computed over the algebraic closure of
    the residue field where x^p - x = c always splits; a small concrete
    field may fail to host the root, so the fold happens here instead of
    inside the reduction.
    """
    c0 = w.coeff(0)
    if any(c0):
        w = w - KLaurent.from_terms(w.field, {0: c0})
        log = log + (("constant_folded", c0),)
    return w, log


# ---------------------------------------------------------------------------
# original-parameter recovery
# ---------------------------------------------------------------------------

def _presented_parameter(s: RLaurent, hi_x: int):
    """(phi, passes): the presented parameter of the base cover in its
    normal-form one x, phi(x) * s(phi(x)) = x up to x^hi_x, by Newton."""
    x = RLaurent.monomial(s.ring, 1, prec=s.prec).restrict(hi=hi_x)
    return _reversion(s, x)


def _compose_exact(psi: RLaurent, td1: TorsorData, depth: int) -> RLaurent:
    """Recompose psi along the exact expansion: sum of psi_j * T'(Z)^j.

    T'(Z) = Z^p * G with G = (1+B)^{1/m} and B of strictly positive
    valuation, so powers of G are exact on an unbounded window; the
    precision cut to `depth` drops coefficients as they cross it, which
    is what keeps the supports finite.  Negative exponents of psi go
    through (1+B)^{-1/m} rather than a series inversion, because
    inverting an exact series with val-0 tail terms is not a terminating
    operation.
    """
    ring = psi.ring
    p = ring.p
    prec = min(psi.prec, depth)
    G = parameter_expansion(td1).shift(-p).restrict(prec=prec)
    acc = RLaurent.zero(ring, prec=prec)
    if 0 in psi.coeffs:
        acc = acc + RLaurent.from_terms(ring, {0: psi.coeffs[0]}, lo=0,
                                        prec=prec)
    for sign in (1, -1):
        js = sorted(sign * j for j in psi.coeffs if sign * j > 0)
        if not js:
            continue
        step = G if sign > 0 else binom_power(G, -1)
        power, at = RLaurent.one(ring, prec=prec), 0
        for j in js:
            for _ in range(j - at):
                power = power * step
            at = j
            acc = acc + power.shift(p * sign * j).scale(psi.coeffs[sign * j])
    return acc


def _parameter_residue(td: TorsorData, hi: int) -> tuple:
    """(tbar, passes): the base cover's presented parameter mod pi.

    Etale bases solve for it outright.  Otherwise the level tail of the
    expansion has positive valuation, so the normal-form parameter is
    z^p mod pi and tbar = phibar(z^p), phibar * sbar(phibar) = z.
    """
    if td.group_tag.kind == "Etale":
        return _original_parameter_k(td, hi)
    sbar = td.parameter_change.residue()
    F = sbar.field
    x = KLaurent(F, {1: F.one}, min(max(4, hi // F.p + 2), sbar.hi))
    phibar, steps = _reversion(sbar, x)
    zcover = KLaurent.monomial(F, F.p)
    return ksubstitute(phibar, zcover).restrict_hi(F.p * x.hi), steps


def _original_parameter_k(td, hi):
    """Etale covers: (t, passes) with t*sbar(t) = t' up to z^hi, t' the
    normal-form expansion, by the Newton reversion from t'."""
    tprime = parameter_expansion(td, hi=hi)
    return _reversion(td.parameter_change.residue(), tprime)


def _reversion(s, target):
    """(phi, passes) with phi * s(phi) = target on target's window.

    Newton over R or F_q (Brent and Kung, J. ACM 25(4), 1978), s a unit
    of nonnegative support: phi <- phi - (phi*s(phi) - target)*y, where
    y <- y(2 - D*y) follows 1/D, D = s(phi) + phi*s'(phi) = ((Ts)')(phi).
    Pass 1 checks the start phi = target on the whole window; each later
    pass works up to twice the exponents the one before left right, and
    the last finds the residual zero on the whole window at its precision.
    """
    # like(u, terms, w): the terms as a series like u, exact up to T^w
    if isinstance(s, KLaurent):
        sub, like = ksubstitute, lambda u, c, w: KLaurent(u.field, c, w)
    else:
        sub, like = substitute, lambda u, c, w: RLaurent(u.ring, c, u.lo, w,
                                                          u.prec)
    phi, y = target, like(s, s.coeffs, 0) ** -1
    hi = w = target.hi
    for steps in range(1, hi + 5):
        phi, y = like(phi, phi.coeffs, w), like(y, y.coeffs, w)
        # s(phi) and D = sum (e+1) s_e phi^e off one walk of phi's powers
        at = D = sub(like(s, {0: s.coeffs[0]}, 0), phi)
        for e, power in _powers(s.coeffs, phi, None):
            term = power.scale(s.coeffs[e])
            at, D = at + term, D + term.scale(e + 1)
        resid = phi * at - target
        if resid.is_zero() and resid.hi >= hi:
            return phi, steps
        y = y.scale(2) - y * (D * y)
        phi = phi - resid * y
        d = resid.min_support()
        w = min(hi, 2 * (w if d is None else min(w, 2 * max(d, 1) - 1)))
    raise ValueError("parameter inversion exceeded the iteration budget; "
                     "widen window")


# ---------------------------------------------------------------------------
# residue-level conductor readings
# ---------------------------------------------------------------------------

def _mu_read(w: KLaurent):
    """Minimal p-coprime exponent of a residue Kummer class.

    Strips everything a unit p-th power can reach: the leading monomial
    (p-divisible after composition through a degree-p parameter), the
    constant (every constant has a p-th root over a perfect field), then
    one p-divisible minimum of the tail at a time.  Each strip is logged
    with its multiplier; what stops the loop is the reading.
    """
    F = w.field
    p = F.p
    log = []
    l = w.min_support()
    if l is None:
        raise ValueError(_DISJOINT)
    if l % p:
        # monomial lead coprime to p: conductor 0, nothing to strip
        return 0, (("monomial_lead", l),)
    if l:
        w = w.shift(-l)
        log.append(("monomial_strip", l))
    c0 = w.coeff(0)
    w = w.scale(F.inv(c0))
    log.append(("constant_normalized", c0))
    one = KLaurent.one(F)
    cap = 10 * (max(w.hi, 1) + 1)
    for _ in range(cap):
        D = w - one
        j = D.min_support()
        if j is None:
            raise ValueError(_DISJOINT)
        if j % p:
            return j, tuple(log)
        g = one + KLaurent.monomial(F, j // p, F.frobenius_inv(D.coeff(j)))
        w = w * (g ** p).inverse(w.hi)
        log.append(("p_power_strip", g))
    raise ValueError("p-th power stripping exceeded the iteration budget; "
                     "widen window")


def _alpha_read(w: KLaurent) -> int:
    """Minimal p-coprime exponent of a pulled-back level unit.

    Level units absorb additive p-th powers only, and those live on
    p-divisible exponents, so the coprime support is untouchable and its
    minimum is the conductor.
    """
    coprime = [e for e in w.coeffs if e % w.field.p]
    if not coprime:
        raise ValueError("widen window: no p-coprime exponent in the "
                         "pulled-back level unit")
    return min(coprime)


def _default_hi(eq1: TorsorEquation, eq2: TorsorEquation) -> int:
    ring = eq1.ring
    spread = 1
    for eq in (eq1, eq2):
        sup = eq.u.support()
        if sup:
            spread += max(abs(sup[0]), abs(sup[-1]))
    return ring.p * (spread + ring.v_lambda + 8)
