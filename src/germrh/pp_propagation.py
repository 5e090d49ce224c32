"""Closed-form invariants one level up a (p, p)-cover.

Given the classification data of two generically disjoint degree-p
covers of the same boundary, the conductors, group schemes and
different degrees of the compositum over each intermediate cover follow
from one ordered rule: what cover q becomes when pulled back over cover
b.  Everything here is exact integer arithmetic; the series machinery
only enters through the classification data handed in, and through the
oracle that cross-checks this rule on grids.

Conventions: conductor variables m (c = -m) as in the classification
layer; v(p) = e = r(p-1).  Group tags are read as levels l, as in the
Sekiguchi-Oort-Suwa deformation of Kummer into Artin-Schreier theory:
mu_p at 0, H_n at n (0 < n < r), etale at r.  Pulling q back over b:
if (l_b, m_b) <= (l_q, m_q) lexicographically, then m' = m_q and
x = e + l_q; otherwise m' = m_q p - m_b (p-1) and
x = e + l_q p - l_b (p-1).  The upper level is l' = x / p (mu_p at 0,
etale at r, H_l' between) and the upper different is (r - l')(p-1);
when p does not divide x the different block does not exist.
"""

from dataclasses import dataclass
from math import gcd

from .dvr_core import RingDescriptor
from .torsor_norm import ETALE, MU_P, GroupTag, TorsorData, hn

__all__ = [
    "PPInput",
    "PPResult",
    "conductor_relation_check",
    "is_fiber_product_torsor",
    "level_data",
    "propagate",
    "special_different",
    "tower_propagate",
    "upper_differents",
]


@dataclass(frozen=True)
class PPInput:
    """A pair of degree-p covers over one boundary, by their invariants.

    Generic disjointness, ramification index 1 and reducedness of the
    composite special fibre are the caller's responsibility; the oracle
    can falsify them but this module assumes them.
    """

    g1: TorsorData
    g2: TorsorData
    ring: RingDescriptor


@dataclass(frozen=True)
class PPResult:
    """Invariants of the compositum over the two intermediate covers.

    The different block (g1p/g2p/d1p/d2p/delta_total) is None when the
    ring parameters make the different table non-integral; conductors
    and the special different never need that hypothesis.
    """

    m1p: int
    m2p: int
    c1p: int
    c2p: int
    g1p: GroupTag | None
    g2p: GroupTag | None
    d1p: int | None
    d2p: int | None
    ds: int
    delta_total: int | None


def special_different(c: int, cp: int, p: int) -> int:
    """Conductor jump contribution of one intermediate tower path."""
    return (c - 1) * p * (p - 1) + (cp - 1) * (p - 1)


def conductor_relation_check(c1: int, c2: int, c1p: int, c2p: int,
                             p: int) -> bool:
    return c2p - c1p == (c1 - c2) * p


def is_fiber_product_torsor(tags) -> bool:
    """The compositum is itself a torsor (under the product group) iff
    at most one of the covers is non-etale."""
    tags = list(tags)
    if len(tags) < 2:
        raise ValueError("need at least two covers")
    return sum(1 for t in tags if t.kind != "Etale") <= 1


def _level(tag: GroupTag, r: int) -> int:
    """Group-scheme level: mu_p at 0, H_n at n, etale at r = v(lambda)."""
    if tag.kind == "Hn":
        return tag.n
    return r if tag.kind == "Etale" else 0


def level_data(tag: GroupTag, m: int, ring: RingDescriptor) -> TorsorData:
    """Invariant-only record for a cover known by tag and conductor.

    Used for table-level work (towers, grids) where no equation has
    been classified; the series-bearing fields stay empty.  An Hn level
    must lie in 0 < n < r, as classify gives it; m is taken as given.
    """
    if tag.kind == "Hn" and not 0 < tag.n < ring.v_lambda:
        raise ValueError(f"level {tag.n} outside 0 < n < {ring.v_lambda}")
    delta = (ring.v_lambda - _level(tag, ring.v_lambda)) * (ring.p - 1)
    return TorsorData(tag, m, -m, delta, None, None, None)


def _pull(base: TorsorData, pulled: TorsorData,
          ring: RingDescriptor) -> tuple:
    """(m', x) of the cover `pulled` pulled back over the cover `base`.

    x = p * (upper level); p not dividing x means the ring parameters
    leave the different block non-integral.
    """
    p, e, r = ring.p, ring.e, ring.v_lambda
    lb, lq = _level(base.group_tag, r), _level(pulled.group_tag, r)
    if (lb, base.m) <= (lq, pulled.m):
        return pulled.m, e + lq
    return pulled.m * p - base.m * (p - 1), e + lq * p - lb * (p - 1)


def upper_differents(inp: PPInput) -> tuple:
    """Different degrees of the compositum over each intermediate cover."""
    ring = inp.ring
    p = ring.p
    xs = (_pull(inp.g1, inp.g2, ring)[1], _pull(inp.g2, inp.g1, ring)[1])
    for x in xs:
        if x % p:
            raise ValueError(
                "ring parameters incompatible with table: the level "
                f"combination {x} is not divisible by p={p}; choose r "
                "so it is")
    return tuple((ring.v_lambda - x // p) * (p - 1) for x in xs)


def propagate(inp: PPInput) -> PPResult:
    """Level-two conductors, groups and differents for the pair.

    Cross-checks on every call: the two special differents agree, the
    conductor relation c'_2 - c'_1 = (c_1 - c_2)p holds, coprimality is
    preserved, and when the different block exists the total different
    is additive along both paths.
    """
    g1, g2 = inp.g1, inp.g2
    ring = inp.ring
    p, r = ring.p, ring.v_lambda
    if g1.group_tag == g2.group_tag == MU_P and g1.m == g2.m == 0:
        raise ValueError("use oracle (both conductors vanish; the "
                         "closed form needs at least one non-zero)")
    m1p, m2p = _pull(g1, g2, ring)[0], _pull(g2, g1, ring)[0]
    c1p, c2p = -m1p, -m2p
    ds = special_different(g1.c, c1p, p)
    assert ds == special_different(g2.c, c2p, p), \
        "special differents disagree (pull-back rule bug)"
    assert conductor_relation_check(g1.c, g2.c, c1p, c2p, p), \
        "conductor relation violated (pull-back rule bug)"
    if g1.m % p and g2.m % p:
        assert gcd(m1p, p) == 1 and gcd(m2p, p) == 1, \
            "coprimality lost (pull-back rule bug)"
    try:
        d1p, d2p = upper_differents(inp)
    except ValueError:
        # the two x are congruent mod p: both blocks exist or neither
        return PPResult(m1p, m2p, c1p, c2p, None, None, None, None, ds,
                        None)
    uppers = [r - d // (p - 1) for d in (d1p, d2p)]
    assert all(0 <= u <= r for u in uppers), \
        f"pull-back rule produced an illegal level in {uppers}"
    g1p, g2p = (ETALE if u == r else MU_P if u == 0 else hn(u)
                for u in uppers)
    total = g1.delta + d1p
    assert total == g2.delta + d2p, \
        "different degree not additive (inputs inconsistent with tags)"
    return PPResult(m1p, m2p, c1p, c2p, g1p, g2p, d1p, d2p, ds, total)


def tower_propagate(levels, ring: RingDescriptor) -> dict:
    """Edge conductors of the compositum tower of three covers.

    The two adjacent pairs are propagated first; the top cover is then
    the compositum of the two intermediate covers over the shared
    middle one, which is again a (p, p) pair, now under the upper group
    tags.  Needs the different block of both pairs (the pull-back rule
    compares the upper levels of the top pair).
    """
    levels = list(levels)
    if len(levels) == 2:
        return {"pairs": [propagate(PPInput(levels[0], levels[1], ring))]}
    if len(levels) != 3:
        raise ValueError("towers of height 2 or 3 only")
    r12 = propagate(PPInput(levels[0], levels[1], ring))
    r23 = propagate(PPInput(levels[1], levels[2], ring))
    for rr in (r12, r23):
        if rr.g1p is None:
            raise ValueError("tower needs the different block; "
                             "ring parameters incompatible with table")
    mid1 = level_data(r12.g2p, r12.m2p, ring)
    mid2 = level_data(r23.g1p, r23.m1p, ring)
    top = propagate(PPInput(mid1, mid2, ring))
    return {"pairs": [r12, r23], "top": top,
            "c_top": (top.c1p, top.c2p)}
