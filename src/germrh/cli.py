"""Batch front end: cover spec files in, tables or JSON out.

Spec files are line-oriented key/value text with two-space indentation
and # comments.  Lists use bracket syntax, everything is an exact
integer, and p-adic coefficients are written as little-endian digit
lists in pi (entries reduced mod p^M; for s > 1 each pi-digit is
itself a list of s residue coordinates).  A file holds one optional
`ring` block, any number of `cover` blocks, and optional `tower` and
`genus` blocks:

    ring:
      p: 3          # r, s, M fall back to per-prime defaults
      r: 3
      series_prec: 14
      window: 30
    cover:          # concrete: kind + terms (exponent: coefficient)
      kind: kummer
      window: 40
      terms:
        0: 1
        2: [1, 0, 2]
    cover:          # abstract: tag + conductor variable
      tag: etale
      m: -5
    genus:
      g_x: 0
      r1: 2
      r2: 1
      boundary:
        pattern: PP

A cover is either abstract (tag/m/n, enough for the closed-form
commands) or concrete (kind/terms/n, enough to classify and to run the
series oracle); mixing the two forms in one entry is an error.  Every
schema complaint carries the offending line number.

A concrete cover's equation is a series known modulo pi^series_prec
(default v(lambda)(p + 1) + 2, the classification layer's policy, not
full capacity) on the exponents from its lowest term up to its window.
The window is the first one set of: the --window option, the cover's
`window:`, the ring block's `window:`, and max(18, 4 v(lambda) + 2p).
--window is also the oracle's read window, and --precision overrides
the ring's M.

Exit codes: 0 success, 1 input error, 2 verification mismatch,
3 precision instability.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .dvr_core import RElem, RingDescriptor, make_ring
from .laurent import RLaurent
from .oracle import boundary_reducedness, oracle_conductor
from .pp_propagation import (
    PPInput,
    is_fiber_product_torsor,
    level_data,
    propagate,
    tower_propagate,
)
from .torsor_norm import (
    GroupTag,
    TorsorData,
    TorsorEquation,
    classify,
    hn,
)
from .vanishing_cycles import (
    BoundaryBranchData,
    GermData,
    RamificationData,
    rh_type_pp,
    smoothness_test,
)

__all__ = [
    "CoverSpecFile",
    "SpecFileError",
    "cmd_classify",
    "cmd_genus",
    "cmd_propagate",
    "cmd_torsor_check",
    "cmd_tower",
    "cmd_verify",
    "load_spec",
    "main",
    "parse_spec_text",
]


class SpecFileError(ValueError):
    """Input rejected; the message carries file/line context."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


# ---------------------------------------------------------------------------
# layout parser: indentation blocks with line tracking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Leaf:
    value: object
    line: int


@dataclass(frozen=True)
class _Block:
    entries: tuple
    line: int

    def all(self, key: str) -> list:
        return [node for k, node in self.entries if k == key]

    def get(self, key: str):
        found = self.all(key)
        if len(found) > 1:
            raise SpecFileError(f"duplicate key {key!r}", found[1].line)
        return found[0] if found else None

    def check_keys(self, allowed, what: str):
        for k, node in self.entries:
            if k not in allowed:
                raise SpecFileError(f"unknown {what} key {k!r}", node.line)


def _scalar(text: str, line: int):
    if text.startswith("["):
        try:
            value = json.loads(text)
        except json.JSONDecodeError as err:
            raise SpecFileError(f"bad list: {err.msg}", line) from None
        return value
    try:
        return int(text)
    except ValueError:
        return text


def _scan(text: str) -> list:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].rstrip()
        if not body.strip():
            continue
        if body.lstrip(" ") != body.lstrip():
            raise SpecFileError("indent with spaces, not tabs", lineno)
        indent = len(body) - len(body.lstrip(" "))
        if indent % 2:
            raise SpecFileError("indentation must step by two spaces",
                                lineno)
        key, colon, rest = body.strip().partition(":")
        if not colon or not key.strip():
            raise SpecFileError("expected 'key: value' or 'key:'", lineno)
        rows.append((indent // 2, key.strip(), rest.strip() or None, lineno))
    return rows


def _build(rows, pos: int, level: int):
    entries = []
    while pos < len(rows):
        lvl, key, rest, line = rows[pos]
        if lvl < level:
            break
        if lvl > level:
            raise SpecFileError("unexpected indentation", line)
        if rest is None:
            children, pos = _build(rows, pos + 1, level + 1)
            entries.append((key, _Block(tuple(children), line)))
        else:
            entries.append((key, _Leaf(_scalar(rest, line), line)))
            pos += 1
    return entries, pos


def _parse_layout(text: str) -> _Block:
    rows = _scan(text)
    entries, pos = _build(rows, 0, 0)
    assert pos == len(rows)
    return _Block(tuple(entries), 0)


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------

_RING_DEFAULTS = {3: (3, 1, 8), 5: (5, 1, 6)}

_TAG_NAMES = {"etale": "Etale", "mup": "MuP", "mu_p": "MuP", "hn": "Hn"}
_KIND_NAMES = {"kummer": "Kummer", "etale": "Etale", "hn": "Hn"}


@dataclass(frozen=True)
class RingSpec:
    p: int
    r: int | None = None
    s: int | None = None
    M: int | None = None
    series_prec: int | None = None
    window: int | None = None
    line: int = 0


@dataclass(frozen=True)
class CoverSpec:
    """One cover entry: abstract (tag/m) xor concrete (kind/terms)."""

    line: int
    tag: str | None = None
    m: int | None = None
    kind: str | None = None
    terms: tuple = ()
    n: int | None = None
    window: int | None = None

    @property
    def concrete(self) -> bool:
        return self.kind is not None


@dataclass(frozen=True)
class GenusSpec:
    line: int
    g_x: int | None
    delta_x: int | None
    r_x: int | None
    r1: int
    r2: int
    p: int | None
    boundaries: tuple


@dataclass(frozen=True)
class CoverSpecFile:
    ring: RingSpec | None = None
    covers: tuple = ()
    tower: tuple | None = None
    genus: GenusSpec | None = None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _want_int(node, what: str) -> int:
    if not isinstance(node, _Leaf) or not _is_int(node.value):
        raise SpecFileError(f"{what} must be an integer", node.line)
    return node.value


def _opt_int(block: _Block, key: str, what: str) -> int | None:
    node = block.get(key)
    return None if node is None else _want_int(node, what)


def _want_word(node, what: str) -> str:
    if not isinstance(node, _Leaf) or not isinstance(node.value, str):
        raise SpecFileError(f"{what} must be a bare word", node.line)
    return node.value


def _want_block(node, what: str) -> _Block:
    if not isinstance(node, _Block):
        raise SpecFileError(f"{what} must open a block ('{what}:' on its "
                            "own line)", node.line)
    return node


def _read_ring(block: _Block) -> RingSpec:
    block.check_keys(("p", "r", "s", "M", "series_prec", "window"), "ring")
    p = block.get("p")
    if p is None:
        raise SpecFileError("ring block needs p", block.line)
    return RingSpec(p=_want_int(p, "p"),
                    r=_opt_int(block, "r", "r"),
                    s=_opt_int(block, "s", "s"),
                    M=_opt_int(block, "M", "M"),
                    series_prec=_opt_int(block, "series_prec",
                                         "series_prec"),
                    window=_opt_int(block, "window", "window"),
                    line=block.line)


def _read_cover(block: _Block) -> CoverSpec:
    block.check_keys(("tag", "m", "kind", "terms", "n", "window"), "cover")
    tag_node, kind_node = block.get("tag"), block.get("kind")
    if (tag_node is None) == (kind_node is None):
        raise SpecFileError(
            "a cover is abstract (tag/m) or concrete (kind/terms), "
            "exactly one of the two", block.line)
    n = _opt_int(block, "n", "n")
    window = _opt_int(block, "window", "window")
    if tag_node is not None:
        word = _want_word(tag_node, "tag")
        tag = _TAG_NAMES.get(word.lower())
        if tag is None:
            raise SpecFileError(f"unknown tag {word!r} (etale, mu_p, hn)",
                                tag_node.line)
        m_node = block.get("m")
        if m_node is None:
            raise SpecFileError("abstract cover needs m", block.line)
        if block.get("terms") is not None:
            raise SpecFileError("abstract cover takes no terms",
                                block.get("terms").line)
        return CoverSpec(line=block.line, tag=tag,
                         m=_want_int(m_node, "m"), n=n, window=window)
    word = _want_word(kind_node, "kind")
    kind = _KIND_NAMES.get(word.lower())
    if kind is None:
        raise SpecFileError(f"unknown kind {word!r} (kummer, etale, hn)",
                            kind_node.line)
    terms_node = block.get("terms")
    if terms_node is None:
        raise SpecFileError("concrete cover needs a terms block",
                            block.line)
    terms = []
    for key, node in _want_block(terms_node, "terms").entries:
        try:
            exp = int(key)
        except ValueError:
            raise SpecFileError(f"term exponent {key!r} must be an integer",
                                node.line) from None
        if not isinstance(node, _Leaf):
            raise SpecFileError("term coefficient must be a value",
                                node.line)
        terms.append((exp, node.value, node.line))
    if not terms:
        raise SpecFileError("terms block is empty", terms_node.line)
    return CoverSpec(line=block.line, kind=kind, terms=tuple(terms), n=n,
                     window=window)


def _read_boundary(block: _Block):
    block.check_keys(("pattern", "c1", "c1p"), "boundary")
    pat = block.get("pattern")
    if pat is None:
        raise SpecFileError("boundary needs a pattern", block.line)
    return (_want_word(pat, "pattern"),
            _opt_int(block, "c1", "c1"),
            _opt_int(block, "c1p", "c1p"),
            block.line)


def _read_genus(block: _Block) -> GenusSpec:
    block.check_keys(("g_x", "delta_x", "r_x", "r1", "r2", "p", "boundary"),
                     "genus")
    r1, r2 = block.get("r1"), block.get("r2")
    if r1 is None or r2 is None:
        raise SpecFileError("genus block needs r1 and r2", block.line)
    return GenusSpec(line=block.line,
                     g_x=_opt_int(block, "g_x", "g_x"),
                     delta_x=_opt_int(block, "delta_x", "delta_x"),
                     r_x=_opt_int(block, "r_x", "r_x"),
                     r1=_want_int(r1, "r1"), r2=_want_int(r2, "r2"),
                     p=_opt_int(block, "p", "p"),
                     boundaries=tuple(
                         _read_boundary(_want_block(b, "boundary"))
                         for b in block.all("boundary")))


def parse_spec_text(text: str) -> CoverSpecFile:
    root = _parse_layout(text)
    root.check_keys(("ring", "cover", "tower", "genus"), "top-level")
    ring_node = root.get("ring")
    tower_node = root.get("tower")
    genus_node = root.get("genus")
    tower = None
    if tower_node is not None:
        block = _want_block(tower_node, "tower")
        block.check_keys(("order",), "tower")
        order = block.get("order")
        if order is None:
            tower = ()
        else:
            if not isinstance(order, _Leaf) or not isinstance(order.value,
                                                              list):
                raise SpecFileError("tower order must be a list of cover "
                                    "indices", block.line)
            for i in order.value:
                if not _is_int(i):
                    raise SpecFileError("tower order must be a list of "
                                        "cover indices", order.line)
            tower = tuple(order.value)
    return CoverSpecFile(
        ring=None if ring_node is None
        else _read_ring(_want_block(ring_node, "ring")),
        covers=tuple(_read_cover(_want_block(c, "cover"))
                     for c in root.all("cover")),
        tower=tower,
        genus=None if genus_node is None
        else _read_genus(_want_block(genus_node, "genus")))


def load_spec(path: str) -> CoverSpecFile:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise SpecFileError(f"cannot read {path}: {err.strerror}") from None
    try:
        return parse_spec_text(text)
    except SpecFileError as err:
        raise SpecFileError(f"{path}: {err}") from None


# ---------------------------------------------------------------------------
# realization: spec entries to rings, equations, classification data
# ---------------------------------------------------------------------------

def _default_prec(ring: RingDescriptor) -> int:
    # policy precision of the classification layer, not full capacity
    return ring.v_lambda * (ring.p + 1) + 2


def _coefficient(value, line: int, ring: RingDescriptor) -> RElem:
    """One spec coefficient as an element of R known to full capacity."""
    if _is_int(value):
        value = [value]
    if not isinstance(value, list):
        raise SpecFileError("coefficient must be an integer or digit list",
                            line)
    if len(value) > ring.e:
        raise SpecFileError(f"coefficient has {len(value)} pi-digits; the "
                            f"ring holds {ring.e}", line)
    digits = []
    for entry in value:
        if ring.s == 1 and not _is_int(entry):
            raise SpecFileError("digits must be integers", line)
        if _is_int(entry):
            entry = [entry]
        if not isinstance(entry, list) or len(entry) > ring.s or not \
                all(_is_int(x) for x in entry):
            raise SpecFileError(f"each pi-digit needs up to {ring.s} "
                                "integer coordinates", line)
        digits.append(tuple(x % ring.pM for x in entry)
                      + (0,) * (ring.s - len(entry)))
    digits += [ring.gr_zero()] * (ring.e - len(digits))
    return RElem(ring, tuple(digits), ring.e * ring.M)


def _first(*values):
    """The first value that is set, for settings that override in order."""
    return next(v for v in values if v is not None)


def _realize(spec: CoverSpecFile, precision: int | None,
             window: int | None, concrete: bool = False) -> tuple:
    """(ring, equations, data) for the covers of `spec`, in file order.

    An abstract cover has no equation (None); with `concrete` it is an
    input error.  `precision` overrides the ring's M and `window` every
    equation's window, as the command-line options do.
    """
    rs = spec.ring or RingSpec(p=3)
    r, s, M = _RING_DEFAULTS.get(rs.p, (rs.p, 1, 6))
    try:
        ring = make_ring(rs.p, _first(rs.r, r), _first(rs.s, s),
                         _first(precision, rs.M, M))
    except ValueError as err:
        raise SpecFileError(str(err), rs.line) from None
    prec = _first(rs.series_prec, _default_prec(ring))
    equations, data = [], []
    for cover in spec.covers:
        if concrete and not cover.concrete:
            raise SpecFileError("this command needs concrete covers "
                                "(kind/terms)", cover.line)
        coeffs = {exp: _coefficient(value, line, ring)
                  for exp, value, line in cover.terms}
        hi = _first(window, cover.window, rs.window,
                    max(18, 4 * ring.v_lambda + 2 * ring.p))
        eq, failed = None, ""
        try:
            if cover.concrete:
                eq = TorsorEquation(cover.kind, RLaurent.from_terms(
                    ring, coeffs, hi=hi, prec=prec), cover.n)
                failed = "cover does not classify: "
                td = classify(eq)
            else:
                td = level_data(GroupTag(cover.tag, cover.n), cover.m, ring)
        except ValueError as err:
            raise SpecFileError(f"{failed}{err}", cover.line) from None
        equations.append(eq)
        data.append(td)
    return ring, equations, data


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _tag_str(tag: GroupTag | None) -> str | None:
    return None if tag is None else str(tag)


def _agrees(reading, want_m: int, want_tag: GroupTag | None) -> bool:
    """An oracle reading (m, tag, ...) agrees with the formula: on m
    always, and on the tag when the formula gives one."""
    return reading[0] == want_m and (want_tag is None
                                     or reading[1] == want_tag)


def _ring_report(ring: RingDescriptor) -> dict:
    return {"p": ring.p, "r": ring.v_lambda, "s": ring.s, "M": ring.M}


def _render_table(headers, rows) -> str:
    cells = [[("-" if v is None else str(v)) for v in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def _trace_report(log) -> dict:
    stages = {}
    for name, payload in log.stage_log:
        text = repr(payload)
        stages[name] = text if len(text) <= 160 else text[:157] + "..."
    return {"variable": log.variable, "stages": stages}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_classify(spec: CoverSpecFile, *, precision: int | None = None,
                 window: int | None = None) -> tuple:
    if not spec.covers:
        raise SpecFileError("no cover blocks to classify")
    ring, _, data = _realize(spec, precision, window, concrete=True)
    rows = [{"index": index, "kind": cover.kind,
             "group": _tag_str(td.group_tag), "n": td.group_tag.n,
             "m": td.m, "c": td.c, "delta": td.delta}
            for index, (cover, td) in enumerate(zip(spec.covers, data))]
    return {"command": "classify", "ring": _ring_report(ring),
            "covers": rows}, 0


def _upper_report(res) -> dict:
    return {"m1p": res.m1p, "m2p": res.m2p, "c1p": res.c1p,
            "c2p": res.c2p, "g1p": _tag_str(res.g1p),
            "g2p": _tag_str(res.g2p), "d1p": res.d1p, "d2p": res.d2p,
            "ds": res.ds, "delta_total": res.delta_total}


def _lower_report(td: TorsorData) -> dict:
    return {"group": _tag_str(td.group_tag), "m": td.m, "c": td.c,
            "delta": td.delta}


def cmd_propagate(spec: CoverSpecFile, *, oracle: bool = False,
                  trace: bool = False, precision: int | None = None,
                  window: int | None = None) -> tuple:
    if len(spec.covers) != 2:
        raise SpecFileError("propagate needs exactly two covers")
    ring, (eq1, eq2), (td1, td2) = _realize(spec, precision, window,
                                            concrete=oracle)
    report = {"command": "propagate", "ring": _ring_report(ring),
              "lower": [_lower_report(td1), _lower_report(td2)]}
    hint = ("run with --oracle" if None not in (eq1, eq2) else
            "the oracle needs concrete covers (kind/terms)")
    res = None
    try:
        res = _closed_form(td1, td2, ring)
    except ValueError as err:
        if not oracle:
            raise SpecFileError(f"{err}; {hint}") from None
        report["formula"] = None
        report["note"] = str(err)
    if res is not None:
        report["formula"] = _upper_report(res)
        if res.d1p is None:
            report["note"] = ("no integral level for the different table "
                              f"here; {hint} to cross-check conductors")
    if not oracle:
        return report, 0
    try:
        fwd = oracle_conductor(eq1, eq2, hi=window, with_log=trace)
        rev = oracle_conductor(eq2, eq1, hi=window, with_log=trace)
    except ValueError as err:
        report["oracle"] = {"unstable": str(err)}
        return report, 3
    report["oracle"] = {"m1p": fwd[0], "reading1": _tag_str(fwd[1]),
                        "m2p": rev[0], "reading2": _tag_str(rev[1])}
    if trace:
        report["oracle"]["trace1"] = _trace_report(fwd[2])
        report["oracle"]["trace2"] = _trace_report(rev[2])
    if res is None:
        return report, 0
    ok = _agrees(fwd, res.m1p, res.g1p) and _agrees(rev, res.m2p, res.g2p)
    report["match"] = ok
    return report, 0 if ok else 2


def cmd_tower(spec: CoverSpecFile, *, precision: int | None = None,
              window: int | None = None) -> tuple:
    if spec.tower is None:
        raise SpecFileError("no tower block")
    order = spec.tower or tuple(range(len(spec.covers)))
    for i in order:
        if not 0 <= i < len(spec.covers):
            raise SpecFileError(f"tower order index {i} out of range")
    ring, _, data = _realize(spec, precision, window)
    levels = [data[i] for i in order]
    try:
        result = tower_propagate(levels, ring)
    except ValueError as err:
        raise SpecFileError(str(err)) from None
    report = {"command": "tower", "ring": _ring_report(ring),
              "order": list(order),
              "lower": [_lower_report(td) for td in levels],
              "pairs": [_upper_report(r) for r in result["pairs"]]}
    if "top" in result:
        report["top"] = _upper_report(result["top"])
        report["c_top"] = list(result["c_top"])
    return report, 0


def cmd_genus(spec: CoverSpecFile) -> tuple:
    g = spec.genus
    if g is None:
        raise SpecFileError("no genus block")
    if g.p is not None:
        p = g.p
    elif spec.ring is not None:
        p = spec.ring.p
    else:
        raise SpecFileError("set p in the genus block or give a ring block",
                            g.line)
    boundaries = []
    for pattern, c1, c1p, line in g.boundaries:
        try:
            boundaries.append(BoundaryBranchData(
                pattern, c1 if c1 is not None else 1,
                c1p if c1p is not None else 1))
        except ValueError as err:
            raise SpecFileError(str(err), line) from None
    boundaries = tuple(boundaries)
    try:
        germ = GermData(g_x=g.g_x, delta_x=g.delta_x, r_x=g.r_x,
                        boundaries=boundaries)
        ram = RamificationData(g.r1, g.r2)
        g_y = rh_type_pp(germ.g_x, ram, boundaries, p)
    except ValueError as err:
        raise SpecFileError(str(err), g.line) from None
    report = {"command": "genus", "p": p, "g_x": germ.g_x,
              "r1": g.r1, "r2": g.r2, "d_eta": ram.d_eta(p),
              "d_s": sum(b.ds_term(p) for b in boundaries), "g_y": g_y}
    if germ.g_x == 0 and len(boundaries) == 1:
        b = boundaries[0]
        smooth = smoothness_test(g.r1, g.r2, b.c1, b.c1p, p, b.pattern)
        report["smooth"] = smooth
        report["smooth_reason"] = (
            f"pattern {b.pattern}, p(r1+r2-1) = {p * (g.r1 + g.r2 - 1)} "
            f"vs 1 + c1p + c1*p = {1 + b.c1p + b.c1 * p}")
    else:
        report["smooth"] = None
        report["smooth_reason"] = ("criterion applies to a genus-zero "
                                   "germ with one boundary")
    return report, 0


def cmd_torsor_check(spec: CoverSpecFile, *, oracle: bool = False,
                     precision: int | None = None,
                     window: int | None = None) -> tuple:
    if len(spec.covers) < 2:
        raise SpecFileError("torsor-check needs at least two covers")
    if oracle and len(spec.covers) != 2:
        raise SpecFileError("--oracle cross-checks exactly two covers")
    _, equations, data = _realize(spec, precision, window, concrete=oracle)
    tags = [td.group_tag for td in data]
    etale = sum(1 for t in tags if t.kind == "Etale")
    verdict = is_fiber_product_torsor(tags)
    need = len(tags) - 1
    reason = (f"{etale} étale factors, need ≥{need}" if not verdict
              else f"{etale} étale factors ≥{need}")
    report = {"command": "torsor-check",
              "tags": [_tag_str(t) for t in tags],
              "etale_count": etale, "verdict": verdict, "reason": reason}
    if not oracle:
        return report, 0
    try:
        reduced = boundary_reducedness(*equations, hi=window)
    except ValueError as err:
        report["oracle"] = {"unstable": str(err)}
        return report, 3
    report["oracle"] = {"reduced": reduced}
    report["match"] = reduced is verdict
    return report, 0 if report["match"] else 2


# ---------------------------------------------------------------------------
# verify: oracle vs closed form on preset grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Cell:
    label: str
    ring_args: tuple  # (p, r, s, M)
    eq1: tuple        # (kind, terms, n)
    eq2: tuple
    window: int | None = None    # oracle read window; None = oracle default
    pinned: tuple | None = None  # (m, tag) when no closed form applies


def _grid_cells(preset: str) -> list:
    R33 = (3, 3, 1, 4)
    R93 = (3, 9, 1, 4)
    R55 = (5, 5, 1, 4)
    et5, et2 = ("Etale", {-5: 1}, None), ("Etale", {-2: 1}, None)
    mu2, mu4 = ("Kummer", {0: 1, 2: 1}, None), ("Kummer", {0: 1, 4: 1}, None)
    h1, h2 = ("Hn", {1: 1, 2: 1}, 1), ("Hn", {2: 1, 3: 1}, 2)
    quick = [
        _Cell("etale(-5) x etale(-2)", R33, et5, et2, 60),
        _Cell("etale(-2) x mu(2)", R33, et2, mu2, 60),
        _Cell("etale(-2) x H1(1)", R33, et2, h1, 60),
        _Cell("mu(2) x mu(4)", R33, mu2, mu4, 60),
        _Cell("mu(2) x H1(1)", R33, mu2, h1, 60),
        _Cell("H1(1) x H2(2)", R33, h1, h2, 60),
        _Cell("fixture T x T+T^3", R33, ("Kummer", {1: 1}, None),
              ("Kummer", {1: 1, 3: 1}, None), 60,
              pinned=(2, hn(2))),
    ]
    if preset == "quick":
        return quick
    deep = quick + [
        _Cell("etale(-2) x etale(-5)", R33, et2, et5, 60),
        _Cell("mu(2) x etale(-2)", R33, mu2, et2, 60),
        _Cell("H1(1) x etale(-2)", R33, h1, et2, 60),
        _Cell("mu(4) x mu(2)", R33, mu4, mu2, 60),
        _Cell("H1(1) x mu(2)", R33, h1, mu2, 60),
        _Cell("H2(2) x H1(1)", R33, h2, h1, 60),
        _Cell("mu(4) x H1(1)", R33, mu4, h1, 60),
        _Cell("H1(1) x mu(4)", R33, h1, mu4, 60),
        _Cell("deep mu(2) x mu(4)", R93, mu2, mu4, 60),
        _Cell("deep mu(2) x H3(1)", R93, mu2, ("Hn", {1: 1, 2: 1}, 3), 60),
        _Cell("deep H3(1) x H6(2)", R93, ("Hn", {1: 1, 2: 1}, 3),
              ("Hn", {2: 1, 3: 1}, 6), 60),
        _Cell("deep etale(-2) x H3(1)", R93, et2,
              ("Hn", {1: 1, 2: 1}, 3), 60),
    ]
    if preset == "deep":
        return deep
    p5 = [
        _Cell("p5 etale(-4) x etale(-2)", R55, ("Etale", {-4: 1}, None),
              ("Etale", {-2: 1}, None), None),
        _Cell("p5 etale(-2) x mu(2)", R55, ("Etale", {-2: 1}, None),
              ("Kummer", {0: 1, 2: 1}, None), None),
        _Cell("p5 mu(2) x mu(3)", R55, ("Kummer", {0: 1, 2: 1}, None),
              ("Kummer", {0: 1, 3: 1}, None), None),
    ]
    if preset == "p5":
        return p5
    if preset == "all":
        return deep + p5
    raise SpecFileError(f"unknown grid preset {preset!r} "
                        "(quick, deep, p5, all)")


def _closed_form(td1: TorsorData, td2: TorsorData, ring):
    """propagate, refusing equal tags and conductors too: the two leads
    can cancel, so the pulled-back class depends on the coefficients."""
    res = propagate(PPInput(td1, td2, ring))
    if (td1.group_tag, td1.m) == (td2.group_tag, td2.m):
        raise ValueError("equal tags and conductors: the leads can cancel")
    return res


def _formula(td1: TorsorData, td2: TorsorData, ring) -> tuple:
    """The closed form's (m, tag) for cover 2 pulled back over cover 1."""
    try:
        res = _closed_form(td1, td2, ring)
    except ValueError as err:
        raise SpecFileError(f"the closed form refuses this pair: {err}") \
            from None
    return res.m1p, res.g1p


def _check_pair(label: str, ring, eq1, eq2, hi: int | None,
                want: tuple) -> dict:
    """One verify row: the oracle's reading of eq2 over eq1 on window hi
    against `want`, the (m, tag) of the closed form or of a pinned cell."""
    row = {"case": label,
           "ring": f"p{ring.p} r{ring.v_lambda} s{ring.s}",
           "formula_m": want[0], "formula_tag": _tag_str(want[1])}
    try:
        got = oracle_conductor(eq1, eq2, hi=hi)
    except ValueError as err:
        row.update(oracle_m=None, oracle_tag=None,
                   status=f"unstable: {err}")
        return row
    row["oracle_m"] = got[0]
    row["oracle_tag"] = _tag_str(got[1])
    row["status"] = "match" if _agrees(got, *want) else "mismatch"
    return row


def _run_cell(cell: _Cell, window: int | None) -> dict:
    ring = make_ring(*cell.ring_args)
    win = window if window is not None else cell.window
    eq1, eq2 = (TorsorEquation(kind, RLaurent.from_terms(
        ring, terms, hi=max(60, win or 0), prec=_default_prec(ring)), n)
        for kind, terms, n in (cell.eq1, cell.eq2))
    want = cell.pinned if cell.pinned is not None else \
        _formula(classify(eq1), classify(eq2), ring)
    return _check_pair(cell.label, ring, eq1, eq2, win, want)


def cmd_verify(spec: CoverSpecFile | None = None, *, grid: str = "quick",
               precision: int | None = None,
               window: int | None = None) -> tuple:
    if spec is not None and spec.covers:
        if len(spec.covers) != 2:
            raise SpecFileError("verify on a file needs exactly two covers")
        ring, (eq1, eq2), data = _realize(spec, precision, window,
                                          concrete=True)
        grid = "file"
        rows = [_check_pair("file pair", ring, eq1, eq2, window,
                            _formula(*data, ring))]
    elif precision is not None:
        raise SpecFileError("--precision applies to --spec runs; grid "
                            "cells carry their own M")
    else:
        rows = [_run_cell(c, window) for c in _grid_cells(grid)]
    mismatches = sum(1 for r in rows if r["status"] == "mismatch")
    unstable = sum(1 for r in rows if r["status"].startswith("unstable"))
    report = {"command": "verify", "grid": grid, "cells": rows,
              "summary": {"total": len(rows),
                          "match": len(rows) - mismatches - unstable,
                          "mismatch": mismatches, "unstable": unstable}}
    return report, 2 if mismatches else 3 if unstable else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SpecFileError(message)


def _emit(report: dict, as_json: bool):
    if as_json:
        print(json.dumps(report, indent=2, ensure_ascii=False))
        return
    command = report["command"]
    if command == "classify":
        print(_render_table(
            ("#", "kind", "group", "n", "m", "c", "delta"),
            [(r["index"], r["kind"], r["group"], r["n"], r["m"], r["c"],
              r["delta"]) for r in report["covers"]]))
    elif command == "propagate":
        for side, td in zip(("cover 1", "cover 2"), report["lower"]):
            print(f"{side}: {td['group']}  m={td['m']}  c={td['c']}  "
                  f"delta={td['delta']}")
        if report.get("formula"):
            f = report["formula"]
            print(_render_table(
                ("", "m'", "c'", "group'", "delta'"),
                [("over 1", f["m1p"], f["c1p"], f["g1p"], f["d1p"]),
                 ("over 2", f["m2p"], f["c2p"], f["g2p"], f["d2p"])]))
            print(f"d_s={f['ds']}  delta_total={f['delta_total']}")
        if report.get("note"):
            print(f"note: {report['note']}")
        if report.get("oracle"):
            print(f"oracle: {report['oracle']}")
        if "match" in report:
            print(f"match: {report['match']}")
    elif command == "tower":
        for i, pair in enumerate(report["pairs"]):
            print(f"pair {i}: m'=({pair['m1p']}, {pair['m2p']})  "
                  f"c'=({pair['c1p']}, {pair['c2p']})  d_s={pair['ds']}")
        if "c_top" in report:
            print(f"top: c''=({report['c_top'][0]}, {report['c_top'][1]})")
    elif command == "genus":
        print(f"g_x={report['g_x']}  d_eta={report['d_eta']}  "
              f"d_s={report['d_s']}  g_y={report['g_y']}")
        print(f"smooth: {report['smooth']}  ({report['smooth_reason']})")
    elif command == "torsor-check":
        print(f"torsor: {report['verdict']}  ({report['reason']})")
        if report.get("oracle"):
            print(f"oracle: {report['oracle']}")
    elif command == "verify":
        print(_render_table(
            ("case", "ring", "formula", "oracle", "status"),
            [(r["case"], r["ring"],
              f"{r['formula_m']} {r['formula_tag'] or ''}".strip(),
              f"{r['oracle_m']} {r['oracle_tag'] or ''}".strip()
              if r["oracle_m"] is not None else None,
              r["status"]) for r in report["cells"]]))
        s = report["summary"]
        print(f"{s['match']}/{s['total']} match, {s['mismatch']} mismatch, "
              f"{s['unstable']} unstable")


# command -> (function, its options in help order); each function takes
# the loaded spec (or None) and its options, and returns (report, code)
_COMMANDS = {
    "classify": (cmd_classify, ("precision", "window")),
    "propagate": (cmd_propagate, ("precision", "window", "oracle", "trace")),
    "tower": (cmd_tower, ("precision", "window")),
    "genus": (cmd_genus, ()),
    "torsor-check": (cmd_torsor_check, ("precision", "window", "oracle")),
    "verify": (cmd_verify, ("precision", "window", "grid")),
}

_OPTIONS = {
    "precision": dict(type=int, metavar="N", help="override ring capacity M"),
    "window": dict(type=int, metavar="W", help="override series window"),
    "oracle": dict(action="store_true",
                   help="cross-check with the series oracle"),
    "trace": dict(action="store_true", help="include oracle stage logs"),
    "grid": dict(default="quick", choices=("quick", "deep", "p5", "all")),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="germrh", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in _COMMANDS.items():
        cmd = sub.add_parser(name)
        cmd.add_argument("--spec", required=(name != "verify"),
                         help="cover spec file")
        cmd.add_argument("--json", action="store_true")
        for option in options:
            cmd.add_argument(f"--{option}", **_OPTIONS[option])
    return parser


def main(argv=None) -> int:
    try:
        options = vars(_build_parser().parse_args(argv))
        command, path = options.pop("command"), options.pop("spec")
        as_json = options.pop("json")
        report, code = _COMMANDS[command][0](
            load_spec(path) if path else None, **options)
    except SpecFileError as err:
        print(f"germrh: error: {err}", file=sys.stderr)
        return 1
    _emit(report, as_json)
    return code


if __name__ == "__main__":
    sys.exit(main())
