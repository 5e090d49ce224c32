"""In-memory layer tracing for the benchmark's traced runs.

The program has no tracing of its own, so this module wraps the public
functions of each layer from outside: a span wrapper records call count,
inclusive time, self time and failures, and a counting wrapper only counts
(used for the dvr_core element operations, which run ~10^6 times per grid
cell).  Each wrapper is installed in every germrh module namespace that
holds the original object and on the class for methods, and `Tracer` is a
context manager that restores every original on exit, error included.

Spans nest on a per-thread stack because `germrh verify` runs its cells on
a thread pool.  Every thread keeps its own tallies; `Tracer.totals()` merges
them after the workload has finished.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time

# (module, attribute) -> (span name, groups).  The layer is the name's first
# part.  A group is an extra key whose time is tallied once for the outermost
# span of any member, so `invert_unit` calling `binom_power` is not counted
# twice.
SPAN_FUNCTIONS = {
    ("germrh.cli", "main"): ("cli.main", ()),
    ("germrh.oracle", "oracle_conductor"): ("oracle.conductor", ()),
    ("germrh.torsor_norm", "classify"): ("torsor_norm.classify", ()),
    ("germrh.laurent", "invert_unit"): ("laurent.invert_unit", ("inv_binom",)),
    ("germrh.laurent", "binom_power"): ("laurent.binom_power", ("inv_binom",)),
    ("germrh.laurent", "substitute"): ("laurent.substitute", ()),
    ("germrh.laurent", "reduce_kummer_unit"):
        ("laurent.reduce_kummer_unit", ()),
    ("germrh.laurent", "ksubstitute"): ("laurent.ksubstitute", ()),
    ("germrh.laurent", "kbinom_power"): ("laurent.kbinom_power", ()),
    ("germrh.laurent", "as_reduce_witness"): ("laurent.as_reduce_witness", ()),
}

# (module, class, method) spans
SPAN_METHODS = {
    ("germrh.laurent", "RLaurent", "__mul__"): ("laurent.rmul", ()),
    ("germrh.laurent", "RLaurent", "__init__"): ("laurent.rlaurent_new", ()),
    ("germrh.laurent", "KLaurent", "__mul__"): ("laurent.kmul", ()),
    ("germrh.laurent", "KLaurent", "inverse"): ("laurent.kinverse", ()),
}

# (module, class, method) counted without timing
COUNTED_METHODS = {
    ("germrh.dvr_core", "RElem", "val"): "dvr_core.relem_val",
    ("germrh.dvr_core", "RElem", "__mul__"): "dvr_core.relem_mul",
    ("germrh.dvr_core", "Fq", "mul"): "dvr_core.fq_mul",
    ("germrh.dvr_core", "Fq", "element"): "dvr_core.fq_element",
    ("germrh.dvr_core", "RingDescriptor", "gr_mul"): "dvr_core.gr_mul",
}

# spans whose RLaurent multiplies are counted per call
MUL_WATCH = ("laurent.binom_power", "laurent.substitute")

ROOT_SPAN = "oracle.conductor"


class _ThreadState:
    __slots__ = ("stack", "depth", "records", "mul_in", "root", "roots")

    def __init__(self):
        self.stack = []      # child-time accumulators of the open spans
        self.depth = {}      # key -> open spans carrying that key
        # name -> [calls, inclusive_s, self_s, failed, extra]
        self.records = {}
        self.mul_in = dict.fromkeys(MUL_WATCH, 0)
        self.root = None     # key -> outermost seconds in the open root span
        self.roots = []      # (seconds, tallies, failed) per closed root span


def _rmul_products(args):
    a, b = args[0], args[1]
    return len(a.coeffs) * len(b.coeffs) * a.ring.e ** 2


def _kmul_products(args):
    return len(args[0].coeffs) * len(args[1].coeffs)


_EXTRA = {"laurent.rmul": _rmul_products, "laurent.kmul": _kmul_products}
_FIELDS = ("calls", "inclusive_s", "self_s", "failed", "extra")


class Tracer:
    """Context manager: install every wrapper on enter, restore on exit."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._counters = {}
        self._restore = []   # (owner, attribute, original)

    # -- state ---------------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, name, groups):
        keys = (name,) + groups
        extra = _EXTRA.get(name)
        watch_mul = name == "laurent.rmul"
        is_root = name == ROOT_SPAN
        state = self._state
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            st = state()
            depth = st.depth
            outer = [k for k in keys if not depth.get(k)]
            for k in keys:
                depth[k] = depth.get(k, 0) + 1
            if is_root and st.root is None:
                st.root = {}
                root_owner = True
            else:
                root_owner = False
            if watch_mul:
                for k in MUL_WATCH:
                    if depth.get(k):
                        st.mul_in[k] += 1
            st.stack.append(0.0)
            failed = False
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                dt = clock() - t0
                child = st.stack.pop()
                if st.stack:
                    st.stack[-1] += dt
                for k in keys:
                    depth[k] -= 1
                rec = st.records.get(name)
                if rec is None:
                    rec = st.records[name] = [0, 0.0, 0.0, 0, 0]
                rec[0] += 1
                rec[2] += dt - child
                if failed:
                    rec[3] += 1
                if extra is not None:
                    rec[4] += extra(args)
                for k in outer:
                    if k == name:
                        rec[1] += dt
                    else:
                        grec = st.records.get(k)
                        if grec is None:
                            grec = st.records[k] = [0, 0.0, 0.0, 0, 0]
                        grec[1] += dt
                    if st.root is not None:
                        st.root[k] = st.root.get(k, 0.0) + dt
                if root_owner:
                    st.roots.append((dt, st.root, failed))
                    st.root = None

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _count(self, fn, name):
        counter = self._counters[name] = itertools.count()
        bump = counter.__next__

        def wrapper(*args, **kwargs):
            bump()
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- install / restore ---------------------------------------------------

    def _patch(self, owner, attribute, new):
        self._restore.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, new)

    def _patch_everywhere(self, original, new):
        """Replace `original` in every germrh module that holds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("germrh"):
                continue
            for attribute, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attribute, new)

    def __enter__(self):
        try:
            for (mod, attr), (name, groups) in SPAN_FUNCTIONS.items():
                original = getattr(sys.modules[mod], attr)
                self._patch_everywhere(original,
                                       self._span(original, name, groups))
            for (mod, cls, meth), (name, groups) in SPAN_METHODS.items():
                owner = getattr(sys.modules[mod], cls)
                self._patch(owner, meth,
                            self._span(owner.__dict__[meth], name, groups))
            for (mod, cls, meth), name in COUNTED_METHODS.items():
                owner = getattr(sys.modules[mod], cls)
                self._patch(owner, meth,
                            self._count(owner.__dict__[meth], name))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    # -- results -------------------------------------------------------------

    def totals(self) -> dict:
        """name -> {"calls", "inclusive_s", "self_s", "failed", "extra"}."""
        out = {}
        for st in self._states:
            for name, rec in st.records.items():
                acc = out.setdefault(name, dict.fromkeys(_FIELDS, 0))
                for key, value in zip(_FIELDS, rec):
                    acc[key] += value
        return out

    def counts(self) -> dict:
        # repr(itertools.count(n)) is "count(n)": n calls so far
        return {name: int(repr(self._counters[name])[6:-1])
                if name in self._counters else 0
                for name in COUNTED_METHODS.values()}

    def muls_within(self) -> dict:
        out = dict.fromkeys(MUL_WATCH, 0)
        for st in self._states:
            for k, v in st.mul_in.items():
                out[k] += v
        return out

    def roots(self) -> list:
        """(seconds, {key: outermost seconds}, failed) per oracle call."""
        return [r for st in self._states for r in st.roots]


def self_time_by_layer(totals: dict) -> dict:
    """Layer -> summed self time of its spans (groups carry none)."""
    out = {}
    for name, rec in totals.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + rec["self_s"]
    return out
