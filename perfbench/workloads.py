"""The three benchmark workloads and their correctness accounting.

Every workload is a closed loop: one caller in one process sends the next
operation only after the previous one returned.  Set-up is
`load_program` (import from the checkout's `src/`), then `make_rings(mods)`
and `build(mods, rings, seed)`, which generates the inputs.
`run(inputs, seconds, out)` repeats whole passes over the workload until
`seconds` have elapsed (always at least one), or exactly `passes` passes,
and tallies into an `Outcome`.

The program's modules are always reached through their module objects
(`mods.oracle.oracle_conductor`, not a bound name) so the tracer's
patches are seen.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import importlib
import io
import json
import os
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

MODULES = ("dvr_core", "laurent", "torsor_norm", "pp_propagation",
           "oracle", "cli")


class ProgramMissing(RuntimeError):
    """The checkout holds no importable germrh package under src/."""


def load_program(root: Path):
    """Import germrh afresh from root/src and return its modules by name.

    Earlier imports are dropped first, so each call pays the full import
    and the ring cache starts empty.
    """
    src = (root / "src").resolve()
    if not (src / "germrh" / "__init__.py").is_file():
        raise ProgramMissing(f"no germrh package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "germrh"
                 or n.startswith("germrh.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("germrh")
    if not Path(pkg.__file__).resolve().is_relative_to(src):
        raise ProgramMissing(f"germrh imported from {pkg.__file__}, "
                             f"not from {src}")
    mods = {name: importlib.import_module(f"germrh.{name}")
            for name in MODULES}
    return type("Program", (), mods)


# ---------------------------------------------------------------------------
# outcomes
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """What one run did.  A timed op is one pair (etale-pairs) or one cell
    (grid, s2); attempted and failed count pairs and cells."""

    pass_s: list = field(default_factory=list)     # op seconds per pass
    op_s: list = field(default_factory=list)       # seconds per timed op
    attempted: int = 0
    failed: int = 0          # unstable / raised errors: the failed_ratio
    rejected: int = 0        # trivial torsor draws (legal rejection)
    skipped: int = 0         # outside the table's domain (equal conductors)
    matched: int = 0
    mismatches: list = field(default_factory=list)  # correctness failures
    failures: dict = field(default_factory=dict)    # reason -> count
    notes: dict = field(default_factory=dict)

    def fail(self, reason: str):
        self.failed += 1
        self.failures[reason] = self.failures.get(reason, 0) + 1

    def merge(self, other: "Outcome") -> "Outcome":
        """Tallies of both runs together (timings are not merged)."""
        failures = dict(self.failures)
        for reason, n in other.failures.items():
            failures[reason] = failures.get(reason, 0) + n
        return Outcome(attempted=self.attempted + other.attempted,
                       failed=self.failed + other.failed,
                       rejected=self.rejected + other.rejected,
                       skipped=self.skipped + other.skipped,
                       matched=self.matched + other.matched,
                       mismatches=self.mismatches + other.mismatches,
                       failures=failures, notes={**self.notes, **other.notes})


def failure_reason(err: Exception) -> str:
    """Short stable label for a raised error, for the failure tally."""
    text = str(err)
    for key in ("residue field too small", "not determined at precision",
                "increase precision", "widen window", "trivial pullback"):
        if key in text:
            return key
    return f"{type(err).__name__}: {text[:60]}"


def _repeat(seconds: float, passes: int | None, one_pass, out: Outcome):
    """Run one_pass() until `seconds` have elapsed, or exactly `passes`
    times when given.  A pass's time is the sum of its `_timed` ops."""
    start = time.perf_counter()
    while True:
        out.pass_s.append(0.0)
        one_pass()
        done = len(out.pass_s) >= passes if passes else \
            time.perf_counter() - start >= seconds
        if done:
            return


def _timed(out: Outcome, fn, *args):
    """Run one op, timed, and add its time to the current pass.

    Garbage is collected first, untimed: otherwise a collection triggered
    by what earlier ops left behind lands in whichever op comes next, and
    the seed's op order moved the median s2 cell by 20 %.
    """
    gc.collect()
    t0 = time.perf_counter()
    result = fn(*args)
    dt = time.perf_counter() - t0
    out.pass_s[-1] += dt
    return result, dt


# Cells left out of `s2` because one of them alone takes minutes at s = 2
# (seconds at s = 1, see the grid timings in README.md).
S2_EXCLUDED = {
    "deep H3(1) x H6(2)": "18 s at s=1",
    "H1(1) x H2(2)": "8 s at s=1",
    "H1(1) x mu(4)": "8 s at s=1",
    "H1(1) x mu(2)": "7 s at s=1; 93 s at s=2",
    "H2(2) x H1(1)": "3 s at s=1 and unstable",
}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class VerifyGrid:
    """`germrh verify --grid all --json` in-process through cli.main.

    The cells are the CLI's own preset (`cli._grid_cells("all")`), minus
    `excluded` and re-ringed to GR(p^M, s); the run patches
    `cli._grid_cells` to return them in the seed's order, which is all the
    seed changes.  Each cell (`cli._run_cell`) is one timed op.

    The cells run serially (GERMRH_THREADS=1 for the duration of the run):
    on the 2-core shared machine the shipped 2-thread pool made the pass
    time wander 44-63 s between identical runs while its CPU time stayed
    within 40-46 s, the difference being GIL hand-off waits, and no bound
    could hold that.
    """

    threads = "1"

    def __init__(self, name: str, s: int = 1, excluded=(), tail_pct=100):
        self.name, self.s, self.excluded = name, s, excluded
        self.tail_pct = tail_pct

    def cells(self, mods) -> list:
        return [dataclasses.replace(c, ring_args=(p, r, self.s, M))
                for c in mods.cli._grid_cells("all")
                if c.label not in self.excluded
                for p, r, _, M in [c.ring_args]]

    def make_rings(self, mods):
        return {c.ring_args: mods.dvr_core.make_ring(*c.ring_args)
                for c in self.cells(mods)}

    def build(self, mods, rings, seed: int):
        cells = self.cells(mods)
        random.Random(seed).shuffle(cells)
        return {"mods": mods, "cells": cells}

    def run(self, inputs, seconds: float, out: Outcome, passes=None):
        cli, cells = inputs["mods"].cli, inputs["cells"]
        grid_cells, run_cell = cli._grid_cells, cli._run_cell

        def timed_cell(cell, window):
            row, dt = _timed(out, run_cell, cell, window)
            out.op_s.append(dt)
            return row

        def one_pass():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["verify", "--grid", "all", "--json"])
            self.account(json.loads(buf.getvalue()), code, out)

        threads = os.environ.get("GERMRH_THREADS")
        cli._grid_cells = lambda preset: list(cells)
        cli._run_cell = timed_cell
        os.environ["GERMRH_THREADS"] = self.threads
        try:
            _repeat(seconds, passes, one_pass, out)
        finally:
            cli._grid_cells, cli._run_cell = grid_cells, run_cell
            if threads is None:
                del os.environ["GERMRH_THREADS"]
            else:
                os.environ["GERMRH_THREADS"] = threads
        out.notes["cell_order"] = [c.label for c in cells]
        out.notes["grid_threads"] = self.threads

    @staticmethod
    def account(report: dict, code: int, out: Outcome):
        """Tally one verify report.  Exit 3 (unstable) is a counted failure;
        exit 2 or any mismatch row fails the correctness gate."""
        for row in report["cells"]:
            out.attempted += 1
            status = row["status"]
            if status == "match":
                out.matched += 1
            elif status.startswith("unstable"):
                out.fail("unstable: " + failure_reason(
                    Exception(status.split(": ", 1)[-1])))
            else:
                out.mismatches.append({"case": row["case"], "row": row})
        if code not in (0, 3) and not out.mismatches:
            out.mismatches.append({"case": "exit code", "row": code})


class EtalePairs:
    """Etale x etale pairs at R33, R93 and R55.

    Generator: the family of test_etale_pairs_match_table_hypothesis (leads
    m in [-8, -1], up to 4 tail terms with exponents in (m, -1]), with lead
    and tail coefficients drawn uniformly from F_p^*.  Draws come in
    stratified blocks: per ring, every lead in [-8, -1] appears once as m1,
    paired with m2 = m1 shifted cyclically by a drawn offset (never equal).

    The population is one block drawn with the pinned `generator_seed`, so
    every run times the same 24 pairs, and --seed permutes their order, as
    for grid and s2.  A pair's cost spans three decades (3 ms to 5 s, set
    mostly by the first cover's tail), so populations drawn from --seed
    moved the per-run median op time by ~25 % and the pass time by ~40 %
    between seeds, and consecutive blocks of one stream take 4 to 15 s.
    """

    name = "etale-pairs"
    tail_pct = 75
    rings = ((3, 3, 4), (3, 9, 4), (5, 5, 4))   # (p, r, M)
    window = 30
    leads = tuple(range(-8, 0))
    generator_seed = 0
    blocks = 1

    def make_rings(self, mods):
        return [mods.dvr_core.make_ring(p, r, 1, M) for p, r, M in self.rings]

    def build(self, mods, rings, seed: int):
        rng = random.Random(self.generator_seed)
        pairs = [pair for _ in range(self.blocks)
                 for pair in self.draw_block(rng, rings)]
        random.Random(seed).shuffle(pairs)
        return {"mods": mods, "pairs": pairs}

    def draw_block(self, rng: random.Random, rings) -> list:
        block = []
        for ring in rings:
            k = rng.randint(1, len(self.leads) - 1)
            for i, m1 in enumerate(self.leads):
                m2 = self.leads[(i + k) % len(self.leads)]
                block.append((ring, self.draw_terms(rng, ring.p, m1),
                              self.draw_terms(rng, ring.p, m2)))
        return block

    @staticmethod
    def draw_terms(rng: random.Random, p: int, m: int) -> dict:
        terms = {m: rng.randint(1, p - 1)}
        for _ in range(rng.randint(0, 4)):
            exp = rng.randint(-7, -1)
            if exp > m:
                terms.setdefault(exp, rng.randint(1, p - 1))
        return terms

    def run(self, inputs, seconds: float, out: Outcome, passes=None):
        mods = inputs["mods"]

        def one_pass():
            for ring, terms1, terms2 in inputs["pairs"]:
                checked, dt = _timed(out, run_pair, mods, ring, terms1,
                                     terms2, self.window, out)
                if checked:
                    out.op_s.append(dt)

        _repeat(seconds, passes, one_pass, out)


def run_pair(mods, ring, terms1, terms2, window, out: Outcome) -> bool:
    """classify -> propagate -> oracle_conductor for one pair; the oracle's
    reading must equal the closed form.  True when the pair reached the
    oracle and was checked: only those are timed as ops."""
    RLaurent = mods.laurent.RLaurent
    TorsorEquation = mods.torsor_norm.TorsorEquation
    out.attempted += 1
    a = TorsorEquation("Etale", RLaurent.from_terms(ring, terms1, hi=window))
    b = TorsorEquation("Etale", RLaurent.from_terms(ring, terms2, hi=window))
    try:
        td1 = mods.torsor_norm.classify(a)
        td2 = mods.torsor_norm.classify(b)
    except ValueError as err:
        if "trivial torsor" in str(err):
            out.rejected += 1
        else:
            out.fail(failure_reason(err))
        return False
    if td1.m == td2.m:
        # equal folded conductors: outside the table's stated domain
        out.skipped += 1
        return False
    try:
        res = mods.pp_propagation.propagate(
            mods.pp_propagation.PPInput(td1, td2, ring))
        got = mods.oracle.oracle_conductor(a, b)
    except ValueError as err:
        out.fail(failure_reason(err))
        return False
    if got == (res.m1p, res.g1p) and str(got[1]) == "etale":
        out.matched += 1
    else:
        out.mismatches.append({"case": f"p{ring.p} r{ring.v_lambda}",
                               "terms": [sorted(terms1.items()),
                                         sorted(terms2.items())],
                               "want": [res.m1p, str(res.g1p)],
                               "got": [got[0], str(got[1])]})
    return True

# grid makes one pass, so its tail is the slowest cell; s2 makes 4-6
# passes over 17 cells, so p85 leaves 10-15 samples beyond it.
WORKLOADS = {w.name: w for w in (
    VerifyGrid("grid"), EtalePairs(),
    VerifyGrid("s2", 2, S2_EXCLUDED, tail_pct=85))}
