"""Benchmark command for germrh.

    python3 perfbench/run.py --workload grid|etale-pairs|s2 --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ./src.
With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of a separate traced pass (see README.md).
The line before it is a JSON report with the environment, the failure
tally and the metrics' bases.  Exit 0 when every answer checked out, 1 when
an oracle reading disagreed with the closed form, 2 when there is no
program to run.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import tracer
import workloads
from workloads import Outcome, ProgramMissing, WORKLOADS

SETUP_REPEATS = 11


def percentile(values: list, pct: float) -> float:
    """Linear interpolation between order statistics (pct in [0, 100])."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, args) -> dict:
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(),
            "gmpy2": importlib.util.find_spec("gmpy2") is not None,
            "GERMRH_THREADS": os.environ.get("GERMRH_THREADS"),
            "commit": git_commit(root),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def set_up(wl, seed: int, root: Path):
    """Import, build rings, generate inputs; repeated, timings as medians."""
    total, rings_s = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        mods = workloads.load_program(root)
        t1 = time.perf_counter()
        rings = wl.make_rings(mods)
        t2 = time.perf_counter()
        inputs = wl.build(mods, rings, seed)
        t3 = time.perf_counter()
        total.append(t3 - t0)
        rings_s.append(t2 - t1)
    return inputs, statistics.median(total), statistics.median(rings_s)


def end_to_end(wl, out: Outcome, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(out.pass_s), "s"),
        "op_s.p50": (statistics.median(out.op_s), "s"),
        "op_s.tail": (percentile(out.op_s, wl.tail_pct), "s"),
        "answered_ratio": ((out.attempted - out.failed) / out.attempted,
                           "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def per_layer(tr: tracer.Tracer, traced: Outcome, untraced: Outcome,
              make_ring_s: float, s2_ratio: float) -> tuple:
    """Per-layer metrics of the traced pass, plus their bases."""
    tot = tr.totals()
    counts = tr.counts()
    muls = tr.muls_within()
    roots = tr.roots()

    def rec(name):
        return tot.get(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0,
                              "failed": 0, "extra": 0})

    cond = sorted(r[0] for r in roots)
    selfs = tracer.self_time_by_layer(tot)
    heavy = [r for r in roots if r[0] >= 1.0]
    heavy_s = sum(r[0] for r in heavy)

    def heavy_share(key):
        return sum(r[1].get(key, 0.0) for r in heavy) / heavy_s \
            if heavy_s else 0.0

    def per_call(name):
        calls = rec(name)["calls"]
        return muls[name] / calls if calls else 0.0

    classify_rec = rec("torsor_norm.classify")
    untraced_s, traced_s = sum(untraced.pass_s), sum(traced.pass_s)
    m = {
        "cli.verify_s": (rec("cli.main")["inclusive_s"], "s"),
        "cli.cell_busy_s": (rec("oracle.conductor")["inclusive_s"]
                            if rec("cli.main")["calls"] else 0.0, "s"),
        "oracle.conductor.calls": (len(cond), "count"),
        "oracle.conductor_s.p50": (statistics.median(cond) if cond else 0.0,
                                   "s"),
        "oracle.conductor_s.max": (cond[-1] if cond else 0.0, "s"),
        "oracle.self_s": (selfs.get("oracle", 0.0), "s"),
        "oracle.unstable": (rec("oracle.conductor")["failed"], "count"),
        "oracle.heavy.inv_binom_share": (heavy_share("inv_binom"), "ratio"),
        "oracle.heavy.substitute_share": (
            heavy_share("laurent.substitute"), "ratio"),
        "torsor_norm.classify.calls": (classify_rec["calls"], "count"),
        "torsor_norm.classify_s": (classify_rec["inclusive_s"], "s"),
        "torsor_norm.classify.failed": (
            classify_rec["failed"] - traced.rejected, "count"),
        "torsor_norm.self_s": (selfs.get("torsor_norm", 0.0), "s"),
        "laurent.self_s": (selfs.get("laurent", 0.0), "s"),
        "laurent.rmul.calls": (rec("laurent.rmul")["calls"], "count"),
        "laurent.rmul_s": (rec("laurent.rmul")["inclusive_s"], "s"),
        "laurent.rmul.coeff_products": (rec("laurent.rmul")["extra"],
                                        "count"),
        "laurent.rlaurent_new.calls": (rec("laurent.rlaurent_new")["calls"],
                                       "count"),
        "laurent.rlaurent_new_s": (rec("laurent.rlaurent_new")["inclusive_s"],
                                   "s"),
        "laurent.invert_unit_s": (rec("laurent.invert_unit")["inclusive_s"],
                                  "s"),
        "laurent.binom_power_s": (rec("laurent.binom_power")["inclusive_s"],
                                  "s"),
        "laurent.binom_power.muls_per_call": (
            per_call("laurent.binom_power"), "count"),
        "laurent.substitute_s": (rec("laurent.substitute")["inclusive_s"],
                                 "s"),
        "laurent.substitute.muls_per_call": (
            per_call("laurent.substitute"), "count"),
        "laurent.reduce_kummer_unit_s": (
            rec("laurent.reduce_kummer_unit")["inclusive_s"], "s"),
        "laurent.kmul.calls": (rec("laurent.kmul")["calls"], "count"),
        "laurent.kmul_s": (rec("laurent.kmul")["inclusive_s"], "s"),
        "laurent.kmul.coeff_products": (rec("laurent.kmul")["extra"],
                                        "count"),
        "laurent.kinverse_s": (rec("laurent.kinverse")["inclusive_s"], "s"),
        "laurent.ksubstitute_s": (rec("laurent.ksubstitute")["inclusive_s"],
                                  "s"),
        "laurent.kbinom_power_s": (rec("laurent.kbinom_power")["inclusive_s"],
                                   "s"),
        "laurent.as_reduce_witness_s": (
            rec("laurent.as_reduce_witness")["inclusive_s"], "s"),
        "laurent.s2_over_s1": (s2_ratio, "ratio"),
        "dvr_core.relem_val.calls": (counts["dvr_core.relem_val"], "count"),
        "dvr_core.relem_mul.calls": (counts["dvr_core.relem_mul"], "count"),
        "dvr_core.fq_mul.calls": (counts["dvr_core.fq_mul"], "count"),
        "dvr_core.gr_mul.calls": (counts["dvr_core.gr_mul"], "count"),
        "dvr_core.fq_element.calls": (counts["dvr_core.fq_element"], "count"),
        "dvr_core.make_ring_s": (make_ring_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_ratio": (traced_s / untraced_s - 1, "ratio"),
    }
    bases = {"untraced_pass_s": untraced.pass_s,
             "traced_pass_s": traced.pass_s,
             "heavy_calls": len(heavy), "heavy_calls_s": heavy_s,
             "oracle_calls_timed": len(cond)}
    return m, bases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    wl = WORKLOADS[args.workload]
    try:
        inputs, setup_s, make_ring_s = set_up(wl, args.seed, root)
    except ProgramMissing as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    report = {"env": environment(root, args)}
    if not args.trace:
        out = Outcome()
        wl.run(inputs, args.seconds, out)
        metrics = end_to_end(wl, out, setup_s)
        report["bases"] = {"pass_s": out.pass_s,
                           "op_samples": len(out.op_s),
                           "tail_percentile": wl.tail_pct,
                           "samples_beyond_tail": sum(
                               1 for x in out.op_s
                               if x > metrics["op_s.tail"][0])}
    else:
        # untraced half first, then the same passes again under the tracer
        untraced = Outcome()
        wl.run(inputs, args.seconds / 2, untraced)
        s2_ratio = 0.0
        if wl is WORKLOADS["s2"]:
            s2_ratio, report["s2_over_s1_bases"] = s2_over_s1(
                wl, inputs, args.seed, untraced.pass_s)
        traced = Outcome()
        with tracer.Tracer() as tr:
            wl.run(inputs, 0, traced, passes=len(untraced.pass_s))
        metrics, report["bases"] = per_layer(tr, traced, untraced,
                                             make_ring_s, s2_ratio)
        report["untraced"] = end_to_end(wl, untraced, setup_s)
        out = untraced.merge(traced)
    report["outcome"] = {"attempted": out.attempted, "matched": out.matched,
                         "failed": out.failed, "rejected": out.rejected,
                         "skipped": out.skipped, "failures": out.failures,
                         "mismatches": out.mismatches[:20], **out.notes}
    correct = not out.mismatches and out.attempted > 0
    print(json.dumps(report, default=str))
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def s2_over_s1(wl, inputs, seed: int, s2_pass_s: list) -> tuple:
    """Median pass time of the light cells at s = 2 (the untraced passes)
    over one untraced pass of the same cells at s = 1."""
    mods = inputs["mods"]
    s1 = workloads.VerifyGrid(wl.name, 1, wl.excluded)
    out = Outcome()
    s1.run(s1.build(mods, s1.make_rings(mods), seed), 0, out, passes=1)
    s2 = statistics.median(s2_pass_s)
    return s2 / out.pass_s[0], {"s1_pass_s": out.pass_s[0], "s2_pass_s": s2}


if __name__ == "__main__":
    sys.exit(main())
