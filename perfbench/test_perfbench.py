"""Tests of the benchmark itself (not part of the program's tier-1 suite).

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
from pathlib import Path

import pytest

import run
import tracer
import workloads
from workloads import Outcome, VerifyGrid

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def mods():
    return workloads.load_program(ROOT)


def etale_pairs(mods, seed):
    wl = workloads.WORKLOADS["etale-pairs"]
    inputs = wl.build(mods, wl.make_rings(mods), seed)
    return [(ring.p, ring.v_lambda, sorted(t1.items()), sorted(t2.items()))
            for ring, t1, t2 in inputs["pairs"]]


def test_same_seed_same_etale_inputs(mods):
    assert etale_pairs(mods, 7) == etale_pairs(mods, 7)
    # another seed only permutes the pinned population
    assert etale_pairs(mods, 7) != etale_pairs(mods, 8)
    assert sorted(etale_pairs(mods, 7)) == sorted(etale_pairs(mods, 8))


def test_etale_population_is_stratified(mods):
    pairs = etale_pairs(mods, 3)
    wl = workloads.EtalePairs
    assert len(pairs) == wl.blocks * len(wl.rings) * len(wl.leads)
    for p, r, _ in wl.rings:
        ring_pairs = [(t1, t2) for pp, rr, t1, t2 in pairs
                      if (pp, rr) == (p, r)]
        leads1 = sorted(min(t1)[0] for t1, _ in ring_pairs)
        leads2 = sorted(min(t2)[0] for _, t2 in ring_pairs)
        assert leads1 == leads2 == sorted(list(range(-8, 0)) * wl.blocks)
        assert all(min(t1)[0] != min(t2)[0] for t1, t2 in ring_pairs)


def patched_names(mods):
    """Every (owner, attribute) the tracer wraps, with the current value."""
    out = {}
    for mod in (mods.cli, mods.oracle, mods.torsor_norm, mods.laurent,
                mods.pp_propagation, mods.dvr_core):
        for name in ("oracle_conductor", "classify", "substitute",
                     "invert_unit", "binom_power", "reduce_kummer_unit",
                     "ksubstitute", "kbinom_power", "as_reduce_witness",
                     "main"):
            if name in vars(mod):
                out[(mod.__name__, name)] = vars(mod)[name]
    for cls, names in ((mods.laurent.RLaurent, ("__mul__", "__init__")),
                       (mods.laurent.KLaurent, ("__mul__", "inverse")),
                       (mods.dvr_core.RElem, ("val", "__mul__")),
                       (mods.dvr_core.Fq, ("mul", "element")),
                       (mods.dvr_core.RingDescriptor, ("gr_mul",))):
        for name in names:
            out[(cls.__name__, name)] = vars(cls)[name]
    return out


def test_wrappers_keep_results_and_restore(mods):
    ring = mods.dvr_core.make_ring(3, 3, 1, 4)
    eq = mods.torsor_norm.TorsorEquation
    RL = mods.laurent.RLaurent
    a = eq("Kummer", RL.from_terms(ring, {0: 1, 2: 1}, hi=60))
    b = eq("Kummer", RL.from_terms(ring, {0: 1, 4: 1}, hi=60))
    before = patched_names(mods)
    want = mods.oracle.oracle_conductor(a, b)
    with tracer.Tracer() as tr:
        inside = patched_names(mods)
        assert all(inside[k] is not before[k] for k in before)
        assert mods.cli.oracle_conductor is mods.oracle.oracle_conductor
        assert mods.oracle.substitute is mods.laurent.substitute
        got = mods.cli.oracle_conductor(a, b)
    assert got == want
    assert patched_names(mods) == before
    totals = tr.totals()
    assert totals["oracle.conductor"]["calls"] == 1
    assert totals["laurent.rmul"]["calls"] > 0
    assert tr.counts()["dvr_core.relem_val"] > 0


def test_wrappers_restore_on_error(mods):
    before = patched_names(mods)
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer():
            raise ZeroDivisionError
    assert patched_names(mods) == before


def cell(label, mods, **changes):
    """The CLI's preset cell `label`, with fields replaced."""
    c = next(c for c in mods.cli._grid_cells("all") if c.label == label)
    return dataclasses.replace(c, **changes)


def verify_rows(mods, *cells):
    return {"cells": [mods.cli._run_cell(c, None) for c in cells]}


def test_unstable_cell_counts_as_failure(mods):
    out = Outcome()
    VerifyGrid.account(verify_rows(mods, cell("H2(2) x H1(1)", mods)), 3,
                       out)
    assert (out.attempted, out.failed, out.matched) == (1, 1, 0)
    assert out.mismatches == []
    assert out.failures == {"unstable: increase precision": 1}


def test_wrong_reading_is_a_mismatch(mods):
    fixture = cell("fixture T x T+T^3", mods)
    out = Outcome()
    VerifyGrid.account(verify_rows(mods, fixture), 0, out)
    assert (out.matched, out.mismatches) == (1, [])
    wrong = dataclasses.replace(fixture, pinned=(3, fixture.pinned[1]))
    VerifyGrid.account(verify_rows(mods, wrong), 2, out)
    assert len(out.mismatches) == 1 and out.failed == 0


def test_s2_cells_are_the_cli_preset_reringed(mods):
    s2 = workloads.WORKLOADS["s2"]
    preset = mods.cli._grid_cells("all")
    cells = s2.cells(mods)
    assert [c.label for c in cells] == [
        c.label for c in preset if c.label not in workloads.S2_EXCLUDED]
    assert len(cells) == len(preset) - len(workloads.S2_EXCLUDED) == 17
    assert {c.ring_args[2] for c in cells} == {2}


def test_verify_grid_times_each_cell(mods, monkeypatch):
    wl = VerifyGrid("t", 2)
    labels = ("fixture T x T+T^3", "etale(-5) x etale(-2)")
    monkeypatch.setattr(wl, "cells", lambda mods: [
        cell(label, mods, ring_args=(3, 3, 2, 4)) for label in labels])
    run_cell = mods.cli._run_cell
    out = Outcome()
    wl.run(wl.build(mods, wl.make_rings(mods), 5), 0, out, passes=2)
    assert (out.attempted, out.matched, out.mismatches) == (4, 4, [])
    assert len(out.op_s) == 4 and len(out.pass_s) == 2
    assert out.pass_s[0] == pytest.approx(sum(out.op_s[:2]))
    assert mods.cli._run_cell is run_cell


@pytest.mark.parametrize("terms1, terms2, field", [
    ({-2: 2}, {-5: 1}, "failed"),           # no square root of 2 in F_3
    ({-3: 1, -1: 2}, {-5: 1}, "rejected"),  # t^-3 + 2t^-1 is a coboundary
    ({-2: 1}, {-2: 1, -1: 1}, "skipped"),   # equal conductors
    ({-5: 1}, {-2: 1}, "matched"),
])
def test_pair_accounting(mods, terms1, terms2, field):
    ring = mods.dvr_core.make_ring(3, 3, 1, 4)
    out = Outcome()
    workloads.run_pair(mods, ring, terms1, terms2, 30, out)
    tallies = {"failed": out.failed, "rejected": out.rejected,
               "skipped": out.skipped, "matched": out.matched}
    assert out.attempted == 1 and out.mismatches == []
    assert tallies == {k: int(k == field) for k in tallies}
    if field == "failed":
        assert out.failures == {"residue field too small": 1}


def test_grid_report_accounting():
    report = {"cells": [
        {"case": "a", "status": "match"},
        {"case": "b", "status": "unstable: not determined at precision 14"},
        {"case": "c", "status": "mismatch"},
    ]}
    out = Outcome()
    VerifyGrid.account(report, 2, out)
    assert (out.attempted, out.matched, out.failed) == (3, 1, 1)
    assert [m["case"] for m in out.mismatches] == ["c"]
    clean = Outcome()
    VerifyGrid.account({"cells": report["cells"][:2]}, 3, clean)
    assert clean.mismatches == [] and clean.failed == 1


def test_no_program_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "s2", "--seed", "1", "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_percentile():
    assert run.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert run.percentile([1.0, 2.0], 100) == 2.0
    assert run.percentile([0.0, 10.0], 90) == pytest.approx(9.0)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = Outcome(pass_s=[1.0], op_s=[1.0], attempted=1)
    e2e = run.end_to_end(workloads.WORKLOADS["s2"], out, 0.1)
    layer, _ = run.per_layer(tracer.Tracer(), out, out, 0.1, 0.0)
    for kind, got in (("end_to_end", e2e), ("per_layer", layer)):
        assert [m["name"] for m in spec[kind]] == list(got)
        assert all(m["unit"] == got[m["name"]][1] for m in spec[kind])
