"""Command-line front end: spec files in, reports and exit codes out.

Only light covers run the oracle here (each pair well under a second), so
the module stays cheap next to the series and oracle suites.
"""

import dataclasses
import json

import pytest

import germrh
from germrh import cli, oracle
from germrh.torsor_norm import hn

ETALE_PAIR = """\
ring:
  p: 3
  r: 3
  M: 4{extra}
cover:
  kind: etale
  terms:
    -5: 1
cover:
  kind: etale
  terms:
    -2: 1
"""

PAIR = ETALE_PAIR.format(extra="")

GENUS = """\
genus:
  p: 3
  g_x: 0
  r1: 2
  r2: 1
  boundary:
    pattern: PP
"""

CLASSIFY = """\
ring:
  p: 3
  r: 3
  M: 4
cover:
  kind: kummer
  terms:
    0: 1
    2: [1, 0, 2]
cover:
  kind: etale
  terms:
    -5: 1
cover:
  kind: hn
  n: 1
  terms:
    1: 1
    2: 1
"""

TOWER = """\
ring:
  p: 3
  r: 3
cover:
  tag: etale
  m: -5
cover:
  tag: mu_p
  m: 2
cover:
  tag: etale
  m: -3
tower:
"""


def lower(group, m, delta):
    return {"group": group, "m": m, "c": -m, "delta": delta}


def upper(m1p, m2p, g1p, g2p, d1p, d2p, ds, delta_total):
    return {"m1p": m1p, "m2p": m2p, "c1p": -m1p, "c2p": -m2p, "g1p": g1p,
            "g2p": g2p, "d1p": d1p, "d2p": d2p, "ds": ds,
            "delta_total": delta_total}


R33_M4 = {"p": 3, "r": 3, "s": 1, "M": 4}

PAIR_PROPAGATE = {
    "command": "propagate", "ring": R33_M4,
    "lower": [lower("etale", -5, 0), lower("etale", -2, 0)],
    "formula": upper(-2, -11, "etale", "etale", 0, 0, 26, 0)}


def residue_trace(parameter, composed, witness, read):
    return {"variable": "z", "stages": {
        "route": "'residue'", "parameter": parameter,
        "parameter_steps": "1", "residue_body": "<KLaurent 1 terms, hi=18>",
        "composed": composed, "as_reduce_witness": witness, "read": read}}


# --json reports recorded before the spec-to-equation path was rewritten;
# they must not change.
GOLDEN = [
    pytest.param(["classify"], CLASSIFY, {
        "command": "classify", "ring": R33_M4, "covers": [
            {"index": 0, "kind": "Kummer", "group": "mu_p", "n": None,
             "m": 2, "c": -2, "delta": 6},
            {"index": 1, "kind": "Etale", "group": "etale", "n": None,
             "m": -5, "c": 5, "delta": 0},
            {"index": 2, "kind": "Hn", "group": "H_1", "n": 1, "m": 1,
             "c": -1, "delta": 4}]}, id="classify"),
    pytest.param(["propagate"], PAIR, PAIR_PROPAGATE, id="propagate"),
    pytest.param(["propagate", "--oracle", "--trace"], PAIR, {
        **PAIR_PROPAGATE,
        "oracle": {
            "m1p": -2, "reading1": "etale", "m2p": -11, "reading2": "etale",
            "trace1": residue_trace(
                "<KLaurent 4 terms, hi=57>", "<KLaurent 4 terms, hi=48>",
                "<KLaurent 6 terms, hi=48>", "(-2, 'etale')"),
            "trace2": residue_trace(
                "<KLaurent 8 terms, hi=57>", "<KLaurent 10 terms, hi=39>",
                "<KLaurent 10 terms, hi=39>", "(-11, 'etale')")},
        "match": True}, id="propagate-oracle-trace"),
    pytest.param(["tower"], TOWER, {
        "command": "tower", "ring": {"p": 3, "r": 3, "s": 1, "M": 8},
        "order": [0, 1, 2],
        "lower": [lower("etale", -5, 0), lower("mu_p", 2, 6),
                  lower("etale", -3, 0)],
        "pairs": [upper(16, -5, "mu_p", "etale", 6, 0, -10, 6),
                  upper(-3, 12, "etale", "mu_p", 0, 6, -14, 6)],
        "top": upper(-3, -9, "etale", "etale", 0, 0, 28, 0),
        "c_top": [3, 9]}, id="tower"),
    pytest.param(["genus"], GENUS, {
        "command": "genus", "p": 3, "g_x": 0, "r1": 2, "r2": 1, "d_eta": 18,
        "d_s": 0, "g_y": 1, "smooth": False,
        "smooth_reason": "pattern PP, p(r1+r2-1) = 6 vs 1 + c1p + c1*p = 5"},
        id="genus"),
    pytest.param(["torsor-check", "--oracle"], PAIR, {
        "command": "torsor-check", "tags": ["etale", "etale"],
        "etale_count": 2, "verdict": True, "reason": "2 étale factors ≥1",
        "oracle": {"reduced": True}, "match": True},
        id="torsor-check-oracle"),
]


def write(tmp_path, text):
    path = tmp_path / "spec.txt"
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def preset_cell(label, **changes):
    cell = next(c for c in cli._grid_cells("all") if c.label == label)
    return dataclasses.replace(cell, **changes)


@pytest.mark.parametrize("module", [germrh, cli, oracle],
                         ids=lambda m: m.__name__)
def test_exported_names_resolve(module):
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("argv, text, want", GOLDEN)
def test_golden_json(argv, text, want, tmp_path, capsys):
    code, out, err = run(argv + ["--spec", write(tmp_path, text), "--json"],
                         capsys)
    assert (code, err) == (0, "")
    assert json.loads(out) == want


class TestVerify:
    def test_file_pair_matches_like_a_grid_cell(self, tmp_path, capsys):
        spec = write(tmp_path, PAIR)
        code, out, _ = run(["verify", "--spec", spec, "--json"], capsys)
        report = json.loads(out)
        assert code == 0
        assert report["grid"] == "file"
        assert report["summary"] == {"total": 1, "match": 1, "mismatch": 0,
                                     "unstable": 0}
        (row,) = report["cells"]
        assert (row["case"], row["status"]) == ("file pair", "match")
        grid_row = cli._run_cell(preset_cell("etale(-5) x etale(-2)"), None)
        assert list(row) == list(grid_row)

    def test_file_pair_honours_ring_window(self, tmp_path, monkeypatch):
        seen = []

        def stub(eq1, eq2, hi=None):
            seen.append((eq1.u.hi, eq2.u.hi, hi))
            raise ValueError("stub reading")

        monkeypatch.setattr(cli, "oracle_conductor", stub)
        spec = cli.load_spec(write(tmp_path, ETALE_PAIR.format(
            extra="\n  window: 30")))
        report, code = cli.cmd_verify(spec)
        assert seen == [(30, 30, None)]
        assert code == 3
        assert report["cells"][0]["status"] == "unstable: stub reading"

    def test_window_order(self, tmp_path, monkeypatch):
        """--window, then the cover's window, then the ring block's."""
        seen = []

        def stub(eq1, eq2, hi=None):
            seen.append((eq1.u.hi, eq2.u.hi, hi))
            raise ValueError("stub reading")

        monkeypatch.setattr(cli, "oracle_conductor", stub)
        text = ETALE_PAIR.format(extra="\n  window: 30").replace(
            "kind: etale", "kind: etale\n  window: 40", 1)
        spec = cli.load_spec(write(tmp_path, text))
        cli.cmd_verify(spec)
        cli.cmd_verify(spec, window=50)
        assert seen == [(40, 30, None), (50, 50, 50)]

    def test_grid_rows_follow_preset_order(self, monkeypatch):
        fixture = preset_cell("fixture T x T+T^3")
        cells = [dataclasses.replace(fixture, label="fixture, wrong pin",
                                     pinned=(3, hn(2))),
                 preset_cell("etale(-5) x etale(-2)"),
                 fixture]
        monkeypatch.setattr(cli, "_grid_cells", lambda preset: cells)
        report, code = cli.cmd_verify(grid="quick")
        assert [r["case"] for r in report["cells"]] == [c.label
                                                       for c in cells]
        assert [r["status"] for r in report["cells"]] == [
            "mismatch", "match", "match"]
        assert report["summary"] == {"total": 3, "match": 2, "mismatch": 1,
                                     "unstable": 0}
        assert code == 2

    def test_grid_rejects_precision(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_grid_cells", lambda preset: [])
        code, out, err = run(["verify", "--grid", "quick", "--precision",
                              "3"], capsys)
        assert code == 1 and out == ""
        assert "--precision applies to --spec runs" in err


SEVEN_DIGITS = PAIR.replace("-5: 1", "-5: [1, 0, 0, 0, 0, 0, 1]")
# etale t^-5 against t^-5 + t^-2: equal tags and conductors, and the
# oracle reads the difference t^-2 where the tables would say -5
EQUAL_CONDUCTORS = PAIR.replace("-2: 1", "-5: 1\n    -2: 1")
H5_AT_R3 = """\
ring:
  p: 3
  r: 3
cover:
  tag: hn
  n: 5
  m: 1
cover:
  tag: etale
  m: -5
"""
MU_MU_M0 = """\
cover:
  tag: mu_p
  m: 0
cover:
  tag: mu_p
  m: 0
"""
KUMMER_EQUAL = PAIR.replace("kind: etale", "kind: kummer").replace(
    "-5: 1", "0: 1\n    2: 1").replace("-2: 1", "0: 1\n    2: 1\n    3: 1")
TRIVIAL = PAIR.replace("kind: etale", "kind: kummer", 1).replace("-5: 1",
                                                                 "0: 1")
KUMMER_T_T2 = PAIR.replace("kind: etale", "kind: kummer").replace(
    "-5: 1", "1: 1").replace("-2: 1", "2: 1")


@pytest.mark.parametrize("argv, text, message", [
    pytest.param(["verify", "--window", "-8"], PAIR,
                 "line 5: widen window", id="window-below-lowest-term"),
    pytest.param(["classify"], ETALE_PAIR.format(extra="\n  series_prec: 0"),
                 "line 6: increase precision", id="series-prec-0"),
    pytest.param(["classify"], ETALE_PAIR.format(
        extra="\n  series_prec: -1"), "line 6: increase precision",
                 id="series-prec-negative"),
    pytest.param(["classify"], PAIR.replace("p: 3", "p: 4"),
                 "line 1: p = 4 is not prime", id="ring-p-4"),
    pytest.param(["classify"], PAIR.replace("r: 3", "r: 0"),
                 "line 1: need r >= 1 and s >= 1", id="ring-r-0"),
    pytest.param(["classify"], ETALE_PAIR.format(extra="\n  s: 0"),
                 "line 1: need r >= 1 and s >= 1", id="ring-s-0"),
    pytest.param(["classify"], PAIR.replace("M: 4", "M: 1"),
                 "line 1: need M >= 2 to separate zeta_p from 1",
                 id="ring-M-1"),
    pytest.param(["classify", "--precision", "1"], PAIR,
                 "line 1: need M >= 2 to separate zeta_p from 1",
                 id="precision-1"),
    pytest.param(["classify"], SEVEN_DIGITS,
                 "line 8: coefficient has 7 pi-digits; the ring holds 6",
                 id="more-pi-digits-than-e"),
    pytest.param(["verify"], TRIVIAL, "line 5: cover does not classify: "
                 "trivial torsor (p-th power to precision)",
                 id="verify-cover-does-not-classify"),
    pytest.param(["verify"], KUMMER_T_T2, "the closed form refuses this "
                 "pair: use oracle (both conductors vanish; the closed form "
                 "needs at least one non-zero)",
                 id="verify-closed-form-refuses"),
    pytest.param(["verify"], EQUAL_CONDUCTORS, "the closed form refuses "
                 "this pair: equal tags and conductors: the leads can "
                 "cancel", id="verify-equal-conductors"),
    pytest.param(["verify"], KUMMER_EQUAL, "the closed form refuses this "
                 "pair: equal tags and conductors: the leads can cancel",
                 id="verify-equal-kummer-conductors"),
    pytest.param(["propagate"], EQUAL_CONDUCTORS, "equal tags and "
                 "conductors: the leads can cancel; run with --oracle",
                 id="propagate-equal-conductors"),
    pytest.param(["torsor-check"], H5_AT_R3,
                 "line 4: level 5 outside 0 < n < 3", id="abstract-hn-level"),
    pytest.param(["propagate"], MU_MU_M0, "use oracle (both conductors "
                 "vanish; the closed form needs at least one non-zero); the "
                 "oracle needs concrete covers (kind/terms)",
                 id="abstract-pair-closed-form-refuses"),
])
def test_input_error_exits_1(argv, text, message, tmp_path, capsys):
    code, out, err = run(argv + ["--spec", write(tmp_path, text)], capsys)
    assert (code, out) == (1, "")
    assert err == f"germrh: error: {message}\n"


OFF_GRID = """\
ring:
  p: 3
  r: 3
  M: 4
cover:
  kind: kummer
  terms:
    0: 1
    2: 1
cover:
  kind: hn
  n: 1
  terms:
    1: 1
    2: 1
"""
OFF_GRID_ABSTRACT = """\
cover:
  tag: mu_p
  m: 2
cover:
  tag: hn
  n: 1
  m: 1
"""


@pytest.mark.parametrize("text, advice", [
    (OFF_GRID, "run with --oracle"),
    (OFF_GRID_ABSTRACT, "the oracle needs concrete covers (kind/terms)")],
    ids=["concrete", "abstract"])
def test_off_grid_note_advises_what_applies(text, advice, tmp_path, capsys):
    code, out, _ = run(["propagate", "--json", "--spec",
                        write(tmp_path, text)], capsys)
    assert code == 0
    assert json.loads(out)["note"] == ("no integral level for the "
                                       f"different table here; {advice} "
                                       "to cross-check conductors")


def test_equal_conductors_read_by_the_oracle_alone(tmp_path, capsys):
    code, out, err = run(["propagate", "--oracle", "--json", "--spec",
                          write(tmp_path, EQUAL_CONDUCTORS)], capsys)
    report = json.loads(out)
    assert (code, err) == (0, "")
    assert report["formula"] is None and "match" not in report
    assert report["note"].startswith("equal tags and conductors")
    assert report["oracle"] == {"m1p": -2, "reading1": "etale",
                                "m2p": -2, "reading2": "etale"}


def test_unstable_oracle_reading_exits_3(monkeypatch):
    """A real oracle run that reads nothing stable: an H2 base at r = 3
    leaves the composed unit short of the p-th power threshold at the
    default series precision."""
    cell = cli._Cell("H2(1) x mu(2)", (3, 3, 1, 4), ("Hn", {1: 1, 2: 1}, 2),
                     ("Kummer", {0: 1, 2: 1}, None), 60)
    monkeypatch.setattr(cli, "_grid_cells", lambda preset: [cell])
    report, code = cli.cmd_verify(grid="quick")
    assert code == 3
    assert report["summary"]["unstable"] == 1
    assert report["cells"][0]["status"].startswith(
        "unstable: increase precision")


def test_malformed_spec_names_its_line(tmp_path, capsys):
    spec = write(tmp_path, "ring:\n  p: 3\n  r 3\n")
    code, out, err = run(["classify", "--spec", spec], capsys)
    assert code == 1 and out == ""
    assert "line 3: expected 'key: value' or 'key:'" in err


def test_genus_takes_no_series_knobs(tmp_path, capsys):
    spec = write(tmp_path, GENUS)
    code, out, _ = run(["genus", "--spec", spec, "--json"], capsys)
    assert code == 0 and json.loads(out)["command"] == "genus"
    for knob in ("--window", "--precision"):
        code, _, err = run(["genus", "--spec", spec, knob, "5"], capsys)
        assert code == 1 and "unrecognized arguments" in err
