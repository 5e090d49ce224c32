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

GENUS = """\
genus:
  p: 3
  g_x: 0
  r1: 2
  r2: 1
  boundary:
    pattern: PP
"""


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


class TestVerify:
    def test_file_pair_matches_like_a_grid_cell(self, tmp_path, capsys):
        spec = write(tmp_path, ETALE_PAIR.format(extra=""))
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

    def test_window_below_lowest_term_is_an_input_error(self, tmp_path,
                                                        capsys):
        spec = write(tmp_path, ETALE_PAIR.format(extra=""))
        code, out, err = run(["verify", "--spec", spec, "--window", "-8"],
                             capsys)
        assert code == 1 and out == ""
        assert err == "germrh: error: line 5: widen window\n"

    def test_grid_rejects_precision(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_grid_cells", lambda preset: [])
        code, out, err = run(["verify", "--grid", "quick", "--precision",
                              "3"], capsys)
        assert code == 1 and out == ""
        assert "--precision applies to --spec runs" in err


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
