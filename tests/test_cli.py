"""Command-line behaviour: outputs, exit codes, determinism, reproduce table."""

from __future__ import annotations

import json

from chipwidth.cli import main
from chipwidth.graphs import Graph, write_gr


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- gen ------------------------------------------------------------------------


def test_gen_prism_stdout(capsys):
    code, out, _ = run(capsys, "gen", "prism", "5", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "c family stacked_prism 5 3"
    assert lines[1] == "p tw 15 25"
    assert len(lines) == 2 + 25


def test_gen_writes_file(tmp_path, capsys):
    target = tmp_path / "t.gr"
    code, out, _ = run(capsys, "gen", "torus", "4", "3", "-o", str(target))
    assert code == 0 and out == ""
    code, out, _ = run(capsys, "gen", "torus", "4", "3")
    assert target.read_text() == out


def test_gen_rejects_unknown_family(capsys):
    code, _, _ = run(capsys, "gen", "hypercube", "3", "3")
    assert code == 2


def test_gen_rejects_bad_size(capsys):
    code, _, err = run(capsys, "gen", "torus", "2", "3")
    assert code == 1 and "error:" in err


# --- tw and verify-td -------------------------------------------------------------


def test_tw_certificate(tmp_path, capsys):
    gr = tmp_path / "t43.gr"
    run(capsys, "gen", "torus", "4", "3", "-o", str(gr))
    code, out, _ = run(capsys, "tw", str(gr))
    assert code == 0
    cert = json.loads(out)
    assert cert["verdict"] == "exact"
    assert cert["witness"]["treewidth"] == 5
    assert cert["claim"] == {"type": "treewidth", "graph": "T4,3", "vertices": 12}
    assert cert["proof"] == "subset_dp"
    assert cert["timing"] is None
    # one search engine: there is no method to choose
    assert run(capsys, "tw", str(gr), "--method", "dp")[0] == 2


def test_tw_lower_hint_is_gone(tmp_path, capsys):
    # a lower bound enters the search only as a checked witness
    gr = tmp_path / "g33.gr"
    run(capsys, "gen", "grid", "3", "3", "-o", str(gr))
    assert run(capsys, "tw", str(gr), "--lower-hint", "3")[0] == 2


def test_tw_deterministic_bytes(tmp_path, capsys):
    gr = tmp_path / "g.gr"
    run(capsys, "gen", "grid", "3", "3", "-o", str(gr))
    _, first, _ = run(capsys, "tw", str(gr))
    _, second, _ = run(capsys, "tw", str(gr))
    assert first == second
    _, seeded, _ = run(capsys, "--seed", "99", "tw", str(gr))
    assert seeded == first  # --seed is accepted and ignored


def test_tw_timing_flag(tmp_path, capsys):
    gr = tmp_path / "g.gr"
    run(capsys, "gen", "grid", "3", "3", "-o", str(gr))
    _, out, _ = run(capsys, "--timing", "tw", str(gr))
    assert isinstance(json.loads(out)["timing"], float)


def test_tw_missing_file(capsys):
    code, _, err = run(capsys, "tw", "/nonexistent/x.gr")
    assert code == 1 and "error:" in err


def test_tw_and_verify_td(tmp_path, capsys):
    gr = tmp_path / "y.gr"
    td = tmp_path / "y.td"
    run(capsys, "gen", "prism", "5", "3", "-o", str(gr))
    code, _, _ = run(capsys, "tw", str(gr), "--td", str(td))
    assert code == 0 and td.exists()
    code, out, _ = run(capsys, "verify-td", str(gr), str(td))
    assert code == 0
    cert = json.loads(out)
    assert cert["verdict"] == "valid" and cert["witness"]["width"] == 5


def test_verify_td_flags_violation(tmp_path, capsys):
    gr = tmp_path / "p3.gr"
    td = tmp_path / "p3.td"
    gr.write_text("p tw 3 2\n1 2\n2 3\n")
    td.write_text("s td 2 2 3\nb 1 1 2\nb 2 3\n1 2\n")  # edge 2-3 in no bag
    code, out, _ = run(capsys, "verify-td", str(gr), str(td))
    assert code == 1
    cert = json.loads(out)
    assert cert["verdict"] == "invalid"
    assert cert["witness"]["condition"] == 2
    assert cert["witness"]["witness"] == [2, 3]


def test_verify_td_malformed_file(tmp_path, capsys):
    gr = tmp_path / "p3.gr"
    td = tmp_path / "bad.td"
    gr.write_text("p tw 3 2\n1 2\n2 3\n")
    td.write_text("b 1 1 2\n")
    code, _, err = run(capsys, "verify-td", str(gr), str(td))
    assert code == 1 and "error:" in err


# --- bramble ----------------------------------------------------------------------


def test_bramble_order_certificate(capsys):
    code, out, _ = run(capsys, "bramble", "order", "--family", "torus_fg",
                       "--m", "4", "--n", "3")
    assert code == 0
    cert = json.loads(out)
    assert cert["witness"]["order"] == 6
    assert cert["witness"]["classification"] == "bramble"
    assert cert["claim"]["elements"] == 180


def test_bramble_order_claim_check(capsys):
    code, out, _ = run(capsys, "bramble", "order", "--family", "grid",
                       "--m", "3", "--n", "4", "--claimed", "3")
    assert code == 0 and json.loads(out)["verdict"] == "pass"
    code, out, _ = run(capsys, "bramble", "order", "--family", "grid",
                       "--m", "3", "--n", "4", "--claimed", "4")
    cert = json.loads(out)
    assert code == 1 and cert["verdict"] == "fail"
    assert cert["claim"]["claimed_order"] == 4 and cert["witness"]["order"] == 3


def test_bramble_generate_and_classify(tmp_path, capsys):
    target = tmp_path / "b.bramble"
    code, _, _ = run(capsys, "bramble", "generate", "--family", "prism_b2",
                     "--m", "5", "--n", "3", "-o", str(target))
    assert code == 0
    assert target.read_text().startswith("b 285 15\n")
    code, out, _ = run(capsys, "bramble", "classify", "--family", "prism_b2",
                       "--m", "5", "--n", "3")
    assert code == 0
    assert json.loads(out)["verdict"] == "strict_bramble"


def test_bramble_wrong_regime(capsys):
    code, _, err = run(capsys, "bramble", "order", "--family", "prism_b1",
                       "--m", "5", "--n", "3")
    assert code == 1 and "error:" in err


# --- gon --------------------------------------------------------------------------


def test_gon_exact(tmp_path, capsys):
    gr = tmp_path / "y42.gr"
    run(capsys, "gen", "prism", "4", "2", "-o", str(gr))
    code, out, _ = run(capsys, "gon", "exact", str(gr))
    assert code == 0
    cert = json.loads(out)
    assert cert["verdict"] == "exact"
    assert cert["witness"]["gonality"] == 4
    assert cert["witness"]["losing_entries"] == 120


def test_gon_winning_then_check(tmp_path, capsys):
    gr = tmp_path / "t53.gr"
    div = tmp_path / "t53.div"
    run(capsys, "gen", "torus", "5", "3", "-o", str(gr))
    code, _, _ = run(capsys, "gon", "winning", str(gr), "-o", str(div))
    assert code == 0
    code, out, _ = run(capsys, "gon", "check", str(gr), str(div))
    assert code == 0 and json.loads(out)["verdict"] == "wins"


def test_gon_check_losing_divisor(tmp_path, capsys):
    gr = tmp_path / "y42.gr"
    div = tmp_path / "one.div"
    run(capsys, "gen", "prism", "4", "2", "-o", str(gr))
    div.write_text("d 8 1\n1 1\n")
    code, out, _ = run(capsys, "gon", "check", str(gr), str(div))
    assert code == 1
    cert = json.loads(out)
    assert cert["verdict"] == "loses"
    assert cert["witness"]["failing_vertex"] is not None


def test_gon_winning_needs_family_metadata(tmp_path, capsys):
    gr = tmp_path / "bare.gr"
    gr.write_text("p tw 3 2\n1 2\n2 3\n")
    code, _, err = run(capsys, "gon", "winning", str(gr))
    assert code == 1 and "error:" in err
    # a torus label on edges that are not that torus is no family at all
    false_torus = [(0, 1), (0, 2), (0, 5), (0, 6), (0, 7), (0, 9), (1, 4), (1, 5), (1, 6),
                   (1, 10), (2, 3), (2, 4), (2, 8), (2, 10), (3, 5), (3, 11), (4, 5),
                   (4, 6), (4, 7), (4, 8), (4, 11), (5, 7), (6, 9), (7, 10), (8, 11)]
    gr.write_text("c family toroidal_grid 4 3\n" + write_gr(Graph(12, false_torus)))
    code, out, err = run(capsys, "gon", "winning", str(gr))
    assert code == 1 and out == "" and err.startswith("error:")
    # and a grid has no stock winning divisor
    run(capsys, "gen", "grid", "3", "3", "-o", str(gr))
    code, out, err = run(capsys, "gon", "winning", str(gr))
    assert code == 1 and out == "" and "no stock winning divisor for family 'grid'" in err


# --- usage errors ------------------------------------------------------------------


def test_usage_errors(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "gen", "prism")[0] == 2
    assert run(capsys, "bramble", "order", "--family", "grid", "--m", "3")[0] == 2


# --- reproduce ---------------------------------------------------------------------


def test_reproduce_small_scope_all_match(capsys):
    code, out, _ = run(capsys, "reproduce", "--max-vertices", "12")
    assert code == 0
    assert "tw(T4,3) claimed 5 computed 5 match (computed benchmark)" in out
    assert "gon(Y4,2) claimed 4 computed 4 match" in out
    summary = out.strip().splitlines()[-1]
    assert summary.startswith("rows 20 ") and " mismatch 0 " in summary


def test_reproduce_default_scope_flags_known_shortfall(capsys):
    code, out, _ = run(capsys, "reproduce")
    assert code == 0
    assert "tw(T4,3) claimed 5 computed 5 match" in out
    assert "tw(T5,4) claimed 8 computed 8 match" in out
    assert "order(torus_balanced@T5,3) claimed 6 computed 6 match" in out
    assert "tw(Y8,4) claimed 8 computed - skipped_budget" in out
    summary = out.strip().splitlines()[-1]
    assert " mismatch 0 " in summary


def test_reproduce_budget_is_per_row(capsys):
    # a short budget caps each treewidth row; no row is skipped for time
    code, out, _ = run(capsys, "reproduce", "--max-vertices", "32", "--budget-ms", "500")
    assert code == 0
    assert "tw(Y8,4) claimed 8 computed [" in out
    summary = out.strip().splitlines()[-1]
    assert summary.startswith("rows 20 ") and summary.endswith(" skipped_budget 0")


def test_reproduce_rows_never_dropped(capsys):
    _, out, _ = run(capsys, "reproduce", "--max-vertices", "4")
    lines = [l for l in out.strip().splitlines() if not l.startswith("rows ")]
    assert len(lines) == 20
    assert all(" skipped_budget " in l for l in lines)
