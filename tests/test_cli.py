"""Command-line behaviour: outputs, exit codes, determinism, reproduce table."""

from __future__ import annotations

import dataclasses
import hashlib
import json

import chipwidth.cli as cli
from chipwidth.cli import _interval_verdict, main
from chipwidth.graphs import FamilyMeta, Graph, write_gr


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
    # nothing is random, so there is no --seed to accept
    assert run(capsys, "--seed", "99", "tw", str(gr))[0] == 2


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
    gr.write_text("p tw 3 x\n1 2\n2 3\n")
    code, _, err = run(capsys, "tw", str(gr))
    assert code == 1 and "error: line 1" in err
    gr.write_bytes("c caf\u00e9\np tw 1 0\n".encode())  # files are ASCII
    code, _, err = run(capsys, "tw", str(gr))
    assert code == 1 and err.startswith("error: 'ascii' codec can't decode")


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


# the divisor file `gon winning` writes for each stock style: (family, m, n,
# style, index) -> text
WINNING_DIVISORS = {
    ("prism", 5, 3, "column_ones", 0): "d 15 5\n1 1\n4 1\n7 1\n10 1\n13 1\n",
    ("prism", 5, 3, "column_ones", 2): "d 15 5\n3 1\n6 1\n9 1\n12 1\n15 1\n",
    ("prism", 7, 2, "row_twos", 0): "d 14 4\n1 2\n2 2\n",
    ("torus", 4, 3, "row_twos", 0): "d 12 6\n1 2\n2 2\n3 2\n",
    ("torus", 4, 3, "column_twos", 0): "d 12 8\n1 2\n4 2\n7 2\n10 2\n",
}


def test_gon_winning_divisor_text_pinned(tmp_path, capsys):
    gr = str(tmp_path / "g.gr")
    for (family, m, n, style, index), text in WINNING_DIVISORS.items():
        run(capsys, "gen", family, str(m), str(n), "-o", gr)
        code, out, err = run(capsys, "gon", "winning", gr, "--style", style,
                             "--index", str(index))
        assert (code, out, err) == (0, text, ""), (family, m, n, style, index)


def test_gon_winning_index_out_of_range(tmp_path, capsys):
    # Y5,3 has columns 0..2; a negative index must not wrap to the last one
    gr = str(tmp_path / "y53.gr")
    run(capsys, "gen", "prism", "5", "3", "-o", gr)
    for index in ("-1", "3"):
        code, out, err = run(capsys, "gon", "winning", gr, "--style", "column_ones",
                             "--index", index)
        assert code == 1 and out == "", index
        assert err == f"error: column index {index} out of range for n=3\n"


def test_gon_exact_negative_max_degree(tmp_path, capsys):
    # a lower bound of 0 from no divisors at all is no certificate
    gr = str(tmp_path / "y42.gr")
    run(capsys, "gen", "prism", "4", "2", "-o", gr)
    code, out, err = run(capsys, "gon", "exact", gr, "--max-degree", "-1")
    assert code == 1 and out == ""
    assert err == "error: max_degree must be at least 0, got -1\n"


# --- certificate bytes ------------------------------------------------------------

# SHA-256 of the stdout of each certificate command: a change of key order,
# indent or any value shows here
PINNED = [
    (("tw", "{t43}"), 0,
     "990d077757d8fc9de7b2df0f1604bf930a016ba72dc0fc045dc50aa958221550"),
    (("verify-td", "{y53}", "{y53td}"), 0,
     "203237034cf8c1a18cb1c4cb1ff3fa97dbe28aec7a5f320449add4e69f77a488"),
    (("verify-td", "{p3}", "{p3td}"), 1,
     "7aca5e69590b4dc3e3d27de085a529d5497f22caa6648f5a3aa36bd3af31b085"),
    (("bramble", "classify", "--family", "torus_fg", "--m", "4", "--n", "3"), 0,
     "ba239f16fede34365787ed90158f3508db679a882d34bcb63a623332a3a14441"),
    (("bramble", "order", "--family", "torus_fg", "--m", "4", "--n", "3", "--claimed", "6"), 0,
     "a0155fff936e2899a6c61ac1cebfce7a09112ab527d2be9f96fd32f2cfecdb12"),
    (("gon", "check", "{t43}", "{t43div}"), 0,
     "035b1bae48507213e14b2b7681baa82098085ffcb6c29c39ade7b17b618d753f"),
    (("gon", "exact", "{y42}", "--max-degree", "3"), 0,
     "6d8589b2026b684d260b1d2eea749c48f06be9f31ab576082b96b83ab63a91da"),
]


def test_certificate_bytes_pinned(tmp_path, capsys):
    files = {name: str(tmp_path / name) for name in ("t43", "y53", "y53td", "y42", "t43div")}
    files["p3"], files["p3td"] = str(tmp_path / "p3"), str(tmp_path / "p3td")
    run(capsys, "gen", "torus", "4", "3", "-o", files["t43"])
    run(capsys, "gen", "prism", "5", "3", "-o", files["y53"])
    run(capsys, "gen", "prism", "4", "2", "-o", files["y42"])
    run(capsys, "tw", files["y53"], "--td", files["y53td"])
    run(capsys, "gon", "winning", files["t43"], "-o", files["t43div"])
    (tmp_path / "p3").write_text("p tw 3 2\n1 2\n2 3\n")
    (tmp_path / "p3td").write_text("s td 2 2 3\nb 1 1 2\nb 2 3\n1 2\n")  # edge 2-3 in no bag
    for template, expected_code, digest in PINNED:
        argv = [arg.format(**files) for arg in template]
        code, out, _ = run(capsys, *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (expected_code, digest), argv
        cert = json.loads(out)
        assert list(cert) == ["claim", "verdict", "witness", "proof", "timing"]
        assert cert["timing"] is None
        # --timing embeds wall seconds and changes nothing else
        code, out, _ = run(capsys, "--timing", *argv)
        timed = json.loads(out)
        assert code == expected_code and {**timed, "timing": None} == cert
        assert isinstance(timed["timing"], float)


# --- usage errors ------------------------------------------------------------------


def test_usage_errors(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "gen", "prism")[0] == 2
    assert run(capsys, "bramble", "order", "--family", "grid", "--m", "3")[0] == 2


# --- reproduce ---------------------------------------------------------------------


def test_interval_verdict():
    assert _interval_verdict(5, 5, 5, 6) == "match"  # exact, inside the claim
    assert _interval_verdict(4, 4, 5, 6) == "mismatch"  # exact, outside it
    assert _interval_verdict(6, 8, 5, 6) == "within_interval"  # bounds that overlap
    assert _interval_verdict(7, 8, 5, 6) == "mismatch"  # bounds that are disjoint
    # a point claim keeps the old verdicts: exact equal, or inside the bounds
    assert _interval_verdict(8, 8, 8, 8) == "match"
    assert _interval_verdict(6, 8, 8, 8) == "within_interval"


def test_reproduce_small_scope_all_match(capsys):
    code, out, _ = run(capsys, "reproduce", "--max-vertices", "12")
    assert code == 0
    assert "tw(T4,3) claimed [5,6] computed 5 match (open line)" in out
    assert "tw(G3,3) claimed 3 computed 3 match (width formula)" in out
    assert "winning(T4,3) claimed wins computed wins match (divisor construction)" in out
    assert "gon(Y4,2) claimed 4 computed 4 match" in out
    summary = out.strip().splitlines()[-1]
    assert summary == "rows 82 match 79 within_interval 0 mismatch 0 skipped_size 3"


def test_reproduce_default_scope_flags_known_shortfall(capsys):
    # one width row per family graph up to 20 vertices, a winning row per
    # stock style, and the seven order and gonality rows
    code, out, _ = run(capsys, "reproduce")
    assert code == 0
    lines = out.strip().splitlines()
    assert sum(l.startswith("tw(") for l in lines) == 112
    assert sum(l.startswith("winning(") for l in lines) == 46
    assert "tw(Y4,2) claimed [3,4] computed 3 match (open line)" in out
    assert "tw(T5,4) claimed [7,8] computed 8 match (open line)" in out
    assert "tw(T5,3) claimed 6 computed 6 match (width formula)" in out
    assert "order(torus_balanced@T5,3) claimed 6 computed 6 match" in out
    assert "order(prism_b1@Y7,3) claimed 6 computed - skipped_size" in out
    assert lines[-1] == "rows 165 match 164 within_interval 0 mismatch 0 skipped_size 1"


def test_reproduce_flags_a_false_formula(capsys, monkeypatch):
    # G3,3 has treewidth 3; a table claiming 4 must show, not pass silently
    true_claims = cli.family_claims

    def false_claims(g):
        claims = true_claims(g)
        if g.family == FamilyMeta("grid", 3, 3):
            return dataclasses.replace(claims, low=4, high=4)
        return claims

    monkeypatch.setattr(cli, "family_claims", false_claims)
    code, out, _ = run(capsys, "reproduce", "--max-vertices", "9")
    assert code == 1
    assert "tw(G3,3) claimed 4 computed 3 mismatch (width formula)" in out
    assert out.strip().splitlines()[-1].endswith(" mismatch 1 skipped_size 5")


def test_reproduce_budget_is_per_row(capsys):
    # a short budget caps each treewidth search; no row is skipped for time.
    # Y6,3 takes 1,789 states, about 65 ms, to settle width 6 from its
    # witness bound 4
    code, out, _ = run(capsys, "reproduce", "--budget-ms", "1")
    assert code == 0
    assert "tw(Y6,3) claimed [5,6] computed [" in out
    summary = out.strip().splitlines()[-1]
    assert summary.startswith("rows 165 ") and summary.endswith(" mismatch 0 skipped_size 1")
    assert " within_interval 0 " not in summary


def test_reproduce_rows_never_dropped(capsys):
    # the sweep stops at the scope; the literal rows above it stay, skipped
    _, out, _ = run(capsys, "reproduce", "--max-vertices", "4")
    lines = out.strip().splitlines()
    assert lines[-1] == "rows 19 match 12 within_interval 0 mismatch 0 skipped_size 7"
    assert all(" match " in l for l in lines[:12])
    assert all(" skipped_size " in l for l in lines[12:19])
    assert lines[12].startswith("order(grid@G3,4) ") and lines[18].startswith("gon(T3,3) ")
