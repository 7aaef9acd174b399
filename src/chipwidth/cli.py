"""Command-line front end for the solvers and certificate checkers.

Subcommands: gen (emit family graphs as .gr), tw (exact treewidth with a
decomposition), verify-td (check a .td against a graph), bramble
(generate / classify / order for the named covering families), gon
(winning-divisor check, exact gonality, known winning divisors), and
reproduce (check the family claims table on every grid, prism and torus up
to a size, and the stock bramble orders and gonalities, as a verdict table).

Machine output goes to stdout, diagnostics to stderr. Exit codes: 0 on
success or an all-match table, 1 on a verification failure or mismatch,
2 on usage errors. Stdout is byte-identical across runs on the same input;
measured wall times are only embedded when --timing is given.

This module is the only place that opens files or writes JSON: the library's
readers and writers take and return text.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

from .brambles import (
    BrambleError,
    classify_family,
    gen_balanced_bramble,
    gen_grid_bramble,
    gen_prism_b1,
    gen_prism_b2,
    gen_torus_cde,
    gen_torus_fg,
    min_hitting_set,
    write_bramble,
)
from .chipfiring import (
    ChipFiringError,
    exact_gonality,
    gen_winning_divisor,
    is_winning_divisor,
    read_divisor,
    write_divisor,
)
from .graphs import (
    Graph,
    GraphError,
    bits_list,
    family_graphs,
    make_family,
    read_gr,
    write_gr,
)
from .treewidth import (
    DEFAULT_TIME_BUDGET,
    DecompositionError,
    FamilyClaims,
    SolverLimits,
    exact_treewidth,
    family_bramble,
    family_claims,
    read_td,
    validate_tree_decomposition,
    write_td,
)

_FAMILY_LETTER = {"grid": "G", "stacked_prism": "Y", "toroidal_grid": "T"}
_GEN_KINDS = {"grid": "grid", "prism": "stacked_prism", "torus": "toroidal_grid"}
_BRAMBLE_FAMILIES = {
    "grid": ("grid", gen_grid_bramble),
    "prism_b1": ("stacked_prism", gen_prism_b1),
    "prism_b2": ("stacked_prism", gen_prism_b2),
    "torus_cde": ("toroidal_grid", gen_torus_cde),
    "torus_fg": ("toroidal_grid", gen_torus_fg),
    "torus_balanced": ("toroidal_grid", gen_balanced_bramble),
}


def _label(g: Graph) -> str:
    fam = g.family
    if fam is not None:
        return f"{_FAMILY_LETTER[fam.kind]}{fam.m},{fam.n}"
    return f"graph({g.n}v)"


def _read(path: str) -> str:
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _print_cert(claim: dict, verdict: str, witness: dict, proof: str,
                timing: float | None, show_timing: bool) -> None:
    """Print a checked claim as JSON. verdict is the outcome in the claim's
    own terms (exact or bounds_only, valid or invalid, pass or fail, wins or
    loses); proof names the procedure that settled it (e.g. subset_dp,
    hitting_set_search, exhaustive_enumeration); timing is wall seconds,
    null unless show_timing, so repeated runs on one input stay byte-identical."""
    cert = {"claim": claim, "verdict": verdict, "witness": witness, "proof": proof,
            "timing": timing if show_timing else None}
    sys.stdout.write(json.dumps(cert, indent=2) + "\n")


def _one_indexed(witness: int | tuple[int, int]) -> int | list[int]:
    # a vertex (conditions 1 and 3) or an edge (condition 2)
    return witness + 1 if isinstance(witness, int) else [x + 1 for x in witness]


# --- subcommands --------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    g = make_family(_GEN_KINDS[args.family], args.m, args.n)
    _emit(write_gr(g), args.output)
    return 0


def _cmd_tw(args: argparse.Namespace) -> int:
    g = read_gr(_read(args.graph))
    res = exact_treewidth(g, SolverLimits(time_budget=args.budget_ms / 1000.0))
    if args.td is not None:
        _emit(write_td(res.decomposition), args.td)
    _print_cert(
        claim={"type": "treewidth", "graph": _label(g), "vertices": g.n},
        verdict=res.proof_status,
        witness={
            "treewidth": res.treewidth,
            "lower": res.lower,
            "upper": res.upper,
            "bags": res.decomposition.num_bags,
        },
        proof="subset_dp",
        timing=res.elapsed,
        show_timing=args.timing,
    )
    return 0


def _cmd_verify_td(args: argparse.Namespace) -> int:
    g = read_gr(_read(args.graph))
    td = read_td(_read(args.decomposition))
    t0 = time.monotonic()
    report = validate_tree_decomposition(g, td)
    elapsed = time.monotonic() - t0
    if report.valid:
        witness: dict = {"width": td.width}
    else:
        witness = {"condition": report.condition, "witness": _one_indexed(report.witness)}
    _print_cert(
        claim={
            "type": "tree_decomposition",
            "graph": _label(g),
            "bags": td.num_bags,
            "declared_width": td.width,
        },
        verdict="valid" if report.valid else "invalid",
        witness=witness,
        proof="direct_check",
        timing=elapsed,
        show_timing=args.timing,
    )
    return 0 if report.valid else 1


def _cmd_bramble(args: argparse.Namespace) -> int:
    kind, gen = _BRAMBLE_FAMILIES[args.family]
    g = make_family(kind, args.m, args.n)
    b = gen(g)
    if args.action == "generate":
        _emit(write_bramble(b), args.output)
        return 0
    t0 = time.monotonic()
    cls = classify_family(g, b.elements)
    elapsed = time.monotonic() - t0
    if args.action == "classify":
        counter = None
        if cls.counterexample is not None:
            counter = list(cls.counterexample)
        _print_cert(
            claim={
                "type": "bramble_classification",
                "family": args.family,
                "graph": _label(g),
                "elements": len(b),
            },
            verdict=cls.verdict,
            witness={"counterexample_elements": counter},
            proof="pairwise_check",
            timing=elapsed,
            show_timing=args.timing,
        )
        return 0
    t0 = time.monotonic()
    oc = min_hitting_set(b)
    elapsed = time.monotonic() - t0
    claim = {
        "type": "bramble_order",
        "family": args.family,
        "graph": _label(g),
        "elements": len(b),
    }
    if args.claimed is not None:
        claim["claimed_order"] = args.claimed
        verdict = "pass" if oc.order == args.claimed else "fail"
    else:
        verdict = cls.verdict
    _print_cert(
        claim=claim,
        verdict=verdict,
        witness={
            "order": oc.order,
            "hitting_set": [v + 1 for v in bits_list(oc.witness)],
            "classification": cls.verdict,
        },
        proof="hitting_set_search",
        timing=elapsed,
        show_timing=args.timing,
    )
    return 1 if verdict == "fail" else 0


def _cmd_gon(args: argparse.Namespace) -> int:
    g = read_gr(_read(args.graph))
    if args.action == "check":
        d = read_divisor(_read(args.divisor), g)
        t0 = time.monotonic()
        wins, fail_v = is_winning_divisor(g, d)
        elapsed = time.monotonic() - t0
        _print_cert(
            claim={"type": "winning_divisor", "graph": _label(g), "degree": d.degree},
            verdict="wins" if wins else "loses",
            witness={"failing_vertex": None if fail_v is None else fail_v + 1},
            proof="dhar_burn",
            timing=elapsed,
            show_timing=args.timing,
        )
        return 0 if wins else 1
    if args.action == "exact":
        t0 = time.monotonic()
        res = exact_gonality(g, max_degree=args.max_degree)
        elapsed = time.monotonic() - t0
        winner = None
        if res.winning_divisor is not None:
            winner = list(res.winning_divisor.chips)
        _print_cert(
            claim={"type": "gonality", "graph": _label(g), "vertices": g.n},
            verdict=res.status,
            witness={
                "gonality": res.gonality,
                "lower": res.lower,
                "winning_divisor": winner,
                "losing_entries": len(res.losing_proof),
                "divisors_checked": res.divisors_checked,
            },
            proof="exhaustive_enumeration",
            timing=elapsed,
            show_timing=args.timing,
        )
        return 0
    # winning
    style = args.style if args.style is not None else family_claims(g).style
    d = gen_winning_divisor(g, style, args.index)
    wins, _ = is_winning_divisor(g, d)
    if not wins:
        print(f"error: generated divisor does not win on {_label(g)}", file=sys.stderr)
        return 1
    _emit(write_divisor(g, d), args.output)
    return 0


# --- reproduce ----------------------------------------------------------------


@dataclass(frozen=True)
class ReproRow:
    """One claim: label, claim source, claimed value, vertex count, and a
    runner mapping a time budget to (computed text, verdict)."""

    label: str
    source: str
    claimed: str
    vertices: int
    run: Callable[[float], tuple[str, str]]


def _interval_text(low: int, high: int) -> str:
    return str(low) if low == high else f"[{low},{high}]"


def _interval_verdict(low: int, high: int, claim_low: int, claim_high: int) -> str:
    """match when the computed interval lies inside the claimed one,
    mismatch when the two are disjoint, within_interval otherwise."""
    if claim_low <= low and high <= claim_high:
        return "match"
    if high < claim_low or claim_high < low:
        return "mismatch"
    return "within_interval"


def _width_row(g: Graph, claims: FamilyClaims) -> ReproRow:
    def run(budget: float) -> tuple[str, str]:
        res = exact_treewidth(g, SolverLimits(time_budget=budget), family_bramble(g))
        verdict = _interval_verdict(res.lower, res.upper, claims.low, claims.high)
        return _interval_text(res.lower, res.upper), verdict

    source = "width formula" if claims.low == claims.high else "open line"
    return ReproRow(f"tw({_label(g)})", source, _interval_text(claims.low, claims.high),
                    g.n, run)


def _winning_row(g: Graph, style: str) -> ReproRow:
    def run(budget: float) -> tuple[str, str]:
        wins, _ = is_winning_divisor(g, gen_winning_divisor(g, style))
        return ("wins", "match") if wins else ("loses", "mismatch")

    return ReproRow(f"winning({_label(g)})", "divisor construction", "wins", g.n, run)


def _order_row(label: str, family: str, m: int, n: int, claimed: int, strict: bool) -> ReproRow:
    kind, gen = _BRAMBLE_FAMILIES[family]

    def run(budget: float) -> tuple[str, str]:
        g = make_family(kind, m, n)
        b = gen(g)
        oc = min_hitting_set(b)
        cls = classify_family(g, b.elements)
        strict_ok = (cls.verdict == "strict_bramble") == strict
        ok = oc.order == claimed and strict_ok
        shown = str(oc.order) if strict_ok else f"{oc.order} ({cls.verdict})"
        return shown, "match" if ok else "mismatch"

    return ReproRow(label, "covering family order", str(claimed), m * n, run)


def _gon_row(label: str, source: str, kind: str, m: int, n: int, claimed: int) -> ReproRow:
    def run(budget: float) -> tuple[str, str]:
        g = make_family(kind, m, n)
        res = exact_gonality(g)
        if res.status == "exact":
            return str(res.gonality), "match" if res.gonality == claimed else "mismatch"
        verdict = "within_interval" if claimed >= res.lower else "mismatch"
        return f">={res.lower}", verdict

    return ReproRow(label, source, str(claimed), m * n, run)


def _repro_rows(max_vertices: int) -> list[ReproRow]:
    """A width row for every family graph up to max_vertices and a winning
    row where the claims table has a style, then the claims it does not
    hold: bramble orders and gonalities."""
    rows = []
    for g in family_graphs(max_vertices):
        claims = family_claims(g)
        rows.append(_width_row(g, claims))
        if claims.style is not None:
            rows.append(_winning_row(g, claims.style))
    return rows + [
        _order_row("order(grid@G3,4)", "grid", 3, 4, 3, True),
        _order_row("order(prism_b1@Y7,3)", "prism_b1", 7, 3, 6, True),
        _order_row("order(prism_b2@Y5,3)", "prism_b2", 5, 3, 5, True),
        _order_row("order(torus_balanced@T5,3)", "torus_balanced", 5, 3, 6, True),
        _order_row("order(torus_fg@T4,3)", "torus_fg", 4, 3, 6, False),
        _gon_row("gon(Y4,2)", "computed benchmark", "stacked_prism", 4, 2, 4),
        _gon_row("gon(T3,3)", "companion result", "toroidal_grid", 3, 3, 6),
    ]


def _cmd_reproduce(args: argparse.Namespace) -> int:
    counts = {"match": 0, "within_interval": 0, "mismatch": 0, "skipped_size": 0}
    for row in _repro_rows(args.max_vertices):
        if row.vertices > args.max_vertices:
            computed, verdict = "-", "skipped_size"
        else:
            print(f"reproduce: computing {row.label}", file=sys.stderr)
            computed, verdict = row.run(args.budget_ms / 1000.0)
        counts[verdict] += 1
        sys.stdout.write(
            f"{row.label} claimed {row.claimed} computed {computed}"
            f" {verdict} ({row.source})\n"
        )
    tally = " ".join(f"{verdict} {count}" for verdict, count in counts.items())
    sys.stdout.write(f"rows {sum(counts.values())} {tally}\n")
    return 1 if counts["mismatch"] else 0


# --- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chipwidth",
        description="Exact treewidth, bramble, and gonality certificates "
        "for grids, stacked prisms, and toroidal grids.",
        epilog="Exit codes: 0 success or all-match, 1 verification failure "
        "or mismatch, 2 usage error.",
    )
    parser.add_argument(
        "--timing",
        action="store_true",
        help="embed measured wall seconds in JSON output "
        "(off by default so identical inputs give identical bytes)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a family graph in .gr format")
    p.add_argument("family", choices=sorted(_GEN_KINDS))
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("tw", help="exact treewidth with a tree decomposition")
    p.add_argument("graph", help=".gr file")
    p.add_argument("--budget-ms", type=int, default=int(DEFAULT_TIME_BUDGET * 1000))
    p.add_argument("--td", default=None, help="also write the decomposition to this .td file")
    p.set_defaults(func=_cmd_tw)

    p = sub.add_parser("verify-td", help="validate a tree decomposition against a graph")
    p.add_argument("graph", help=".gr file")
    p.add_argument("decomposition", help=".td file")
    p.set_defaults(func=_cmd_verify_td)

    p = sub.add_parser("bramble", help="covering families: generate, classify, order")
    ps = p.add_subparsers(dest="action", required=True)
    for action in ("generate", "classify", "order"):
        q = ps.add_parser(action)
        q.add_argument("--family", required=True, choices=sorted(_BRAMBLE_FAMILIES))
        q.add_argument("--m", type=int, required=True)
        q.add_argument("--n", type=int, required=True)
        if action == "generate":
            q.add_argument("-o", "--output", default=None)
        if action == "order":
            q.add_argument("--claimed", type=int, default=None,
                           help="compare the computed order against this value")
        q.set_defaults(func=_cmd_bramble)

    p = sub.add_parser("gon", help="chip-firing: check, exact, winning")
    ps = p.add_subparsers(dest="action", required=True)
    q = ps.add_parser("check", help="does the divisor win the gonality game")
    q.add_argument("graph", help=".gr file")
    q.add_argument("divisor", help="divisor file")
    q.set_defaults(func=_cmd_gon)
    q = ps.add_parser("exact", help="exact gonality by exhaustive enumeration")
    q.add_argument("graph", help=".gr file")
    q.add_argument("--max-degree", type=int, default=None)
    q.set_defaults(func=_cmd_gon)
    q = ps.add_parser("winning", help="emit a stock winning divisor for a family graph")
    q.add_argument("graph", help=".gr file with family metadata")
    q.add_argument("--style", default=None,
                   choices=["column_ones", "row_twos", "column_twos"])
    q.add_argument("--index", type=int, default=0, help="which row or column to load")
    q.add_argument("-o", "--output", default=None)
    q.set_defaults(func=_cmd_gon)

    p = sub.add_parser("reproduce",
                       help="check the family claims and the stock claims; print a verdict table")
    p.add_argument("--max-vertices", type=int, default=20,
                   help="sweep the family graphs up to this size and skip the other "
                   "claims on larger graphs (default 20)")
    p.add_argument("--budget-ms", type=int, default=120000,
                   help="time budget of each treewidth row's search (default 120000); "
                   "the check of its witness bramble runs before the search, unbudgeted")
    p.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (GraphError, DecompositionError, BrambleError, ChipFiringError, OSError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
