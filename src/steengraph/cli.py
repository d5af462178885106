"""Command-line front end.

Subcommands:
  analyze    full report on one monomial (walk counts, tree, Hamilton)
  verify     exhaustive criterion-vs-oracle sweeps
  hopf       expand coproduct / antipode / path sums of a generator power
  enumerate  list the monomials of a level
  dot        Graphviz text for a monomial's graph

Exit codes: 0 all good, 1 a sound claim disagreed with its oracle,
2 usage error (bad monomial text, out-of-range parameters, capped n),
141 stdout closed by its reader before the output ended (128 + SIGPIPE,
as a shell reports a process that a broken pipe killed), nothing on stderr.
Output is deterministic: identical invocations give identical bytes.
`main` builds its parser at its first call and keeps it for the process.
"""

import argparse
import dataclasses
import json
import os
import sys
from functools import lru_cache
from itertools import combinations
from operator import itemgetter
from typing import Optional

from .algebra import (
    DEFAULT_MAX_N,
    ENV_MAX_N,
    UNTRUNCATED,
    Level,
    Monomial,
    enumerate_monomials,
    max_truncation,
    monomial_count,
    parse_monomial,
)
from .connectivity import oracle_is_connected, oracle_is_unilateral, walk_records
from .graphs import export_dot, to_graph
from .hopf import antipode, coproduct_generator, directed_path_polynomial
from .structure import (
    degree_bound_holds,
    degree_table,
    format_cycle,
    format_directed_path,
    has_hamilton_directed_path,
    oracle_hamilton_cycle,
    oracle_hamilton_directed_path,
    oracle_is_tree,
    tree_criterion,
)
from .verify import CHECK_ORDER, CapExceeded, effective_cap, run_all, run_check

MAX_LISTED = 10
_value = itemgetter("value")  # a walk record's count


def build_report(x: Monomial) -> dict:
    """All analysis facts for one monomial, JSON-ready, with oracle verdicts inline."""
    g = to_graph(x)
    c = walk_records(x, directed=False)
    u = walk_records(x, directed=True)
    connected = all(map(_value, c))
    oracle_connected = oracle_is_connected(g)
    unilateral = all(map(_value, u))
    oracle_unilateral = oracle_is_unilateral(g)
    tree = tree_criterion(x.level, x.edge_count, connected)
    oracle_tree = oracle_is_tree(g)
    cycle = oracle_hamilton_cycle(g)
    dipath = has_hamilton_directed_path(x)
    oracle_dipath = oracle_hamilton_directed_path(g)
    degree_profiles = degree_table(x)
    dirac = degree_bound_holds(x.level, degree_profiles, 2)
    agree = (
        connected == oracle_connected
        and unilateral == oracle_unilateral
        and tree == oracle_tree
        and dipath == (oracle_dipath is not None)
        and (not dirac or cycle is not None)
    )
    return {
        "report": "analysis",
        "monomial": str(x),
        "n": x.level.n,
        "edges": [[1 << p, 1 << q] for p, q in g.sorted_edges()],
        "degrees": [
            {
                "vertex": d.vertex,
                "label": 1 << d.vertex,
                "in": d.in_degree,
                "out": d.out_degree,
                "degree": d.degree,
            }
            for d in degree_profiles
        ],
        "C": c,
        "U": u,
        "connected": connected,
        "oracle_connected": oracle_connected,
        "unilateral": unilateral,
        "oracle_unilateral": oracle_unilateral,
        "tree": tree,
        "oracle_tree": oracle_tree,
        "paper_hamilton_condition": degree_bound_holds(x.level, degree_profiles, 0),
        "dirac_condition": dirac,
        "hamilton_cycle_found": cycle is not None,
        "hamilton_cycle_witness": format_cycle(cycle) if cycle else None,
        "hamilton_dipath": dipath,
        "oracle_hamilton_dipath": oracle_dipath is not None,
        "hamilton_dipath_witness": (
            format_directed_path(oracle_dipath) if oracle_dipath else None
        ),
        "oracles_agree": agree,
    }


def _yesno(b: bool) -> str:
    return "yes" if b else "no"


@lru_cache(maxsize=2 * (DEFAULT_MAX_N + 1))
def _walk_line(name: str, m: int) -> str:
    # "C: C(0,1)={} C(0,2)={} ...": one field per pair p < q of m vertices, in the (p, q)
    # order of connectivity.walk_records; both tables of each vertex count up to the cap kept
    return f"{name}: " + " ".join(f"{name}({p},{q})={{}}" for p, q in combinations(range(m), 2))


def render_analysis_text(rep: dict) -> str:
    """The text report of build_report's dict.

    The C and U lines fill the line template of the vertex count,
    m = len(rep["degrees"]), with the counts of the records in order.
    """
    lines = []
    lines.append(
        f"monomial {rep['monomial']} at n={rep['n']}"
        f" ({len(rep['degrees'])} vertices, {len(rep['edges'])} edges)"
    )
    if rep["edges"]:
        lines.append("edges: " + " ".join([f"{{{a},{b}}}" for a, b in rep["edges"]]))
    else:
        lines.append("edges: none")
    lines.append(
        "degrees (in+out): "
        + " ".join([f"{d['label']}:{d['in']}+{d['out']}" for d in rep["degrees"]])
    )
    m = len(rep["degrees"])
    lines.append(_walk_line("C", m).format(*map(_value, rep["C"])))
    lines.append(_walk_line("U", m).format(*map(_value, rep["U"])))
    for key, oracle in (("connected", "search"), ("unilateral", "closure"), ("tree", "search")):
        lines.append(f"{key}: {_yesno(rep[key])} ({oracle} oracle: {_yesno(rep['oracle_' + key])})")
    if rep["hamilton_cycle_found"]:
        lines.append(f"hamilton cycle: {rep['hamilton_cycle_witness']}")
    else:
        lines.append("hamilton cycle: none found")
    lines.append(
        f"  degree bound n/2 (printed condition): {_yesno(rep['paper_hamilton_condition'])}"
    )
    lines.append(
        f"  degree bound (n+2)/2 (vertex-count bound): {_yesno(rep['dirac_condition'])}"
    )
    if rep["hamilton_dipath"]:
        lines.append(f"hamilton directed path: {rep['hamilton_dipath_witness']}")
    else:
        lines.append("hamilton directed path: none")
    if not rep["oracles_agree"]:
        lines.append("WARNING: a criterion disagrees with its oracle above")
    return "\n".join(lines) + "\n"


def _verify_payload(results: list, n: int) -> dict:
    return {
        "report": "verify",
        "n": n,
        "checks": [{**dataclasses.asdict(r), "ok": r.ok} for r in results],
        "ok": all(r.ok for r in results),
    }


def render_verify_text(results: list) -> str:
    lines = []
    for r in results:
        head = f"verify {r.name} at n={r.n}: {r.cases} cases, {len(r.failures)} discrepancies"
        if r.findings:
            head += f", {len(r.findings)} findings"
        lines.append(head)
        for note in r.notes:
            lines.append(f"  note: {note}")
        for kind, items in (("discrepancy", r.failures), ("finding", r.findings)):
            for w in items[:MAX_LISTED]:
                lines.append(f"  {kind}: {w}")
            if len(items) > MAX_LISTED:
                lines.append(f"  ... and {len(items) - MAX_LISTED} more")
    verdict = "PASS" if all(r.ok for r in results) else "FAIL"
    lines.append(f"result: {verdict} ({len(results)} checks)")
    return "\n".join(lines) + "\n"


def _add_common(sp: argparse.ArgumentParser, need_n: bool, report: bool = True):
    sp.add_argument(
        "-n",
        type=int,
        required=need_n,
        default=None,
        metavar="N",
        help="truncation level (generators xi_1..xi_(n+1))",
    )
    if report:
        sp.add_argument("--json", action="store_true", help="emit a JSON report")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="steengraph",
        description="Graphs of truncated dual Steenrod algebra monomials: "
        "connectivity, trees, Hamilton criteria, Hopf structure.",
        epilog=f"The env var {ENV_MAX_N} overrides the level and sweep caps.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="full report on one monomial")
    a.add_argument("monomial", help="e.g. 'xi1^6 xi2 xi3' or 'xi1^6*xi2*xi3' or '[6,1,1]'")
    _add_common(a, need_n=True)
    a.add_argument("--dot", metavar="PATH", help="also write the DOT export here")
    a.add_argument("--directed", action="store_true", help="orient the DOT export")
    a.set_defaults(run=cmd_analyze)

    v = sub.add_parser("verify", help="exhaustive criterion-vs-oracle sweeps")
    _add_common(v, need_n=True)
    v.add_argument(
        "--theorem",
        default="all",
        metavar="NAME",
        help=f"one of: all, {', '.join(CHECK_ORDER)} (default: all)",
    )
    v.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    v.set_defaults(run=cmd_verify)

    h = sub.add_parser("hopf", help="expand coproduct / antipode / path sums")
    h.add_argument("action", choices=["coproduct", "antipode", "paths"])
    h.add_argument("--i", type=int, required=True, help="generator index i of xi_i")
    h.add_argument("--j", type=int, default=0, help="power index j in xi_i^(2^j)")
    _add_common(h, need_n=False)
    h.set_defaults(run=cmd_hopf)

    e = sub.add_parser("enumerate", help="list the monomials of a level")
    _add_common(e, need_n=True)
    e.add_argument("--limit", type=int, default=None, help="list at most this many")
    e.set_defaults(run=cmd_enumerate)

    d = sub.add_parser("dot", help="Graphviz text for a monomial's graph")
    d.add_argument("monomial")
    _add_common(d, need_n=True, report=False)  # dot always prints DOT
    d.add_argument("--dot", metavar="PATH", help="write here instead of stdout")
    d.add_argument("--directed", action="store_true", help="orient the edges")
    d.set_defaults(run=cmd_dot)

    return ap


def _emit_json(payload: dict):
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _write_dot(path: str, text: str):
    """Write a --dot file; a path that cannot be written is a usage error (exit 2)."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write --dot file {path}: {exc.strerror}") from None


def cmd_analyze(args) -> int:
    level = Level(args.n)
    x = parse_monomial(args.monomial, level)
    rep = build_report(x)
    if args.dot:
        _write_dot(args.dot, export_dot(to_graph(x), directed=args.directed))
    if args.json:
        _emit_json(rep)
    else:
        sys.stdout.write(render_analysis_text(rep))
    return 0 if rep["oracles_agree"] else 1


def cmd_verify(args) -> int:
    if args.theorem == "all":
        results = run_all(args.n, jobs=args.jobs)
    else:
        if args.theorem not in CHECK_ORDER:
            raise CapExceeded(
                f"unknown check {args.theorem!r}; known: all, {', '.join(CHECK_ORDER)}"
            )
        results = [run_check(args.theorem, args.n, jobs=args.jobs)]
    if args.json:
        _emit_json(_verify_payload(results, args.n))
    else:
        sys.stdout.write(render_verify_text(results))
    return 0 if all(r.ok for r in results) else 1


def cmd_hopf(args) -> int:
    if args.n is None and args.i >= 1 and args.j >= 0:
        # untruncated, the work still grows as 2^(i-1) terms and 2^j exponents; a pair that
        # names no generator is refused by Monomial.generator_power below
        cap = max_truncation()
        if args.i + args.j - 1 > cap:
            raise ValueError(
                f"xi{args.i}^(2^{args.j}) without -n needs level {args.i + args.j - 1},"
                f" above the cap {cap} (set {ENV_MAX_N} to raise it)"
            )
    level = UNTRUNCATED if args.n is None else Level(args.n)
    if args.action == "coproduct":
        result = str(coproduct_generator(args.i, args.j, level))
    elif args.action == "antipode":
        result = str(antipode(Monomial.generator_power(args.i, args.j, level)))
    else:
        result = str(directed_path_polynomial(args.j, args.i, level))
    if args.json:
        _emit_json(
            {
                "report": "hopf",
                "action": args.action,
                "i": args.i,
                "j": args.j,
                "n": args.n,
                "result": result,
            }
        )
    else:
        sys.stdout.write(result + "\n")
    return 0


def cmd_enumerate(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit must be >= 0, got {args.limit}")
    level = Level(args.n)
    total = monomial_count(level)
    cap = effective_cap("main")
    if args.limit is None and args.n > cap:
        # the listing is as long as a sweep above its cap: 2^55 names at n=9
        raise CapExceeded(
            f"enumerate above n={cap} needs --limit K ({total} monomials at n={args.n};"
            f" set {ENV_MAX_N} to override)"
        )
    listed = total if args.limit is None else min(args.limit, total)
    # a range, unlike islice, takes a stop above sys.maxsize: 2^66 names at n=10
    names = (str(x) for _, x in zip(range(listed), enumerate_monomials(level)))
    if args.json:
        # the bytes of json.dumps(payload, indent=2), with the names written as produced
        payload = {"report": "enumerate", "n": args.n, "count": total, "listed": listed,
                   "monomials": []}
        sys.stdout.write(json.dumps(payload, indent=2)[:-3])  # up to the array's "["
        sep = ""
        for name in names:
            sys.stdout.write(f"{sep}\n    {json.dumps(name)}")
            sep = ","
        sys.stdout.write("\n  ]\n}\n" if sep else "]\n}\n")
    else:
        for name in names:  # printed as produced, never held as a list
            sys.stdout.write(name + "\n")
    return 0


def cmd_dot(args) -> int:
    level = Level(args.n)
    x = parse_monomial(args.monomial, level)
    text = export_dot(to_graph(x), directed=args.directed)
    if args.dot:
        _write_dot(args.dot, text)
    else:
        sys.stdout.write(text)
    return 0


_parser: Optional[argparse.ArgumentParser] = None  # built by the first `main` call


def main(argv: Optional[list] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a reader that left early fails this flush, not the one at exit
        return code
    except ValueError as exc:  # ParseError and CapExceeded included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early (`| head`); point stdout at devnull so
        # that the flush at interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
