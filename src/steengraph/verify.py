"""Exhaustive adjudication of the graph criteria against brute-force oracles.

Every named check sweeps a finite range (all monomials of A*(n), or
all generator powers) and compares a criterion with an independent
oracle that shares no code with it.  A mismatch on a claim documented
as sound is a failure; the sweep for the printed Hamilton degree
threshold (`paper-hamilton`) instead *reports* its counterexamples,
because deciding whether that threshold holds is exactly the question
the sweep answers.

One block walker, _walk, runs every lane sweep, a block of up to 2^15
indices at a time, and returns its result.  A sweep gives it a kernel of
criterion lanes (connectivity.lane_verdicts for main, tree and
corollary-unilateral, structure.degree_bound_lanes for dirac and
paper-hamilton) and a function that the walker calls on the block's one
graphs.oracle_edge_lanes, the oracles' own edge rule, for the oracle lanes:
the block search oracles (connectivity.oracle_connected_lanes and
oracle_unilateral_lanes, structure.oracle_tree_lanes, oracle_dipath_lanes
and oracle_cycle_lanes), and for corollary-unilateral its antipode test:
some term of each hopf.antipode_slots slot, a directed path, divides the
monomial.  The walker compares each oracle lane with its criterion lane as
ints, for equality, or for implication in the degree sweeps, and names each
index where they differ.  It cross-checks the first, middle and last index
of a block against the per-monomial criteria where a sweep has them (not
dipath), each verdict under its own text, and these and each named index
against the per-graph oracles: a named index gets the sweep's text only
where the per-graph oracle confirms its oracle lane, so it rests on two
routes.  corollary-unilateral has no per-graph oracle and builds no graph:
its per-monomial antipode test is the second route, at the three
cross-checked indices and at each index its compare names.  A sweep decodes
a Monomial only for a per-monomial criterion, for the text of a failure or
a finding, or for the integer-exponent reading of corollary-unilateral,
which is asked of every monomial at n <= 2 only.

Checks are capped by default at the largest n where the sweep is
desk-scale (seconds); setting STEENGRAPH_MAX_N overrides the caps.
Sweeps over the monomial stream can be split across a process pool of
at most os.cpu_count() workers, in at most 4 runs of whole blocks a
worker; a level of one block (every level up to n=4) runs in the
calling process.  Each block cross-checks the same three indices
however the level is split, and results are aggregated in index order,
so output, failures included, is identical for any worker count.
"""

import os
from dataclasses import dataclass, field
from functools import partial, reduce
from math import prod
from operator import and_, or_
from typing import Callable, List, Optional

from .algebra import (
    ENV_MAX_N,
    Level,
    Monomial,
    block_width,
    max_truncation,
    monomial_count,
    monomial_from_index,
    random_monomials,
)
from .connectivity import (
    is_connected,
    is_unilateral,
    lane_verdicts,
    oracle_connected_lanes,
    oracle_is_connected,
    oracle_is_unilateral,
    oracle_unilateral_lanes,
)
from .graphs import WoodGraph, index_rows, oracle_edge_lanes
from .hopf import (
    antipode,
    antipode_identity_holds,
    antipode_slots,
    axiom_expansions,
    coassociativity_holds,
    coproduct_generator,
    counit_laws_hold,
    directed_path_polynomial,
    unilateral_via_antipode,
    verify_antipode_recursion,
    verify_hopf_ideal,
)
from .structure import (
    degree_bound_lanes,
    dipath_criterion,
    dirac_condition,
    is_tree,
    oracle_dipath_lanes,
    oracle_cycle_lanes,
    oracle_hamilton_cycle,
    oracle_hamilton_directed_path,
    oracle_is_tree,
    oracle_tree_lanes,
    paper_hamilton_condition,
    popcount_lanes,
    tree_criterion,
)

RANDOM_SEED = 1009
RANDOM_SAMPLE_SIZE = 50
# coproduct terms the hopf-axioms sample may bound: 23,737 at n=3, 3,515,234 at n=4
AXIOM_TERM_BUDGET = 1 << 20
# the largest n where corollary-unilateral reports the integer-exponent divisibility reading
INTEGER_READING_MAX_N = 2


@dataclass
class SweepResult:
    """Outcome of one named check at one level; its fields, then ok, are a --json check record."""

    name: str
    n: int
    cases: int
    failures: List[str] = field(default_factory=list)
    findings: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no sound claim was contradicted (findings do not count)."""
        return not self.failures


class CapExceeded(ValueError):
    """Requested n is above the configured cap for the selected check."""


def _index_graphs(level: Level) -> Callable:
    """graph(k), the graph of index k: the OR of index_rows over the set bits of k."""
    rows, new, m = index_rows(level), WoodGraph._unchecked, level.vertex_count
    return lambda k: new(level, reduce(or_, (r for b, r in enumerate(rows) if k >> b & 1), 0), m)


_TABLES = "block kernel disagrees with the walk-count tables"
_ORACLE_LANES = "lane oracles disagree with the per-graph search on {}"


def _walk(
    level: Level, start: int, stop: int, kernel: Callable, lanes: Callable,
    route: Optional[Callable] = None, whats: tuple = (), oracle: Optional[Callable] = None,
    texts: tuple = (), implies: bool = False, reported: bool = False,
) -> tuple:
    """(cases, failures, findings) of start..stop, whole blocks of 1 << block_width(level).

    kernel(level, base, width) gives a block's criterion lane ints, bit t for
    index base + t, and lanes(adj, full) its oracle lane ints, of the block's
    one oracle_edge_lanes.  The last criterion lanes pair with these, in
    order, and are compared as ints, c ^ o, or c & ~o if implies, naming each
    index where that is set.  A range off block boundaries raises ValueError.
    The walker visits each named index and the block's first, middle and last,
    in index order; every block cross-checks those three: route(x) against
    the criterion lanes, each verdict naming f"{what} on {x}" under its text
    in whats (each text once an index).  At each visited index, oracle(g) names
    _ORACLE_LANES.format(x) once where it differs from the oracle lanes, and
    each text whose oracle lane it confirms names text.format(x), a finding if
    reported, else a failure.  Without oracle, route(x) runs at every visited
    index, and its verdicts past the criterion lanes, if it has any, take the
    part of oracle(g), naming f"{whats[-1]} on {x}" once where they differ.
    Every g is of one _index_graphs a call, and x is decoded only for route
    or a text.
    """
    width = block_width(level)
    size = 1 << width
    if start % size or stop % size:
        raise ValueError(f"range {start}..{stop} is not whole blocks of {size} indices")
    offsets = {0, (size - 1) // 2, size - 1}
    graph = _index_graphs(level) if oracle else None
    failures, findings = [], []
    for base in range(start, stop, size):
        criteria = kernel(level, base, width)
        oracles = lanes(*oracle_edge_lanes(level, base, width))
        paired = zip(criteria[len(criteria) - len(oracles):], oracles)
        differ = [c & ~o if implies else c ^ o for c, o in paired]
        rest, visits = reduce(or_, differ, 0), set(offsets)
        while rest:
            low = rest & -rest
            visits.add(low.bit_length() - 1)
            rest ^= low
        for t in sorted(visits):
            k, lane = base + t, tuple(o >> t & 1 for o in oracles)
            x = monomial_from_index(level, k) if route and (t in offsets or not oracle) else None
            found = lane
            if x:
                verdicts = route(x)
                seen = zip(whats, verdicts, criteria) if t in offsets else ()
                wrong = (w for w, v, c in seen if v != c >> t & 1)
                failures += [f"{what} on {x}" for what in dict.fromkeys(wrong)]
                found = verdicts[len(criteria):] or lane  # any verdicts past the criteria lanes
            if oracle:
                found = oracle(graph(k))
            named = [s for s, d, f, b in zip(texts, differ, found, lane) if d >> t & 1 and f == b]
            if found != lane or named:
                x = x or monomial_from_index(level, k)
                lost = _ORACLE_LANES.format(x) if oracle else f"{whats[-1]} on {x}"
                failures += [lost] * (found != lane)
                (findings if reported else failures).extend(s.format(x) for s in named)
    return stop - start, failures, findings


def _walk_criteria(x: Monomial) -> tuple:
    return is_connected(x), is_unilateral(x)


def _sweep_main(level: Level, start: int, stop: int) -> tuple:
    return _walk(
        level, start, stop, lane_verdicts,
        lambda adj, full: (oracle_connected_lanes(adj, full), oracle_unilateral_lanes(adj, full)),
        _walk_criteria, (_TABLES, _TABLES),
        oracle=lambda g: (oracle_is_connected(g), oracle_is_unilateral(g)),
        texts=(
            "connectedness criterion disagrees with search on {}",
            "unilaterality criterion disagrees with closure on {}",
        ),
    )


def _sweep_tree(level: Level, start: int, stop: int) -> tuple:
    # each index bit is one edge, so an index's edge count is its popcount: the block's high
    # bits add `high` edges, and counts[c] holds the low bits of popcount c
    counts = popcount_lanes(block_width(level))
    trees = [tree_criterion(level, e, True) for e in range(sum(level.widths) + 1)]

    def kernel(level: Level, base: int, width: int) -> tuple:
        connected, unilateral = lane_verdicts(level, base, width)
        high = (base >> width).bit_count()
        sized = 0
        for c, mask in enumerate(counts):
            if trees[high + c]:
                sized |= mask
        return connected, unilateral, connected & sized

    return _walk(
        level, start, stop, kernel, lambda adj, full: (oracle_tree_lanes(adj, full),),
        lambda x: (*_walk_criteria(x), is_tree(x)), (_TABLES,) * 3,
        oracle=lambda g: (oracle_is_tree(g),),
        texts=("tree criterion disagrees with search on {}",),
    )


def _sweep_dipath(level: Level, start: int, stop: int) -> tuple:
    top = level.index_packing.offsets[0]  # r_1 is the highest field, so it needs no mask

    def kernel(level: Level, base: int, width: int) -> tuple:
        # the criterion once for each value of r_1 in the block, over its run of indices
        end = base + (1 << width)
        criterion = 0
        for r1 in range(base >> top, (end - 1 >> top) + 1):
            if dipath_criterion(level, r1):
                lo, hi = max(r1 << top, base), min(r1 + 1 << top, end)
                criterion |= ((1 << hi - lo) - 1) << lo - base
        return (criterion,)

    return _walk(
        level, start, stop, kernel, lambda adj, full: (oracle_dipath_lanes(adj, full),),
        oracle=lambda g: (oracle_hamilton_directed_path(g) is not None,),
        texts=("spanning-dipath criterion disagrees with search on {}",),
    )


def _sweep_degree_bound(level: Level, start: int, stop: int, sound: bool) -> tuple:
    """Where a degree bound holds, a Hamilton cycle: (n+2)/2 is sound, n/2 is reported."""
    condition, bound, extra = (
        (dirac_condition, "(n+2)/2", 2) if sound else (paper_hamilton_condition, "n/2", 0)
    )
    # a miss of the sound bound is a failure, in index order with the cross-checks
    return _walk(
        level, start, stop,
        lambda level, base, width: (degree_bound_lanes(level, base, width, extra),),
        lambda adj, full: (oracle_cycle_lanes(adj, full),),
        lambda x: (condition(x),), ("degree lanes disagree with the degree profiles",),
        oracle=lambda g: (oracle_hamilton_cycle(g) is not None,),
        texts=(f"degree bound {bound} holds but no Hamilton cycle: {{}}",),
        implies=True, reported=not sound,
    )


def _sweep_corollary(level: Level, start: int, stop: int) -> tuple:
    slots = antipode_slots(level)
    # each antipode term is a directed path: its dyadic bit xi_i^(2^j) is the edge (j, i+j)
    pk = level.guarded_packing
    paths = [
        [[pk.generator_power(1 << b) for b in range(t.bit_length()) if t >> b & 1] for t in terms]
        for terms in slots
    ]

    def antipode_lane(adj: list, lane: int) -> tuple:
        # the AND over slots of the OR over terms of the AND over edges; each term is ANDed
        # onto the slots before it, so few lanes reach the long slots
        for terms in paths:
            lane = reduce(or_, [reduce(and_, (adj[j][i + j] for i, j in t), lane) for t in terms])
        return (lane,)

    cases, failures, _ = _walk(
        level, start, stop, lane_verdicts, antipode_lane,
        lambda x: (*_walk_criteria(x), unilateral_via_antipode(x, True, slots)),
        (_TABLES, _TABLES, "antipode lane disagrees with the per-monomial antipode test"),
        texts=("antipode divisibility test disagrees with walks on {}",),
    )
    findings = [] if level.n > INTEGER_READING_MAX_N else [
        f"integer-exponent reading disagrees with walks on {x}"
        for x in (monomial_from_index(level, k) for k in range(start, stop))
        if unilateral_via_antipode(x, False, slots) != is_unilateral(x)
    ]
    return cases, failures, findings


def _check_antipode_paths(level: Level) -> tuple:
    failures = []
    cases = 0
    for i, j in level.generator_powers():
        cases += 1
        g = Monomial.generator_power(i, j, level)
        if antipode(g) != directed_path_polynomial(j, i, level):
            failures.append(f"antipode of {g} differs from the path sum")
        middle = {
            (a, b) for a, b in coproduct_generator(i, j, level).terms
            if not a.is_one and not b.is_one
        }
        expected = {
            (
                Monomial.generator_power(i - k, j + k, level),
                Monomial.generator_power(k, j, level),
            )
            for k in range(1, i)
        }
        if middle != expected:
            failures.append(
                f"coproduct middle terms of {g} are not the 2-step path splittings"
            )
    return cases, failures, []


def _check_hopf_axioms(level: Level) -> tuple:
    failures = []
    cases = 0
    sample = [Monomial.generator_power(i, j, level) for i, j in level.generator_powers()]
    sample += random_monomials(level, RANDOM_SAMPLE_SIZE, RANDOM_SEED + level.n)
    # xi_i^(2^j) has i+1 coproduct terms, so their product over the dyadic bits bounds |Δx|
    terms = sum(prod(i + 1 for i, _ in x.dyadic_bits()) for x in sample)
    if terms > AXIOM_TERM_BUDGET:
        raise CapExceeded(
            f"check 'hopf-axioms' at n={level.n} bounds its coproducts by {terms} terms,"
            f" over its budget of {AXIOM_TERM_BUDGET}"
        )
    # one pair for the sample: each image is listed once for all its monomials
    pair = axiom_expansions(level)
    for x in sample:
        cases += 1
        if not counit_laws_hold(x, pair):
            failures.append(f"counit laws fail on {x}")
        if not coassociativity_holds(x, pair):
            failures.append(f"coassociativity fails on {x}")
        if not antipode_identity_holds(x, pair):
            failures.append(f"antipode identity fails on {x}")
    cases += 2
    if not verify_antipode_recursion(8):
        failures.append("antipode recursion residual is nonzero below i=9")
    if not verify_hopf_ideal(level.n):
        failures.append(f"truncation ideal at n={level.n} fails a Hopf-ideal check")
    return cases, failures, []


def _paper_hamilton_note(n: int, findings: list) -> str:
    return (
        f"{len(findings)} counterexamples to the n/2 degree bound"
        " (reported, not failed: the sweep itself is the verdict)"
    )


def _corollary_note(n: int, findings: list) -> str:
    reading = "integer-exponent divisibility reading"
    if n > INTEGER_READING_MAX_N:
        return f"{reading} reported only for n <= {INTEGER_READING_MAX_N}"
    verdict = f"disagrees in {len(findings)} cases with" if findings else "agrees with"
    return f"{reading} {verdict} the walk criterion"


@dataclass(frozen=True)
class CheckSpec:
    """A named check; note(n, findings), when set, gives one more line of each result's notes."""

    name: str
    cap: int
    note: Optional[Callable] = None
    range_runner: Optional[Callable] = None
    whole_runner: Optional[Callable] = None


CHECKS = {
    spec.name: spec
    for spec in (
        CheckSpec("main", cap=4, range_runner=_sweep_main),
        CheckSpec("tree", cap=4, range_runner=_sweep_tree),
        CheckSpec("dipath", cap=4, range_runner=_sweep_dipath),
        CheckSpec("dirac", cap=3, range_runner=partial(_sweep_degree_bound, sound=True)),
        CheckSpec(
            "paper-hamilton",
            cap=3,
            note=_paper_hamilton_note,
            range_runner=partial(_sweep_degree_bound, sound=False),
        ),
        CheckSpec(
            "corollary-unilateral", cap=3, note=_corollary_note, range_runner=_sweep_corollary
        ),
        CheckSpec("antipode-paths", cap=4, whole_runner=_check_antipode_paths),
        CheckSpec("hopf-axioms", cap=3, whole_runner=_check_hopf_axioms),
    )
}

CHECK_ORDER = list(CHECKS)


def effective_cap(name: str) -> int:
    """Per-check cap, replaced wholesale by STEENGRAPH_MAX_N when that is set."""
    spec = CHECKS[name]
    if os.environ.get(ENV_MAX_N) is None:
        return spec.cap
    return max_truncation()


def _worker_count(jobs: int) -> int:
    """Processes for a request of `jobs` workers: below 1 is refused, the cpu count caps it."""
    if jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1)


def ProcessPoolExecutor(max_workers: int):
    """A concurrent.futures process pool, imported on the first call.

    Only `--jobs K` with K > 1 starts one, and importing it (with
    multiprocessing) is a large share of the start-up of every CLI call.
    """
    from concurrent.futures import ProcessPoolExecutor as Pool

    return Pool(max_workers=max_workers)


def _run_range_worker(name: str, n: int, start: int, stop: int) -> tuple:
    return CHECKS[name].range_runner(Level(n), start, stop)


def run_check(name: str, n: int, jobs: int = 1) -> SweepResult:
    """Run one named check at level n, optionally splitting across processes."""
    if name not in CHECKS:
        raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECK_ORDER)}")
    spec = CHECKS[name]
    jobs = _worker_count(jobs)
    cap = effective_cap(name)
    if n > cap:
        raise CapExceeded(
            f"check {name!r} is capped at n <= {cap}"
            f" (set {ENV_MAX_N} to override, sweep size grows as 2^((n+1)(n+2)/2))"
        )
    level = Level(n)
    notes = []
    if spec.whole_runner is not None:
        cases, failures, findings = spec.whole_runner(level)
    else:
        total = monomial_count(level)
        # runs of whole blocks, at most 4 a worker: a level of one block runs here
        width = block_width(level)
        chunk = -(-(total >> width) // (4 * jobs)) << width
        ranges = [(start, min(start + chunk, total)) for start in range(0, total, chunk)]
        if jobs > 1 and len(ranges) > 1:
            try:
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    parts = list(
                        pool.map(
                            _run_range_worker,
                            *zip(*((name, n, a, b) for a, b in ranges)),
                        )
                    )
            except OSError as exc:
                parts = [spec.range_runner(level, a, b) for a, b in ranges]
                notes.append(
                    f"process pool unavailable ({exc}); ran {len(ranges)} chunks serially"
                )
        else:
            parts = [spec.range_runner(level, 0, total)]
        cases = sum(p[0] for p in parts)
        failures = [w for p in parts for w in p[1]]
        findings = [w for p in parts for w in p[2]]
    if spec.note is not None:
        notes.append(spec.note(n, findings))
    return SweepResult(name, n, cases, failures, findings, notes)


def run_all(n: int, jobs: int = 1) -> list:
    """Run every check whose cap admits n; a check capped out or over budget is skipped, noted."""
    # refuse a bad --jobs or a level above its cap even when every check is capped out
    _worker_count(jobs)
    Level(n)
    results = []
    for name in CHECK_ORDER:
        if n > effective_cap(name):
            r = SweepResult(name, n, 0)
            r.notes.append(f"skipped: capped at n <= {effective_cap(name)}")
            results.append(r)
            continue
        try:
            results.append(run_check(name, n, jobs=jobs))
        except CapExceeded as exc:
            results.append(SweepResult(name, n, 0, notes=[f"skipped: {exc}"]))
    return results
