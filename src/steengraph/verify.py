"""Exhaustive adjudication of the graph criteria against brute-force oracles.

Every named check sweeps a finite range (all monomials of A*(n), or
all generator powers) and compares a criterion with an independent
oracle that shares no code with it.  A mismatch on a claim documented
as sound is a failure; the sweep for the printed Hamilton degree
threshold (`paper-hamilton`) instead *reports* its counterexamples,
because deciding whether that threshold holds is exactly the question
the sweep answers.

Every range sweep walks (index, graph) pairs, the graph ORed from the
per-generator row tables; it decodes a Monomial only for a criterion
that reads one, a sampled cross-check of the block kernel, or a failure.

Checks are capped by default at the largest n where the sweep is
desk-scale (seconds); setting STEENGRAPH_MAX_N overrides the caps.
Sweeps over the monomial stream can be split across a process pool of
at most os.cpu_count() workers; results are aggregated in index order,
so output is identical for any worker count.
"""

import itertools
import os
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, List, Optional

from .algebra import (
    ENV_MAX_N,
    Level,
    Monomial,
    max_truncation,
    monomial_count,
    monomial_from_index,
    packing,
    random_monomials,
)
from .connectivity import (
    block_width,
    is_connected,
    is_unilateral,
    lane_verdicts,
    oracle_is_connected,
    oracle_is_unilateral,
)
from .graphs import WoodGraph, row_tables
from .hopf import (
    antipode,
    antipode_identity_holds,
    coassociativity_holds,
    coproduct_generator,
    counit_laws_hold,
    directed_path_polynomial,
    unilateral_via_antipode,
    verify_antipode_recursion,
    verify_hopf_ideal,
)
from .structure import (
    dipath_criterion,
    dirac_condition,
    oracle_hamilton_cycle,
    oracle_hamilton_directed_path,
    oracle_is_tree,
    paper_hamilton_condition,
    tree_criterion,
)

RANDOM_SEED = 1009
RANDOM_SAMPLE_SIZE = 50


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


def _iter_graphs(level: Level, start: int, stop: int):
    """(index, graph) for each index in range, the graph ORed from the per-generator row tables."""
    pk = packing(level.widths, 0)
    fields = [
        (offset, (1 << width) - 1, table)
        for offset, width, table in zip(pk.offsets, pk.widths, row_tables(level))
    ]
    for k in range(start, stop):
        rows = 0
        for offset, mask, table in fields:
            rows |= table[k >> offset & mask]
        yield k, WoodGraph._unchecked(level, rows)


_LANE_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _iter_lanes(level: Level, start: int, stop: int, failures: list):
    """(index, graph, connected, unilateral) for each index in range, the verdicts as 0/1 lanes.

    Walks the aligned blocks of lane_verdicts that meet the range, so
    any split of a level into ranges reads the same lanes.  In each
    block the first, middle and last index of the range are checked
    against the integer walk-count tables; a mismatch is appended to
    failures.  Those three are the only monomials built.
    """
    width = block_width(level)
    size = 1 << width
    graphs = _iter_graphs(level, start, stop)
    for base in range(start - start % size, stop, size):
        lo, hi = max(start, base), min(stop, base + size)
        # byte t is bit t of the lane int: one pass over the int, not a shift of it per lane
        connected, unilateral = (
            format(lanes, f"0{size}b")[::-1].encode().translate(_LANE_BYTES)[lo - base:hi - base]
            for lanes in lane_verdicts(level, base, width)
        )
        sampled = (lo, (lo + hi - 1) // 2, hi - 1)
        for (k, g), c, u in zip(itertools.islice(graphs, hi - lo), connected, unilateral):
            if k in sampled:
                x = monomial_from_index(level, k)
                if (c, u) != (is_connected(x), is_unilateral(x)):
                    failures.append(f"block kernel disagrees with the walk-count tables on {x}")
            yield k, g, c, u


def _sweep_main(level: Level, start: int, stop: int) -> tuple:
    failures = []
    for k, g, connected, unilateral in _iter_lanes(level, start, stop, failures):
        if connected != oracle_is_connected(g):
            x = monomial_from_index(level, k)
            failures.append(f"connectedness criterion disagrees with search on {x}")
        if unilateral != oracle_is_unilateral(g):
            x = monomial_from_index(level, k)
            failures.append(f"unilaterality criterion disagrees with closure on {x}")
    return stop - start, failures, []


def _sweep_tree(level: Level, start: int, stop: int) -> tuple:
    failures = []
    for k, g, connected, _ in _iter_lanes(level, start, stop, failures):
        # each index bit is one edge, so the edge count is the popcount of the index
        if tree_criterion(level, k.bit_count(), connected == 1) != oracle_is_tree(g):
            x = monomial_from_index(level, k)
            failures.append(f"tree criterion disagrees with search on {x}")
    return stop - start, failures, []


def _sweep_dipath(level: Level, start: int, stop: int) -> tuple:
    failures = []
    spine = tuple(range(level.vertex_count))
    top = packing(level.widths, 0).offsets[0]  # r_1 is the highest field, so it needs no mask
    for k, g in _iter_graphs(level, start, stop):
        witness = oracle_hamilton_directed_path(g)
        if dipath_criterion(level, k >> top) != (witness is not None):
            x = monomial_from_index(level, k)
            failures.append(f"spanning-dipath criterion disagrees with search on {x}")
        elif witness is not None and witness != spine:
            x = monomial_from_index(level, k)
            failures.append(f"dipath witness for {x} is {witness}, not the full spine")
    return stop - start, failures, []


def _sweep_degree_bound(level: Level, start: int, stop: int, sound: bool) -> tuple:
    """Hamilton cycle search where a degree bound holds: (n+2)/2 is sound, n/2 is reported."""
    condition, bound = (dirac_condition, "(n+2)/2") if sound else (paper_hamilton_condition, "n/2")
    misses = []
    for k, g in _iter_graphs(level, start, stop):
        x = monomial_from_index(level, k)
        if condition(x) and oracle_hamilton_cycle(g) is None:
            misses.append(f"degree bound {bound} holds but no Hamilton cycle: {x}")
    return (stop - start, misses, []) if sound else (stop - start, [], misses)


def _sweep_corollary(level: Level, start: int, stop: int) -> tuple:
    failures = []
    findings = []
    report_integer_reading = level.n <= 2
    for k, _, _, unilateral in _iter_lanes(level, start, stop, failures):
        x = monomial_from_index(level, k)
        walks = unilateral == 1
        if unilateral_via_antipode(x) != walks:
            failures.append(f"antipode divisibility test disagrees with walks on {x}")
        if report_integer_reading and unilateral_via_antipode(x, edgewise=False) != walks:
            findings.append(f"integer-exponent reading disagrees with walks on {x}")
    return stop - start, failures, findings


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


@lru_cache(maxsize=1)
def _antipode_recursion_holds() -> bool:
    """verify_antipode_recursion(8): untruncated, so the same at every level; run once a process."""
    return verify_antipode_recursion(8)


def _check_hopf_axioms(level: Level) -> tuple:
    failures = []
    cases = 0
    sample = [Monomial.generator_power(i, j, level) for i, j in level.generator_powers()]
    sample += random_monomials(level, RANDOM_SAMPLE_SIZE, RANDOM_SEED + level.n)
    for x in sample:
        cases += 1
        if not counit_laws_hold(x):
            failures.append(f"counit laws fail on {x}")
        if not coassociativity_holds(x):
            failures.append(f"coassociativity fails on {x}")
        if not antipode_identity_holds(x):
            failures.append(f"antipode identity fails on {x}")
    cases += 2
    if not _antipode_recursion_holds():
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
    if n > 2:
        return "integer-exponent divisibility reading reported only for n <= 2"
    verdict = f"disagrees in {len(findings)} cases with" if findings else "agrees with"
    return f"integer-exponent divisibility reading {verdict} the walk criterion"


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
        if jobs > 1 and total >= 4 * jobs:
            chunk = -(-total // (4 * jobs))
            ranges = [
                (start, min(start + chunk, total))
                for start in range(0, total, chunk)
            ]
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
    """Run every check whose cap admits n; capped-out checks are skipped with a note."""
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
        results.append(run_check(name, n, jobs=jobs))
    return results
