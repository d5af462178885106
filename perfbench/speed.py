"""Timing at a fixed machine speed, for a machine whose speed changes under other load.

On a shared machine the same work can take twice as long for minutes at a
time while neighbours are busy.  So the benchmark runs a short fixed
reference task, `probe()`, every PROBE_EVERY_S of measured work, and scales
each stretch of work between two probes by REFERENCE_S over the mean time of
those two probes.  Times are then given in seconds of a machine on which
the probe takes REFERENCE_S, about its time on an idle 2-core x86-64 VM with
Python 3.11.  The probe shares no code with steengraph, so a faster program
still reads faster.  Probes are not counted in any measured time.
"""

import random
from time import perf_counter

REFERENCE_S = 0.0011
PROBE_EVERY_S = 0.05

# the probe's input: adjacency lists of 40 random graphs on 9 vertices
_RNG = random.Random(20210607)
_GRAPHS = [
    {v: [w for w in range(9) if w != v and _RNG.random() < 0.35] for v in range(9)}
    for _ in range(40)
]


def probe() -> float:
    """Seconds the reference task takes now: reachability sets of every vertex, as bitmasks."""
    start = perf_counter()
    for adj in _GRAPHS:
        reach = {}
        for root in adj:
            seen, stack = {root}, [root]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            reach[root] = sum(1 << v for v in seen)
        if len(set(reach.values())) > len(adj):
            raise AssertionError("probe miscounted")
    return perf_counter() - start


class Timeline:
    """Scaled time of a sequence of operations, probing the machine between them.

    Call start() and stop() around each operation, and mark() at points
    inside a long one where a probe may run; finish() after the last.
    """

    def __init__(self):
        self.scaled = []  # seconds at the reference speed, per operation
        self.raw = []  # measured seconds, per operation
        self.probes = []
        self._pending = []  # (operation, measured seconds) since the last probe
        self._last = probe()
        self._since = perf_counter()
        self._due = self._since + PROBE_EVERY_S

    def start(self):
        self.scaled.append(0.0)
        self.raw.append(0.0)
        self._since = perf_counter()

    def mark(self):
        now = perf_counter()
        if now >= self._due:
            self._close(now)
            self._probe()

    def stop(self):
        now = perf_counter()
        self._close(now)
        if now >= self._due:
            self._probe()

    def finish(self):
        if self._pending:
            self._probe()

    def _close(self, now: float):
        self._pending.append((len(self.scaled) - 1, now - self._since))
        self.raw[-1] += now - self._since
        self._since = now

    def _probe(self):
        seconds = probe()
        factor = 2 * REFERENCE_S / (self._last + seconds)
        for op, measured in self._pending:
            self.scaled[op] += measured * factor
        self._pending.clear()
        self.probes.append(seconds)
        self._last = seconds
        self._since = perf_counter()
        self._due = self._since + PROBE_EVERY_S
