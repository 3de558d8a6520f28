"""Arithmetic the benchmark applies to its raw measurements.

Kept apart from run.py so that test_stats.py can check it on synthetic
inputs; run.py runs those self-tests before it reports any metric.
"""

import math
import statistics
from collections import namedtuple

# One timed call, as perfbench writes it: `parent` is the id of the
# enclosing span (-1 for a root), `frame` the frame index shared by every
# span of one frame, and `value` a count recorded at the same boundary.
Span = namedtuple("Span", "id name start_ns end_ns parent frame value")

# A tail percentile is reported only with at least this many samples
# beyond it.
TAIL_BEYOND = 10


def _rank(n, q):
    """1-based nearest rank of quantile q in n samples."""
    return min(n, max(1, math.ceil(q * n - 1e-9)))


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least a share q
    of all samples at or below it.  0.0 for no samples."""
    if not values:
        return 0.0
    return sorted(values)[_rank(len(values), q) - 1]


def tail_percentile(values, q):
    """percentile(values, q) when at least TAIL_BEYOND samples lie beyond
    its rank; otherwise the highest rank that still leaves TAIL_BEYOND
    beyond it, so a short sample never reports its own maximum as a tail.
    0.0 when there are no more than TAIL_BEYOND samples."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return 0.0
    rank = min(_rank(n, q), n - TAIL_BEYOND)
    return sorted(values)[rank - 1]


def frame_rate(frame_ms):
    """Frames per host second: the frames over the host time they took."""
    return len(frame_ms) / (sum(frame_ms) / 1000.0)


def split_passes(frame_ms, passes):
    """The frame times of `passes` equal passes, laid end to end in
    frame_ms, as one list per pass."""
    n, rest = divmod(len(frame_ms), passes)
    if rest:
        raise ValueError("%d frame times do not split into %d passes" % (len(frame_ms), passes))
    return [frame_ms[i * n:(i + 1) * n] for i in range(passes)]


def fastest_per_frame(frame_ms, passes):
    """Each frame's time in the pass that stepped it fastest, for `passes`
    identical passes laid end to end in frame_ms."""
    return [min(times) for times in zip(*split_passes(frame_ms, passes))]


def spread_summary(values):
    """Median, quartiles and spread of repeated runs' values; the spread is
    the interquartile range over the median, with the quartiles as
    statistics.quantiles(values, n=4) gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": list(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def self_ns(span, children):
    """A span's duration minus the part of its interval its child spans
    cover (overlapping children count once)."""
    covered = 0
    cursor = span.start_ns
    for c in sorted(children, key=lambda s: s.start_ns):
        start = max(c.start_ns, cursor)
        end = min(c.end_ns, span.end_ns)
        if end > start:
            covered += end - start
            cursor = end
    return (span.end_ns - span.start_ns) - covered


def nesting_errors(spans):
    """Problems with how spans nest: a span that ends before it starts, or a
    child whose parent is missing, recorded after it, of another frame, or
    does not contain its interval."""
    by_id = {s.id: s for s in spans}
    errors = []
    for s in spans:
        if s.end_ns < s.start_ns:
            errors.append("span %d (%s) ends before it starts" % (s.id, s.name))
        if s.parent < 0:
            continue
        p = by_id.get(s.parent)
        if p is None or p.id >= s.id:
            errors.append("span %d (%s) has no earlier parent %d" % (s.id, s.name, s.parent))
        elif p.frame != s.frame:
            errors.append("span %d (%s) is in frame %d, its parent in %d"
                          % (s.id, s.name, s.frame, p.frame))
        elif s.start_ns < p.start_ns or s.end_ns > p.end_ns:
            errors.append("span %d (%s) is not inside its parent %d (%s)"
                          % (s.id, s.name, p.id, p.name))
    return errors


def children_of(spans):
    """Map from span id to the list of its child spans."""
    out = {}
    for s in spans:
        if s.parent >= 0:
            out.setdefault(s.parent, []).append(s)
    return out


def cpu_util(supervisor_cpu_s, worker_cpu_s, wall_s, workers):
    """Supervisor plus worker CPU time over the wall time the workers had:
    1.0 when every worker was busy on its own core for the whole sweep."""
    return (supervisor_cpu_s + worker_cpu_s) / (wall_s * workers)


def read_spans(path):
    """Spans from the TSV file perfbench writes at exit."""
    spans = []
    with open(path) as f:
        header = f.readline().rstrip("\n").split("\t")
        if header != list(Span._fields):
            raise ValueError("unexpected span header %r" % header)
        for line in f:
            i, name, start, end, parent, frame, value = line.rstrip("\n").split("\t")
            spans.append(Span(int(i), name, int(start), int(end), int(parent),
                              int(frame), int(value)))
    return spans
