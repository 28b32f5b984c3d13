"""Measurement helpers: the percentile rule, span self time, and /proc reads.

Everything here is pure or reads only ``/proc``, so the benchmark's own
tests (``test_perfbench.py``) cover it without running a workload.
"""

from __future__ import annotations

import math
import os
import statistics

#: Percentiles tried from the top down; the first one with at least
#: ``MIN_BEYOND`` samples above it is the reported tail.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def _rank(q: float, n: int) -> int:
    # Rounded first so that e.g. 99.9 % of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(q * n / 100.0, 6)))


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(q, len(ordered)) - 1]


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least ``MIN_BEYOND`` of
    ``n`` samples beyond it, or None when even p75 has too few."""
    for q in TAIL_LADDER:
        if n - _rank(q, n) >= MIN_BEYOND:
            return q
    return None


def summarize(samples) -> dict:
    """Median, the rule's tail percentile, and the sample count.

    ``tail_q`` is None (and ``tail`` the maximum) when there are too few
    samples for any ladder percentile; callers print that case as
    "max of n", never as a percentile.
    """
    samples = list(samples)
    n = len(samples)
    if n == 0:
        return {"n": 0, "median": None, "tail_q": None, "tail": None}
    q = tail_percentile(n)
    return {
        "n": n,
        "median": statistics.median(samples),
        "tail_q": q,
        "tail": percentile(samples, q) if q is not None else max(samples),
    }


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[str, float]:
    """Per-name self time: each span's duration minus the part of it
    covered by its child spans.

    ``spans`` are ``(id, parent_id, name, start, end)`` tuples (extra
    fields are ignored); a parent id that names no span marks a root.
    """
    children: dict[int, list] = {}
    for span in spans:
        children.setdefault(span[1], []).append((span[3], span[4]))
    out: dict[str, float] = {}
    for span in spans:
        sid, _, name, start, end = span[:5]
        inner = [
            (max(s, start), min(e, end))
            for s, e in children.get(sid, ())
            if e > start and s < end
        ]
        out[name] = out.get(name, 0.0) + (end - start) - covered(inner)
    return out


def _status_field(pid: int | str, field: str) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(f"{field} not in /proc/{pid}/status")


def peak_rss_mb(pid: int | str = "self") -> float:
    """High-water resident set size (VmHWM) of one process, in MiB."""
    return _status_field(pid, "VmHWM") / 1024.0


def cpu_seconds(pid: int | str = "self") -> float:
    """User + system CPU time a process has used (``/proc/PID/stat``)."""
    with open(f"/proc/{pid}/stat") as fh:
        text = fh.read()
    # The command name may hold spaces; fields resume after its ')'.
    fields = text[text.rindex(")") + 2 :].split()
    utime, stime = int(fields[11]), int(fields[12])
    return (utime + stime) / os.sysconf("SC_CLK_TCK")
