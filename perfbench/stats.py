"""Metric arithmetic of the benchmark: pure functions, unit-tested.

Everything here works on plain numbers and tuples so the tests can pin
each rule without running a workload:

* :func:`tail_percentile` picks the highest reportable percentile (one
  that has at least ten samples beyond it);
* :func:`percentile` is the nearest-rank percentile, and
  :func:`latencies_ms` enters a failed or refused request as ``inf``, so
  it counts as missing any limit;
* :func:`backlog_growth` measures whether an open-loop stage left a
  growing queue behind;
* :func:`interpolated_max_rate` turns a ladder of offered rates into the
  highest sustainable rate, interpolated between ladder rungs;
* :func:`layer_times` computes per-layer busy and self time from nested
  spans.
"""

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)
"""Percentiles tried, highest first, by :func:`tail_percentile`."""

MIN_BEYOND = 10
"""Samples a reported percentile needs strictly beyond it."""


def tail_percentile(
    n_samples: int,
    candidates: Sequence[float] = TAIL_CANDIDATES,
    min_beyond: int = MIN_BEYOND,
) -> Optional[float]:
    """The highest candidate percentile with ``min_beyond`` samples above.

    With the nearest-rank :func:`percentile`, ``n - rank(n, p)`` samples
    lie beyond the p-th percentile; p95 therefore needs 200 samples.
    Returns None when no candidate has enough (then only the median is
    reportable).
    """
    for p in sorted(candidates, reverse=True):
        if n_samples - rank(n_samples, p) >= min_beyond:
            return p
    return None


def rank(n_samples: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile among ``n`` samples."""
    # Rounding first keeps 95% of 200 at rank 190, not 191.
    return max(1, math.ceil(round(p / 100.0 * n_samples, 9)))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``inf`` entries sort last)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(values)
    return ordered[rank(len(ordered), p) - 1]


def median(values: Sequence[float]) -> float:
    """Midpoint median (mean of the two middle values for even counts)."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def interquartile_mean(values: Sequence[float]) -> float:
    """Mean of the middle half of the values (a quarter dropped from each
    end, rounded down). Unlike the median it does not jump when the two
    middle values swap places across a gap; unlike the mean it ignores
    the largest and smallest."""
    if not values:
        raise ValueError("interquartile mean of no samples")
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut : len(ordered) - cut]
    return sum(middle) / len(middle)


def latencies_ms(requests: Iterable[Tuple[float, float, bool]]) -> List[float]:
    """Latency of each ``(due_s, done_s, ok)`` request, timed from its due
    time; a failed, refused or wrong request is ``inf``, so it counts as
    missing any latency limit."""
    return [(done - due) * 1e3 if ok else math.inf for due, done, ok in requests]


def backlog_growth(
    due_s: Sequence[float],
    done_s: Sequence[float],
    n_points: int = 30,
    min_growth: float = 5.0,
    rel_growth: float = 0.1,
) -> float:
    """How much the outstanding-request count grew over an open-loop stage.

    Outstanding at time t is requests due by t minus requests completed
    by t (a request that never completed has ``done = inf``), sampled at
    ``n_points`` instants from the first to the last due time. Returns
    the rise from the mean of the first third to the mean of the last
    third, as a share of ``max(min_growth, rel_growth * requests)``: a
    value above 1 is a growing backlog. A stable queue hovers around the
    rate times the mean latency; an overloaded one climbs all stage.
    """
    if n_points < 3 or not due_s:
        raise ValueError("need requests and at least 3 points")
    due = sorted(due_s)
    done = sorted(done_s)
    start_s, end_s = due[0], due[-1]
    if end_s <= start_s:
        return 0.0
    step = (end_s - start_s) / (n_points - 1)
    outstanding = []
    for index in range(n_points):
        t = start_s + index * step
        outstanding.append(_count_le(due, t) - _count_le(done, t))
    third = n_points // 3
    first = sum(outstanding[:third]) / third
    last = sum(outstanding[-third:]) / third
    return max(0.0, last - first) / max(min_growth, rel_growth * len(due))


def _count_le(ordered: Sequence[float], t: float) -> int:
    lo, hi = 0, len(ordered)
    while lo < hi:
        mid = (lo + hi) // 2
        if ordered[mid] <= t:
            lo = mid + 1
        else:
            hi = mid
    return lo


def interpolated_max_rate(
    rates: Sequence[float], pressures: Sequence[float]
) -> Tuple[float, bool]:
    """Highest offered rate whose pressure stays at or below 1.

    A rung's pressure is the larger of its tail latency over the limit
    and its :func:`backlog_growth`, so a rung passes when it meets the
    latency limit without a growing backlog. The ladder is walked upward
    to the first failing rung; between it and the last passing rung (or
    rate 0 at pressure 0) the crossing of pressure 1 is interpolated
    linearly, so the result moves smoothly instead of by whole rungs. An
    infinite pressure (failed requests) puts the crossing on the passing
    rung. Returns ``(rate, censored)``: censored is True when every rung
    passed and the rate is the top rung, a lower bound.
    """
    if not rates or len(rates) != len(pressures):
        raise ValueError("need equally long, non-empty ladder sequences")
    if list(rates) != sorted(rates) or rates[0] <= 0:
        raise ValueError("ladder rates must be positive and ascending")
    prev_rate, prev_pressure = 0.0, 0.0
    for rate, pressure in zip(rates, pressures):
        if pressure <= 1.0:
            prev_rate, prev_pressure = rate, pressure
            continue
        if math.isinf(pressure):
            return prev_rate, False
        share = (1.0 - prev_pressure) / (pressure - prev_pressure)
        return prev_rate + (rate - prev_rate) * share, False
    return float(rates[-1]), True


Span = Tuple[int, Optional[int], float, float, str]
"""``(span_id, wrapped parent id or None, start_s, end_s, layer)``."""


def layer_times(spans: Sequence[Span]) -> Dict[str, Tuple[float, float]]:
    """``layer -> (busy_s, self_s)`` over spans of wrapped layers.

    A layer's busy time is the summed duration of its outermost spans (a
    span nested in a span of the same layer is already covered). Its
    self time subtracts, per outermost span, the part of the span's
    interval that spans of *other* layers directly inside it cover;
    spans of the same layer in between are looked through, so the
    children of a nested same-layer span count too. Overlapping children
    (several threads) are merged before subtracting.
    """
    by_id = {span[0]: span for span in spans}
    children: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        parent = span[1] if span[1] in by_id else None
        children.setdefault(parent, []).append(span)
    result: Dict[str, Tuple[float, float]] = {}

    def frontier(span: Span) -> List[Span]:
        out: List[Span] = []
        stack = list(children.get(span[0], ()))
        while stack:
            child = stack.pop()
            if child[4] == span[4]:
                stack.extend(children.get(child[0], ()))
            else:
                out.append(child)
        return out

    for span in spans:
        parent = by_id.get(span[1]) if span[1] is not None else None
        nested = False
        while parent is not None:
            if parent[4] == span[4]:
                nested = True
                break
            parent = by_id.get(parent[1]) if parent[1] is not None else None
        if nested:
            continue
        start, end = span[2], span[3]
        covered = union_length(
            [(max(start, c[2]), min(end, c[3])) for c in frontier(span)]
        )
        busy, own = result.get(span[4], (0.0, 0.0))
        result[span[4]] = (busy + (end - start), own + (end - start) - covered)
    return result


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if current_end is None or lo > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = lo, hi
        else:
            current_end = max(current_end, hi)
    if current_end is not None:
        total += current_end - current_start
    return total
