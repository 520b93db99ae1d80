"""Summary statistics and the parent-vs-change comparison rule.

Pure functions over lists of numbers, shared by the run command, the
comparison command and the self-tests.
"""

from __future__ import annotations

import math
import statistics

#: A tail percentile is reported only where at least this many samples lie
#: beyond it, so one or two outliers cannot set the figure alone.
MIN_BEYOND = 10
#: The highest tail percentile reported.
TAIL_CAP = 99.0
#: A gain needs the change to win at least this share of all pairs.
MIN_WIN_SHARE = 0.9


def median(values):
    return float(statistics.median(values))


def tail_percentile(samples):
    """The highest percentile (at most ``TAIL_CAP``) with ``MIN_BEYOND``
    samples beyond it.

    Uses the nearest-rank definition.  Returns ``(percentile, value, n)``;
    raises ``ValueError`` when there are too few samples for any such
    percentile, so a tail figure is never reported from a handful of runs.
    """
    n = len(samples)
    if n <= MIN_BEYOND:
        raise ValueError(
            f"{n} samples: a tail percentile needs more than {MIN_BEYOND}"
        )
    pct = min(TAIL_CAP, 100.0 * (n - MIN_BEYOND) / n)
    rank = max(1, math.ceil(pct / 100.0 * n))
    ordered = sorted(samples)
    return pct, float(ordered[rank - 1]), n


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values) -> float:
    """Interquartile distance as a share of the median (0 when median is 0)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def worse_by(parent_median: float, change_median: float, better: str) -> float:
    """How much worse the change's median is, as a share of the parent's."""
    if parent_median == 0:
        return 0.0
    delta = (change_median - parent_median) / abs(parent_median)
    return delta if better == "lower" else -delta


def compare_metric(parent, change, better: str, bound: float) -> dict:
    """Apply the gain / no-regression rule to one metric of one workload.

    ``parent`` and ``change`` are the values of paired runs, in pair order.
    A gain needs the change to win at least ``MIN_WIN_SHARE`` of all pairs
    (ties count for neither side) *and* the medians to differ by more than
    the parent's interquartile distance.  Otherwise the metric is a
    regression when the change's median is worse by more than ``bound``;
    it is unresolved when the run-to-run spread of either side is wider
    than the bound, unless every change run beats every parent run; else
    it holds (no regression).
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs per side")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")

    def beats(a, b):
        return a < b if better == "lower" else a > b

    wins = sum(1 for p, c in zip(parent, change) if beats(c, p))
    losses = sum(1 for p, c in zip(parent, change) if beats(p, c))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    parent_iqr = p_q3 - p_q1
    out = {
        "pairs": len(parent),
        "wins": wins,
        "losses": losses,
        "ties": len(parent) - wins - losses,
        "parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
        "worse_by": worse_by(p_med, c_med, better),
        "bound": bound,
    }
    if (wins >= MIN_WIN_SHARE * len(parent)
            and beats(c_med, p_med) and abs(c_med - p_med) > parent_iqr):
        out["verdict"] = "gain"
    elif out["worse_by"] > bound:
        out["verdict"] = "regression"
    elif max(spread(parent), spread(change)) > bound and not (
        all(beats(c, p) for c in change for p in parent)
    ):
        out["verdict"] = "unresolved"
    else:
        out["verdict"] = "no-regression"
    return out


def compare_runs(parent_runs, change_runs, end_to_end) -> list[dict]:
    """Verdict per end-to-end metric from paired runs' result objects.

    ``*_runs`` are the runs' final JSON objects in pair order; a gain does
    not count when the change failed more operations than the parent.
    """
    failed_parent = sum(r["failed"] for r in parent_runs)
    failed_change = sum(r["failed"] for r in change_runs)
    rows = []
    for metric in end_to_end:
        name = metric["name"]
        row = compare_metric(
            [r["metrics"][name]["value"] for r in parent_runs],
            [r["metrics"][name]["value"] for r in change_runs],
            metric["better"], metric["bound"],
        )
        if row["verdict"] == "gain" and failed_change > failed_parent:
            row["verdict"] = "no gain (more operations failed)"
        row["metric"] = name
        rows.append(row)
    return rows
