"""Repeat runs of the benchmark: spread on one checkout, or parent vs change.

Spread of the checkout that holds this file (ten seeds, each metric's
interquartile distance as a share of its median, against a third of its
bound)::

    python3 e2ebench/compare.py spread --workload point-query --seeds 1-10

Parent against change (two checkouts; pairs alternate which side runs
first; each metric gets a verdict by the rule in ``e2e_stats.compare_metric``)::

    python3 e2ebench/compare.py pairs --parent ../parent --change . \\
        --workload point-query --pairs 10

Both read the metric definitions (direction, bound) and the run length from
``BENCHMARK.json`` of the checkout that holds this file, and record the
host's processor count and each side's ``src/`` line count next to the
results.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from e2e_stats import compare_runs, quartiles, spread  # noqa: E402
from run import INFO  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
#: The timings that are printed but not in the result, compared in pairs
#: with the widest bound a metric may carry.  Pairs alternate which side
#: runs first, so a slow stretch of the host hits both sides alike.
INFO_METRICS = [{"name": name, "better": better, "bound": 0.25}
                for name, _, better in INFO]


def src_lines(checkout: Path) -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in (checkout / "src").rglob("*.py")
    )


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in ``checkout``: its final JSON line, with the
    informational timings from the run record added to its metrics."""
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(
            f"{checkout}: run failed (exit {proc.returncode}):\n"
            f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    record = checkout / ".e2ebench" / f"{workload}-seed{seed}-trace0.json"
    for name, (value, _) in json.loads(record.read_text())["info"].items():
        result["metrics"][name] = {"value": value}
    return result


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def cmd_spread(args) -> int:
    checkout = HERE.parent
    seconds = args.seconds or BENCHMARK["run_seconds"]
    runs = []
    for seed in seeds_arg(args.seeds):
        res = run_once(checkout, args.workload, seed, seconds)
        runs.append(res)
        print(f"seed {seed}: correct={res['correct']} "
              f"failed={res['failed']}/{res['attempted']}", flush=True)
    ok = True
    rows = []
    for metric in BENCHMARK["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        s = spread(values)
        steady = s < metric["bound"] / 3
        ok &= steady
        rows.append({"metric": name, "q1": q1, "median": med, "q3": q3,
                     "spread": s, "bound": metric["bound"], "steady": steady})
        print(f"{name:22s} median {med:12.6g}  [{q1:.6g}, {q3:.6g}]  "
              f"spread {s:7.2%}  bound/3 {metric['bound'] / 3:6.2%}  "
              f"{'ok' if steady else 'UNSTEADY'}")
    report = {"workload": args.workload, "seeds": seeds_arg(args.seeds),
              "seconds": seconds, "nproc": os.cpu_count(),
              "src_lines": src_lines(checkout), "metrics": rows,
              "correct": all(r["correct"] for r in runs)}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    return 0 if ok and report["correct"] else 1


def cmd_pairs(args) -> int:
    parent = Path(args.parent).resolve()
    change = Path(args.change).resolve()
    seconds = args.seconds or BENCHMARK["run_seconds"]
    sides = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = i + 1
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = parent if side == "parent" else change
            sides[side].append(run_once(checkout, args.workload, seed,
                                        seconds))
        print(f"pair {i + 1}/{args.pairs} (seed {seed}, {order[0]} first)",
              flush=True)
    failed = {side: sum(r["failed"] for r in runs)
              for side, runs in sides.items()}
    rows = compare_runs(sides["parent"], sides["change"],
                        BENCHMARK["end_to_end"] + INFO_METRICS)
    for verdict in rows:
        p, c = verdict["parent"], verdict["change"]
        print(f"{args.workload:13s} {verdict['metric']:22s} "
              f"parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]  "
              f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  "
              f"wins {verdict['wins']}/{verdict['pairs']}  "
              f"{verdict['verdict']}")
    report = {
        "workload": args.workload, "pairs": args.pairs, "seconds": seconds,
        "nproc": os.cpu_count(),
        "src_lines": {"parent": src_lines(parent),
                      "change": src_lines(change)},
        "failed": failed,
        "correct": {side: all(r["correct"] for r in runs)
                    for side, runs in sides.items()},
        "metrics": rows,
    }
    print(f"nproc {report['nproc']}; src/ lines parent "
          f"{report['src_lines']['parent']}, change "
          f"{report['src_lines']['change']}; failed ops parent "
          f"{failed['parent']}, change {failed['change']}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    regressed = any(r["verdict"] == "regression" for r in rows)
    return 1 if regressed or not all(report["correct"].values()) else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("spread", help="ten seeds on one checkout")
    sp.add_argument("--workload", required=True)
    sp.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    sp.add_argument("--seconds", type=int, default=None)
    sp.add_argument("--out", default=None, help="write the report as JSON")
    pp = sub.add_parser("pairs", help="parent vs change, alternating order")
    pp.add_argument("--parent", required=True)
    pp.add_argument("--change", required=True)
    pp.add_argument("--workload", required=True)
    pp.add_argument("--pairs", type=int, default=10)
    pp.add_argument("--seconds", type=int, default=None)
    pp.add_argument("--out", default=None, help="write the report as JSON")
    args = ap.parse_args(argv)
    return cmd_spread(args) if args.cmd == "spread" else cmd_pairs(args)


if __name__ == "__main__":
    sys.exit(main())
