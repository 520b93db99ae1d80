"""Served latency against arrival rate, to place a workload's ``lo``/``hi``.

Usage, from the root of a checkout::

    python3 e2ebench/ladder.py --workload serve-skewed --seed 1

Sets the workload's index up once, as a run does, then drives
``QueryService`` in an open loop at rising Poisson rates (multiples of the
workload's ``lo`` rate), a few seconds per step.  For each step it prints
the offered rate, the completed rate, the served p50 and tail latency
(from each request's due time) and how late the generator ran.  The rate
where the completed rate stops keeping up with the offered one, or the
p50 climbs steeply, is the knee; ``lo`` and ``hi`` sit at about 25% and
50% of it.  Every answer is checked as in a run.  The table is also
written to ``.e2ebench/ladder-<workload>.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from e2e_phases import setup, warm  # noqa: E402
from e2e_stats import median, tail_percentile  # noqa: E402
from e2e_trace import NullTracer  # noqa: E402
from e2e_workloads import WORKLOADS  # noqa: E402
from run import (  # noqa: E402
    HI_SHARE, LO_SHARE, SERVE, Run, check_served, settle,
)

#: Offered rates, as multiples of the workload's ``lo`` rate.
STEPS = (1, 2, 3, 4, 6, 8, 12)
STEP_SECONDS = 4.0


async def ladder(r: Run, index, twin) -> list[dict]:
    from repro.serve import QueryService, ServeConfig

    rows = []
    async with QueryService(index, ServeConfig(**SERVE)) as service:
        for step in STEPS:
            rate = r.w.serve_lo * step
            res = await r.open_loop(service, rate, STEP_SECONDS)
            check_served(res.requests, twin, r.ledger)
            done = res.completed
            lat = [x.latency_ms for x in done]
            span = max(x.done for x in done) - min(x.due for x in done)
            pct, tail, _ = tail_percentile(lat)
            rows.append({
                "offered_req_s": rate,
                "completed_req_s": len(done) / span,
                "p50_ms": median(lat),
                "tail_pct": pct,
                "tail_ms": tail,
                "late_p50_ms": median(res.late_ms()),
                "n": len(lat),
            })
            row = rows[-1]
            print(f"{rate:8.1f} req/s offered {row['completed_req_s']:8.1f} "
                  f"completed  p50 {row['p50_ms']:8.2f} ms  p{pct:.1f} "
                  f"{tail:8.2f} ms  late p50 {row['late_p50_ms']:6.2f} ms  "
                  f"n={len(lat)}", flush=True)
            settle()
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    for key in [k for k in os.environ if k.startswith("CLIMBER_")]:
        del os.environ[key]

    w = WORKLOADS[args.workload]
    out_dir = ROOT / ".e2ebench"
    workdir = out_dir / f"ladder-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # Size the held-out pool for the whole ladder: a run of this many
        # seconds draws as many served queries as the ladder does.
        ladder_queries = w.serve_lo * sum(STEPS) * STEP_SECONDS
        per_run_second = w.serve_lo * LO_SHARE + w.serve_hi * HI_SHARE
        r = Run(w, args.seed, ladder_queries / per_run_second + 1.0, False,
                workdir)
        r.prepare()
        store, _, _, _ = setup(w, r.inputs, workdir / "store", NullTracer())
        index, twin = store.open(), store.open()
        warm(index)
        settle()
        rows = asyncio.run(ladder(r, index, twin))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = r.ledger.failed == 0
    (out_dir / f"ladder-{w.name}.json").write_text(json.dumps({
        "workload": w.name, "seed": args.seed, "serve": SERVE,
        "lo": w.serve_lo, "hi": w.serve_hi, "step_seconds": STEP_SECONDS,
        "steps": rows, "correct": correct, "problems": r.ledger.problems,
    }, indent=1))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
