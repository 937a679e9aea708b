"""One workload process, started by run.py with the thread variables removed.

It imports nbibd from the checkout's src/, makes a first warm-up call and
prints `ready` (run.py times its set-up up to that line).  With
--setup-only it stops there; otherwise it runs the workload and writes
result.json into --workdir.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def warm_up() -> None:
    import numpy as np

    import nbibd

    if not Path(nbibd.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported nbibd from {nbibd.__file__}, not from {ROOT / 'src'}")
    design, _ = nbibd.generate(nbibd.DesignConfig(t=20, k=5, b=10, seed=0), "nb2")
    nbibd.validate(design)
    matrix = np.random.default_rng(0).normal(80.0, 7.0, size=(20, 10))
    nbibd.fit_random(design, nbibd.ScoreTable.from_design_matrix(design, matrix))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import envinfo
    from tracing import Tracer
    from workloads import WORKLOADS

    workdir = Path(args.workdir)
    workload = WORKLOADS[args.workload](workdir, args.seed)
    environment = envinfo.environment()
    if args.trace == 0:
        samples = workload.run(args.seconds, None)
        metrics = {"op_ms": (workload.op_ms(samples), "ms")}
        # ru_maxrss is in KiB on Linux
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    else:
        # untraced first half, traced second half: their difference is the tracing overhead
        plain = workload.run(args.seconds / 2, None)
        tracer = Tracer()
        workload.instrument(tracer)
        try:
            traced = workload.run(args.seconds / 2, tracer)
        finally:
            tracer.restore()
        tracer.write(str(workdir / "spans.jsonl"))
        metrics = workload.per_layer(tracer)
        overhead = (workload.op_ms(traced) / workload.op_ms(plain) - 1.0) * 100.0
        metrics["trace.overhead_pct"] = (overhead, "%")
    workload.final_checks()

    result = {
        "correct": not workload.problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "problems": workload.problems,
        "environment": environment,
    }
    (workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
