"""nbibd benchmark: one workload per invocation, the result as JSON on the last line.

    python3 benchmarks/run.py --workload paper_study --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from the src/ directory next
to this one, never from an installed copy.  Every workload runs in a
fresh child interpreter whose environment has the BLAS and nbibd thread
variables removed, so the numbers measure the program's own thread
defaults.  set-up time is the median of several fresh interpreters, each
timed from its start to `import nbibd` done and a first warm-up call
returned.  With --trace 1 the per-layer metrics are printed instead of
the end-to-end ones.  Work files go to .bench_out/ at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORKLOADS = ("paper_study", "large_session", "judge_arrivals")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NBIBD_THREADS")
SETUP_PROBES = 4  # set-up-only interpreters per run; the workload's own start is one more sample
RUN_LIMIT_S = 170.0


def child_env() -> dict[str, str]:
    env = {name: value for name, value in os.environ.items() if name not in THREAD_VARS}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def start_child(argv: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a child and wait for its `ready` line; returns it with the set-up seconds."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD)] + argv, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - start))
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"child did not get ready (exit {proc.returncode})")
    return proc, setup


def finish_child(proc: subprocess.Popen, deadline: float) -> None:
    try:
        proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("child ran past the time limit") from None
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with code {proc.returncode}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "nbibd" / "__init__.py").is_file():
        print(f"error: no nbibd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    workdir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    common = ["--workdir", str(workdir)]

    try:
        setups = []
        if args.trace == 0:
            for _ in range(SETUP_PROBES):
                proc, setup = start_child(["--setup-only"] + common, deadline)
                finish_child(proc, deadline)
                setups.append(setup)
        run_args = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        proc, setup = start_child(run_args + ["--trace", str(args.trace)] + common, deadline)
        setups.append(setup)
        finish_child(proc, deadline)
        result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        for path in workdir.iterdir():
            if path.name not in ("result.json", "spans.jsonl"):
                path.unlink() if path.is_file() else shutil.rmtree(path)

    metrics = result["metrics"]
    if args.trace == 0:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    for name, metric in sorted(metrics.items()):
        print(f"{args.workload} {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed")} | {"metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
