"""Benchmark entry point: one run of one workload.

    python3 bench/run.py --workload rerank-ties --seed 1 --seconds 20 --trace 0

Run from the repository root. Inputs for (workload, seed) are generated
once and cached under ``.bench_cache/``. Each run starts the workload in
fresh interpreters (``worker.py``) with ``BASKET_RERANK_THREADS`` unset:
with ``--trace 0`` a few that only set up, to time set-up, then one that
also measures; with ``--trace 1`` one traced worker. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics untraced, the
per-layer metrics traced. Exits non-zero, printing no result, when the
package source or a worker is missing or fails.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import gen
from tracing import PER_LAYER

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CACHE = os.path.join(ROOT, ".bench_cache")
SRC = os.path.join(ROOT, "src")

# Set-up is timed in this many extra interpreters (plus the measuring one),
# after one more that warms the bytecode and file caches. Half of them run
# before the measuring worker and half after it, so that the median spans
# the whole run rather than a few seconds of it.
SETUP_PROBES = 6
DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _inputs_dir(workload: str, seed: int) -> str:
    with open(os.path.join(BENCH, "gen.py"), "rb") as fh:
        key = hashlib.sha256(fh.read() + json.dumps(
            gen.SPECS[workload], sort_keys=True).encode()).hexdigest()[:12]
    return os.path.join(CACHE, "inputs", f"{workload}-s{seed}-{key}")


def _worker(argv: list[str], env: dict[str, str], deadline: float) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), *argv, "--t0", repr(t0)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "basket_rerank", "__init__.py")):
        print(f"bench: no package source under {SRC}", file=sys.stderr)
        return 2
    inputs = _inputs_dir(args.workload, args.seed)
    if not os.path.isdir(inputs):
        os.makedirs(os.path.dirname(inputs), exist_ok=True)
        gen.generate(gen.SPECS[args.workload], args.seed, inputs)

    env = {k: v for k, v in os.environ.items() if k != "BASKET_RERANK_THREADS"}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    work = os.path.join(CACHE, "work", f"{args.workload}-{os.getpid()}")
    traces = os.path.join(CACHE, "traces")
    os.makedirs(traces, exist_ok=True)
    common = ["--workload", args.workload, "--inputs", inputs, "--work", work,
              "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--src", os.path.join(SRC, "basket_rerank")]
    deadline = start + DEADLINE_S
    try:
        def probe() -> float:
            return _worker(common + ["--setup-only"], env, deadline)["setup_s"]

        setups = []
        if not args.trace:
            probe()  # warms the caches; not counted
            setups += [probe() for _ in range(SETUP_PROBES // 2)]
        result = _worker(common + ["--spans", os.path.join(
            traces, f"{args.workload}-s{args.seed}.jsonl")], env, deadline)
        if not args.trace:
            setups += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"bench: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in result["failures"]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = dict(result, setup_s=statistics.median(setups + [result["setup_s"]]))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(f"{args.workload} seed {args.seed}: {result['rounds']} rounds, "
          f"round walls {[round(w, 3) for w in result['walls']]}", file=sys.stderr)
    print(json.dumps({"correct": not result["failures"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
