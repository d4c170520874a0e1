"""One run of one workload, in a fresh interpreter started by ``run.py``.

The worker times its own set-up from the moment its parent started it,
then repeats whole rounds of the workload until ``--seconds`` have passed
and prints one JSON object as its last line of standard output. With
``--trace 1`` the rounds alternate untraced and traced, so that the trace
overhead is measured and the traced outputs can be compared byte for byte
with the untraced ones.

Every round runs the same steps in the same order and each step is timed.
``wall_s`` and ``cpu_s`` add up each step's best time over the rounds. A
shared host can run this process up to 1.8x slower for spells of seconds
to minutes; a round-level median follows those spells, while a short
step's best time over many rounds mostly falls in a fast stretch.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _no_span(name: str):
    return nullcontext()


class _Steps:
    """Wall and CPU seconds of each named step of one round.

    Steps may nest; a step's time excludes that of the steps inside it.
    """

    def __init__(self) -> None:
        self.wall: dict[str, float] = {}
        self.cpu: dict[str, float] = {}
        self._inner: list[list[float]] = []  # per open step: nested wall, cpu

    @contextmanager
    def __call__(self, name: str):
        self._inner.append([0.0, 0.0])
        cpu0 = _cpu_s()
        wall0 = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - wall0
            cpu = _cpu_s() - cpu0
            inner_wall, inner_cpu = self._inner.pop()
            if self._inner:
                self._inner[-1][0] += wall
                self._inner[-1][1] += cpu
            self.wall[name] = self.wall.get(name, 0.0) + wall - inner_wall
            self.cpu[name] = self.cpu.get(name, 0.0) + cpu - inner_cpu


def _best_total(rounds: list[_Steps], kind: str) -> float:
    """Each step's least time over the rounds, summed over the steps."""
    best: dict[str, float] = {}
    for r in rounds:
        for name, t in getattr(r, kind).items():
            best[name] = min(t, best.get(name, t))
    return sum(best.values())


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", help="where a traced run writes its spans")
    parser.add_argument("--src", required=True, help="the package's source directory")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.perf_counter() in the parent at start")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import gen
    from tracing import Tracer
    from workloads import WORKLOADS
    import basket_rerank

    if not os.path.abspath(basket_rerank.__file__).startswith(args.src + os.sep):
        print(f"worker: imported {basket_rerank.__file__}, not {args.src}",
              file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.inputs, args.work,
                                       gen.SPECS[args.workload], args.seed)
    if tracer:
        tracer.install()
    workload.setup()
    if tracer:
        tracer.uninstall()
    setup_s = time.perf_counter() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    os.makedirs(args.work, exist_ok=True)
    walls: dict[bool, list[float]] = {False: [], True: []}
    steps: dict[bool, list[_Steps]] = {False: [], True: []}
    attempted = failed = 0
    failures: list[str] = []
    first_outputs = first_round = None
    start = time.perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.phase = f"round{index}"
            tracer.install()
        timer = _Steps()
        wall0 = time.perf_counter()
        try:
            rnd = workload.run_round(tracer.span if traced else _no_span, timer)
        finally:
            wall = time.perf_counter() - wall0
            if traced:
                tracer.uninstall()
        walls[traced].append(wall)
        steps[traced].append(timer)
        attempted += rnd.attempted
        failed += rnd.failed
        outputs = workload.outputs(rnd)
        if first_outputs is None:
            first_outputs, first_round = outputs, rnd
        elif outputs != first_outputs:
            differ = sorted(k for k in set(first_outputs) | set(outputs)
                            if first_outputs.get(k) != outputs.get(k))
            failures.append(f"round {index} ({'traced' if traced else 'untraced'})"
                            f" outputs differ from round 0: {differ}")
        index += 1
        # Stop before a round that would end past --seconds, so a run takes
        # about --seconds whatever the round length.
        if time.perf_counter() - start + wall > args.seconds and (
                tracer is None or index >= 2):
            break
    peak_rss_mb = _peak_rss_mb()

    try:
        failures += workload.check(first_round)
    except Exception:  # noqa: BLE001 - a checker crash is a failed check
        failures.append("checker raised:\n" + traceback.format_exc())

    layers = None
    if tracer:
        setup = tracer.layer_metrics("setup")
        per_round = [tracer.layer_metrics(f"round{i}") for i in range(1, index, 2)]
        layers = {name: setup[name] + statistics.median(r[name] for r in per_round)
                  for name in setup}
        layers["trace.overhead_s"] = (_best_total(steps[True], "wall")
                                      - _best_total(steps[False], "wall"))
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": _best_total(steps[False], "wall"),
        "cpu_s": _best_total(steps[False], "cpu"),
        "peak_rss_mb": peak_rss_mb,
        "rounds": index,
        "walls": walls[False],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
