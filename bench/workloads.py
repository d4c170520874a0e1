"""The three benchmark workloads.

Each one is a batch job driven by one caller: ``setup`` loads what the
job reads, ``run_round`` is the timed phase, ``outputs`` gives the bytes
that must be identical in every round and ``check`` verifies the outputs
with the benchmark's own code (``checks``). ``run_round`` times its
steps -- chunks of users, CLI verbs, grid points -- through ``step``, in the
same order every round, so the worker can take each step's best time over
the rounds. The package is reached through module attributes at call
time, so the tracer's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import sys
import traceback
from dataclasses import dataclass

import basket_rerank.cli as cli
import basket_rerank.dataset as dataset
import basket_rerank.objective as objective
import basket_rerank.scorer as scorer
import basket_rerank.solver as solver
import basket_rerank.tuner as tuner

import checks
from checks import Objective

# The paper's default tuning grids, fixed here so that the benchmark does
# not change when the package's defaults do.
ALPHA_GRID = [0, 0.001, 0.01, 0.1, 1, 10, 20, 30, 40, 50, 60, 70, 80, 90,
              100, 200]
LAMBDA_GRID = [0, 0.001, 0.01, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1]

# Users whose baskets are also checked against every same-pool swap.
SWAP_SAMPLE = 12
# Users per timed step of rerank-ties: one rerank_all call each.
CHUNK = 5


def _untimed(name: str):
    return contextlib.nullcontext()


@dataclass
class Round:
    attempted: int
    failed: int
    data: object


def _config(obj: Objective, n: int) -> objective.RerankConfig:
    return objective.RerankConfig(
        k=obj.k, n=n, epsilon=obj.epsilon, alpha=obj.alpha, lam=obj.lam,
        theta=obj.theta,
        sign_mode=objective.PENALIZE_REPEAT if obj.penalize else objective.REWARD_REPEAT,
        exposure=objective.ExposureModel(obj.exposure), objective_kind=obj.kind)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class RerankTies:
    """Exact re-ranking of tie-heavy candidates: the solver's search tail."""

    def __init__(self, inputs: str, work: str, spec: dict, seed: int) -> None:
        self.inputs, self.spec = inputs, spec
        k = spec["k"]
        # (name, combined candidates?, objective)
        self.sets = [
            ("unified-radiv", False, Objective("radiv", k, epsilon=0.1, lam=0.1)),
            ("unified-naive_div", False, Objective("naive_div", k, epsilon=0.1)),
            ("unified-raif", False, Objective("raif", k, alpha=1.0, lam=0.1)),
            # At this low threshold H(theta) hands most slots to the tied
            # repeat pool.
            ("combined-radiv", True,
             Objective("radiv", k, epsilon=0.1, lam=0.1, theta=0.09)),
        ]

    def setup(self) -> None:
        path = lambda name: os.path.join(self.inputs, name)  # noqa: E731
        n = self.spec["n"]
        self.categories = dataset.load_categories(path("categories.tsv"))
        train = dataset.load_baskets(path("train.jsonl"), "jsonl", self.categories)
        self.reps = dataset.build_repeat_sets(train)
        self.groups = dataset.build_item_groups(train)
        self.unified = scorer.import_scores(path("unified.tsv"), "unified", n=n)
        self.combined = scorer.import_scores(path("repeat.tsv"), "combined", n=n,
                                             explore_path=path("explore.tsv"))

    def run_round(self, span, step=_untimed) -> Round:
        attempted = failed = 0
        results = {}
        for name, combined, obj in self.sets:
            cands = self.combined if combined else self.unified
            build = (objective.build_combined_problem if combined
                     else objective.build_unified_problem)
            cfg = _config(obj, self.spec["n"])
            users = cands.user_ids
            baskets = {}
            for lo in range(0, len(users), CHUNK):
                problems = []
                with step(f"{name}:{lo}"):
                    for uid in users[lo:lo + CHUNK]:
                        attempted += 1
                        try:
                            problems.append(build(uid, cands, self.reps, self.groups,
                                                  self.categories, cfg))
                        except Exception:  # noqa: BLE001 - counted as a failed re-rank
                            traceback.print_exc()
                            failed += 1
                    out = solver.rerank_all(problems, skip_errors=True)
                failed += len(problems) - len(out.baskets)
                baskets.update(out.baskets)
            results[name] = solver.RerankedBaskets(baskets)
        return Round(attempted, failed, results)

    def outputs(self, rnd: Round) -> dict[str, bytes]:
        return {name: "".join(f"{uid}\t{','.join(sel.items)}\t{sel.objective!r}\n"
                              for uid, sel in sorted(out.baskets.items())).encode()
                for name, out in rnd.data.items()}

    def check(self, rnd: Round) -> list[str]:
        ref = checks.Reference(self.inputs, self.spec["n"])
        failures = []
        for name, combined, obj in self.sets:
            baskets = {uid: (sel.items, sel.objective)
                       for uid, sel in rnd.data[name].baskets.items()}
            users = sorted(baskets)
            step = max(1, len(users) // SWAP_SAMPLE)
            sample = set(users[::step][:SWAP_SAMPLE])
            failures += [f"{name}: {f}" for f in checks.check_rerank(
                ref, obj, combined, baskets, sample)]
        return failures


class Pipeline:
    """The CLI verbs in order, in-process, on a raw basket file."""

    ALPHA = 10.0
    LAMBDA = 0.2

    def __init__(self, inputs: str, work: str, spec: dict, seed: int) -> None:
        self.inputs, self.work, self.spec, self.seed = inputs, work, spec, seed

    def setup(self) -> None:
        pass  # every input is read by the verbs themselves, inside the round

    def _verbs(self) -> list[tuple[str, list[str]]]:
        w = lambda name: os.path.join(self.work, name)  # noqa: E731
        k, n = str(self.spec["k"]), str(self.spec["n"])
        return [
            ("ingest", ["ingest", "--baskets", os.path.join(self.inputs, "baskets.jsonl"),
                        "--categories", os.path.join(self.inputs, "categories.tsv"),
                        "--seed", str(self.seed), "--out", self.work]),
            ("score", ["score", "--train", w("train.jsonl"), "--kind", "unified",
                       "--n", n, "--out", self.work]),
            ("rerank", ["rerank", "--mode", "raif", "--exposure", "uniform",
                        "--alpha", str(self.ALPHA), "--lambda", str(self.LAMBDA),
                        "--sign", "auto", "--targets", w("targets_validation.jsonl"),
                        "--train", w("train.jsonl"), "--categories", w("categories.tsv"),
                        "--scores", w("unified.tsv"), "--k", k, "--n", n,
                        "--out", w("baskets.tsv")]),
            ("evaluate", ["evaluate", "--baskets", w("baskets.tsv"),
                          "--train", w("train.jsonl"), "--categories", w("categories.tsv"),
                          "--targets", w("targets_test.jsonl"), "--k", k,
                          "--exposure", "log-discount", "--out", w("report.json")]),
        ]

    def run_round(self, span, step=_untimed) -> Round:
        failed = 0
        verbs = self._verbs()
        sink = io.StringIO()
        for verb, argv in verbs:
            with step(verb), span(f"cli.{verb}"), contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                try:
                    failed += cli.main(argv) != 0
                except Exception:  # noqa: BLE001 - a traceback fails the verb
                    traceback.print_exc(file=sys.__stderr__)
                    failed += 1
        return Round(len(verbs), failed, None)

    FILES = ("dataset.jsonl", "train.jsonl", "targets_validation.jsonl",
             "targets_test.jsonl", "categories.tsv", "unified.tsv",
             "baskets.tsv", "report.json")

    def outputs(self, rnd: Round) -> dict[str, bytes]:
        return {name: _read(os.path.join(self.work, name)) for name in self.FILES
                if os.path.exists(os.path.join(self.work, name))}

    def check(self, rnd: Round) -> list[str]:
        w = lambda name: os.path.join(self.work, name)  # noqa: E731
        k, n = self.spec["k"], self.spec["n"]
        failures = checks.check_ingest(self.work)
        failures += checks.check_scores(self.work, n)
        ref = checks.Reference(self.work, n)
        penalize = checks.auto_sign_penalizes(
            ref, checks.read_targets(w("targets_validation.jsonl")), k)
        obj = Objective("raif", k, alpha=self.ALPHA, lam=self.LAMBDA,
                        penalize=penalize, exposure="uniform")
        baskets = checks.read_baskets_tsv(w("baskets.tsv"))
        failures += checks.check_additive_baskets(ref, obj, baskets)
        with open(w("report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        failures += checks.check_report(report, checks.reference_metrics(
            ref, baskets, checks.read_targets(w("targets_test.jsonl")), k,
            "log_discount"))
        return failures


@contextlib.contextmanager
def _each_point(step, name: str):
    """Time every ``rerank_and_evaluate`` call of ``run_grid`` as a step.

    ``run_grid`` makes one such call for the baseline and one per grid
    point, in the same order every round, and looks the function up in
    its module when it calls it.
    """
    inner = tuner.rerank_and_evaluate
    calls = itertools.count()

    def timed(*args, **kwargs):
        with step(f"{name}:point{next(calls)}"):
            return inner(*args, **kwargs)

    tuner.rerank_and_evaluate = timed
    try:
        yield
    finally:
        tuner.rerank_and_evaluate = inner


class Tune:
    """``run_grid`` for the fairness program on both candidate kinds."""

    def __init__(self, inputs: str, work: str, spec: dict, seed: int) -> None:
        self.inputs, self.work, self.spec = inputs, work, spec

    def setup(self) -> None:
        path = lambda name: os.path.join(self.inputs, name)  # noqa: E731
        n = self.spec["n"]
        self.categories = dataset.load_categories(path("categories.tsv"))
        train = dataset.load_baskets(path("train.jsonl"), "jsonl", self.categories)
        self.validation = dataset.load_targets(path("targets_validation.jsonl"), train)
        self.reps = dataset.build_repeat_sets(train)
        self.groups = dataset.build_item_groups(train)
        self.cands = {
            "unified": scorer.import_scores(path("unified.tsv"), "unified", n=n),
            "combined": scorer.import_scores(path("repeat.tsv"), "combined", n=n,
                                             explore_path=path("explore.tsv")),
        }
        thetas = checks.theta_deciles(self.cands["combined"].repeat_list)
        self.grids = {
            "unified": [(a, lam) for a in ALPHA_GRID for lam in LAMBDA_GRID],
            "combined": [(a, th) for a in ALPHA_GRID for th in thetas],
        }

    def run_round(self, span, step=_untimed) -> Round:
        os.makedirs(self.work, exist_ok=True)
        cfg = objective.RerankConfig(k=self.spec["k"], n=self.spec["n"],
                                     objective_kind="raif",
                                     exposure=objective.ExposureModel("uniform"))
        attempted = failed = 0
        for name, cands in self.cands.items():
            points = len(self.grids[name])
            attempted += points
            try:
                with step(f"{name}:grid"), _each_point(step, name):
                    result = tuner.run_grid(
                        self.validation, cands, self.reps, self.groups,
                        self.categories, cfg,
                        tuner.GridSpec(alpha_grid=ALPHA_GRID, lambda_grid=LAMBDA_GRID))
                with step(f"{name}:write"):
                    tuner.write_sweep_csv(result, os.path.join(self.work,
                                                               f"sweep_{name}.csv"))
                    tuner.write_chosen_config(result, os.path.join(
                        self.work, f"chosen_{name}.json"))
            except Exception:  # noqa: BLE001 - counted as failed grid points
                traceback.print_exc()
                failed += points
        return Round(attempted, failed, None)

    def outputs(self, rnd: Round) -> dict[str, bytes]:
        return {f"{kind}_{name}": _read(os.path.join(self.work, f"{kind}_{name}.{ext}"))
                for name in self.cands for kind, ext in (("sweep", "csv"),
                                                         ("chosen", "json"))}

    def check(self, rnd: Round) -> list[str]:
        failures = []
        for name, second in (("unified", "lambda"), ("combined", "theta")):
            rows = checks.read_sweep(os.path.join(self.work, f"sweep_{name}.csv"))
            with open(os.path.join(self.work, f"chosen_{name}.json"),
                      encoding="utf-8") as fh:
                chosen = json.load(fh)
            failures += [f"{name}: {f}" for f in checks.check_sweep(
                rows, chosen, self.grids[name], second)]
        return failures


WORKLOADS = {"rerank-ties": RerankTies, "pipeline": Pipeline, "tune": Tune}
