"""Grid search with the two-condition selection rule: stay within the
Recall-drop tolerance of the unmodified baskets, then maximize mDR (for the
diversity program) or minimize mFR (for the fairness program).

``run_grid`` builds each validation user's problem once per call. Between
grid points only the term weights change, and for combined candidates the
H(theta) slot split, so each point re-weights the built problems instead of
building them again. Two exact memos, local to one call, skip repeated
work:

* per user, the previous point's problem key (weights, slots, objective
  kind) and selection: a user whose re-weighted problem is unchanged keeps
  that selection without a solve. Points run weight-major with theta
  ascending, so equal H(theta) splits come one after another;
* per distinct basket set, the metrics report: a point whose baskets equal
  an earlier point's reuses that report with its own config.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass, field

from .dataset import ItemGroups, RepeatSets, SplitDataset, ground_truth_repeat_ratio
from .errors import DataError, UsageError
from .metrics import MetricsReport, evaluate
from .objective import (RerankConfig, RerankProblem, build_problems,
                        choose_sign_mode, original_topk, reweighted)
from .scorer import CandidateSet
from .solver import RerankedBaskets, Selection, rerank_all

DEFAULT_EPSILON_GRID = [0, 0.001, 0.01, 0.02, 0.04, 0.06, 0.08, 0.1,
                        0.12, 0.14, 0.16, 0.18, 0.2]
DEFAULT_ALPHA_GRID = [0, 0.001, 0.01, 0.1, 1, 10, 20, 30, 40, 50, 60, 70,
                      80, 90, 100, 200]
DEFAULT_LAMBDA_GRID = [0, 0.001, 0.01, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7,
                       0.8, 0.9, 1]


@dataclass
class GridSpec:
    epsilon_grid: list[float] = field(default_factory=lambda: list(DEFAULT_EPSILON_GRID))
    alpha_grid: list[float] = field(default_factory=lambda: list(DEFAULT_ALPHA_GRID))
    lambda_grid: list[float] = field(default_factory=lambda: list(DEFAULT_LAMBDA_GRID))
    theta_grid: list[float] | None = None  # default: deciles of repeat scores

    def __post_init__(self) -> None:
        for name in ("epsilon_grid", "alpha_grid", "lambda_grid", "theta_grid"):
            weights = name != "theta_grid"
            values = getattr(self, name)
            if values is None and not weights:
                continue  # default: deciles of the repeat scores
            if not values:
                raise UsageError(f"{name} is empty")
            if not all(math.isfinite(v) for v in values):
                raise UsageError(f"{name} contains non-finite values")
            if weights and any(v < 0 for v in values):
                raise UsageError(f"{name} contains negative values")
            setattr(self, name, sorted(set(values)))


def theta_deciles(cands: CandidateSet) -> list[float]:
    """Default theta candidates: deciles of the pooled repeat scores."""
    scores = sorted(s for rows in cands.repeat_list.values() for _, s in rows)
    if not scores:
        raise DataError("no repeat scores to derive theta candidates from")
    n = len(scores)
    deciles = []
    for q in range(1, 10):
        idx = min(n - 1, int(round(q / 10 * (n - 1))))
        deciles.append(scores[idx])
    return sorted(set(deciles))


@dataclass
class TuneResult:
    best: RerankConfig
    results: list[tuple[RerankConfig, MetricsReport]]
    baseline: MetricsReport
    feasible_count: int
    infeasible: bool


def rerank_and_evaluate(cands: CandidateSet, split: SplitDataset,
                        reps: RepeatSets, groups: ItemGroups,
                        categories: dict[str, str], cfg: RerankConfig,
                        rep_ratio_gt: float) -> MetricsReport:
    problems = build_problems(cands, reps, groups, categories, cfg, split)
    return evaluate(rerank_all(problems), split, reps, groups, categories, cfg,
                    rep_ratio_gt=rep_ratio_gt)


def _problem_key(problem: RerankProblem) -> tuple:
    """What a re-weighted problem changes between grid points."""
    return (problem.rel_scale, problem.epsilon_eff, problem.alpha_eff,
            problem.signed_lambda, problem.repeat_slots, problem.explore_slots,
            problem.short, problem.objective_kind)


def grids_read(kind: str, cands_kind: str) -> tuple[str, str]:
    """The two GridSpec fields a run reads: the weight grid (epsilon for
    radiv, alpha for raif) and lambda for unified or theta for combined
    candidates."""
    return ("epsilon_grid" if kind == "radiv" else "alpha_grid",
            "lambda_grid" if cands_kind == "unified" else "theta_grid")


def grid_points(kind: str, cands_kind: str, grid: GridSpec,
                theta_default: list[float]) -> list[tuple[float, float, float]]:
    """(weight, lambda, theta) tuples in deterministic lexicographic order."""
    weight_grid, second_grid = grids_read(kind, cands_kind)
    weights = getattr(grid, weight_grid)
    if second_grid == "lambda_grid":
        return [(w, lam, 0.0) for w in weights for lam in grid.lambda_grid]
    thetas = grid.theta_grid if grid.theta_grid is not None else theta_default
    return [(w, 0.0, th) for w in weights for th in thetas]


def run_grid(split: SplitDataset, cands: CandidateSet, reps: RepeatSets,
             groups: ItemGroups, categories: dict[str, str],
             cfg: RerankConfig, grid: GridSpec) -> TuneResult:
    """Evaluate every grid point on the validation split and pick the best
    feasible one. Ties go to the lexicographically smallest
    (weight, lambda, theta) tuple; with no feasible point the baseline wins
    and the result is flagged infeasible. Each point sets ``cfg``'s weights,
    theta and sign mode (from the validation repeat ratio) itself."""
    if cfg.objective_kind not in ("radiv", "raif"):
        raise UsageError("run_grid tunes radiv or raif objectives only")
    if split.split_label != "validation":
        raise UsageError("tune on the validation split only")

    rep_ratio_gt = ground_truth_repeat_ratio(split, reps)
    theta_default = theta_deciles(cands) if cands.kind == "combined" else []

    base_theta = theta_default[0] if cands.kind == "combined" else 0.0
    sign_mode = choose_sign_mode(
        original_topk(cands, dataclasses.replace(cfg, theta=base_theta)),
        reps, rep_ratio_gt)

    def point_cfg(weight: float, lam: float, theta: float,
                  kind: str) -> RerankConfig:
        return dataclasses.replace(
            cfg,
            epsilon=weight if cfg.objective_kind == "radiv" else 0.0,
            alpha=weight if cfg.objective_kind == "raif" else 0.0,
            lam=lam, theta=theta, sign_mode=sign_mode, objective_kind=kind)

    baseline_cfg = point_cfg(0.0, 0.0, base_theta, "relevance_only")
    problems = build_problems(cands, reps, groups, categories, baseline_cfg,
                              split)

    # user id -> problem key and selection at the previous point
    keys: dict[str, tuple] = {}
    selections: dict[str, Selection] = {}
    # basket set (each user's items, in user-id order) -> its report. Every
    # point of one call shares K, exposure, omega, log base and
    # rep_ratio_gt, which are all that ``evaluate`` reads besides the
    # baskets, so equal baskets give an equal report but for its config.
    reports: dict[tuple, MetricsReport] = {}

    def report_at(pcfg: RerankConfig) -> MetricsReport:
        keyed = [(_problem_key(p), p) for p in reweighted(problems, cands, pcfg)]
        selections.update(rerank_all(
            [p for key, p in keyed if keys.get(p.user_id) != key]).baskets)
        keys.update((p.user_id, key) for key, p in keyed)
        # problems are in user-id order, as rerank_all solves them
        baskets = {p.user_id: selections[p.user_id] for _, p in keyed}
        basket_set = tuple(tuple(s.items) for s in baskets.values())
        if basket_set in reports:
            return dataclasses.replace(reports[basket_set],
                                       config=pcfg.snapshot())
        reports[basket_set] = evaluate(RerankedBaskets(baskets), split, reps,
                                       groups, categories, pcfg,
                                       rep_ratio_gt=rep_ratio_gt)
        return reports[basket_set]

    baseline = report_at(baseline_cfg)
    floor = (1.0 - cfg.recall_tolerance) * baseline.recall

    results: list[tuple[RerankConfig, MetricsReport]] = []
    best_cfg: RerankConfig | None = None
    best_score: float | None = None
    feasible = 0
    for weight, lam, theta in grid_points(cfg.objective_kind, cands.kind,
                                          grid, theta_default):
        pcfg = point_cfg(weight, lam, theta, cfg.objective_kind)
        report = report_at(pcfg)
        results.append((pcfg, report))
        if report.recall < floor:
            continue
        feasible += 1
        score = report.m_dr if cfg.objective_kind == "radiv" else -report.m_fr
        if best_score is None or score > best_score:
            best_cfg, best_score = pcfg, score

    if best_cfg is None:
        return TuneResult(baseline_cfg, results, baseline, 0, True)
    return TuneResult(best_cfg, results, baseline, feasible, False)


def final_evaluate(best: RerankConfig, test: SplitDataset, cands: CandidateSet,
                   reps: RepeatSets, groups: ItemGroups,
                   categories: dict[str, str],
                   objective_kind: str | None = None) -> MetricsReport:
    """Single frozen-config evaluation on the test split."""
    if objective_kind is not None and objective_kind != best.objective_kind:
        raise UsageError(
            f"objective kind mismatch: tuned {best.objective_kind!r}, "
            f"requested {objective_kind!r}")
    rep_ratio_gt = ground_truth_repeat_ratio(test, reps)
    return rerank_and_evaluate(cands, test, reps, groups, categories, best,
                               rep_ratio_gt)


def write_sweep_csv(result: TuneResult, path: str) -> None:
    """One row per grid point with all metrics; feeds trade-off curves."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["objective_kind", "epsilon", "alpha", "lambda",
                         "theta", "recall", "ds", "logdp", "rep_ratio_rec",
                         "rep_bias", "m_fr", "m_dr"])
        for pcfg, report in result.results:
            writer.writerow([
                pcfg.objective_kind, pcfg.epsilon, pcfg.alpha, pcfg.lam,
                pcfg.theta, report.recall, report.ds, report.log_dp,
                report.rep_ratio_rec, report.rep_bias, report.m_fr,
                report.m_dr])


def write_chosen_config(result: TuneResult, path: str) -> None:
    payload = {
        "best": result.best.snapshot(),
        "feasible_count": result.feasible_count,
        "infeasible": result.infeasible,
        "baseline": result.baseline.to_dict(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
