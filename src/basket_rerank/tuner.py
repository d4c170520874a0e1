"""Grid search with the two-condition selection rule: stay within the
Recall-drop tolerance of the unmodified baskets, then maximize mDR (for the
diversity program) or minimize mFR (for the fairness program).

``run_grid`` builds each validation user's problem once per call. Between
grid points only the term weights change, and for combined candidates the
H(theta) slot split, so each point re-weights the built problems instead of
building them again.

Points run weight-major, so each weight's points form a column: lambda
ascending on unified candidates, theta ascending on combined ones. Each
user scans each column (``_scan``). At the first point not yet filled it
takes the previous column's answer at the same index (same lambda, or
same theta and so the same split) when ``solver.settled`` certifies it
there, else it solves. The answer gives a token, and fills every point up
to the last one that gives the same token for it, found at the column's
end or by bisection; an answer without a token fills its own point alone.

``settled`` certifies an answer at an additive problem: in each pool, each
chosen candidate beats each unchosen one by more than the tie tolerance
plus a rounding room, but within one block of equal repeat flag, relevance
and fairness coefficient, and the answer fills each pool's slots. An
answer found at one problem of a user is the answer at every other problem
of the user with the same split where it settles (Theorem 1 in
``settled``'s docstring). The certificate reads only the answer's frontier,
a few candidates per class of equal flag and coefficient, which ``run_grid``
keeps per user and answer for the length of the call. Only additive
problems are certified, so coverage columns (radiv, epsilon > 0) and
exposure DP columns (log-discount raif, alpha > 0) take no hint and solve
every point; their epsilon = 0 and alpha = 0 columns are additive.

* Along lambda, the token is the items when ``settled`` certifies them. An
  answer solved or certified at one point, and settled at a later one, is
  the answer at every lambda between (Theorem 2).
* Along theta, the token is the slot split (repeat, explore). Every other
  field of a problem is fixed along a column, and H(theta) is monotone in
  theta, so two points with one split have that problem at every theta
  between.

One exact memo, local to one call, skips repeated evaluation: per distinct
basket set, the metrics report. A point whose baskets equal an earlier
point's reuses that report with its own config.

A point keeps only each user's items, all that ``evaluate`` reads, so no
filled point carries a stale objective. The scan holds two columns at a
time, the one it fills and the one before: users x column length items,
twice.

Besides its solves, a point makes one ``RerankProblem`` per user that
shares the built candidate lists, finds H(theta) by bisection on the ranked
repeat list, and copies a reused report's config shallowly
(``RerankConfig.snapshot``). A lambda column whose answer never changes
costs a user two certificates and no solve when the previous column's
answer is still the answer, else one solve and two or three certificates.
"""
from __future__ import annotations

import csv
import dataclasses
import functools
import itertools
import json
import math
from collections.abc import Callable
from typing import TypeVar
from dataclasses import dataclass, field

from .dataset import ItemGroups, RepeatSets, SplitDataset, ground_truth_repeat_ratio
from .errors import DataError, SolverError, UsageError
from .metrics import MetricsReport, evaluate
from .objective import (RerankConfig, RerankProblem, build_problems,
                        choose_sign_mode, original_topk, reweighted)
from .scorer import CandidateSet
from .solver import Frontier, rerank_all, settled, solve

P = TypeVar("P")

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

    @property
    def infeasible(self) -> bool:
        """No grid point kept Recall within the tolerance."""
        return self.feasible_count == 0


def rerank_and_evaluate(cands: CandidateSet, split: SplitDataset,
                        reps: RepeatSets, groups: ItemGroups,
                        categories: dict[str, str], cfg: RerankConfig,
                        rep_ratio_gt: float) -> MetricsReport:
    problems = build_problems(cands, reps, groups, categories, cfg, split)
    return evaluate(rerank_all(problems), split, reps, groups, categories, cfg,
                    rep_ratio_gt=rep_ratio_gt)


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


def _scan(size: int, at: Callable[[int], P],
          solved: Callable[[P], tuple[str, ...]],
          settles: Callable[[P, tuple[str, ...]], bool],
          split: Callable[[P], object] | None = None,
          hints: list[tuple[str, ...]] | None = None
          ) -> list[tuple[str, ...]]:
    """Each point's items along one column of ``size`` points: ``at(i)`` is
    point i's problem, ``solved`` gives a problem's answer, and ``settles``
    whether some items, an answer at some point, are certified at a
    problem. ``hints[i]``, if given, is an answer to try at point i.

    A point gives some items a token: ``split`` of its problem, when given,
    else the items themselves when ``settles`` certifies them there, else
    None. An answer found at one point, with a token, holds at every point
    up to a later one that gives it the same token.

    The scan finds the answer at the first point not yet filled: the
    hint there when ``settles`` certifies it, else a solve. An answer
    without a token fills that point alone. Otherwise the answer fills the
    column up to its last point when that point gives the same token, else
    up to a later point that does, found by bisection. Which point the
    bisection finds changes only the number of solves.
    """
    def token(i: int, items: tuple[str, ...]) -> object:
        if split is not None:
            return split(at(i))
        return items if settles(at(i), items) else None

    got: list[tuple[str, ...]] = []
    while len(got) < size:
        lo = len(got)
        items = hints[lo] if hints else None
        if items is None or not settles(at(lo), items):
            items = solved(at(lo))
            mark = token(lo, items)
        else:
            # a hint certified at lo is its own token along lambda
            mark = items if split is None else split(at(lo))
        # the answer holds at lo; hi is a point known not to match, or size
        hi = size if mark is not None else lo + 1
        while hi - lo > 1:
            mid = size - 1 if hi == size else (lo + hi) // 2
            if token(mid, items) == mark:
                lo = mid
            else:
                hi = mid
        got += [items] * (lo + 1 - len(got))
    return got


def run_grid(split: SplitDataset, cands: CandidateSet, reps: RepeatSets,
             groups: ItemGroups, categories: dict[str, str],
             cfg: RerankConfig, grid: GridSpec) -> TuneResult:
    """Evaluate every grid point on the validation split and pick the best
    feasible one. Ties go to the lexicographically smallest
    (weight, lambda, theta) tuple; with no feasible point the baseline wins
    and the result is flagged infeasible. Each point sets ``cfg``'s weights,
    theta and sign mode (from the validation repeat ratio) itself.

    Each user scans each weight's column of points (``_scan``): a user is
    solved only at the first point of each stretch that one answer fills,
    unless the previous column's answer there settles (``solver.settled``).
    Equal basket sets share one report. The sweep and the chosen config are
    those of a solve at every point. A solve that fails raises SolverError
    naming the user."""
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
    configs = [point_cfg(weight, lam, theta, cfg.objective_kind)
               for weight, lam, theta in grid_points(
                   cfg.objective_kind, cands.kind, grid, theta_default)]
    problems = build_problems(cands, reps, groups, categories, baseline_cfg,
                              split)

    # basket set (each user's items, in user-id order) -> its report. Every
    # point of one call shares K, exposure, omega, log base and
    # rep_ratio_gt, which are all that ``evaluate`` reads besides the
    # baskets, so equal baskets give an equal report but for its config.
    reports: dict[tuple, MetricsReport] = {}

    def solved(problem: RerankProblem) -> tuple[str, ...]:
        try:
            return tuple(solve(problem).items)
        except Exception as exc:  # noqa: BLE001 - reported per user
            raise SolverError(f"user {problem.user_id!r}: {exc}") from exc

    # per user: each answer's frontier, which ``settled`` reads and fills
    fronts: list[dict[tuple[str, ...], Frontier]] = [{} for _ in problems]

    def slot_split(problem: RerankProblem) -> tuple[int, int]:
        # along theta only the slot split changes, monotonely in theta
        return problem.repeat_slots, problem.explore_slots

    def report_at(pcfg: RerankConfig, baskets: dict[str, tuple[str, ...]]
                  ) -> MetricsReport:
        basket_set = tuple(baskets.values())
        if basket_set in reports:
            return dataclasses.replace(reports[basket_set],
                                       config=pcfg.snapshot())
        reports[basket_set] = evaluate(baskets, split, reps, groups,
                                       categories, pcfg,
                                       rep_ratio_gt=rep_ratio_gt)
        return reports[basket_set]

    # problems are in user-id order
    baseline = report_at(baseline_cfg, {
        p.user_id: solved(p)
        for p in reweighted(problems, cands, baseline_cfg)})
    floor = (1.0 - cfg.recall_tolerance) * baseline.recall

    results: list[tuple[RerankConfig, MetricsReport]] = []
    best_cfg: RerankConfig | None = None
    best_score: float | None = None
    feasible = 0
    scans: list[list[tuple[str, ...]] | None] = [None] * len(problems)
    # points run weight-major: one column per weight
    for _, column in itertools.groupby(configs,
                                       key=lambda c: (c.epsilon, c.alpha)):
        column = list(column)
        # each point's re-weighted problems, made when first needed
        at: list[list[RerankProblem] | None] = [None] * len(column)

        def problem_at(u: int, i: int) -> RerankProblem:
            if at[i] is None:
                at[i] = reweighted(problems, cands, column[i])
            return at[i][u]

        # each user's answers along the column before hint at this one's
        scans = [_scan(len(column), functools.partial(problem_at, u), solved,
                       functools.partial(settled, fronts=fronts[u]),
                       slot_split if cands.kind == "combined" else None,
                       hints)
                 for u, hints in enumerate(scans)]
        for i, pcfg in enumerate(column):
            report = report_at(pcfg, {p.user_id: scan[i]
                                      for p, scan in zip(problems, scans)})
            results.append((pcfg, report))
            if report.recall < floor:
                continue
            feasible += 1
            score = (report.m_dr if cfg.objective_kind == "radiv"
                     else -report.m_fr)
            if best_score is None or score > best_score:
                best_cfg, best_score = pcfg, score

    return TuneResult(best_cfg or baseline_cfg, results, baseline, feasible)


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
