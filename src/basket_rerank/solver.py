"""Exact per-user solvers for the re-ranking selection problems.

The global programs decompose across users (no cross-user terms or
constraints), so each user's basket is found independently:

* ``solve_topk_linear`` -- closed-form top-K by adjusted per-item value,
  valid when the objective is additive per item (no coverage term and no
  position-dependent fairness).
* ``solve_branch_and_bound`` -- general exact path. Candidates are visited
  in within-basket ranking order (relevance desc, id asc), so the t-th
  included item occupies position t and exposure weights are known during
  the search. Pruning uses an admissible bound built from per-pool suffix
  top-value sums, an every-slot-opens-a-category coverage bonus, and a
  best-coefficient-at-each-position fairness bonus.
* ``solve_bruteforce`` -- enumeration oracle, kept deliberately independent
  of the branch-and-bound path (it scores selections only through
  ``objective_value``).
* ``solve_greedy`` -- marginal-gain greedy plus pairwise swap local search;
  not exact, only used behind an explicit engine flag.

Equal-objective ties are broken by the lexicographically smallest
position-ordered item-id sequence in every solver that claims optimality.
"""
from __future__ import annotations

import bisect
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .errors import SolverError, UsageError
from .objective import RerankProblem, objective_value, ranked_selection

_TIE_TOL = 1e-10
_BRUTE_GUARD = 10 ** 7


@dataclass
class Selection:
    user_id: str
    items: list[str]            # position order (relevance desc, id asc)
    objective: float
    solver_tag: str
    optimal: bool
    nodes: int = 0
    prunes: int = 0
    wall_time: float = 0.0
    bound_gap: float = 0.0


@dataclass
class RerankedBaskets:
    baskets: dict[str, Selection]
    config: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    @property
    def total_objective(self) -> float:
        return sum(s.objective for s in self.baskets.values())

    def as_item_lists(self) -> dict[str, list[str]]:
        return {u: list(s.items) for u, s in self.baskets.items()}


def _pools(problem: RerankProblem) -> list[list[int]]:
    """Candidate indices of pool 0 and pool 1, in candidate order: unified
    problems use a single pool; combined ones split by repeat flag."""
    if problem.kind == "unified":
        return [list(range(problem.n_candidates)), []]
    pools: list[list[int]] = [[], []]
    for j, rep in enumerate(problem.is_repeat):
        pools[0 if rep else 1].append(j)
    return pools


def _quotas(problem: RerankProblem) -> list[int]:
    if problem.kind == "unified":
        return [problem.total_slots, 0]
    return [problem.repeat_slots, problem.explore_slots]


def solve_topk_linear(problem: RerankProblem) -> Selection:
    """Exact shortcut for purely additive objectives.

    Requires no diversity term and either uniform exposure or no fairness
    term, so each item's contribution is independent of the rest of the
    selection.
    """
    if problem.epsilon_eff != 0.0:
        raise UsageError("linear solver requires a zero diversity weight")
    if problem.alpha_eff != 0.0 and problem.exposure.kind != "uniform":
        raise UsageError("linear solver requires uniform exposure when the "
                         "fairness term is active")
    start = time.perf_counter()
    adj = _adjusted_values(problem, fold_fairness=True)
    items = problem.items
    chosen: list[int] = []
    for p, (pool, quota) in enumerate(zip(_pools(problem), _quotas(problem))):
        if len(pool) < quota:
            raise SolverError(
                f"user {problem.user_id!r}: pool {p} has {len(pool)} candidates "
                f"for {quota} slots")
        pool.sort(key=lambda j: (-adj[j], items[j]))
        chosen.extend(pool[:quota])
    # basket positions: relevance desc, id asc, as in ranked_selection
    chosen.sort(key=lambda j: (-problem.relevance[j], items[j]))
    selected = [items[j] for j in chosen]
    obj = objective_value(problem, selected)
    return Selection(problem.user_id, selected, obj, "topk_linear", True,
                     wall_time=time.perf_counter() - start)


def _adjusted_values(problem: RerankProblem, fold_fairness: bool) -> list[float]:
    """Per-item position-independent contribution."""
    rel_scale, alpha = problem.rel_scale, problem.alpha_eff
    repeat_term = problem.signed_lambda / problem.k
    out = []
    for rel, rep, coef in zip(problem.relevance, problem.is_repeat,
                              problem.fairness_coef):
        v = rel_scale * rel
        if rep:
            v += repeat_term
        if fold_fairness:
            # only valid under uniform exposure (e(p) == 1)
            v -= alpha * coef
        out.append(v)
    return out


class _Instance:
    """Precomputed arrays and bounds shared by the exact solvers."""

    def __init__(self, problem: RerankProblem):
        self.problem = problem
        n = problem.n_candidates
        self.n = n
        self.quotas = _quotas(problem)
        self.total = sum(self.quotas)
        if self.total > n:
            raise SolverError(
                f"user {problem.user_id!r}: {self.total} slots but only "
                f"{n} candidates")
        self.pool = [0] * n
        for j in _pools(problem)[1]:
            self.pool[j] = 1
        # position-dependent fairness only when exposure varies with rank
        self.pd = problem.alpha_eff != 0.0 and problem.exposure.kind != "uniform"
        self.adj = _adjusted_values(problem, fold_fairness=not self.pd)
        self.coef_term = [-problem.alpha_eff * c for c in problem.fairness_coef] \
            if self.pd else [0.0] * n
        self.eps_k = problem.epsilon_eff / problem.k

        cat_ids: dict[str, int] = {}
        self.catbit = []
        for c in problem.category:
            if c not in cat_ids:
                cat_ids[c] = len(cat_ids)
            self.catbit.append(1 << cat_ids[c])

        self.eweights = problem.exposure.weights(self.total) if self.total else []
        self.epre = [0.0]
        for w in self.eweights:
            self.epre.append(self.epre[-1] + w)

        # suffix structures indexed by candidate position
        self.cnt = [[0] * (n + 1), [0] * (n + 1)]
        self.catmask = [0] * (n + 1)
        self.max_coef = [-math.inf] * (n + 1)
        self.topsum = [[None] * (n + 1), [None] * (n + 1)]
        sorted_adj: list[list[float]] = [[], []]  # descending per pool
        for p in (0, 1):
            self.topsum[p][n] = [0.0]
        for j in range(n - 1, -1, -1):
            for p in (0, 1):
                self.cnt[p][j] = self.cnt[p][j + 1]
            p = self.pool[j]
            self.cnt[p][j] += 1
            self.catmask[j] = self.catmask[j + 1] | self.catbit[j]
            self.max_coef[j] = max(self.max_coef[j + 1], self.coef_term[j])
            bisect.insort(sorted_adj[p], -self.adj[j])
            for q in (0, 1):
                sums = [0.0]
                limit = min(len(sorted_adj[q]), self.quotas[q])
                for v in sorted_adj[q][:limit]:
                    sums.append(sums[-1] - v)
                self.topsum[q][j] = sums
        for p in (0, 1):
            if self.cnt[p][0] < self.quotas[p]:
                raise SolverError(
                    f"user {problem.user_id!r}: pool {p} has "
                    f"{self.cnt[p][0]} candidates for {self.quotas[p]} slots")

    def upper_bound(self, idx: int, t: int, rem0: int, rem1: int,
                    covered: int) -> float:
        ub = self.topsum[0][idx][rem0] + self.topsum[1][idx][rem1]
        rem = rem0 + rem1
        if self.eps_k:
            new_cats = (self.catmask[idx] & ~covered).bit_count()
            ub += self.eps_k * min(rem, new_cats)
        if self.pd and rem:
            ub += self.max_coef[idx] * (self.epre[t + rem] - self.epre[t])
        return ub


def solve_branch_and_bound(problem: RerankProblem) -> Selection:
    """Depth-first exact search over candidates in ranking order."""
    start = time.perf_counter()
    inst = _Instance(problem)
    n, quotas = inst.n, inst.quotas

    best_items, best_obj = _greedy_seed(problem, inst)
    best_seq = tuple(best_items)
    nodes = 0
    prunes = 0

    adj, pool, catbit = inst.adj, inst.pool, inst.catbit
    coef_term, eweights, eps_k = inst.coef_term, inst.eweights, inst.eps_k
    items = problem.items
    chosen: list[str] = []

    def dfs(idx: int, t: int, rem0: int, rem1: int, covered: int,
            acc: float) -> None:
        nonlocal best_obj, best_seq, nodes, prunes
        nodes += 1
        if rem0 == 0 and rem1 == 0:
            seq = tuple(chosen)
            if acc > best_obj + _TIE_TOL or (
                    acc >= best_obj - _TIE_TOL and seq < best_seq):
                best_obj = max(best_obj, acc)
                best_seq = seq
            return
        if inst.cnt[0][idx] < rem0 or inst.cnt[1][idx] < rem1:
            return
        ub = acc + inst.upper_bound(idx, t, rem0, rem1, covered)
        if ub < best_obj - _TIE_TOL:
            prunes += 1
            return
        p = pool[idx]
        if (rem0 if p == 0 else rem1) > 0:
            gain = adj[idx]
            if eps_k and not (covered & catbit[idx]):
                gain += eps_k
            if inst.pd:
                gain += coef_term[idx] * eweights[t]
            chosen.append(items[idx])
            dfs(idx + 1, t + 1, rem0 - (p == 0), rem1 - (p == 1),
                covered | catbit[idx], acc + gain)
            chosen.pop()
        dfs(idx + 1, t, rem0, rem1, covered, acc)

    dfs(0, 0, quotas[0], quotas[1], 0, 0.0)
    final_items = list(best_seq)
    obj = objective_value(problem, final_items)
    return Selection(problem.user_id, final_items, obj, "branch_and_bound",
                     True, nodes=nodes, prunes=prunes,
                     wall_time=time.perf_counter() - start)


def _greedy_seed(problem: RerankProblem, inst: _Instance
                 ) -> tuple[list[str], float]:
    """Two greedy feasible selections; the better one seeds the incumbent."""
    n, quotas = inst.n, inst.quotas

    # relevance-order greedy: take candidates in ranking order while feasible
    rem = list(quotas)
    take: list[int] = []
    for j in range(n):
        p = inst.pool[j]
        if rem[p] > 0:
            take.append(j)
            rem[p] -= 1
        if rem[0] == 0 and rem[1] == 0:
            break
    seeds = [take]

    # marginal-gain greedy (positions estimated by pick order)
    rem = list(quotas)
    covered = 0
    take2: list[int] = []
    used = [False] * n
    for t in range(inst.total):
        best_j, best_gain = -1, -math.inf
        for j in range(n):
            if used[j] or rem[inst.pool[j]] == 0:
                continue
            gain = inst.adj[j]
            if inst.eps_k and not (covered & inst.catbit[j]):
                gain += inst.eps_k
            if inst.pd:
                gain += inst.coef_term[j] * inst.eweights[t]
            if gain > best_gain:
                best_j, best_gain = j, gain
        if best_j < 0:
            break
        used[best_j] = True
        take2.append(best_j)
        rem[inst.pool[best_j]] -= 1
        covered |= inst.catbit[best_j]
    if rem[0] == 0 and rem[1] == 0:
        seeds.append(sorted(take2))

    best_items: list[str] = []
    best_obj = -math.inf
    for seed in seeds:
        sel = ranked_selection(problem, [problem.items[j] for j in seed])
        obj = objective_value(problem, sel)
        if obj > best_obj:
            best_items, best_obj = sel, obj
    return best_items, best_obj


def _combination_count(problem: RerankProblem) -> int:
    total = 1
    for pool, quota in zip(_pools(problem), _quotas(problem)):
        total *= math.comb(len(pool), quota)
    return total


def solve_bruteforce(problem: RerankProblem) -> Selection:
    """Enumerate every feasible selection; testing oracle."""
    from itertools import combinations, product

    if _combination_count(problem) > _BRUTE_GUARD:
        raise SolverError(
            f"user {problem.user_id!r}: enumeration too large; use "
            "branch_and_bound")
    start = time.perf_counter()
    quotas = _quotas(problem)
    pools = _pools(problem)

    best_obj = -math.inf
    best_seq: tuple[str, ...] | None = None
    count = 0
    for picks in product(combinations(pools[0], quotas[0]),
                         combinations(pools[1], quotas[1])):
        sel = [problem.items[j] for pick in picks for j in pick]
        ranked = ranked_selection(problem, sel)
        obj = objective_value(problem, ranked)
        seq = tuple(ranked)
        count += 1
        if obj > best_obj or (obj == best_obj and seq < best_seq):
            best_obj, best_seq = obj, seq
    if best_seq is None:
        raise SolverError(f"user {problem.user_id!r}: no feasible selection")
    return Selection(problem.user_id, list(best_seq), best_obj, "brute_force",
                     True, nodes=count,
                     wall_time=time.perf_counter() - start)


def solve_combined(problem: RerankProblem) -> Selection:
    """Exact solve of a two-pool (repeat/explore slot) problem."""
    if problem.kind != "combined":
        raise UsageError("solve_combined needs a combined problem")
    return solve_branch_and_bound(problem)


def solve_greedy(problem: RerankProblem) -> Selection:
    """Marginal-gain greedy plus pairwise swap local search. Not exact:
    reports the root bound gap and optimal=False. Stress-scale use only."""
    start = time.perf_counter()
    inst = _Instance(problem)
    items, obj = _greedy_seed(problem, inst)

    improved = True
    current = list(items)
    while improved:
        improved = False
        in_set = set(current)
        for out_item in list(current):
            j_out = problem.items.index(out_item)
            for j_in in range(inst.n):
                cand = problem.items[j_in]
                if cand in in_set or inst.pool[j_in] != inst.pool[j_out]:
                    continue
                trial = [cand if x == out_item else x for x in current]
                trial_obj = objective_value(problem, trial)
                if trial_obj > obj + _TIE_TOL:
                    current, obj = ranked_selection(problem, trial), trial_obj
                    in_set = set(current)
                    improved = True
                    break
            if improved:
                break
    root_ub = inst.upper_bound(0, 0, inst.quotas[0], inst.quotas[1], 0)
    return Selection(problem.user_id, current, obj, "greedy_fallback", False,
                     bound_gap=max(0.0, root_ub - obj),
                     wall_time=time.perf_counter() - start)


_ENGINES = {
    "linear": solve_topk_linear,
    "bnb": solve_branch_and_bound,
    "bruteforce": solve_bruteforce,
    "greedy": solve_greedy,
}


def _linear_applicable(problem: RerankProblem) -> bool:
    return problem.epsilon_eff == 0.0 and (
        problem.alpha_eff == 0.0 or problem.exposure.kind == "uniform")


def solve(problem: RerankProblem, engine: str = "auto") -> Selection:
    if engine == "auto":
        engine = "linear" if _linear_applicable(problem) else "bnb"
    try:
        fn = _ENGINES[engine]
    except KeyError:
        raise UsageError(f"unknown engine: {engine!r}") from None
    return fn(problem)


def rerank_all(problems: list[RerankProblem], engine: str = "auto",
               skip_errors: bool = False, threads: int | None = None,
               config_snapshot: dict | None = None) -> RerankedBaskets:
    """Solve every user independently; deterministic regardless of
    scheduling (results reduced in user-id order)."""
    if threads is None:
        threads = int(os.environ.get("BASKET_RERANK_THREADS", "1"))
    ordered = sorted(problems, key=lambda p: p.user_id)
    baskets: dict[str, Selection] = {}
    warnings: list[str] = []

    def handle(problem: RerankProblem, result: Selection | Exception) -> None:
        if isinstance(result, Exception):
            msg = f"user {problem.user_id!r}: {result}"
            if skip_errors:
                warnings.append(msg)
            else:
                raise SolverError(msg) from result
        else:
            baskets[problem.user_id] = result

    if threads > 1 and len(ordered) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_solve_safe, ordered, [engine] * len(ordered)))
        for problem, result in zip(ordered, results):
            handle(problem, result)
    else:
        for problem in ordered:
            handle(problem, _solve_safe(problem, engine))
    return RerankedBaskets(baskets, config=dict(config_snapshot or {}),
                           warnings=warnings)


def _solve_safe(problem: RerankProblem, engine: str) -> Selection | Exception:
    try:
        return solve(problem, engine)
    except Exception as exc:  # noqa: BLE001 - reported per user by caller
        return exc
