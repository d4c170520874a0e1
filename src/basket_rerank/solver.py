"""Exact per-user solvers for the re-ranking selection problems.

The global programs decompose across users (no cross-user terms or
constraints), so each user's basket is found independently. ``solve`` picks
one exact algorithm per problem shape:

* ``solve_topk_linear`` -- closed form for problems with no fairness term
  that depends on basket position (``_position_dependent``) and either no
  coverage term or at most one pool with slots: every unified problem of
  that kind, and combined ones whose H(theta) split gives every slot to one
  pool. Without coverage, each pool takes its top items by adjusted
  per-item value. With coverage, the gain is separable and concave per
  category, so the pool's largest marginal gains are an optimum
  (``_coverage_cut``).
* ``solve_branch_and_bound`` -- every other problem, in one function:
  coverage with slots in both pools, and position-dependent exposure.
  Candidates are visited in within-basket ranking order (relevance desc, id
  asc), so the t-th included item occupies position t and exposure weights
  are known during the search. A node is pruned by an admissible bound:
  per-pool suffix top-value sums, an every-slot-opens-a-category coverage
  bonus, and a best-coefficient-at-each-position fairness bonus.

Both reject a pool with fewer candidates than slots (``_checked_pools``).
``solve_bruteforce`` enumerates every feasible selection. It is the testing
oracle, kept independent of the two paths above (it scores selections only
through ``objective_value``).

One tie rule holds in all three (``_better``): a selection wins when its
objective is higher by more than ``_TIE_TOL``; otherwise the
lexicographically smaller position-ordered item-id sequence wins.
"""
from __future__ import annotations

import bisect
import itertools
import math
import time
from dataclasses import dataclass, field

from .errors import SolverError, UsageError
from .objective import (RerankProblem, check_slots, indexed_objective_value,
                        objective_value, ranked_selection)

_TIE_TOL = 1e-10
_BRUTE_GUARD = 10 ** 7


@dataclass
class Selection:
    user_id: str
    items: list[str]            # position order (relevance desc, id asc)
    objective: float
    solver_tag: str
    nodes: int = 0
    prunes: int = 0
    wall_time: float = 0.0


@dataclass
class RerankedBaskets:
    baskets: dict[str, Selection]
    warnings: list[str] = field(default_factory=list)

    @property
    def total_objective(self) -> float:
        return sum(s.objective for s in self.baskets.values())

    def as_item_lists(self) -> dict[str, list[str]]:
        return {u: list(s.items) for u, s in self.baskets.items()}


def _better(obj: float, seq: tuple[str, ...], best_obj: float,
            best_seq: tuple[str, ...] | None) -> bool:
    """The tie rule: does (obj, seq) beat the incumbent (best_obj, best_seq)?"""
    if obj > best_obj + _TIE_TOL:
        return True
    return obj >= best_obj - _TIE_TOL and seq < best_seq


def _pools(problem: RerankProblem) -> tuple[list[list[int]], list[int]]:
    """Candidate indices (in candidate order) and slot quota of pool 0 and
    pool 1: unified problems use a single pool; combined ones split by
    repeat flag."""
    if problem.kind == "unified":
        return [list(range(problem.n_candidates)), []], [problem.total_slots, 0]
    pools: list[list[int]] = [[], []]
    for j, rep in enumerate(problem.is_repeat):
        pools[0 if rep else 1].append(j)
    return pools, [problem.repeat_slots, problem.explore_slots]


def _checked_pools(problem: RerankProblem) -> tuple[list[list[int]], list[int]]:
    """``_pools``, with a SolverError for a pool short of candidates."""
    pools, quotas = _pools(problem)
    for p, (pool, quota) in enumerate(zip(pools, quotas)):
        if len(pool) < quota:
            raise SolverError(
                f"user {problem.user_id!r}: pool {p} has {len(pool)} candidates "
                f"for {quota} slots")
    return pools, quotas


def _position_dependent(problem: RerankProblem) -> bool:
    """Does the fairness term depend on basket position?"""
    return problem.alpha_eff != 0.0 and problem.exposure.kind != "uniform"


def _closed_form_applicable(problem: RerankProblem) -> bool:
    """No position-dependent fairness term and, with a coverage term, at
    most one pool with slots."""
    return not _position_dependent(problem) and (
        problem.epsilon_eff == 0.0
        or not (problem.repeat_slots and problem.explore_slots))


def solve_topk_linear(problem: RerankProblem) -> Selection:
    """Closed form for problems without a position-dependent term.

    Without a coverage term each item's contribution is independent of the
    rest of the selection: each pool takes the items above its cut (the
    quota-th largest adjusted value) and leaves one tie group, the items
    within the tolerance of the cut. With a coverage term and one pool with
    slots, ``_coverage_cut`` finds the forced items and per-category tie
    groups. ``_fill_ties`` then fills the slots left by the tie rule, and
    the basket is scored from the chosen candidate indices, which are
    already in basket-position order.
    """
    if not _closed_form_applicable(problem):
        raise UsageError("the closed form requires a fairness term that does "
                         "not depend on position and, with a diversity term, "
                         "at most one pool with slots")
    start = time.perf_counter()
    adj = _adjusted_values(problem)
    chosen: list[int] = []
    pools: list[tuple[int, list[tuple[list[int], int, int]]]] = []
    for pool, quota in zip(*_checked_pools(problem)):
        if not quota:
            continue
        if problem.epsilon_eff:
            forced, groups = _coverage_cut(problem, pool, quota, adj)
        else:
            pool.sort(key=adj.__getitem__, reverse=True)
            cut = adj[pool[quota - 1]]
            lo, hi = quota - 1, quota
            while lo and adj[pool[lo - 1]] <= cut + _TIE_TOL:
                lo -= 1
            while hi < len(pool) and adj[pool[hi]] >= cut - _TIE_TOL:
                hi += 1
            forced = pool[:lo]
            groups = [(sorted(pool[lo:hi]), quota - lo, quota - lo)]
        chosen += forced
        pools.append((quota - len(forced), groups))
    chosen += _fill_ties(problem, chosen, pools)
    chosen.sort()  # candidate order is basket-position order
    selected = [problem.items[j] for j in chosen]
    check_slots(problem, selected, sum(problem.is_repeat[j] for j in chosen))
    obj = indexed_objective_value(problem, chosen)
    return Selection(problem.user_id, selected, obj, "topk_linear",
                     wall_time=time.perf_counter() - start)


def _coverage_cut(problem: RerankProblem, pool: list[int], quota: int,
                  adj: list[float]
                  ) -> tuple[list[int], list[tuple[list[int], int, int]]]:
    """Forced candidates and tie groups of the one pool with slots when
    each newly covered category adds a bonus, epsilon / K.

    Coverage is then a separable concave gain per category: a category's
    marginals are its best adjusted value plus the bonus, then its other
    adjusted values in descending order, and the pool's ``quota`` largest
    marginals are an optimum (greedy for separable concave allocation;
    Ahuja, Magnanti & Orlin, *Network Flows*, 1993, ch. 14).

    With v the quota-th largest marginal, each category gives, in this
    order: its items above v as forced, and its items tied with v as a
    group of 0 to all; else its items tied with v as a group of ``cover`` to
    all; else, if its best item plus the bonus ties with or beats v, its
    items tied with the best as a group of ``cover`` to 1. ``cover`` is 1
    when the best item plus the bonus beats v, 0 otherwise. The order
    matters when the bonus is within the tie tolerance.
    """
    bonus = problem.epsilon_eff / problem.k
    category = problem.category
    pool.sort(key=adj.__getitem__, reverse=True)
    by_cat: dict[str, list[int]] = {}
    marginals: list[float] = []
    for j in pool:
        members = by_cat.get(category[j])
        if members is None:
            by_cat[category[j]] = [j]
            marginals.append(adj[j] + bonus)
        else:
            members.append(j)
            marginals.append(adj[j])
    marginals.sort(reverse=True)
    v = marginals[quota - 1]
    forced: list[int] = []
    groups: list[tuple[list[int], int, int]] = []
    for members in by_cat.values():
        top = adj[members[0]]
        cover = int(top + bonus > v + _TIE_TOL)
        # members are in descending adjusted value: the forced ones, then
        # the ones tied with v, form two leading runs
        above = 0
        while above < len(members) and adj[members[above]] > v + _TIE_TOL:
            above += 1
        near = above
        while near < len(members) and adj[members[near]] >= v - _TIE_TOL:
            near += 1
        if above:
            forced += members[:above]
            if near > above:
                groups.append((sorted(members[above:near]), 0, near - above))
        elif near:
            groups.append((sorted(members[:near]), cover, near))
        elif top + bonus >= v - _TIE_TOL:
            best = 1
            while best < len(members) and adj[members[best]] >= top - _TIE_TOL:
                best += 1
            groups.append((sorted(members[:best]), cover, 1))
    # every group's count is fixed when there is one group, or when the
    # slots left equal the sum of the groups' lo or of their caps
    left = quota - len(forced)
    los = [lo for _, lo, _ in groups]
    caps = [min(hi, len(members)) for members, _, hi in groups]
    if len(groups) == 1:
        counts = [left]
    elif left == sum(los):
        counts = los
    elif left == sum(caps):
        counts = caps
    else:
        return forced, groups
    return forced, [(members, c, c)
                    for (members, _, _), c in zip(groups, counts)]


def _fill_ties(problem: RerankProblem, forced: list[int],
               pools: list[tuple[int, list[tuple[list[int], int, int]]]]
               ) -> list[int]:
    """Choose each pool's ``total`` candidates from its tie groups, each
    group (candidate indices in candidate order, lo, hi) giving between lo
    and hi of them, so that, with the ``forced`` ones, the position-ordered
    id sequence is the smallest."""
    rel = problem.relevance
    if all(lo == hi and (lo == len(members) or not lo
                         or rel[members[0]] == rel[members[-1]])
           for _, groups in pools for members, lo, hi in groups):
        # the items left out of each group share one relevance: they fill
        # one block of positions in id order, so the first ``need`` are the
        # smallest ids
        return [j for _, groups in pools for members, need, _ in groups
                for j in members[:need]]
    # Fill positions in ranking order, each with the smallest id that keeps
    # a completion: taking candidate j skips every candidate before it, so
    # with cnt[h] group h's members from j on, j is feasible when every
    # group can still reach its lo (lo <= cnt) and every pool's slots left
    # fit in the sum of min(hi, cnt). That test does not depend on j's
    # group and fails from some j on, so one walk from the cursor finds
    # every feasible option. A member of a group already at its lo also
    # needs a slot beyond the pool's summed lo.
    items, n = problem.items, problem.n_candidates
    members = [m for _, groups in pools for m, _, _ in groups]
    pool_of = [p for p, (_, groups) in enumerate(pools) for _ in groups]
    lo = [g_lo for _, groups in pools for _, g_lo, _ in groups]
    hi = [g_hi for _, groups in pools for _, _, g_hi in groups]
    left = [total for total, _ in pools]
    group_of = {j: g for g, m in enumerate(members) for j in m}
    remaining = [len(m) for m in members]  # members from the cursor on
    forced = sorted(forced)
    taken: list[int] = []
    cursor = next_forced = 0
    while any(left):
        stop = forced[next_forced] if next_forced < len(forced) else n
        cnt = remaining[:]
        room = [0] * len(left)
        slack = left[:]
        for g, p in enumerate(pool_of):
            room[p] += min(hi[g], cnt[g])
            slack[p] -= max(lo[g], 0)
        short = sum(lo[g] > cnt[g] for g in range(len(cnt)))
        best = -1
        for j in range(cursor, min(stop + 1, n)):
            if short or any(r < t for r, t in zip(room, left)):
                break
            g = group_of.get(j, -1)
            if j == stop or (g >= 0 and hi[g] and left[pool_of[g]]
                             and (lo[g] > 0 or slack[pool_of[g]])):
                if best < 0 or items[j] < items[best]:
                    best = j
            if g >= 0:
                if cnt[g] <= hi[g]:
                    room[pool_of[g]] -= 1
                cnt[g] -= 1
                short += cnt[g] == lo[g] - 1
        for j in range(cursor, best + 1):
            if j in group_of:
                remaining[group_of[j]] -= 1
        if best == stop:
            next_forced += 1
        else:
            g = group_of[best]
            lo[g] -= 1
            hi[g] -= 1
            left[pool_of[g]] -= 1
            taken.append(best)
        cursor = best + 1
    return taken


def _adjusted_values(problem: RerankProblem) -> list[float]:
    """Per-item position-independent contribution, with the fairness term
    unless it depends on position (uniform exposure: e(p) == 1)."""
    rel_scale, alpha = problem.rel_scale, problem.alpha_eff
    repeat_term = problem.signed_lambda / problem.k
    pd = _position_dependent(problem)
    out = []
    for rel, rep, coef in zip(problem.relevance, problem.is_repeat,
                              problem.fairness_coef):
        v = rel_scale * rel
        if rep:
            v += repeat_term
        if not pd:
            v -= alpha * coef
        out.append(v)
    return out


def solve_branch_and_bound(problem: RerankProblem) -> Selection:
    """Depth-first exact search over candidates in ranking order.

    The search starts from no incumbent; taking candidates first makes its
    first leaf the relevance-order basket. A node is pruned when its value
    so far plus an admissible bound on the rest falls below the incumbent.
    """
    start = time.perf_counter()
    pools, quotas = _checked_pools(problem)
    n, items = problem.n_candidates, problem.items
    pool = [0] * n
    for j in pools[1]:
        pool[j] = 1
    pd = _position_dependent(problem)
    adj = _adjusted_values(problem)
    coef_term = ([-problem.alpha_eff * c for c in problem.fairness_coef]
                 if pd else [0.0] * n)
    eps_k = problem.epsilon_eff / problem.k
    cat_ids: dict[str, int] = {}
    catbit = [1 << cat_ids.setdefault(c, len(cat_ids)) for c in problem.category]
    eweights = problem.exposure.weights(sum(quotas))
    epre = list(itertools.accumulate(eweights, initial=0.0))

    # Suffix structures indexed by candidate position. top[p][j] lists the
    # sums of pool p's best adjusted values from candidate j on, for 0 up to
    # min(candidates left, quota) items; its length bounds the slots p can
    # still fill. Candidate j rebuilds only its own pool's list.
    catmask = [0] * (n + 1)
    max_coef = [-math.inf] * (n + 1)
    top = [[[0.0]] * (n + 1) for _ in (0, 1)]
    neg_sorted: list[list[float]] = [[], []]  # negated values, ascending
    for j in range(n - 1, -1, -1):
        p = pool[j]
        catmask[j] = catmask[j + 1] | catbit[j]
        max_coef[j] = max(max_coef[j + 1], coef_term[j])
        bisect.insort(neg_sorted[p], -adj[j])
        sums = [0.0]
        for v in neg_sorted[p][:quotas[p]]:
            sums.append(sums[-1] - v)
        top[p][j] = sums
        top[1 - p][j] = top[1 - p][j + 1]

    best_obj = -math.inf
    best_seq: tuple[str, ...] = ()
    nodes = prunes = 0
    chosen: list[str] = []

    def dfs(idx: int, t: int, rem0: int, rem1: int, covered: int,
            acc: float) -> None:
        nonlocal best_obj, best_seq, nodes, prunes
        nodes += 1
        if rem0 == 0 and rem1 == 0:
            seq = tuple(chosen)
            if _better(acc, seq, best_obj, best_seq):
                best_obj, best_seq = acc, seq
            return
        top0, top1 = top[0][idx], top[1][idx]
        if len(top0) <= rem0 or len(top1) <= rem1:
            return  # a pool has too few candidates left
        # bound: each pool's best values, a new category per slot and the
        # best fairness coefficient at every remaining position
        rem = rem0 + rem1
        bound = top0[rem0] + top1[rem1]
        if eps_k:
            bound += eps_k * min(rem, (catmask[idx] & ~covered).bit_count())
        if pd:
            bound += max_coef[idx] * (epre[t + rem] - epre[t])
        if acc + bound < best_obj - _TIE_TOL:
            prunes += 1
            return
        p = pool[idx]
        if (rem0 if p == 0 else rem1) > 0:
            gain = adj[idx]
            if eps_k and not (covered & catbit[idx]):
                gain += eps_k
            if pd:
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
                     nodes=nodes, prunes=prunes,
                     wall_time=time.perf_counter() - start)


def _combination_count(problem: RerankProblem) -> int:
    total = 1
    for pool, quota in zip(*_pools(problem)):
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
    pools, quotas = _pools(problem)

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
        if _better(obj, seq, best_obj, best_seq):
            best_obj, best_seq = obj, seq
    if best_seq is None:
        raise SolverError(f"user {problem.user_id!r}: no feasible selection")
    return Selection(problem.user_id, list(best_seq), best_obj, "brute_force",
                     nodes=count,
                     wall_time=time.perf_counter() - start)


def solve(problem: RerankProblem) -> Selection:
    """The user's exact basket: the closed form where it applies
    (``_closed_form_applicable``), branch-and-bound otherwise."""
    if _closed_form_applicable(problem):
        return solve_topk_linear(problem)
    return solve_branch_and_bound(problem)


def rerank_all(problems: list[RerankProblem], skip_errors: bool = False
               ) -> RerankedBaskets:
    """Solve every user independently, in user-id order. A failed solve
    raises SolverError naming the user, or with ``skip_errors`` becomes a
    warning and the user is left out."""
    baskets: dict[str, Selection] = {}
    warnings: list[str] = []
    for problem in sorted(problems, key=lambda p: p.user_id):
        try:
            baskets[problem.user_id] = solve(problem)
        except Exception as exc:  # noqa: BLE001 - reported per user
            msg = f"user {problem.user_id!r}: {exc}"
            if not skip_errors:
                raise SolverError(msg) from exc
            warnings.append(msg)
    return RerankedBaskets(baskets, warnings=warnings)
