"""Exact per-user solvers for the re-ranking selection problems.

The global programs decompose across users (no cross-user terms or
constraints), so each user's basket is found independently. ``solve`` picks
one exact algorithm per problem shape:

* ``solve_topk_linear`` -- closed form for problems with no fairness term
  that depends on basket position (``_position_dependent``) and either no
  coverage term or at most one pool with a choice (``_one_choice``): every
  unified problem of that kind, and combined ones whose H(theta) split
  gives every slot to one pool or gives a pool as many slots as candidates.
  Such a pool is taken whole. Without coverage, each pool takes its top
  items by adjusted per-item value. With coverage, the gain is separable
  and concave per category once the categories of a pool taken whole count
  as covered, so the pool with a choice takes its largest marginal gains
  (``_coverage_cut``). Items tied at the cut are chosen by the tie rule
  (``_fill_ties``): the smallest ids when the choice fills one block of
  positions, else one incremental walk per basket position over the tied
  and forced candidates only, whatever N.
* ``solve_exposure_dp`` -- a ranking-order DP for the problems left with
  no coverage term and at most one pool with slots: position-dependent
  exposure in every unified problem, and in combined ones whose H(theta)
  split gives every slot to one pool. It runs over a prefix of the pool's
  candidates that grows until a bound shows that no basket reaching past it
  can tie the optimum.
* ``solve_branch_and_bound`` -- every problem with a coverage term and a
  choice in both pools, or with a position-dependent term and slots in both
  pools. Candidates are visited in within-basket ranking order (relevance
  desc, id asc), so the t-th included item occupies position t and
  exposure weights are known during the search. A node is pruned by an
  admissible bound: per-pool suffix top-value sums, an
  every-slot-opens-a-category coverage bonus, and a
  best-coefficient-at-each-position fairness bonus.

All three reject a pool with fewer candidates than slots
(``_checked_pools``). ``solve_bruteforce`` enumerates every feasible
selection. It is the testing oracle, kept independent of the paths above
(it scores selections only through ``objective_value``).

One tie rule holds in all four (``_better``): a selection wins when its
objective is higher by more than ``_TIE_TOL``; otherwise the
lexicographically smaller position-ordered item-id sequence wins.
``rerank_all`` names the user in each solve error; a user that it leaves
out is reported through ``warnings.warn``.
"""
from __future__ import annotations

import bisect
import itertools
import math
import time
import warnings
from dataclasses import dataclass

from .errors import SolverError, UsageError
from .objective import (RerankProblem, check_slots, indexed_objective_value,
                        objective_value, ranked_selection)

_TIE_TOL = 1e-10
_BRUTE_GUARD = 10 ** 7
# solve_exposure_dp's first prefix, in multiples of K, and its growth factor
_DP_START = 1.5
_DP_GROWTH = 1.5


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
                f"pool {p} has {len(pool)} candidates for {quota} slots")
    return pools, quotas


def _position_dependent(problem: RerankProblem) -> bool:
    """Does the fairness term depend on basket position?"""
    return problem.alpha_eff != 0.0 and problem.exposure.kind != "uniform"


def _one_pool(problem: RerankProblem) -> bool:
    """Does at most one pool have slots?"""
    return not (problem.repeat_slots and problem.explore_slots)


def _one_choice(problem: RerankProblem) -> bool:
    """Does at most one pool have a choice, more candidates than slots? A
    pool with as many slots as candidates is taken whole."""
    if not (problem.repeat_slots and problem.explore_slots):
        return True
    n_repeat = sum(problem.is_repeat)
    return (n_repeat <= problem.repeat_slots
            or problem.n_candidates - n_repeat <= problem.explore_slots)


def _closed_form_applicable(problem: RerankProblem) -> bool:
    """No position-dependent fairness term and, with a coverage term, at
    most one pool with a choice."""
    return not _position_dependent(problem) and (
        problem.epsilon_eff == 0.0 or _one_choice(problem))


def solve_topk_linear(problem: RerankProblem) -> Selection:
    """Closed form for problems without a position-dependent term.

    Without a coverage term each item's contribution is independent of the
    rest of the selection: each pool takes the items above its cut (the
    quota-th largest adjusted value) and leaves one tie group, the items
    within the tolerance of the cut. A pool with as many slots as
    candidates is taken whole, as forced items. With a coverage term and
    one pool with a choice, ``_coverage_cut`` finds that pool's forced items
    and per-category tie groups; the categories of a pool taken whole are
    already covered. ``_fill_ties`` then fills the slots left by the tie
    rule, and the basket is scored from the chosen candidate indices, which
    are already in basket-position order.
    """
    if not _closed_form_applicable(problem):
        raise UsageError("the closed form requires a fairness term that does "
                         "not depend on position and, with a diversity term, "
                         "at most one pool with a choice (more candidates "
                         "than slots)")
    start = time.perf_counter()
    adj = _adjusted_values(problem)
    chosen: list[int] = []
    choice: list[tuple[list[int], int]] = []
    for pool, quota in zip(*_checked_pools(problem)):
        if quota == len(pool):
            chosen += pool
        elif quota:
            choice.append((pool, quota))
    pools: list[tuple[int, list[tuple[list[int], int, int]]]] = []
    for pool, quota in choice:
        if problem.epsilon_eff:
            # the one pool with a choice: ``chosen`` is a pool taken whole,
            # or empty
            forced, groups = _coverage_cut(problem, pool, quota, adj, chosen)
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
                  adj: list[float], taken: list[int]
                  ) -> tuple[list[int], list[tuple[list[int], int, int]]]:
    """Forced candidates and tie groups of the one pool with a choice when
    each newly covered category adds a bonus, epsilon / K. ``taken`` holds
    the candidates of a pool taken whole: their categories are already
    covered, so their items here earn no bonus.

    Coverage is then a separable concave gain per category: a category's
    marginals are its best adjusted value plus the bonus (none when
    covered), then its other adjusted values in descending order, and the
    pool's ``quota`` largest marginals are an optimum (greedy for separable
    concave allocation; Ahuja, Magnanti & Orlin, *Network Flows*, 1993, ch.
    14). With W taken whole and S chosen here, f(W + S) is f(W) plus
    S's adjusted values plus the bonus of each category of S outside W.

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
    # covered categories come first, with no members yet
    by_cat: dict[str, list[int]] = ({category[j]: [] for j in taken}
                                    if taken else {})
    covered = len(by_cat)
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
    v_hi, v_lo = v + _TIE_TOL, v - _TIE_TOL
    forced: list[int] = []
    groups: list[tuple[list[int], int, int]] = []
    # (categories' members, the bonus of each category's best item)
    parts = [(by_cat.values(), bonus)]
    if covered:
        lists = list(by_cat.values())
        parts = [([m for m in lists[:covered] if m], 0.0),
                 (lists[covered:], bonus)]
    for cats, b in parts:
        for members in cats:
            top = adj[members[0]]
            cover = int(top + b > v_hi)
            # members are in descending adjusted value: the forced ones, then
            # the ones tied with v, form two leading runs
            above = 0
            while above < len(members) and adj[members[above]] > v_hi:
                above += 1
            near = above
            while near < len(members) and adj[members[near]] >= v_lo:
                near += 1
            if above:
                forced += members[:above]
                if near > above:
                    groups.append((sorted(members[above:near]), 0,
                                   near - above))
            elif near:
                groups.append((sorted(members[:near]), cover, near))
            elif top + b >= v_lo:
                best = 1
                while (best < len(members)
                       and adj[members[best]] >= top - _TIE_TOL):
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
    id sequence is the smallest.

    When every group's count is fixed and the members a group leaves out
    share one relevance, the first ids of each group are the answer.
    Otherwise ``_walk_ties`` fills the positions in order; a position costs
    one step per group member or forced candidate it walks past.
    """
    rel = problem.relevance
    if all(lo == hi and (lo == len(members) or not lo
                         or rel[members[0]] == rel[members[-1]])
           for _, groups in pools for members, lo, hi in groups):
        # the items left out of each group share one relevance: they fill
        # one block of positions in id order, so the first ``need`` are the
        # smallest ids
        return [j for _, groups in pools for members, need, _ in groups
                for j in members[:need]]
    return _walk_ties(problem, forced, pools)


def _walk_ties(problem: RerankProblem, forced: list[int],
               pools: list[tuple[int, list[tuple[list[int], int, int]]]]
               ) -> list[int]:
    """``_fill_ties``'s general path: fill positions in candidate order,
    each with the smallest id that keeps a completion (the groups must
    admit one).

    Taking candidate j skips every group member before it. With ``cnt[g]``
    group g's members from j on, a completion exists when no group is short
    of its lo (lo <= cnt) and each pool's slots left fit in its room, the
    sum of min(hi, cnt). That test does not depend on j's group and fails
    from some j on, so one walk from the cursor finds every option: each
    member whose group still has a slot (hi > 0) in a pool with slots left
    -- a member of a group at its lo also needs the pool's slack, a slot
    beyond its summed lo -- and the next forced candidate, where the walk
    ends.

    The walk visits group members and forced candidates only, keeping
    ``cnt``, each pool's room less its slots left (``spare``) and the count
    of short groups up to date as it passes each member. It then undoes its
    passes from the chosen candidate on and takes it, which lowers the
    group's lo, hi and members left and the pool's room and slots left by
    one each. A position costs one step per member or forced candidate
    walked past, whatever the number of candidates outside the groups.
    """
    items = problem.items
    lo: list[int] = []
    hi: list[int] = []
    cnt: list[int] = []
    pool_of: list[int] = []
    left = [total for total, _ in pools]
    spare = [-total for total in left]
    slack = left[:]
    walk = [(j, -1) for j in forced]  # (candidate, group), -1 if forced
    for p, (_, groups) in enumerate(pools):
        for members, g_lo, g_hi in groups:
            walk += [(j, len(lo)) for j in members]
            lo.append(g_lo)
            hi.append(g_hi)
            cnt.append(len(members))
            pool_of.append(p)
            spare[p] += min(g_hi, len(members))
            slack[p] -= max(g_lo, 0)
    walk.sort()
    short = sum(g_lo > c for g_lo, c in zip(lo, cnt))
    taken: list[int] = []
    cursor = 0
    while any(left):
        best = -1
        for i in range(cursor, len(walk)):
            j, g = walk[i]
            if g < 0:
                if best < 0 or items[j] < items[walk[best][0]]:
                    best = i
                break
            p = pool_of[g]
            if (hi[g] and left[p] and (lo[g] > 0 or slack[p])
                    and (best < 0 or items[j] < items[walk[best][0]])):
                best = i
            if cnt[g] <= hi[g]:
                spare[p] -= 1
            cnt[g] -= 1
            short += cnt[g] == lo[g] - 1
            if short or spare[p] < 0:
                break
        # undo the passes from the chosen candidate on, then take it
        for _, g in walk[best:i + 1]:
            if g >= 0:
                short -= cnt[g] == lo[g] - 1
                cnt[g] += 1
                if cnt[g] <= hi[g]:
                    spare[pool_of[g]] += 1
        j, g = walk[best]
        if g >= 0:
            p = pool_of[g]
            if lo[g] <= 0:
                slack[p] -= 1
            cnt[g] -= 1
            lo[g] -= 1
            hi[g] -= 1
            left[p] -= 1
            taken.append(j)
        cursor = best + 1
    return taken


def _adjusted_values(problem: RerankProblem) -> list[float]:
    """Per-item position-independent contribution, with the fairness term
    unless it depends on position (uniform exposure: e(p) == 1)."""
    rel_scale, alpha = problem.rel_scale, problem.alpha_eff
    repeat_term = problem.signed_lambda / problem.k
    if _position_dependent(problem):
        return [rel_scale * rel + repeat_term if rep else rel_scale * rel
                for rel, rep in zip(problem.relevance, problem.is_repeat)]
    return [(rel_scale * rel + repeat_term if rep else rel_scale * rel)
            - alpha * coef
            for rel, rep, coef in zip(problem.relevance, problem.is_repeat,
                                      problem.fairness_coef)]


def solve_exposure_dp(problem: RerankProblem) -> Selection:
    """Ranking-order DP for problems with position-weighted exposure, no
    coverage term and at most one pool with slots.

    The slotted pool's candidates are taken in ranking order, which is
    basket-position order, so the t-th item taken sits at position t and
    adds ``adj_j - alpha * coef_j * e(t)``. ``f[t]`` is the best value of t
    items from the first M candidates; it grows candidate by candidate. M
    starts near ``_DP_START * K`` and grows by ``_DP_GROWTH`` until no
    basket with t < K items from the prefix can come within the tie
    tolerance of the optimum: f[t], plus the K - t largest adjusted values
    after M, plus the largest fairness gain after M times the exposure
    weight left, falls short of ``f[K]`` by more than ``_TIE_TOL``. Every
    basket the tie rule may choose then lies in the prefix. A backward table
    over the prefix gives each candidate's best completion, and positions
    are filled in order, each with the smallest id whose best completion
    still reaches the optimum within the tolerance. ``nodes`` counts the
    candidates in the certified prefix.
    """
    if (problem.epsilon_eff or not _one_pool(problem)
            or not _position_dependent(problem)):
        raise UsageError("the exposure DP requires a position-dependent "
                         "fairness term, no diversity term and at most one "
                         "pool with slots")
    start = time.perf_counter()
    pools, quotas = _checked_pools(problem)
    pool, k = (pools[0], quotas[0]) if quotas[0] else (pools[1], quotas[1])
    items = problem.items
    adj = _adjusted_values(problem)
    coef_term = [-problem.alpha_eff * c for c in problem.fairness_coef]
    eweights = problem.exposure.weights(k)
    epre = list(itertools.accumulate(eweights, initial=0.0))

    end = math.ceil(_DP_START * k)
    f = [0.0] + [-math.inf] * k
    m = 0
    while True:
        for j in pool[m:end]:
            a, c = adj[j], coef_term[j]
            for t in range(min(m, k - 1), -1, -1):
                v = f[t] + (a + c * eweights[t])
                if v > f[t + 1]:
                    f[t + 1] = v
            m += 1
        if m == len(pool):
            break
        rest = pool[m:]
        best_rest = sorted([adj[j] for j in rest], reverse=True)[:k]
        max_coef = max([coef_term[j] for j in rest])
        floor = f[k] - _TIE_TOL
        tail = 0.0
        for t in range(k - 1, max(k - len(best_rest), 0) - 1, -1):
            tail += best_rest[k - 1 - t]
            if f[t] + tail + max_coef * (epre[k] - epre[t]) >= floor:
                break
        else:
            break
        end = max(m + 1, int(m * _DP_GROWTH))

    # g[i][t]: the best value of positions t.. from candidates pool[i:m]
    g: list[list[float]] = [[]] * m + [[-math.inf] * k + [0.0]]
    for i in range(m - 1, -1, -1):
        a, c, nxt = adj[pool[i]], coef_term[pool[i]], g[i + 1]
        row = nxt[:]
        for t in range(max(k - m + i, 0), min(i, k - 1) + 1):
            v = (a + c * eweights[t]) + nxt[t + 1]
            if v > row[t]:
                row[t] = v
        g[i] = row
    floor = f[k] - _TIE_TOL
    chosen: list[int] = []
    acc, i = 0.0, 0
    for t in range(k):
        # the best completion is kept too: summed in another order than the
        # last position's check, every completion can round below the floor
        pick, best = -1, -math.inf
        for h in range(i, m - k + t + 1):
            j = pool[h]
            v = acc + (adj[j] + coef_term[j] * eweights[t])
            reach = v + g[h + 1][t + 1]
            if reach >= floor and (pick < 0 or items[j] < items[pool[pick]]):
                pick, pick_acc = h, v
            if reach > best:
                best, top, top_acc = reach, h, v
        if pick < 0:
            pick, pick_acc = top, top_acc
        chosen.append(pool[pick])
        acc, i = pick_acc, pick + 1
    selected = [items[j] for j in chosen]
    check_slots(problem, selected, sum(problem.is_repeat[j] for j in chosen))
    obj = indexed_objective_value(problem, chosen)
    return Selection(problem.user_id, selected, obj, "exposure_dp", nodes=m,
                     wall_time=time.perf_counter() - start)


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
    # dfs reaches itself through its closure; without the cycle, reference
    # counting frees the search structures also when cyclic GC is paused
    del dfs
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
        raise SolverError("enumeration too large; use branch_and_bound")
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
        raise SolverError("no feasible selection")
    return Selection(problem.user_id, list(best_seq), best_obj, "brute_force",
                     nodes=count,
                     wall_time=time.perf_counter() - start)


def solve(problem: RerankProblem) -> Selection:
    """The user's exact basket: the closed form where it applies
    (``_closed_form_applicable``), else the exposure DP for one pool with
    slots and no coverage term, else branch-and-bound."""
    if _closed_form_applicable(problem):
        return solve_topk_linear(problem)
    if not problem.epsilon_eff and _one_pool(problem):
        return solve_exposure_dp(problem)
    return solve_branch_and_bound(problem)


def rerank_all(problems: list[RerankProblem], skip_errors: bool = False
               ) -> RerankedBaskets:
    """Solve every user independently, in user-id order. A failed solve
    raises SolverError naming the user, or with ``skip_errors`` becomes a
    warning and the user is left out."""
    baskets: dict[str, Selection] = {}
    for problem in sorted(problems, key=lambda p: p.user_id):
        try:
            baskets[problem.user_id] = solve(problem)
        except Exception as exc:  # noqa: BLE001 - reported per user
            msg = f"user {problem.user_id!r}: {exc}"
            if not skip_errors:
                raise SolverError(msg) from exc
            warnings.warn(msg)
    return RerankedBaskets(baskets)
