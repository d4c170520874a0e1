"""Exact per-user solvers for the re-ranking selection problems.

The global programs decompose across users, so each user's basket is found
independently. No objective kind mixes the diversity term with a fairness
term that depends on basket position (``_position_dependent``), so every
problem has one of three shapes, and ``solve`` gives each one exact
algorithm:

* additive: ``solve_topk_linear``, each pool's top items by adjusted value;
* additive plus a category-coverage bonus: ``solve_topk_linear`` too, with
  the largest marginal gains of the one pool with a choice
  (``_coverage_cut``) or, with a choice in both pools, of both pools under
  a multiplier on the explore pool's count (``_lagrangian_cut``);
* additive plus position-weighted exposure: ``solve_exposure_dp``, a DP
  over the items taken from each pool, in ranking order.

Three second routes stay, each faster on tie-heavy candidates with the
same baskets. One pool with a choice takes ``_coverage_cut`` alone: the
Lagrangian search is 1.30-1.35x slower there. A pool taken whole enters it
as ``taken``: settling that pool at the Lagrangian's end makes combined
radiv at K=20 1.37-1.41x slower. ``_fill_ties`` answers fixed counts
without ``_walk_ties``: the walk is 1.26-1.35x slower there.

Every path rejects a pool with fewer candidates than slots
(``_checked_pools``). One helper serves the tuner's grids: ``settled``
certifies an answer at an additive problem, deciding on the answer's
``frontier``: an answer of one of a user's problems is ``solve``'s answer
at each other problem of the user, with the same slot split, where it
settles; and one settled at two repeat weights is the answer at every
weight between.

One tie rule holds on every path: a selection wins when its
objective is higher by more than ``_TIE_TOL``; otherwise the
lexicographically smaller position-ordered item-id sequence wins.
``rerank_all`` names the user in each solve error; a user that it leaves
out is reported through ``warnings.warn``.
"""
from __future__ import annotations

import itertools
import math
import operator
import time
import warnings
from dataclasses import dataclass
from typing import NamedTuple

from .errors import SolverError, UsageError
from .objective import RerankProblem, check_slots, indexed_objective_value

_TIE_TOL = 1e-10
# solve_exposure_dp's first prefix, in multiples of K, and its growth factor
_DP_START = 1.5
_DP_GROWTH = 1.5


@dataclass
class Selection:
    items: list[str]            # position order (relevance desc, id asc)
    objective: float
    solver_tag: str
    nodes: int = 0
    wall_time: float = 0.0


@dataclass
class RerankedBaskets:
    baskets: dict[str, Selection]

    @property
    def total_objective(self) -> float:
        return sum(s.objective for s in self.baskets.values())

    def as_item_lists(self) -> dict[str, list[str]]:
        return {u: list(s.items) for u, s in self.baskets.items()}


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


def solve_topk_linear(problem: RerankProblem) -> Selection:
    """Closed form for problems without a position-dependent term.

    Without a coverage term each pool takes the items above its cut (the
    quota-th largest adjusted value) and leaves one tie group, the items
    within the tolerance of the cut. A pool with as many slots as
    candidates is taken whole, as forced items. With a coverage term,
    ``_coverage_cut`` (one pool with a choice) or ``_lagrangian_cut`` (both)
    gives the forced items and tie groups. The tie rule fills the slots
    left (``_fill_ties``), and the basket is scored from the chosen
    candidate indices, already in basket-position order. ``nodes`` counts
    the greedy evaluations of the Lagrangian search, 0 without one.
    """
    if _position_dependent(problem):
        raise UsageError("the closed form requires a fairness term that does "
                         "not depend on position")
    start = time.perf_counter()
    adj = _adjusted_values(problem)
    pools, quotas = _checked_pools(problem)
    chosen: list[int] = []
    choice: list[int] = []
    for p, (pool, quota) in enumerate(zip(pools, quotas)):
        if quota == len(pool):
            chosen += pool
        elif quota:
            choice.append(p)
    nodes = 0
    if problem.epsilon_eff and len(choice) == 2:
        chosen, groups, nodes = _lagrangian_cut(problem, adj)
        explore = sum(not problem.is_repeat[j] for j in chosen)
        left = [quotas[0] - len(chosen) + explore, quotas[1] - explore]
        # groups that span both pools leave no fast path
        chosen += _walk_ties(problem, chosen, left, groups)
    else:
        left = [0, 0]  # each pool's slots left to its tie groups
        groups = []
        for p in choice:
            pool, quota = pools[p], quotas[p]
            if problem.epsilon_eff:
                # the one pool with a choice: ``chosen`` is a pool taken
                # whole, or empty
                forced, pool_groups, _ = _coverage_cut(problem, pool, quota,
                                                       adj, chosen)
            else:
                pool.sort(key=adj.__getitem__, reverse=True)
                cut = adj[pool[quota - 1]]
                lo, hi = quota - 1, quota
                while lo and adj[pool[lo - 1]] <= cut + _TIE_TOL:
                    lo -= 1
                while hi < len(pool) and adj[pool[hi]] >= cut - _TIE_TOL:
                    hi += 1
                forced = pool[:lo]
                pool_groups = [(sorted(pool[lo:hi]), quota - lo, quota - lo)]
            chosen += forced
            left[p] = quota - len(forced)
            groups += pool_groups
        chosen += _fill_ties(problem, chosen, left, groups)
    chosen.sort()  # candidate order is basket-position order
    selected = [problem.items[j] for j in chosen]
    check_slots(problem, selected, sum(problem.is_repeat[j] for j in chosen))
    obj = indexed_objective_value(problem, chosen)
    return Selection(selected, obj, "topk_linear", nodes=nodes,
                     wall_time=time.perf_counter() - start)


def _coverage_cut(problem: RerankProblem, pool: list[int], quota: int,
                  adj: list[float], taken: list[int]
                  ) -> tuple[list[int], list[tuple[list[int], int, int]],
                             list[float]]:
    """Forced candidates and tie groups of ``quota`` items from ``pool``
    when each newly covered category adds a bonus, epsilon / K, and the
    marginals in descending order. ``taken`` holds the candidates of a pool
    taken whole: their categories are already covered, so their items here
    earn no bonus.

    Coverage is then a separable concave gain per category: a category's
    marginals are its best adjusted value plus the bonus (none when
    covered), then its other adjusted values in descending order, and the
    ``quota`` largest marginals are an optimum (greedy for separable
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
    # slots left equal the sum of the groups' hi (no hi exceeds its members).
    # They always exceed the sum of the lo: each marginal above v_hi is a
    # forced item or a lo = 1 group's member, and at most quota - 1 are.
    left = quota - len(forced)
    if len(groups) == 1:
        groups = [(groups[0][0], left, left)]
    elif left == sum(hi for _, _, hi in groups):
        groups = [(members, hi, hi) for members, _, hi in groups]
    return forced, groups, marginals


def _lagrangian_cut(problem: RerankProblem, adj: list[float]
                    ) -> tuple[list[int], list[tuple[list[int], int, int]],
                               int]:
    """Forced candidates and tie groups, over both pools, of a coverage
    problem with a choice in both pools, and the number of greedy
    evaluations that found them.

    The objective is M-natural-concave, also summed by pool (Murota,
    *Discrete Convex Analysis*, 2003), so a multiplier on the explore count
    q1 closes the duality gap: OPT = min over mu of phi(mu) = L(mu) - mu *
    q1, with L(mu) the best K items of both pools when mu is added to every
    explore item (``_coverage_cut``). The optima are the maximizers of
    L(mu*) with q1 explore items. phi is convex and piecewise linear; its
    slopes at mu are the explore counts of L(mu)'s maximizers, less q1: the
    forced ones plus what the groups can give. With c0 and c1 a group's
    members in each pool, the groups give pool 0 between sum max(0, lo -
    c1) and sum min(hi, c0), pool 1 likewise, and both between sum lo and
    sum min(hi, c0 + c1). From two ends where one pool's marginals beat all
    of the other's, the search evaluates where the ends' tangents meet and
    replaces the end whose slopes have that point's sign, until q1 lies in
    the count range. (A float slope flips between tied items and never
    reaches 0.)
    """
    n, k, q1 = problem.n_candidates, problem.total_slots, problem.explore_slots
    explore = [not rep for rep in problem.is_repeat]

    def cut(mu: float) -> tuple:
        """mu, phi(mu), the least and greatest slope, forced, groups."""
        shifted = [a + mu if e else a for a, e in zip(adj, explore)]
        forced, groups, marginals = _coverage_cut(problem, list(range(n)), k,
                                                  shifted, [])
        left = k - len(forced)
        n1 = sum(explore[j] for j in forced) - q1
        lo0 = hi0 = lo1 = hi1 = 0
        for members, lo, hi in groups:
            c1 = sum(explore[j] for j in members)
            c0 = len(members) - c1
            lo0 += max(0, lo - c1)
            hi0 += min(hi, c0)
            lo1 += max(0, lo - c0)
            hi1 += min(hi, c1)
        return (mu, sum(marginals[:k]) - mu * q1, n1 + max(lo1, left - hi0),
                n1 + min(hi1, left - lo0), forced, groups)

    span = 2 * (max(adj) - min(adj) + problem.epsilon_eff / problem.k + 1)
    # below: a right slope under 0; above: a left slope over 0
    below, above = cut(-span), cut(span)
    # each miss moves one end's integer slope towards 0, so K + 1
    # evaluations suffice
    for evals in range(3, k + 2):
        mu = ((above[1] - below[1] + below[3] * below[0]
               - above[2] * above[0]) / (below[3] - above[2]))
        point = cut(mu)
        if point[2] <= 0 <= point[3]:
            return point[4], point[5], evals
        if point[3] < 0:
            below = point
        else:
            above = point
    raise SolverError("the Lagrangian search did not converge")


def _fill_ties(problem: RerankProblem, forced: list[int], left: list[int],
               groups: list[tuple[list[int], int, int]]) -> list[int]:
    """Choose ``left[p]`` candidates of pool p from the tie groups, each
    group (candidate indices in candidate order, lo, hi) giving between lo
    and hi of them, so that, with the ``forced`` ones, the position-ordered
    id sequence is the smallest.

    When every group's count is fixed and the members a group leaves out
    share one relevance, the first ids of each group are the answer: each
    group holds members of one pool. Otherwise ``_walk_ties`` fills the
    positions in order; a position costs one step per group member or
    forced candidate it walks past.
    """
    rel = problem.relevance
    if all(lo == hi and (lo == len(members) or not lo
                         or rel[members[0]] == rel[members[-1]])
           for members, lo, hi in groups):
        # the items left out of each group share one relevance: they fill
        # one block of positions in id order, so the first ``need`` are the
        # smallest ids
        return [j for members, need, _ in groups for j in members[:need]]
    return _walk_ties(problem, forced, left, groups)


def _walk_ties(problem: RerankProblem, forced: list[int], left: list[int],
               groups: list[tuple[list[int], int, int]]) -> list[int]:
    """``_fill_ties``'s general path: fill positions in candidate order,
    each with the smallest id that keeps a completion (the groups must
    admit one).

    Taking candidate j skips every group member before it. A completion
    exists when no group is short of its lo and each pool's slots left,
    and their sum, lie within what the groups' members from j on can give
    (the bounds of ``_lagrangian_cut``). Passing members only narrows these
    ranges, so one walk from the cursor finds every option: each member
    whose taking keeps the slots left in range, and the next forced
    candidate, where the walk ends. The walk visits group members and
    forced candidates only, keeping the counts, the distances of each
    pool's slots left to its two bounds (``up``, ``dn``; ``up_t``, ``dn_t``
    for their sum) and the count of short groups up to date. It then undoes
    its passes from the chosen candidate on and takes it. A position costs
    one step per member or forced candidate walked past.
    """
    items, rep = problem.items, problem.is_repeat
    combined = problem.kind == "combined"
    left = left[:]
    lo = [g_lo for _, g_lo, _ in groups]
    hi = [g_hi for _, _, g_hi in groups]
    cnt = [[0, 0] for _ in groups]  # each group's members in each pool
    up, dn = [-left[0], -left[1]], left[:]
    up_t, dn_t, short = -sum(left), sum(left), 0
    walk = [(j, -1, 0, 1) for j in forced]  # (candidate, group, pool, other)
    for g, (members, g_lo, g_hi) in enumerate(groups):
        c = cnt[g]
        for j in members:
            r = 1 if combined and not rep[j] else 0
            c[r] += 1
            walk.append((j, g, r, 1 - r))
        up[0] += min(g_hi, c[0])
        up[1] += min(g_hi, c[1])
        up_t += min(g_hi, c[0] + c[1])
        dn[0] -= max(0, g_lo - c[1])
        dn[1] -= max(0, g_lo - c[0])
        dn_t -= max(0, g_lo)
        short += g_lo > c[0] + c[1]
    walk.sort()
    taken: list[int] = []
    cursor = 0
    while left[0] or left[1]:
        best = -1
        for i in range(cursor, len(walk)):
            j, g, r, q = walk[i]
            if g < 0:
                if best < 0 or items[j] < best_id:
                    best = i
                break
            cg = cnt[g]
            c, o, g_lo, g_hi = cg[r], cg[q], lo[g], hi[g]
            if (g_hi and left[r] and (g_lo > 0 or dn_t) and (g_lo > o or dn[r])
                    and (g_hi > o or up[q])
                    and (best < 0 or items[j] < best_id)):
                best, best_id = i, items[j]
            # pass j
            up[r] -= c <= g_hi
            up_t -= c + o <= g_hi
            dn[q] -= g_lo >= c
            short += c + o == g_lo
            cg[r] = c - 1
            if short or up[r] < 0 or up_t < 0 or dn[q] < 0:
                break
        # undo the passes from the chosen candidate on, then take it
        for _, g, r, q in walk[best:i + 1]:
            if g >= 0:
                cg = cnt[g]
                c = cg[r] = cg[r] + 1
                up[r] += c <= hi[g]
                up_t += c + cg[q] <= hi[g]
                dn[q] += lo[g] >= c
                short -= c + cg[q] == lo[g]
        j, g, r, q = walk[best]
        if g >= 0:
            o = cnt[g][q]
            dn_t -= lo[g] <= 0
            dn[r] -= lo[g] <= o
            up[q] -= hi[g] <= o
            cnt[g][r] -= 1
            lo[g] -= 1
            hi[g] -= 1
            left[r] -= 1
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


class Frontier(NamedTuple):
    """The candidates that decide ``settled`` for one answer, at every
    weighting of one user's candidates and slot split, each as its block
    (repeat flag, relevance, fairness coefficient).

    In each class of equal repeat flag and fairness coefficient, adjusted
    values fall with relevance, so its chosen and its unchosen candidates
    meet the threshold tests in a run each. Four members settle those runs:
    the last chosen one, the last chosen one of another relevance, the
    first unchosen one, and the first unchosen one of another relevance.
    """

    pools: tuple[tuple[list[tuple], int], ...]  # (members, chosen first)
    chosen: tuple[int, int] | None  # per pool; None: not distinct candidates
    rel: float                      # the user's max |relevance|
    coef: float                     # the user's max |fairness coefficient|


def frontier(problem: RerankProblem, items: list[str] | tuple[str, ...]
             ) -> Frontier:
    """``items``' frontier on ``problem``'s candidates: each pool's members,
    the chosen ones first, and the count of chosen candidates per pool
    (None when an item is not a candidate, is listed twice, or is a
    candidate of both pools)."""
    inside = set(items)
    # per class, the relevance of: the last chosen member, the last chosen
    # one of another relevance, the first unchosen one, and the first
    # unchosen one of another relevance
    last: dict[tuple, float] = {}
    other: dict[tuple, float] = {}
    first: dict[tuple, float] = {}
    first_other: dict[tuple, float] = {}
    taken = []
    counts = [0, 0]  # chosen explore and repeat candidates
    for x, r, cls in zip(problem.items, problem.relevance,
                         zip(problem.is_repeat, problem.fairness_coef)):
        if x in inside:
            taken.append(x)
            counts[cls[0]] += 1
            prev = last.get(cls, r)
            if prev != r:
                other[cls] = prev
            last[cls] = r
        elif cls not in first:
            first[cls] = r
        elif cls not in first_other and r != first[cls]:
            first_other[cls] = r
    combined = problem.kind == "combined"
    members: tuple[list[tuple], list[tuple]] = ([], [])
    chosen_first = [0, 0]
    for side, ends in enumerate(((last, other), (first, first_other))):
        for end in ends:
            for (rep, coef), r in end.items():
                pool = combined and not rep
                members[pool].append((rep, r, coef))
                chosen_first[pool] += not side
    chosen = None
    if len(set(taken)) == len(taken) == len(items):
        chosen = (counts[1], counts[0]) if combined else (len(taken), 0)
    rel = problem.relevance  # in descending order
    return Frontier(tuple(zip(members, chosen_first)), chosen,
                    max(abs(rel[0]), abs(rel[-1])),
                    max(map(abs, problem.fairness_coef)))


def settled(problem: RerankProblem, items: tuple[str, ...],
            fronts: dict[tuple[str, ...], Frontier] | None = None) -> bool:
    """Is ``items`` certified at ``problem``?

    ``fronts``, when given, maps answers to their frontiers on ``problem``'s
    candidates and slot split: an answer's frontier is read there, or built
    and stored. Without it the frontier is built for this call.

    Only additive problems settle. An additive one settles when ``items``
    fills each pool's slots exactly and, in each pool, every chosen
    candidate's adjusted value exceeds every unchosen one's by more than
    ``_TIE_TOL`` plus a rounding room, except for pairs within one block:
    candidates with equal repeat flag, relevance and fairness coefficient,
    whose adjusted values are bit-equal at every weighting. The room,
    2^-44 * (rel_scale * max |relevance| + |signed_lambda| / K
    + alpha * max |fairness coefficient| + 1), that is 2^-44 of a bound on
    an adjusted value's terms plus 1, covers the few roundings of each
    adjusted value and of the comparison. Pools are cut apart, so no pair
    spans two.

    Theorem 1 (an answer carries). Let p and q be two additive problems
    with the same candidates and slot split, and ``items`` be ``solve(p)``.
    If ``settled(q, items)``, then ``solve(q)`` is ``items``.

    Proof. Take a pool at q. Its chosen candidates outside its mixed block
    (the block with chosen and unchosen members, if any) lie more than
    ``_TIE_TOL`` above the block and above every unchosen candidate, and
    its unchosen ones outside the block more than ``_TIE_TOL`` below the
    block, in the closed form's own comparisons: the room absorbs their
    rounding. The closed form then forces those chosen candidates and
    leaves one tie group of a fixed count: the block when there is one,
    else the chosen candidates nearest the cut, all taken. Each group is
    taken whole or shares one relevance, so ``_fill_ties``'s fast path
    takes each block's first members in candidate order, as many as
    ``items`` holds. An exact answer holds those too: block members are
    bit-equal and share one relevance, so a swap for an earlier member
    keeps the objective and gives a smaller position-ordered id sequence.
    So the tie rule fixes which members of a mixed block ``items`` holds,
    and the certificate fixes the rest; p's weights never enter. The
    certificate alone does not say which members: a basket with a block's
    last members settles too, so ``items`` must be an answer somewhere.

    Theorem 2 (one solved end). Let ``items`` be ``solve(p)``, with
    ``settled(p, items)``. Let q differ from p only in ``signed_lambda``
    (as two points of one column of a tuner grid do), with
    ``settled(q, items)``. Then ``solve`` gives ``items`` at every weight
    from p to q.

    Proof. A gap between two candidates of different repeat flags is affine
    in the weight; between equal flags it does not change. So a pair
    outside a block that clears ``_TIE_TOL`` plus the room at p and at q
    clears ``_TIE_TOL`` at every weight between, rounding included. A block
    with chosen and unchosen members holds a pair with no gap, so p and q
    share each pool's one mixed block, or neither has one. (Two mixed
    blocks in one pool cannot both clear: each would need its chosen
    members above the other's unchosen ones by more than the tolerance.)
    At every weight r between, then, each pair outside a pool's mixed
    block clears ``_TIE_TOL`` in the closed form's comparisons, which is
    all that Theorem 1's proof uses of the certificate: ``solve(r)`` is
    ``items``.

    The exceptions of a pool are all in one block exactly when the chosen
    candidates within the threshold (``_TIE_TOL`` plus the room) of the
    best unchosen one and the unchosen ones within it of the worst chosen
    one share one block: every pair within the threshold is among them, and
    each of them is in such a pair. In a class of equal repeat flag and
    coefficient, adjusted values fall with relevance, so the chosen within
    the threshold are the class's last chosen ones, and they span two
    blocks exactly when the last chosen one of another relevance is among
    them; likewise for the unchosen. So ``frontier``'s members decide as
    every candidate would, at every weighting, and it keeps the user's max
    |relevance| and |coefficient|, so the room is the same too.
    """
    if problem.epsilon_eff or _position_dependent(problem):
        return False
    front = fronts.get(items) if fronts is not None else None
    if front is None:
        front = frontier(problem, items)
        if fronts is not None:
            fronts[items] = front
    if front.chosen != (problem.repeat_slots, problem.explore_slots):
        return False
    rel_scale, alpha = problem.rel_scale, problem.alpha_eff
    repeat_term = problem.signed_lambda / problem.k
    bound = (rel_scale * front.rel + abs(problem.signed_lambda) / problem.k
             + alpha * front.coef)
    threshold = _TIE_TOL + 2.0 ** -44 * (bound + 1)
    for members, n in front.pools:
        if not n or n == len(members):
            continue  # no chosen or no unchosen candidate
        # ``_adjusted_values``' expression, so the values are bit-equal
        adj = [(rel_scale * r + repeat_term if rep else rel_scale * r)
               - alpha * coef for rep, r, coef in members]
        low, high = min(adj[:n]), max(adj[n:])
        if low > high + threshold:
            continue
        top, bottom = high + threshold, low - threshold
        edge = {m for m, a in zip(members[:n], adj) if a <= top}
        edge.update(m for m, a in zip(members[n:], adj[n:]) if a >= bottom)
        if len(edge) != 1:
            return False
    return True


def solve_exposure_dp(problem: RerankProblem) -> Selection:
    """Ranking-order DP for problems with position-weighted exposure and no
    coverage term.

    Candidates are taken in ranking order, which is basket-position order,
    so an item taken after a from pool 0 and b from pool 1 sits at position
    a + b and adds ``adj_j - alpha * coef_j * e(a + b)`` (with one pool with
    slots, b stays 0). ``f[a, b]``, the best value of a and b items from the
    first M candidates, is stored flat at s = b * W + a, with a column and
    a row of -inf past the quotas that a step past a quota reads. M grows
    from about ``_DP_START * K`` by ``_DP_GROWTH`` until no state short of
    K items can reach within ``_TIE_TOL`` of ``f[q0, q1]``: f[a, b] plus
    each pool's best adjusted values after M for its slots left, plus the
    best fairness gain after M times the exposure weight left. A backward
    table over the prefix gives each candidate's best completion, and each
    position takes the smallest id whose completion still reaches the
    optimum within the tolerance. ``nodes`` counts the prefix's candidates.
    """
    if problem.epsilon_eff or not _position_dependent(problem):
        raise UsageError("the exposure DP requires a position-dependent "
                         "fairness term and no diversity term")
    start = time.perf_counter()
    pools, quotas = _checked_pools(problem)
    k = problem.total_slots
    if quotas[0] and quotas[1]:
        cand, (qa, qb) = list(range(problem.n_candidates)), quotas
    else:
        # the pool with slots takes the place of pool 0
        pools = [pools[0] if quotas[0] else pools[1], []]
        cand, qa, qb = pools[0], k, 0
    items, rep = problem.items, problem.is_repeat
    adj = _adjusted_values(problem)
    coef_term = [-problem.alpha_eff * c for c in problem.fairness_coef]
    eweights = problem.exposure.weights(k)
    epre = list(itertools.accumulate(eweights, initial=0.0))
    width = qa + 2
    final = qb * width + qa
    size = (qb + 2) * width if qb else width
    # each state's exposure weight for the next item; 0 past the quotas
    ecell = [0.0] * size
    padded = (*eweights, 0.0)
    for b in range(qb + 1):
        ecell[b * width:b * width + qa + 1] = padded[b:b + qa + 1]
    # a candidate's move in the state: a pool 0 item steps a, a pool 1 item b
    steps = ([1 if r else width for r in rep] if qb
             else [1] * problem.n_candidates)

    end = math.ceil(_DP_START * k)
    f = [-math.inf] * size
    f[0] = 0.0
    m = n0 = n1 = 0  # the prefix, and its candidates from each pool
    rows = (0,)  # the rows that a pool 0 item extends, descending
    while True:
        for j in cand[m:end]:
            x, c = adj[j], coef_term[j]
            if steps[j] == 1:
                top = min(n0, qa - 1)
                for base in rows:
                    for s in range(base + top, base - 1, -1):
                        v = f[s] + (x + c * ecell[s])
                        if v > f[s + 1]:
                            f[s + 1] = v
                n0 += 1
            else:
                for s in range(min(n1, qb - 1) * width + min(n0, qa), -1, -1):
                    v = f[s] + (x + c * ecell[s])
                    if v > f[s + width]:
                        f[s + width] = v
                n1 += 1
                rows = range(min(n1, qb) * width, -1, -width)
            m += 1
        if m == len(cand):
            break
        best_a = [0.0, *itertools.accumulate(sorted(
            map(adj.__getitem__, pools[0][n0:]), reverse=True)[:qa])]
        best_b = [0.0, *itertools.accumulate(sorted(
            map(adj.__getitem__, pools[1][n1:]), reverse=True)[:qb])
                  ] if qb else [0.0]
        max_coef = max(map(coef_term.__getitem__, cand[m:]))
        floor = f[final] - _TIE_TOL
        for b in range(qb, max(qb + 1 - len(best_b), 0) - 1, -1):
            base, tail = b * width, best_b[qb - b]
            # a state short of K items that can still reach the floor
            if any(f[base + a] + best_a[qa - a] + tail
                   + max_coef * (epre[k] - epre[a + b]) >= floor
                   for a in range(min(qa, k - 1 - b),
                                  max(qa + 1 - len(best_a), 0) - 1, -1)):
                break
        else:
            break
        end = max(m + 1, int(m * _DP_GROWTH))

    # g[i][s]: the best value of the positions from state s on, from
    # candidates cand[i:m]. n0 and n1 count the candidates before i, r0 and
    # r1 those from i on. Candidate i is taken from the states that reach it
    # and leave the rest fillable: ``rows`` of them for a pool 0 item.
    last = [-math.inf] * size
    last[final] = 0.0
    g: list[list[float]] = [last] * (m + 1)
    r0 = r1 = 0
    rows = range(qb * width, min(n1, qb) * width + 1, width)
    for i in range(m - 1, -1, -1):
        j = cand[i]
        x, c, nxt = adj[j], coef_term[j], g[i + 1]
        row = nxt[:]
        d = steps[j]
        if d == 1:
            n0 -= 1
            r0 += 1
            a_hi, bases = min(n0, qa - 1), rows
        else:
            n1 -= 1
            r1 += 1
            b_lo = max(qb - r1, 0) * width
            a_hi = min(n0, qa)
            bases = range(b_lo, min(n1, qb - 1) * width + 1, width)
            rows = range(b_lo, min(n1, qb) * width + 1, width)
        a_lo = max(qa - r0, 0)
        for base in bases:
            for s in range(base + a_lo, base + a_hi + 1):
                v = (x + c * ecell[s]) + nxt[s + d]
                if v > row[s]:
                    row[s] = v
        g[i] = row
    floor = f[final] - _TIE_TOL
    chosen: list[int] = []
    acc, i, s = 0.0, 0, 0
    for t in range(k):
        pick, best = -1, -math.inf
        for h in range(i, m - k + t + 1):
            j = cand[h]
            reach = (acc + (adj[j] + coef_term[j] * eweights[t])
                     + g[h + 1][s + steps[j]])
            if reach >= floor and (pick < 0 or items[j] < pick_id):
                pick, pick_id = h, items[j]
            # summed in another order than the last position's check, every
            # completion can round below the floor: the best one then
            if pick < 0 and reach > best:
                best, top = reach, h
        h = pick if pick >= 0 else top
        j = cand[h]
        chosen.append(j)
        acc += adj[j] + coef_term[j] * eweights[t]
        i, s = h + 1, s + steps[j]
    selected = list(map(items.__getitem__, chosen))
    check_slots(problem, selected, sum(map(rep.__getitem__, chosen)))
    obj = indexed_objective_value(problem, chosen)
    return Selection(selected, obj, "exposure_dp", nodes=m,
                     wall_time=time.perf_counter() - start)


def solve(problem: RerankProblem) -> Selection:
    """The user's exact basket: the exposure DP when the fairness term
    depends on position, else the closed form, additive or with coverage
    (no objective kind has both)."""
    if _position_dependent(problem):
        return solve_exposure_dp(problem)
    return solve_topk_linear(problem)


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
