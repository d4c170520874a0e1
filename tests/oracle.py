"""Test-only references, kept out of the package.

``solve_bruteforce`` enumerates every feasible selection. It is the testing
oracle for every exact path of ``basket_rerank.solver``, independent of
them: it scores selections only through ``objective_value`` and keeps the
best by the tie rule (``_better``).
``compute_h_theta`` counts H(theta) by a scan, the rule that
``objective._slot_split`` finds by bisection.
``read_scores_tsv`` parses every line of a score file afresh, the rule
that ``scorer._read_scores_tsv`` applies once per distinct row text.
"""
from __future__ import annotations

import math
import time
from itertools import combinations, product

from basket_rerank.errors import DataError, SolverError
from basket_rerank.objective import (RerankProblem, objective_value,
                                     ranked_selection)
from basket_rerank.scorer import ScoreList
from basket_rerank.solver import _TIE_TOL, Selection, _pools

_BRUTE_GUARD = 10 ** 7


def _better(obj: float, seq: tuple[str, ...], best_obj: float,
            best_seq: tuple[str, ...] | None) -> bool:
    """The tie rule: does (obj, seq) beat the incumbent (best_obj, best_seq)?"""
    if obj > best_obj + _TIE_TOL:
        return True
    return obj >= best_obj - _TIE_TOL and seq < best_seq


def _combination_count(problem: RerankProblem) -> int:
    total = 1
    for pool, quota in zip(*_pools(problem)):
        total *= math.comb(len(pool), quota)
    return total


def solve_bruteforce(problem: RerankProblem) -> Selection:
    """Enumerate every feasible selection; testing oracle."""
    if _combination_count(problem) > _BRUTE_GUARD:
        raise SolverError("enumeration too large for the brute-force oracle; "
                          "use solve")
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
    return Selection(list(best_seq), best_obj, "brute_force", nodes=count,
                     wall_time=time.perf_counter() - start)


def compute_h_theta(repeat_scores: list[float], theta: float, k: int,
                    strict: bool = True) -> int:
    """Number of repeat slots: count of repeat scores above theta (strictly,
    or inclusively with strict=False), clamped to the basket size."""
    if strict:
        h_aux = sum(1 for s in repeat_scores if s > theta)
    else:
        h_aux = sum(1 for s in repeat_scores if s >= theta)
    return min(h_aux, k)


def read_scores_tsv(path: str) -> dict[str, ScoreList]:
    """Each user's (item, score) rows in file order, every line split,
    parsed and checked on its own; the first malformed line raises, and
    then the first (user, item) row that repeats an earlier one."""
    per_user: dict[str, ScoreList] = {}
    duplicate = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                row_uid, item, raw = line.split("\t")
                score = float(raw)
            except ValueError as exc:
                parts = line.rstrip("\n").split("\t")
                if parts == [""]:
                    continue
                if len(parts) != 3:
                    raise DataError(
                        f"{path}:{lineno}: expected 3 tab-separated fields") from None
                raise DataError(f"{path}:{lineno}: bad score {parts[2]!r}") from exc
            if not math.isfinite(score):
                raise DataError(
                    f"{path}:{lineno}: non-finite score for ({row_uid},{item})")
            rows = per_user.setdefault(row_uid, [])
            if duplicate is None and any(i == item for i, _ in rows):
                duplicate = DataError(f"{path}:{lineno}: duplicate (user,item) "
                                      f"row ({row_uid},{item})")
            rows.append((item, score))
    if not per_user:
        raise DataError(f"{path}: no score rows")
    if duplicate is not None:
        raise duplicate
    return per_user
