"""Regenerate the frozen reference answers on full-size two-pool problems
(``golden_bnb.tsv``).

Run from the repo root:  PYTHONPATH=src python3 fixtures/two_pool/regen.py

Brute force checks the exact solvers only on small problems. The answers in
``golden_bnb.tsv`` were written by branch-and-bound, the exhaustive search
that commit b6d7733 still had, on larger two-pool problems (N=40 to 100,
K=12 or 20), and are kept so that ``solve`` can be checked against them:
item ids in basket order and ``repr`` of the objective, one user per line.
This script writes the same lines through ``solve``.

Every problem comes from ``golden_problems``, seeded per set, 12 users a
set:

* ``c9-*``: the acceptance test's criterion-9 construction (continuous
  scores, 40 categories, 40% repeat flags, N=100, K=20) made two-pool with
  10 repeat slots, so that both pools keep spare candidates.
* ``ties-*``: scores from four levels, 12 categories, N=40, K=12, 40%
  repeat flags and 5 repeat slots, again with spare candidates in both
  pools.
* ``whole-*``: continuous scores, N=50, K=12, one pool taken whole (as
  many slots as candidates, 3 to K-1 of them) and the other with a choice;
  the pool taken whole alternates by user.

Each construction covers radiv, naive_div and log-discount raif at a low
and a high weight. The tie-heavy and whole-pool sets stay below N=100
because branch-and-bound took many seconds on single users there.
"""
import dataclasses
import os
import random
import sys

from basket_rerank.dataset import ItemGroups
from basket_rerank.objective import (ExposureModel, RerankConfig,
                                     build_unified_problem)
from basket_rerank.scorer import CandidateSet, rank_pairs
from basket_rerank.solver import solve

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden_bnb.tsv")
SEED = 2026
ITEMS = [f"i{j:03d}" for j in range(500)]
LEVELS = (0.2, 0.4, 0.6, 0.8)

_LOW_HIGH = {
    "radiv": ({"epsilon": 0.1, "lam": 0.1}, {"epsilon": 0.5, "lam": 0.5}),
    "naive_div": ({"epsilon": 0.1}, {"epsilon": 0.5}),
    "raif": ({"alpha": 1.0, "lam": 0.1}, {"alpha": 100.0, "lam": 0.1}),
}
# construction: (users per set, N, K, score levels or None for continuous,
# categories, repeat slots or None for a pool taken whole)
_CONSTRUCTIONS = {
    "c9": (12, 100, 20, None, 40, 10),
    "ties": (12, 40, 12, LEVELS, 12, 5),
    "whole": (12, 50, 12, None, 40, None),
}
# (set name, construction, objective kind, weights)
SETS = [(f"{c}-{kind}-{level}", c, kind, weights)
        for c in _CONSTRUCTIONS
        for kind, pair in _LOW_HIGH.items()
        for level, weights in zip(("low", "high"), pair)]


def _set_problems(index: int, construction: str, kind: str,
                  weights: dict[str, float]) -> list:
    users, n, k, levels, n_cats, h = _CONSTRUCTIONS[construction]
    rng = random.Random(SEED + index)
    popular = set(ITEMS[:100])
    groups = ItemGroups(popular, set(ITEMS) - popular)
    categories = {i: f"c{rng.randrange(n_cats)}" for i in ITEMS}
    cfg = RerankConfig(k=k, n=n, exposure=ExposureModel("log_discount"),
                       objective_kind=kind, **weights)
    score = (lambda: rng.choice(levels)) if levels else rng.random
    problems = []
    for u in range(users):
        uid = f"u{u:02d}"
        cand = rng.sample(ITEMS, n)
        pairs = rank_pairs([(i, score()) for i in cand], n)
        if h is None:
            whole = rng.randint(3, k - 1)
            # even users take the repeat pool whole, odd ones the explore pool
            n_rep = whole if u % 2 == 0 else n - whole
            reps = frozenset(rng.sample(cand, n_rep))
            slots = whole if u % 2 == 0 else k - whole
        else:
            reps = frozenset(i for i in cand if rng.random() < 0.4)
            slots = h
        cands = CandidateSet(kind="unified", unified={uid: pairs})
        p = build_unified_problem(uid, cands, {uid: reps}, groups,
                                  categories, cfg)
        problems.append(dataclasses.replace(
            p, kind="combined", repeat_slots=slots, explore_slots=k - slots))
    return problems


def golden_problems() -> list:
    """(set name, problem) for every user of every set, in file order."""
    return [(name, p)
            for index, (name, construction, kind, weights) in enumerate(SETS)
            for p in _set_problems(index, construction, kind, weights)]


def golden_lines() -> list[str]:
    """One line per user: set, user, items in basket order, repr of the
    objective."""
    lines = []
    for name, p in golden_problems():
        sel = solve(p)
        lines.append(f"{name}\t{p.user_id}\t{','.join(sel.items)}\t"
                     f"{sel.objective!r}\n")
    return lines


def write_golden(out_path: str = GOLDEN) -> None:
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.writelines(golden_lines())


if __name__ == "__main__":
    write_golden(sys.argv[1] if len(sys.argv) > 1 else GOLDEN)
