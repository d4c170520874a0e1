"""Regenerate the frozen reference answers on one-pool problems past brute
force's reach (``golden_bnb.tsv``).

Run from the repo root:  PYTHONPATH=src python3 fixtures/one_pool/regen.py

Brute force checks the exact solvers only on small problems. The answers in
``golden_bnb.tsv`` were written by branch-and-bound, the exhaustive search
that commit b6d7733 still had, and are kept so that ``solve`` can be checked
on larger problems: item ids in basket order and ``repr`` of the objective,
one user per line. This script writes the same lines through ``solve``.

Every problem comes from ``golden_problems``, seeded per user:

* ``coverage-unified``: 80 unified radiv or naive_div problems, N=40, K=10,
  scores from nine levels, 2 to 8 categories.
* ``coverage-whole``: 40 combined problems of the same kind in which 1 to 9
  candidates form a pool taken whole, the repeat pool on odd seeds and the
  explore pool on even ones, and the other pool has a choice.
* ``exposure-k12`` and ``exposure-k20``: 40 unified raif or naive_fair
  problems each with log-discount exposure, N=100, scores from nine levels.
"""
import os
import random
import sys

from basket_rerank.dataset import ItemGroups
from basket_rerank.objective import (ExposureModel, RerankConfig,
                                     build_combined_problem,
                                     build_unified_problem)
from basket_rerank.scorer import CandidateSet, rank_pairs
from basket_rerank.solver import solve

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden_bnb.tsv")


def _groups(items, popular) -> ItemGroups:
    popular = set(popular)
    return ItemGroups(popular, set(items) - popular)


def _cands(uid: str, **lists) -> CandidateSet:
    if "unified" in lists:
        return CandidateSet(kind="unified", unified={
            uid: rank_pairs(list(lists["unified"].items()), 100)})
    return CandidateSet(kind="combined", repeat_list={
        uid: rank_pairs(list(lists["rep"].items()), 100)}, explore_list={
        uid: rank_pairs(list(lists["exp"].items()), 100)})


def coverage_problem(kind: str, seed: int):
    rng = random.Random(seed)
    uid = f"s{seed:03d}"
    ids = [f"i{j:03d}" for j in rng.sample(range(1000), 40)]
    scores = {i: rng.randint(1, 9) / 10 for i in ids}
    n_cats = rng.randint(2, 8)
    cats = {i: f"c{rng.randrange(n_cats)}" for i in ids}
    cfg = RerankConfig(
        k=10, n=40, epsilon=rng.choice((0.05, 0.2, 0.5, 1.0)),
        lam=rng.choice((0.0, 0.2, 0.4)),
        objective_kind=rng.choice(("radiv", "naive_div")),
        sign_mode=rng.choice(("penalize_repeat", "reward_repeat")),
        theta=-1.0 if seed % 2 else 2.0)
    groups = _groups(ids, ids[:10])
    if kind == "unified":
        reps = {uid: frozenset(i for i in ids if rng.random() < 0.4)}
        return build_unified_problem(uid, _cands(uid, unified=scores), reps,
                                     groups, cats, cfg)
    w = rng.randint(1, 9)
    whole = {i: scores[i] for i in ids[:w]}
    rest = {i: scores[i] for i in ids[w:]}
    rep, exp = (whole, rest) if seed % 2 else (rest, whole)
    return build_combined_problem(uid, _cands(uid, rep=rep, exp=exp), {},
                                  groups, cats, cfg)


def exposure_problem(k: int, seed: int):
    rng = random.Random(seed)
    uid = f"s{seed:03d}"
    ids = [f"i{j:03d}" for j in rng.sample(range(1000), 100)]
    scores = {i: rng.randint(1, 9) / 10 for i in ids}
    cfg = RerankConfig(
        k=k, n=100, alpha=rng.choice((0.5, 1.0, 5.0, 20.0)),
        lam=rng.choice((0.0, 0.2, 0.4)),
        objective_kind=rng.choice(("raif", "naive_fair")),
        sign_mode=rng.choice(("penalize_repeat", "reward_repeat")),
        exposure=ExposureModel("log_discount"))
    reps = {uid: frozenset(i for i in ids if rng.random() < 0.4)}
    return build_unified_problem(uid, _cands(uid, unified=scores), reps,
                                 _groups(ids, rng.sample(ids, 20)), {}, cfg)


def golden_problems() -> list:
    """(set name, problem) for every user of every set, in file order."""
    return ([("coverage-unified", coverage_problem("unified", seed))
             for seed in range(80)]
            + [("coverage-whole", coverage_problem("whole", seed))
               for seed in range(40)]
            + [(f"exposure-k{k}", exposure_problem(k, seed))
               for k in (12, 20) for seed in range(40)])


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
