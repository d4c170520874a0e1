"""Regenerate the committed toy fixture (12 users, 30 items, 5 categories).

Run from the repo root:  PYTHONPATH=src:. python3 fixtures/toy/regen.py
(the dataset generator lives with the tests, in ``tests/synth.py``).
The golden rerank output is produced by the brute-force oracle.
"""
import os

from basket_rerank.dataset import (build_item_groups, build_repeat_sets,
                                   load_baskets, load_categories,
                                   save_baskets, save_categories,
                                   save_targets, split_leave_last)
from basket_rerank.objective import RerankConfig, build_unified_problem
from basket_rerank.scorer import (import_scores, make_unified, save_scores,
                                  score_explore_popularity,
                                  score_repeat_topfreq)
from basket_rerank.solver import solve_bruteforce
from tests.synth import make_synthetic_dataset

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 7
N = 15
K = 5


def write_golden(out_path: str) -> None:
    """Re-rank the fixture's unified scores under radiv (epsilon = lambda =
    0.1, log-discount exposure, repeats penalized) with the brute-force
    oracle, writing the baskets TSV that ``rerank --out`` writes."""
    categories = load_categories(os.path.join(HERE, "categories.tsv"))
    train = load_baskets(os.path.join(HERE, "train.jsonl"), "jsonl", categories)
    reps = build_repeat_sets(train)
    groups = build_item_groups(train)
    cands = import_scores(os.path.join(HERE, "scores_unified.tsv"), "unified",
                          n=N)
    cfg = RerankConfig(k=K, n=N, epsilon=0.1, lam=0.1, objective_kind="radiv")
    with open(out_path, "w", encoding="utf-8") as fh:
        for uid in cands.user_ids:
            problem = build_unified_problem(uid, cands, reps, groups,
                                            categories, cfg)
            rep = reps.get(uid, frozenset())
            for rank, item in enumerate(solve_bruteforce(problem).items,
                                        start=1):
                fh.write(f"{uid}\t{rank}\t{item}\t{int(item in rep)}\n")


def main() -> None:
    ds = make_synthetic_dataset(n_users=12, n_items=30, n_categories=5,
                                seed=42)
    save_baskets(ds, os.path.join(HERE, "baskets.jsonl"))
    save_categories(ds.categories, os.path.join(HERE, "categories.tsv"))

    train, validation, test = split_leave_last(ds, SEED)
    save_baskets(train, os.path.join(HERE, "train.jsonl"))
    save_targets(validation, os.path.join(HERE, "targets_validation.jsonl"))
    save_targets(test, os.path.join(HERE, "targets_test.jsonl"))

    reps = build_repeat_sets(train)
    repeat_scores = score_repeat_topfreq(train, reps, N)
    explore_scores = score_explore_popularity(train, reps, N)
    cands = make_unified(repeat_scores, explore_scores, mix=0.5, n=N)
    save_scores(cands.unified, os.path.join(HERE, "scores_unified.tsv"))
    save_scores(repeat_scores, os.path.join(HERE, "scores_repeat.tsv"))
    save_scores(explore_scores, os.path.join(HERE, "scores_explore.tsv"))

    with open(os.path.join(HERE, "toy.cfg"), "w", encoding="utf-8") as fh:
        fh.write(f"k = {K}\nn = {N}\nexposure = log-discount\n")

    write_golden(os.path.join(HERE, "golden_radiv_e0.1_l0.1.tsv"))


if __name__ == "__main__":
    main()
