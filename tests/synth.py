"""Deterministic synthetic data: basket datasets for end-to-end tests and
random per-user problem instances for solver validation."""
from __future__ import annotations

import math
import random

from basket_rerank.dataset import (BasketDataset, ItemGroups, RepeatSets,
                                   UserHistory, build_item_groups,
                                   build_repeat_sets, split_leave_last)
from basket_rerank.objective import (ExposureModel, RerankConfig,
                                     build_combined_problem,
                                     build_unified_problem, OBJECTIVE_KINDS,
                                     PENALIZE_REPEAT, REWARD_REPEAT,
                                     RerankProblem)
from basket_rerank.scorer import (CandidateSet, make_unified, rank_pairs,
                                  score_explore_popularity,
                                  score_repeat_topfreq)


def make_synthetic_dataset(n_users: int = 12, n_items: int = 30,
                           n_categories: int = 5,
                           baskets_per_user: tuple[int, int] = (4, 8),
                           basket_size: tuple[int, int] = (3, 6),
                           seed: int = 0) -> BasketDataset:
    """Zipf-popular items, per-user favorite pools, reproducible from seed."""
    rng = random.Random(seed)
    items = [f"i{j:03d}" for j in range(n_items)]
    weights = [1.0 / (j + 1) for j in range(n_items)]
    categories = {item: f"c{j % n_categories}" for j, item in enumerate(items)}
    users = []
    for uidx in range(n_users):
        favorites = rng.choices(items, weights=weights, k=rng.randint(6, 12))
        favorites = sorted(set(favorites))
        baskets = []
        for _ in range(rng.randint(*baskets_per_user)):
            size = rng.randint(*basket_size)
            basket: set[str] = set()
            while len(basket) < size:
                if rng.random() < 0.7 and favorites:
                    basket.add(rng.choice(favorites))
                else:
                    basket.add(rng.choices(items, weights=weights, k=1)[0])
            baskets.append(frozenset(basket))
        users.append(UserHistory(f"u{uidx:03d}", baskets))
    return BasketDataset(users=users, categories=categories)


def _random_groups(rng: random.Random, items: list[str]) -> ItemGroups:
    shuffled = list(items)
    rng.shuffle(shuffled)
    n_pop = max(1, min(len(items) - 1, math.ceil(0.2 * len(items))))
    counts = {i: len(items) - rank for rank, i in enumerate(shuffled)}
    return ItemGroups(set(shuffled[:n_pop]), set(shuffled[n_pop:]), counts)


def _random_config(rng: random.Random, n: int, k: int, objective_kind: str,
                   exposure_kind: str) -> RerankConfig:
    return RerankConfig(
        k=k, n=n,
        epsilon=rng.uniform(0.0, 0.6),
        alpha=rng.uniform(0.0, 3.0),
        lam=rng.uniform(0.0, 1.0),
        sign_mode=rng.choice([PENALIZE_REPEAT, REWARD_REPEAT]),
        exposure=ExposureModel(exposure_kind),
        objective_kind=objective_kind)


def random_unified_instance(seed: int, n: int = 10, k: int = 4,
                            objective_kind: str | None = None,
                            exposure_kind: str | None = None
                            ) -> tuple[RerankProblem, RerankConfig]:
    """Random unified problem, built through the real problem builder."""
    rng = random.Random(seed)
    if objective_kind is None:
        objective_kind = rng.choice(OBJECTIVE_KINDS)
    if exposure_kind is None:
        exposure_kind = rng.choice(["uniform", "log_discount"])
    items = [f"i{j:02d}" for j in range(n)]
    pairs = [(i, rng.random()) for i in items]
    cands = CandidateSet(kind="unified", n=n, unified={"u": rank_pairs(pairs, n)})
    reps: RepeatSets = {"u": frozenset(i for i in items if rng.random() < 0.4)}
    n_cats = rng.randint(1, 5)
    categories = {i: f"c{rng.randrange(n_cats)}" for i in items}
    groups = _random_groups(rng, items)
    cfg = _random_config(rng, n, k, objective_kind, exposure_kind)
    problem = build_unified_problem("u", cands, reps, groups, categories, cfg)
    return problem, cfg


def random_combined_instance(seed: int, n_repeat: int = 6, n_explore: int = 6,
                             k: int = 4, objective_kind: str | None = None,
                             exposure_kind: str | None = None,
                             theta: float | None = None
                             ) -> tuple[RerankProblem, RerankConfig]:
    """Random combined (two-pool) problem via the real builder."""
    rng = random.Random(seed)
    if objective_kind is None:
        objective_kind = rng.choice(["radiv", "raif"])
    if exposure_kind is None:
        exposure_kind = rng.choice(["uniform", "log_discount"])
    rep_items = [f"r{j:02d}" for j in range(n_repeat)]
    exp_items = [f"x{j:02d}" for j in range(n_explore)]
    rep_pairs = rank_pairs([(i, rng.random()) for i in rep_items])
    exp_pairs = rank_pairs([(i, rng.random()) for i in exp_items])
    cands = CandidateSet(kind="combined", n=max(n_repeat, n_explore),
                         repeat_list={"u": rep_pairs},
                         explore_list={"u": exp_pairs})
    all_items = rep_items + exp_items
    n_cats = rng.randint(1, 5)
    categories = {i: f"c{rng.randrange(n_cats)}" for i in all_items}
    groups = _random_groups(rng, all_items)
    cfg = _random_config(rng, max(n_repeat, n_explore), k, objective_kind,
                         exposure_kind)
    if theta is None:
        theta = rng.random()
    cfg.theta = theta
    reps: RepeatSets = {"u": frozenset(rep_items)}
    problem = build_combined_problem("u", cands, reps, groups, categories, cfg)
    return problem, cfg


def pipeline_from_dataset(ds: BasketDataset, seed: int = 0, n: int = 100,
                          mix: float = 0.5):
    """Split a dataset and derive everything the engine needs, using the
    built-in scorers. Returns (train, validation, test, reps, groups, cands)."""
    train, validation, test = split_leave_last(ds, seed)
    reps = build_repeat_sets(train)
    groups = build_item_groups(train)
    cands = make_unified(score_repeat_topfreq(train, reps, n),
                         score_explore_popularity(train, reps, n),
                         mix=mix, n=n)
    return train, validation, test, reps, groups, cands
