"""Seeded benchmark inputs, made without the package under test.

Items are Zipf-popular and every user has a few favourite items, so
baskets repeat the way real grocery histories do. The candidate scores
follow the package's built-in scorer formulas -- personal purchase
frequency for repeat items, global popularity for explore items, blended
0.5/0.5 for unified lists -- but are computed here. Both formulas produce
many exactly equal scores, which is the tie-heavy input the exact solver
has to handle.

The same (spec, seed) always gives byte-identical files.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import random
import shutil
from collections import Counter

# Input make-up per workload. ``n``/``k`` are the candidate list length and
# basket size the workload re-ranks with; ``items`` is per market
# (``shops``, see ``generate``).
SPECS = {
    "rerank-ties": dict(users=400, shops=8, content_seed=7, items=500,
                        categories=12, baskets=(4, 14), basket_size=(4, 12),
                        favourites=(6, 20), p_favourite=0.7, n=100, k=12),
    "pipeline": dict(users=600, items=2000, categories=40,
                     baskets=(4, 12), basket_size=(3, 10),
                     favourites=(6, 12), p_favourite=0.7, n=100, k=20),
    "tune": dict(users=40, items=1500, categories=20,
                 baskets=(4, 12), basket_size=(3, 10),
                 favourites=(6, 14), p_favourite=0.7, n=100, k=20),
}

MIN_BASKETS = 3
MIN_ITEM_PURCHASES = 5
MIX = 0.5


def make_histories(spec: dict, seed: int
                   ) -> tuple[list[tuple[str, list[list[str]]]], dict[str, str]]:
    """Raw chronological basket histories plus item categories."""
    rng = random.Random(seed)
    n_items = spec["items"]
    items = [f"i{j:05d}" for j in range(n_items)]
    cum = list(itertools.accumulate(1.0 / (j + 1) for j in range(n_items)))
    # Categories go round-robin by popularity rank: drawn at random, the
    # category mix of the few most popular items would be a per-seed effect
    # shared by every user.
    categories = {i: f"c{j % spec['categories']:02d}" for j, i in enumerate(items)}
    # History shapes (number of baskets, number of favourites) are dealt
    # out in a fixed cycle rather than drawn, so every seed has the same mix
    # of short and long histories; the seed decides their contents.
    shapes = [(b, f) for b in range(spec["baskets"][0], spec["baskets"][1] + 1)
              for f in range(spec["favourites"][0], spec["favourites"][1] + 1)]
    users = []
    for u in range(spec["users"]):
        n_baskets, n_fav = shapes[u % len(shapes)]
        favourites = sorted(set(rng.choices(items, cum_weights=cum, k=n_fav)))
        baskets = []
        for _ in range(n_baskets):
            size = rng.randint(*spec["basket_size"])
            basket: set[str] = set()
            while len(basket) < size:
                if rng.random() < spec["p_favourite"]:
                    basket.add(rng.choice(favourites))
                else:
                    basket.add(rng.choices(items, cum_weights=cum, k=1)[0])
            baskets.append(sorted(basket))
        users.append((f"u{u:05d}", baskets))
    return users, categories


def filter_histories(users, min_baskets: int = MIN_BASKETS,
                     min_item_purchases: int = MIN_ITEM_PURCHASES):
    """Drop rare items and short histories until neither rule fires."""
    users = [(uid, [list(b) for b in baskets]) for uid, baskets in users]
    while True:
        counts = Counter(i for _, baskets in users for b in baskets for i in b)
        rare = {i for i, c in counts.items() if c < min_item_purchases}
        kept = []
        for uid, baskets in users:
            baskets = [[i for i in b if i not in rare] for b in baskets]
            baskets = [b for b in baskets if b]
            if len(baskets) >= min_baskets:
                kept.append((uid, baskets))
        if kept == users:
            return users
        users = kept


def split_histories(users, seed: int):
    """Leave-last-basket split; users halved into validation and test."""
    train = [(uid, baskets[:-1]) for uid, baskets in users]
    ids = sorted(uid for uid, _ in users)
    random.Random(seed).shuffle(ids)
    half = math.ceil(len(ids) / 2)
    last = {uid: baskets[-1] for uid, baskets in users}
    validation = {u: last[u] for u in sorted(ids[:half])}
    test = {u: last[u] for u in sorted(ids[half:])}
    return train, validation, test


def rank(pairs, n: int | None = None):
    """Score descending, item id ascending, truncated to n."""
    ranked = sorted(pairs, key=lambda p: (-p[1], p[0]))
    return ranked if n is None else ranked[:n]


def repeat_scores(train, n: int) -> dict[str, list[tuple[str, float]]]:
    """count(u, i) / #baskets(u) over the items u bought in training."""
    out = {}
    for uid, baskets in train:
        counts = Counter(i for b in baskets for i in b)
        out[uid] = rank([(i, c / len(baskets)) for i, c in counts.items()], n)
    return out


def explore_scores(train, n: int) -> dict[str, list[tuple[str, float]]]:
    """count(i) / max count over the items u never bought in training."""
    counts = Counter(i for _, baskets in train for b in baskets for i in b)
    top = max(counts.values())
    ranked = rank([(i, c / top) for i, c in counts.items()])
    out = {}
    for uid, baskets in train:
        own = {i for b in baskets for i in b}
        out[uid] = [p for p in ranked if p[0] not in own][:n]
    return out


def unified_scores(rep, exp, n: int, mix: float = MIX):
    out = {}
    for uid in sorted(set(rep) | set(exp)):
        pairs = [(i, mix * s) for i, s in rep.get(uid, [])]
        pairs += [(i, (1.0 - mix) * s) for i, s in exp.get(uid, [])]
        out[uid] = rank(pairs, n)
    return out


def write_histories(users, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for uid, baskets in users:
            fh.write(json.dumps({"user_id": uid,
                                 "baskets": [sorted(b) for b in baskets]}) + "\n")


def write_categories(categories: dict[str, str], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for item in sorted(categories):
            fh.write(f"{item}\t{categories[item]}\n")


def write_targets(targets: dict[str, list[str]], label: str, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for uid in sorted(targets):
            fh.write(json.dumps({"user_id": uid, "basket": sorted(targets[uid]),
                                 "split": label}) + "\n")


def write_scores(scores, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for uid in sorted(scores):
            for item, s in scores[uid]:
                fh.write(f"{uid}\t{item}\t{s!r}\n")


def relabel(users, categories: dict[str, str], seed: int):
    """The same histories under item and user ids dealt in a seeded order."""
    rng = random.Random(seed)
    items, uids = sorted(categories), [uid for uid, _ in users]
    item_ids, user_ids = items[:], uids[:]
    rng.shuffle(item_ids)
    rng.shuffle(user_ids)
    imap, umap = dict(zip(items, item_ids)), dict(zip(uids, user_ids))
    users = sorted((umap[uid], [sorted(imap[i] for i in b) for b in baskets])
                   for uid, baskets in users)
    return users, {imap[i]: c for i, c in categories.items()}


def _shop(spec: dict, seed: int, prefix: str, content_seed: int | None):
    """One independent market: histories, split and scores."""
    if content_seed is None:
        users, categories = make_histories(spec, seed)
    else:
        users, categories = relabel(*make_histories(spec, content_seed), seed)
    users = [(prefix + uid, [[prefix + i for i in b] for b in baskets])
             for uid, baskets in users]
    categories = {prefix + i: c for i, c in categories.items()}
    train, validation, test = split_histories(filter_histories(users), seed)
    return (users, categories, train, validation, test,
            repeat_scores(train, spec["n"]), explore_scores(train, spec["n"]))


def generate(spec: dict, seed: int, out_dir: str) -> None:
    """Write every input file of ``spec`` for ``seed`` into ``out_dir``.

    With ``shops`` > 1 the users are split into that many independent
    markets, each with its own items, popularity and seed; the explore
    scores rank popularity within a user's own market. Tie structure in
    popularity is shared by every user of a market, so a single market
    makes the whole input's search cost a per-seed draw; several average
    it out.

    Files appear in a sibling temporary directory that is renamed into
    place at the end, so an interrupted or concurrent run never leaves a
    partial cache.
    """
    tmp = f"{out_dir}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    shops = spec.get("shops", 1)
    content = spec.get("content_seed")
    parts = [_shop(dict(spec, users=spec["users"] // shops), seed * shops + s,
                   f"m{s:02d}" if shops > 1 else "",
                   None if content is None else content * shops + s)
             for s in range(shops)]
    users, categories, train = [], {}, []
    validation, test, rep, exp = {}, {}, {}, {}
    for p_users, p_cats, p_train, p_val, p_test, p_rep, p_exp in parts:
        users += p_users
        categories.update(p_cats)
        train += p_train
        validation.update(p_val)
        test.update(p_test)
        rep.update(p_rep)
        exp.update(p_exp)
    write_histories(users, os.path.join(tmp, "baskets.jsonl"))
    write_categories(categories, os.path.join(tmp, "categories.tsv"))
    write_histories(train, os.path.join(tmp, "train.jsonl"))
    write_targets(validation, "validation",
                  os.path.join(tmp, "targets_validation.jsonl"))
    write_targets(test, "test", os.path.join(tmp, "targets_test.jsonl"))
    write_scores(rep, os.path.join(tmp, "repeat.tsv"))
    write_scores(exp, os.path.join(tmp, "explore.tsv"))
    write_scores(unified_scores(rep, exp, spec["n"]),
                 os.path.join(tmp, "unified.tsv"))
    try:
        os.rename(tmp, out_dir)
    except OSError:  # another run made the same inputs first
        shutil.rmtree(tmp)
