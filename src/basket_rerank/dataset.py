"""Basket-sequence data: loading, filtering, splitting, derived sets.

Baskets are chronological per user. All functions are pure: they return
new datasets and never mutate their inputs.

Files are read line by line, never whole: a whole-file read is no faster
here and holds every line's text at once beside the parsed baskets, which
raises the peak resident size. Item counts are one ``Counter`` over the
chained baskets, not one update per basket.
"""
from __future__ import annotations

import csv
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

from .errors import DataError


@dataclass
class UserHistory:
    user_id: str
    baskets: list[frozenset[str]]


@dataclass
class BasketDataset:
    """Users' chronological basket sequences plus item categories."""

    users: list[UserHistory]
    categories: dict[str, str] = field(default_factory=dict)
    dedup_count: int = 0

    @property
    def item_vocabulary(self) -> set[str]:
        return set(chain.from_iterable(
            chain.from_iterable(u.baskets for u in self.users)))

    @property
    def user_ids(self) -> list[str]:
        return [u.user_id for u in self.users]

    def n_baskets(self) -> int:
        return sum(len(u.baskets) for u in self.users)


@dataclass
class SplitDataset:
    """Held-out last baskets for one evaluation split."""

    train: BasketDataset
    eval_targets: dict[str, frozenset[str]]
    split_label: str  # "validation" or "test"


@dataclass
class ItemGroups:
    popular: set[str]
    unpopular: set[str]


RepeatSets = dict[str, frozenset[str]]


def load_baskets(path: str, format: str = "jsonl",
                 categories: dict[str, str] | None = None) -> BasketDataset:
    """Read a basket file (jsonl or csv) into a BasketDataset.

    Duplicate items inside one basket are dropped and counted in
    ``dedup_count``. Raises DataError on malformed lines (with the line
    number) or an empty file.
    """
    if format == "jsonl":
        users, dedup = _load_jsonl(path)
    elif format == "csv":
        users, dedup = _load_csv(path)
    else:
        raise DataError(f"unknown basket format: {format!r}")
    if not users:
        raise DataError(f"{path}: no users found")
    return BasketDataset(users=users, categories=dict(categories or {}),
                         dedup_count=dedup)


def _load_jsonl(path: str) -> tuple[list[UserHistory], int]:
    users: list[UserHistory] = []
    seen: set[str] = set()
    dedup = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                uid = str(rec["user_id"])
                raw_baskets = [_json_array(b)
                               for b in _json_array(rec["baskets"])]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise DataError(f"{path}:{lineno}: malformed record ({exc})") from exc
            if uid in seen:
                raise DataError(f"{path}:{lineno}: duplicate user {uid!r}")
            seen.add(uid)
            if not all(raw_baskets):
                raise DataError(f"{path}:{lineno}: empty basket for user {uid!r}")
            baskets = [frozenset(map(str, b)) for b in raw_baskets]
            dedup += sum(map(len, raw_baskets)) - sum(map(len, baskets))
            users.append(UserHistory(uid, baskets))
    return users, dedup


def _json_array(value) -> list:
    """``value`` if it is a JSON array, else TypeError. A string or an
    object would iterate into characters or keys; a number, a bool or null
    fails the way iterating it does."""
    if type(value) is not list:
        iter(value)  # "'int' object is not iterable"
        raise TypeError(f"{type(value).__name__!r} object is not a JSON array")
    return value


def _load_csv(path: str) -> tuple[list[UserHistory], int]:
    # columns: user_id, basket_index, item_id (header required)
    per_user: dict[str, dict[int, list[str]]] = {}
    order: list[str] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"user_id", "basket_index", "item_id"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise DataError(f"{path}: expected header with columns {sorted(required)}")
        for lineno, row in enumerate(reader, start=2):
            try:
                uid = row["user_id"]
                idx = int(row["basket_index"])
                item = row["item_id"]
                if uid is None or item is None:
                    raise ValueError("missing field")
            except (ValueError, TypeError) as exc:
                raise DataError(f"{path}:{lineno}: malformed row ({exc})") from exc
            if uid not in per_user:
                per_user[uid] = {}
                order.append(uid)
            per_user[uid].setdefault(idx, []).append(item)
    users = []
    dedup = 0
    for uid in order:
        baskets = []
        for idx in sorted(per_user[uid]):
            items = per_user[uid][idx]
            basket = frozenset(items)
            dedup += len(items) - len(basket)
            baskets.append(basket)
        users.append(UserHistory(uid, baskets))
    return users, dedup


def save_baskets(ds: BasketDataset, path: str) -> None:
    """Write a dataset as baskets JSONL; round-trips through load_baskets."""
    with open(path, "w", encoding="utf-8") as fh:
        for u in ds.users:
            rec = {"user_id": u.user_id,
                   "baskets": [sorted(b) for b in u.baskets]}
            fh.write(json.dumps(rec) + "\n")


def load_categories(path: str) -> dict[str, str]:
    """Read an item->category TSV (no header)."""
    cats: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected 2 tab-separated fields")
            cats[parts[0]] = parts[1]
    return cats


def save_categories(categories: dict[str, str], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for item in sorted(categories):
            fh.write(f"{item}\t{categories[item]}\n")


def sample_users(ds: BasketDataset, n_users: int, seed: int) -> BasketDataset:
    """Keep a random subset of users (before any filtering)."""
    if n_users >= len(ds.users):
        return ds
    rng = random.Random(seed)
    keep = set(rng.sample(range(len(ds.users)), n_users))
    users = [u for i, u in enumerate(ds.users) if i in keep]
    return BasketDataset(users, dict(ds.categories), ds.dedup_count)


def filter_min_activity(ds: BasketDataset, min_baskets: int = 3,
                        min_item_purchases: int = 5) -> BasketDataset:
    """Iteratively drop rare items and low-activity users to a fixed point.

    One pass of either rule can re-violate the other, so both are applied
    until the dataset stops changing. Emptied baskets are dropped.
    """
    users = ds.users  # every pass builds new users; none is changed in place
    while True:
        counts = Counter(chain.from_iterable(
            chain.from_iterable(u.baskets for u in users)))
        bad_items = {i for i, c in counts.items() if c < min_item_purchases}
        changed = False
        next_users = []
        for u in users:
            baskets = []
            for b in u.baskets:
                if b.isdisjoint(bad_items):
                    baskets.append(b)
                    continue
                changed = True
                kept = b - bad_items
                if kept:
                    baskets.append(kept)
            if len(baskets) >= min_baskets:
                next_users.append(UserHistory(u.user_id, baskets))
            else:
                changed = True
        users = next_users
        if not changed:
            break
    if not users:
        raise DataError("dataset exhausted by filtering")
    return BasketDataset(users, dict(ds.categories), ds.dedup_count)


def cap_history(ds: BasketDataset, max_baskets: int = 50) -> BasketDataset:
    """Keep at most the most recent ``max_baskets`` baskets per user."""
    users = [UserHistory(u.user_id, list(u.baskets[-max_baskets:]))
             for u in ds.users]
    return BasketDataset(users, dict(ds.categories), ds.dedup_count)


def split_leave_last(ds: BasketDataset, seed: int
                     ) -> tuple[BasketDataset, SplitDataset, SplitDataset]:
    """Leave-last-basket split with a seeded 50/50 user partition.

    Training data holds every basket except each user's last. Users are
    shuffled deterministically and split in half; with an odd count the
    validation split receives the extra user.
    """
    for u in ds.users:
        if len(u.baskets) < 2:
            raise DataError(f"user {u.user_id!r} has fewer than 2 baskets; filter first")
    train_users = [UserHistory(u.user_id, list(u.baskets[:-1])) for u in ds.users]
    train = BasketDataset(train_users, dict(ds.categories), ds.dedup_count)

    ids = sorted(u.user_id for u in ds.users)
    rng = random.Random(seed)
    rng.shuffle(ids)
    half = math.ceil(len(ids) / 2)
    val_ids, test_ids = set(ids[:half]), set(ids[half:])
    targets = {u.user_id: u.baskets[-1] for u in ds.users}
    validation = SplitDataset(
        train, {u: targets[u] for u in sorted(val_ids)}, "validation")
    test = SplitDataset(
        train, {u: targets[u] for u in sorted(test_ids)}, "test")
    return train, validation, test


def save_targets(split: SplitDataset, path: str) -> None:
    """Write one evaluation split's targets as JSONL."""
    with open(path, "w", encoding="utf-8") as fh:
        for uid in sorted(split.eval_targets):
            rec = {"user_id": uid, "basket": sorted(split.eval_targets[uid]),
                   "split": split.split_label}
            fh.write(json.dumps(rec) + "\n")


def load_targets(path: str, train: BasketDataset) -> SplitDataset:
    targets: dict[str, frozenset[str]] = {}
    label = "test"
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                uid = str(rec["user_id"])
                basket = frozenset(map(str, _json_array(rec["basket"])))
                label = rec.get("split", label)
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise DataError(f"{path}:{lineno}: malformed target ({exc})") from exc
            targets[uid] = basket
    if not targets:
        raise DataError(f"{path}: no targets found")
    return SplitDataset(train, targets, label)


def build_repeat_sets(train: BasketDataset) -> RepeatSets:
    """Per-user union of training baskets."""
    reps: RepeatSets = {}
    for u in train.users:
        if not u.baskets:
            raise DataError(f"user {u.user_id!r} has no training baskets")
        # copied from a set, the frozenset's table is sized for the distinct
        # items; one grown from the chained baskets can be twice as large
        reps[u.user_id] = frozenset(set(chain.from_iterable(u.baskets)))
    return reps


def build_item_groups(train: BasketDataset, top_fraction: float = 0.2) -> ItemGroups:
    """Split the vocabulary into popular / unpopular item groups.

    Items are ranked by training purchase count descending, ties broken by
    item id ascending; the top ceil(fraction * |I|) form the popular group.
    Fewer than two purchased items leave a group empty: DataError.
    """
    if not (0 < top_fraction < 1):
        raise DataError(f"top_fraction must be in (0,1), got {top_fraction}")
    counts = Counter(chain.from_iterable(
        chain.from_iterable(u.baskets for u in train.users)))
    if len(counts) < 2:
        raise DataError(f"item groups need at least 2 purchased items in "
                        f"train, got {len(counts)}")
    ranked = sorted(counts)
    ranked.sort(key=counts.__getitem__, reverse=True)
    n_pop = math.ceil(top_fraction * len(ranked))
    return ItemGroups(set(ranked[:n_pop]), set(ranked[n_pop:]))


def ground_truth_repeat_ratio(targets: SplitDataset, reps: RepeatSets) -> float:
    """Mean per-user fraction of repeat items in the ground-truth baskets.

    Empty target baskets are skipped, as in Recall; DataError if none is
    left.
    """
    ratios = [len(basket & reps.get(uid, frozenset())) / len(basket)
              for uid, basket in targets.eval_targets.items() if basket]
    if not ratios:
        raise DataError("no non-empty evaluation targets")
    return sum(ratios) / len(ratios)
