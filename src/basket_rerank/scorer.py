"""Candidate relevance scores: file import plus two built-in scorers.

A CandidateSet is either *unified* (one score list per user) or *combined*
(separate repeat and explore lists whose scores are not comparable).
Every emitted list is sorted by score descending with item-id-ascending
ties and truncated to the top N. Explore lists all come from one global
popularity ranking: each user's list is its first N items the user has not
bought before.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice

from .dataset import BasketDataset, RepeatSets
from .errors import DataError

ScoreList = list[tuple[str, float]]


def rank_pairs(pairs: ScoreList, n: int | None = None) -> ScoreList:
    """Sort (item, score) pairs by score desc, id asc; truncate to n."""
    ranked = sorted(pairs, key=lambda p: (-p[1], p[0]))
    return ranked if n is None else ranked[:n]


@dataclass
class CandidateSet:
    kind: str  # "unified" or "combined"
    n: int
    unified: dict[str, ScoreList] = field(default_factory=dict)
    repeat_list: dict[str, ScoreList] = field(default_factory=dict)
    explore_list: dict[str, ScoreList] = field(default_factory=dict)

    @property
    def user_ids(self) -> list[str]:
        src = self.unified if self.kind == "unified" else self.repeat_list
        # combined users may appear in either list
        if self.kind == "combined":
            return sorted(set(self.repeat_list) | set(self.explore_list))
        return sorted(src)


def _read_scores_tsv(path: str) -> dict[str, ScoreList]:
    per_user: dict[str, ScoreList] = {}
    seen: dict[str, set[str]] = {}  # items per user, for the duplicate check
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields")
            uid, item, raw = parts
            try:
                score = float(raw)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad score {raw!r}") from exc
            if not math.isfinite(score):
                raise DataError(f"{path}:{lineno}: non-finite score for ({uid},{item})")
            user_items = seen.get(uid)
            if user_items is None:
                user_items = seen[uid] = set()
                per_user[uid] = []
            elif item in user_items:
                raise DataError(f"{path}:{lineno}: duplicate (user,item) row ({uid},{item})")
            user_items.add(item)
            per_user[uid].append((item, score))
    if not per_user:
        raise DataError(f"{path}: no score rows")
    return per_user


def import_scores(path: str, kind: str = "unified", n: int = 100,
                  explore_path: str | None = None) -> CandidateSet:
    """Load external model scores from TSV (user, item, score).

    Unified kind reads one file; combined kind reads ``path`` as the repeat
    scores and ``explore_path`` as the explore scores.
    """
    if kind == "unified":
        per_user = _read_scores_tsv(path)
        unified = {u: rank_pairs(rows, n) for u, rows in per_user.items()}
        return CandidateSet(kind="unified", n=n, unified=unified)
    if kind == "combined":
        if explore_path is None:
            raise DataError("combined import needs both a repeat and an explore file")
        rep = {u: rank_pairs(rows, n) for u, rows in _read_scores_tsv(path).items()}
        exp = {u: rank_pairs(rows, n) for u, rows in _read_scores_tsv(explore_path).items()}
        for uid in set(rep) & set(exp):
            overlap = {i for i, _ in rep[uid]} & {i for i, _ in exp[uid]}
            if overlap:
                raise DataError(
                    f"user {uid!r}: items {sorted(overlap)[:3]} appear in both "
                    "repeat and explore score files")
        return CandidateSet(kind="combined", n=n, repeat_list=rep, explore_list=exp)
    raise DataError(f"unknown candidate kind: {kind!r}")


def save_scores(scores: dict[str, ScoreList], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for uid in sorted(scores):
            for item, s in scores[uid]:
                fh.write(f"{uid}\t{item}\t{s!r}\n")


def missing_users(cands: CandidateSet, user_ids: list[str]) -> list[str]:
    """Users expected by the caller but absent from the imported scores."""
    have = set(cands.user_ids)
    return [u for u in user_ids if u not in have]


def score_repeat_topfreq(train: BasketDataset, reps: RepeatSets, n: int = 100
                         ) -> dict[str, ScoreList]:
    """Personal purchase frequency: count(u,i) / #baskets(u) over repeat items."""
    out: dict[str, ScoreList] = {}
    for u in train.users:
        counts: Counter[str] = Counter()
        for b in u.baskets:
            counts.update(b)
        nb = len(u.baskets)
        pairs = [(i, counts[i] / nb) for i in reps.get(u.user_id, frozenset())]
        out[u.user_id] = rank_pairs(pairs, n)
    return out


def score_explore_popularity(train: BasketDataset, reps: RepeatSets, n: int = 100
                             ) -> dict[str, ScoreList]:
    """Global popularity normalized by the max count, over unseen items only.

    The vocabulary is ranked once; each user's list is the first ``n``
    items of that ranking outside the user's repeat set. The score is
    strictly increasing in the count, so ranking by (-count, id) is the
    (-score, id) order of ``rank_pairs``.
    """
    counts: Counter[str] = Counter()
    for u in train.users:
        for b in u.baskets:
            counts.update(b)
    max_count = max(counts.values())
    ranking = [(i, c / max_count)
               for i, c in sorted(counts.items(), key=lambda p: (-p[1], p[0]))]
    out: dict[str, ScoreList] = {}
    for u in train.users:
        rep = reps.get(u.user_id, frozenset())
        out[u.user_id] = list(islice((p for p in ranking if p[0] not in rep), n))
    return out


def make_combined(train: BasketDataset, reps: RepeatSets, n: int = 100) -> CandidateSet:
    """Built-in combined candidate set (frequency repeat + popularity explore)."""
    return CandidateSet(
        kind="combined", n=n,
        repeat_list=score_repeat_topfreq(train, reps, n),
        explore_list=score_explore_popularity(train, reps, n))


def make_unified(repeat_side: dict[str, ScoreList],
                 explore_side: dict[str, ScoreList],
                 mix: float, n: int = 100) -> CandidateSet:
    """Blend repeat and explore scores into one comparable list per user.

    Repeat scores are weighted by ``mix`` and explore scores by ``1 - mix``;
    mix near 1 produces a deliberately repeat-biased scorer.
    """
    if not (0.0 <= mix <= 1.0):
        raise DataError(f"mix must be in [0,1], got {mix}")
    unified: dict[str, ScoreList] = {}
    for uid in sorted(set(repeat_side) | set(explore_side)):
        pairs = [(i, mix * s) for i, s in repeat_side.get(uid, [])]
        pairs += [(i, (1.0 - mix) * s) for i, s in explore_side.get(uid, [])]
        unified[uid] = rank_pairs(pairs, n)
    return CandidateSet(kind="unified", n=n, unified=unified)
