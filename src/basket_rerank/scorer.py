"""Candidate relevance scores: file import plus two built-in scorers.

A CandidateSet is either *unified* (one score list per user) or *combined*
(separate repeat and explore lists whose scores are not comparable).
Every emitted list is sorted by score descending with item-id-ascending
ties and truncated to the top N. Explore lists all come from one global
popularity ranking: each user's list is its first N items the user has not
bought before.

Score files are read line by line, never whole: a whole-file read is no
faster here and holds every line's text at once beside the parsed rows,
which raises the peak resident size. Each distinct ``item<TAB>score`` text
is parsed once per file, and all its rows share one (item, score) tuple:
explore scores are item-level, so most rows repeat another user's text
(the benchmark's ``pipeline`` unified file has 60,000 rows and 5,919
distinct texts, the ``rerank-ties`` explore file 36,469 and 841), and a
file is read in time and memory that grow with its distinct texts.
``save_scores`` formats each distinct score once per call: the built-in
scores are ratios of small counts, so a file of many rows holds few
distinct values.
"""
from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import itemgetter

from .dataset import BasketDataset, RepeatSets
from .errors import DataError

ScoreList = list[tuple[str, float]]


_ID = itemgetter(0)
_SCORE = itemgetter(1)


def _rank_key(pair: tuple[str, float]) -> tuple[float, str]:
    return -pair[1], pair[0]


def rank_pairs(pairs: ScoreList, n: int | None = None) -> ScoreList:
    """Sort (item, score) pairs by score desc, id asc; truncate to n.

    Two native-key passes, by id and then a stable pass by score
    descending: on unordered pairs, faster than one pass on a Python key.
    """
    ranked = sorted(pairs, key=_ID)
    ranked.sort(key=_SCORE, reverse=True)
    return ranked if n is None else ranked[:n]


def _ranked_in_place(per_user: dict[str, ScoreList], n: int
                     ) -> dict[str, ScoreList]:
    """``rank_pairs`` applied to every list in place, with no copy.

    For lists made of ranked runs, like score files (``save_scores``
    writes them ranked) and ``make_unified``'s two sides: there one pass
    on a (-score, id) key merges the runs, and the two native-key passes of
    ``rank_pairs`` are slower, because their first undoes the order.
    """
    for rows in per_user.values():
        rows.sort(key=_rank_key)
        del rows[n:]
    return per_user


@dataclass
class CandidateSet:
    kind: str  # "unified" or "combined"
    unified: dict[str, ScoreList] = field(default_factory=dict)
    repeat_list: dict[str, ScoreList] = field(default_factory=dict)
    explore_list: dict[str, ScoreList] = field(default_factory=dict)

    @property
    def user_ids(self) -> list[str]:
        if self.kind == "unified":
            return sorted(self.unified)
        # combined users may appear in either list
        return sorted(set(self.repeat_list) | set(self.explore_list))


def _read_scores_tsv(path: str) -> dict[str, ScoreList]:
    """Each user's (item, score) rows in file order.

    Each line is split once at its first tab. The rest of it, the
    ``item<TAB>score`` text, is parsed and checked once per call: its
    (item, score) pair is kept under that text, and every later line with
    the same text, for any user, gets the same tuple. Explore scores are
    shared by every user, so most rows repeat another user's text (the
    pipeline's unified file: 60,000 rows, 5,919 distinct texts). A text
    that does not parse is never kept, so it raises at its first line.

    A malformed line raises as it is read. Duplicate (user, item) rows are
    looked for once the file is read, one set per user; only when there is
    one is the file read again, for the line of the first. So a duplicate
    before a malformed line reports the malformed line.
    """
    per_user: dict[str, ScoreList] = {}
    pairs: dict[str, tuple[str, float]] = {}
    uid = rows = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            row_uid, _, text = line.partition("\t")
            pair = pairs.get(text)
            if pair is None:
                try:
                    # float() ignores the newline left on the last field
                    item, raw = text.split("\t")
                    score = float(raw)
                except ValueError as exc:
                    parts = line.rstrip("\n").split("\t")
                    if parts == [""]:
                        continue
                    if len(parts) != 3:
                        raise DataError(
                            f"{path}:{lineno}: expected 3 tab-separated fields"
                        ) from None
                    raise DataError(
                        f"{path}:{lineno}: bad score {parts[2]!r}") from exc
                if not math.isfinite(score):
                    raise DataError(
                        f"{path}:{lineno}: non-finite score for ({row_uid},{item})")
                # one string per item id, shared by every user's list
                pair = pairs[text] = (sys.intern(item), score)
            if row_uid != uid:
                uid = row_uid
                rows = per_user.get(uid)
                if rows is None:
                    rows = per_user[uid] = []
            rows.append(pair)
    if not per_user:
        raise DataError(f"{path}: no score rows")
    if any(len(set(map(_ID, rows))) != len(rows) for rows in per_user.values()):
        raise _first_duplicate(path)
    return per_user


def _first_duplicate(path: str) -> DataError:
    """The error for the first (user, item) row of ``path`` that repeats an
    earlier one."""
    seen: set[tuple[str, ...]] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            key = tuple(line.split("\t")[:2])
            if key in seen:
                return DataError(f"{path}:{lineno}: duplicate (user,item) "
                                 f"row ({key[0]},{key[1]})")
            seen.add(key)
    return DataError(f"{path}: duplicate (user,item) rows")


def import_scores(path: str, kind: str = "unified", n: int = 100,
                  explore_path: str | None = None) -> CandidateSet:
    """Load external model scores from TSV (user, item, score).

    Unified kind reads one file; combined kind reads ``path`` as the repeat
    scores and ``explore_path`` as the explore scores.
    """
    if kind == "unified":
        unified = _ranked_in_place(_read_scores_tsv(path), n)
        return CandidateSet(kind="unified", unified=unified)
    if kind == "combined":
        if explore_path is None:
            raise DataError("combined import needs both a repeat and an explore file")
        rep = _ranked_in_place(_read_scores_tsv(path), n)
        exp = _ranked_in_place(_read_scores_tsv(explore_path), n)
        for uid in sorted(rep.keys() & exp.keys()):
            overlap = {i for i, _ in rep[uid]} & {i for i, _ in exp[uid]}
            if overlap:
                raise DataError(
                    f"user {uid!r}: items {sorted(overlap)[:3]} appear in both "
                    "repeat and explore score files")
        return CandidateSet(kind="combined", repeat_list=rep, explore_list=exp)
    raise DataError(f"unknown candidate kind: {kind!r}")


def save_scores(scores: dict[str, ScoreList], path: str) -> None:
    """Write ``user<TAB>item<TAB>repr(score)`` rows, users in id order.

    Each distinct score is formatted once per call. Only non-zero floats
    are looked up, because equal keys can differ in ``repr``: 0.0 and -0.0,
    or 1 and 1.0.
    """
    text: dict[float, str] = {}
    with open(path, "w", encoding="utf-8") as fh:
        for uid in sorted(scores):
            lines = []
            for item, s in scores[uid]:
                if s and type(s) is float:
                    t = text.get(s)
                    if t is None:
                        t = text[s] = repr(s)
                else:
                    t = repr(s)
                lines.append(f"{uid}\t{item}\t{t}\n")
            fh.write("".join(lines))


def missing_users(cands: CandidateSet, user_ids: list[str]) -> list[str]:
    """Users expected by the caller but absent from the imported scores."""
    have = set(cands.user_ids)
    return [u for u in user_ids if u not in have]


def score_repeat_topfreq(train: BasketDataset, reps: RepeatSets, n: int = 100
                         ) -> dict[str, ScoreList]:
    """Personal purchase frequency: count(u,i) / #baskets(u) over repeat items."""
    out: dict[str, ScoreList] = {}
    for u in train.users:
        counts = Counter(chain.from_iterable(u.baskets))
        nb = len(u.baskets)
        pairs = [(i, counts[i] / nb) for i in reps.get(u.user_id, frozenset())]
        out[u.user_id] = rank_pairs(pairs, n)
    return out


def score_explore_popularity(train: BasketDataset, reps: RepeatSets, n: int = 100
                             ) -> dict[str, ScoreList]:
    """Global popularity normalized by the max count, over unseen items only.

    The vocabulary is ranked once; each user's list is the first ``n``
    items of that ranking outside the user's repeat set.
    """
    counts = Counter(chain.from_iterable(
        chain.from_iterable(u.baskets for u in train.users)))
    max_count = max(counts.values())
    ranking = rank_pairs([(i, c / max_count) for i, c in counts.items()])
    out: dict[str, ScoreList] = {}
    for u in train.users:
        rep = reps.get(u.user_id, frozenset())
        out[u.user_id] = list(islice((p for p in ranking if p[0] not in rep), n))
    return out


def make_combined(train: BasketDataset, reps: RepeatSets, n: int = 100) -> CandidateSet:
    """Built-in combined candidate set (frequency repeat + popularity explore)."""
    return CandidateSet(
        kind="combined", repeat_list=score_repeat_topfreq(train, reps, n),
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
        pairs.sort(key=_rank_key)  # two ranked runs: see _ranked_in_place
        unified[uid] = pairs[:n]
    return CandidateSet(kind="unified", unified=unified)
