from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from basket_rerank.dataset import build_repeat_sets
from basket_rerank.errors import DataError
from basket_rerank.scorer import (import_scores, make_unified, missing_users,
                                  rank_pairs, save_scores,
                                  score_explore_popularity,
                                  score_repeat_topfreq)
from tests.test_dataset import make_ds


def write_tsv(tmp_path, rows, name="scores.tsv"):
    path = tmp_path / name
    path.write_text("".join(f"{u}\t{i}\t{s}\n" for u, i, s in rows))
    return str(path)


class TestImportScores:
    def test_echo(self, tmp_path):
        path = write_tsv(tmp_path, [("u1", "a", 0.9), ("u1", "b", 0.7)])
        cands = import_scores(path, "unified", n=100)
        assert cands.unified["u1"] == [("a", 0.9), ("b", 0.7)]

    def test_tie_broken_by_id(self, tmp_path):
        path = write_tsv(tmp_path, [("u1", "b", 0.5), ("u1", "a", 0.5)])
        cands = import_scores(path, "unified", n=100)
        assert [i for i, _ in cands.unified["u1"]] == ["a", "b"]

    def test_truncation(self, tmp_path):
        path = write_tsv(tmp_path, [("u1", "a", 0.3), ("u1", "b", 0.9),
                                    ("u1", "c", 0.5)])
        cands = import_scores(path, "unified", n=1)
        assert cands.unified["u1"] == [("b", 0.9)]

    def test_non_finite_rejected(self, tmp_path):
        path = write_tsv(tmp_path, [("u1", "a", "nan")])
        with pytest.raises(DataError, match="non-finite"):
            import_scores(path, "unified")

    def test_duplicate_row_rejected(self, tmp_path):
        path = write_tsv(tmp_path, [("u1", "a", 0.5), ("u1", "a", 0.4)])
        with pytest.raises(DataError, match="duplicate"):
            import_scores(path, "unified")

    def test_duplicate_row_names_its_line(self, tmp_path):
        # the same item for another user is not a duplicate; the repeat
        # for u1 after rows of u2 is, on line 4
        path = write_tsv(tmp_path, [("u1", "a", 0.5), ("u2", "a", 0.5),
                                    ("u2", "b", 0.3), ("u1", "a", 0.4)])
        with pytest.raises(DataError, match=r"scores\.tsv:4: duplicate "
                                            r"\(user,item\) row \(u1,a\)"):
            import_scores(path, "unified")

    def test_combined_needs_two_files(self, tmp_path):
        path = write_tsv(tmp_path, [("u1", "a", 0.5)])
        with pytest.raises(DataError, match="explore"):
            import_scores(path, "combined")

    def test_combined_overlap_rejected(self, tmp_path):
        rep = write_tsv(tmp_path, [("u1", "a", 0.5)], "rep.tsv")
        exp = write_tsv(tmp_path, [("u1", "a", 0.4)], "exp.tsv")
        with pytest.raises(DataError, match="both"):
            import_scores(rep, "combined", explore_path=exp)

    def test_missing_users_flagged(self, tmp_path):
        path = write_tsv(tmp_path, [("u1", "a", 0.5)])
        cands = import_scores(path, "unified")
        assert missing_users(cands, ["u1", "u2"]) == ["u2"]

    def test_roundtrip(self, tmp_path):
        scores = {"u1": [("a", 0.875), ("b", 0.25)], "u2": [("c", 1.0)]}
        path = tmp_path / "out.tsv"
        save_scores(scores, str(path))
        cands = import_scores(str(path), "unified")
        assert cands.unified == scores


class TestBuiltinScorers:
    def test_repeat_frequency(self):
        train = make_ds({"u1": [["a"], ["a"], ["a", "b"], ["c"]]})
        reps = build_repeat_sets(train)
        scores = score_repeat_topfreq(train, reps, 100)
        assert dict(scores["u1"])["a"] == 0.75
        assert dict(scores["u1"])["b"] == 0.25

    def test_unseen_item_absent(self):
        train = make_ds({"u1": [["a"]], "u2": [["b"]]})
        reps = build_repeat_sets(train)
        scores = score_repeat_topfreq(train, reps, 100)
        assert "b" not in dict(scores["u1"])

    def test_equal_frequency_id_order(self):
        train = make_ds({"u1": [["b", "a"], ["a", "b"]]})
        reps = build_repeat_sets(train)
        assert [i for i, _ in score_repeat_topfreq(train, reps, 100)["u1"]] \
            == ["a", "b"]

    def test_explore_most_popular_scores_one(self):
        train = make_ds({"u1": [["a"]],
                         "u2": [["b"], ["b"], ["b"]]})
        reps = build_repeat_sets(train)
        scores = score_explore_popularity(train, reps, 100)
        # b is globally most popular and unseen by u1
        assert dict(scores["u1"])["b"] == 1.0

    def test_explore_excludes_repeat_items(self):
        train = make_ds({"u1": [["a", "b"]], "u2": [["a"]]})
        reps = build_repeat_sets(train)
        assert "a" not in dict(score_explore_popularity(train, reps, 100)["u1"])

    def test_explore_truncation_boundary(self):
        train = make_ds({"u1": [["a"]], "u2": [["b"], ["c"]]})
        reps = build_repeat_sets(train)
        scores = score_explore_popularity(train, reps, 100)
        assert len(scores["u1"]) == 2  # only b and c are unseen


def explore_per_user_reference(train, reps, n):
    """The explore scorer's definition: rank every unseen item per user."""
    counts = Counter(i for u in train.users for b in u.baskets for i in b)
    top = max(counts.values())
    return {u.user_id: rank_pairs(
        [(i, c / top) for i, c in counts.items()
         if i not in reps.get(u.user_id, frozenset())], n)
        for u in train.users}


ITEMS = [f"i{j}" for j in range(8)]
USERS = [f"u{j}" for j in range(6)]


@settings(max_examples=300, deadline=None)
@given(histories=st.dictionaries(
           st.sampled_from(USERS),
           st.lists(st.lists(st.sampled_from(ITEMS), min_size=1, max_size=6),
                    min_size=1, max_size=4),
           min_size=1),
       reps=st.dictionaries(st.sampled_from(USERS),
                            st.frozensets(st.sampled_from(ITEMS))),
       n=st.one_of(st.sampled_from([0, 1, len(ITEMS) + 3]),
                   st.integers(0, len(ITEMS) + 3)))
def test_explore_matches_per_user_ranking(histories, reps, n):
    # few items and small counts make ties in popularity the common case;
    # drawn repeat sets may cover all of the vocabulary
    train = make_ds(histories)
    assert score_explore_popularity(train, reps, n) \
        == explore_per_user_reference(train, reps, n)
    own = build_repeat_sets(train)
    assert score_explore_popularity(train, own, n) \
        == explore_per_user_reference(train, own, n)


class TestMakeUnified:
    def test_mix_one_repeat_dominates(self):
        rep = {"u1": [("r", 0.5)]}
        exp = {"u1": [("x", 0.9)]}
        cands = make_unified(rep, exp, mix=1.0, n=10)
        assert cands.unified["u1"][0] == ("r", 0.5)
        assert cands.unified["u1"][1] == ("x", 0.0)

    def test_mix_zero_explore_dominates(self):
        rep = {"u1": [("r", 0.9)]}
        exp = {"u1": [("x", 0.5)]}
        cands = make_unified(rep, exp, mix=0.0, n=10)
        assert cands.unified["u1"][0] == ("x", 0.5)

    def test_mix_half_hand_computed(self):
        rep = {"u1": [("r1", 0.8), ("r2", 0.2)]}
        exp = {"u1": [("x1", 0.9), ("x2", 0.3)]}
        cands = make_unified(rep, exp, mix=0.5, n=10)
        # products: r1 0.4, r2 0.1, x1 0.45, x2 0.15
        assert cands.unified["u1"] == [("x1", 0.45), ("r1", 0.4),
                                       ("x2", 0.15), ("r2", 0.1)]

    def test_bad_mix_rejected(self):
        with pytest.raises(DataError):
            make_unified({}, {}, mix=1.5)


def test_rank_pairs_invariants():
    pairs = [("b", 0.5), ("a", 0.5), ("c", 0.9)]
    ranked = rank_pairs(pairs)
    assert ranked == sorted(ranked, key=lambda p: (-p[1], p[0]))
    assert rank_pairs(pairs, 2) == ranked[:2]
