from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from basket_rerank.dataset import build_repeat_sets
from basket_rerank.errors import DataError
from basket_rerank.scorer import (_read_scores_tsv, import_scores,
                                  make_unified, missing_users, rank_pairs,
                                  save_scores, score_explore_popularity,
                                  score_repeat_topfreq)
from tests.conftest import examples
from tests.oracle import read_scores_tsv
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

    def test_duplicate_faults_order(self, tmp_path):
        # duplicates are looked for after the whole file is read: a
        # malformed line after a duplicate is the fault reported
        path = write_tsv(tmp_path, [("u1", "a", 0.5), ("u1", "a", 0.4),
                                    ("u1", "b", "x")])
        with pytest.raises(DataError, match=r"scores\.tsv:3: bad score 'x'"):
            import_scores(path, "unified")
        # of several duplicates, the first in file order, whatever its user
        path = write_tsv(tmp_path, [("u1", "a", 0.5), ("u2", "b", 0.5),
                                    ("u2", "b", 0.3), ("u1", "a", 0.4)])
        with pytest.raises(DataError, match=r"scores\.tsv:3: duplicate "
                                            r"\(user,item\) row \(u2,b\)"):
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

    def test_combined_overlap_names_the_first_user(self, tmp_path):
        # every user overlaps: the error names the first in id order,
        # whatever the hash seed
        users = [f"u{j}" for j in range(30)]
        rep = write_tsv(tmp_path, [(u, "a", 0.5) for u in users], "rep.tsv")
        exp = write_tsv(tmp_path, [(u, "a", 0.4) for u in users], "exp.tsv")
        with pytest.raises(DataError, match=r"^user 'u0': items \['a'\]"):
            import_scores(rep, "combined", explore_path=exp)

    def test_rows_with_equal_text_share_one_pair(self, tmp_path):
        # equal text after the user id: one tuple; equal values written
        # differently (1 and 1.0, 0.5 and 0.50) stay apart
        path = write_tsv(tmp_path, [
            ("u1", "a", "0.5"), ("u1", "b", "1.0"), ("u2", "a", "0.5"),
            ("u2", "b", "1"), ("u3", "b", "1.0"), ("u3", "a", "0.50")])
        per_user = _read_scores_tsv(path)
        assert per_user["u1"][0] is per_user["u2"][0]
        assert per_user["u1"][1] is per_user["u3"][0]
        assert len({id(p) for rows in per_user.values() for p in rows}) == 4

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


def test_rank_pairs_signed_zero_ties():
    # 0.0 and -0.0 are one score: their items go in id order, and each
    # pair keeps its own sign
    ranked = rank_pairs([("d", 0.0), ("b", -0.0), ("c", 0.0), ("a", -0.0),
                         ("e", 0.5), ("f", -0.5)])
    assert [(i, repr(s)) for i, s in ranked] == [
        ("e", "0.5"), ("a", "-0.0"), ("b", "-0.0"), ("c", "0.0"),
        ("d", "0.0"), ("f", "-0.5")]


def test_make_unified_ties_after_mix():
    # 0.2 * 0.4 == 0.8 * 0.1 and 0.2 * 0.8 == 0.8 * 0.2 in floats: tied
    # only after the mix product, so the explore ids, smaller, come first
    # although the repeat side is listed first
    assert 0.2 * 0.4 == (1.0 - 0.2) * 0.1
    cands = make_unified({"u": [("z", 0.8), ("y", 0.4)]},
                         {"u": [("b", 0.2), ("a", 0.1)]}, mix=0.2)
    assert [i for i, _ in cands.unified["u"]] == ["b", "z", "a", "y"]


def test_save_scores_repr_per_row(tmp_path):
    # users in id order, rows as given, every score its own repr: equal
    # keys with different text (0.0 and -0.0, 1 and 1.0) stay apart
    path = tmp_path / "out.tsv"
    save_scores({"u2": [("x", 0.1), ("y", -0.0), ("z", 0.0), ("w", -0.0)],
                 "u1": [("a", 1.0), ("b", 1), ("c", 1.0), ("d", 1 / 3),
                        ("e", 0.0)]}, str(path))
    assert path.read_text() == (
        "u1\ta\t1.0\nu1\tb\t1\nu1\tc\t1.0\n"
        f"u1\td\t{1 / 3!r}\nu1\te\t0.0\n"
        "u2\tx\t0.1\nu2\ty\t-0.0\nu2\tz\t0.0\nu2\tw\t-0.0\n")


_ids = st.text("abc01", min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(
    _ids, st.dictionaries(_ids, st.floats(allow_nan=False, allow_infinity=False)
                          | st.sampled_from([0.0, -0.0, 0.5, 0.25]),
                          min_size=1, max_size=8),
    min_size=1, max_size=4))
def test_save_import_round_trip(tmp_path_factory, scores):
    # scores go out in the caller's order and come back ranked, with
    # every bit of every score (the sign of zero included)
    path = tmp_path_factory.mktemp("scores") / "s.tsv"
    save_scores({u: list(rows.items()) for u, rows in scores.items()}, str(path))
    cands = import_scores(str(path), "unified", n=100)
    assert {u: [(i, repr(s)) for i, s in rows]
            for u, rows in cands.unified.items()} == \
        {u: [(i, repr(s)) for i, s in rank_pairs(list(rows.items()))]
         for u, rows in scores.items()}


_ROW_TEXTS = ["0.0", "-0.0", "1", "1.0", "0.5", "2.5e-1"]
# a bad score, a non-finite one, or a wrong field count, in the text after
# the user id
_BAD_TEXTS = ["a\tx", "b\t", "a\tnan", "c\tinf", "b\t-1e999", "a",
              "a\t1.0\t1.0", ""]


@st.composite
def score_files(draw):
    """Score file text: rows that repeat their item and score text across
    users, blank lines, at times a duplicate (user, item) row and one
    faulty text on one or more lines, and at times no last newline."""
    users, items = ["u0", "u1", "u2", "u10"], ["a", "b", "c", "d"]
    rows = draw(st.lists(
        st.tuples(st.sampled_from(users), st.sampled_from(items),
                  st.sampled_from(_ROW_TEXTS)),
        max_size=14, unique_by=lambda r: r[:2]))
    lines = [f"{u}\t{i}\t{s}" for u, i, s in rows]
    if rows and draw(st.booleans()):
        u, i, _ = draw(st.sampled_from(rows))
        lines.insert(draw(st.integers(0, len(lines))), f"{u}\t{i}\t0.5")
    if draw(st.booleans()):
        bad = draw(st.sampled_from(_BAD_TEXTS))
        for u in draw(st.lists(st.sampled_from(users), min_size=1, max_size=3)):
            lines.insert(draw(st.integers(0, len(lines))),
                         f"{u}\t{bad}" if bad else u)
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    text = "\n".join(lines)
    return text + "\n" if draw(st.booleans()) else text


def _read_outcome(read, path):
    """What a reader makes of a file: its users' rows in file order with
    each score's repr, or its error message."""
    try:
        return [(u, [(i, repr(s)) for i, s in rows])
                for u, rows in read(path).items()]
    except DataError as exc:
        return str(exc)


@pytest.fixture(scope="module")
def score_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("scores")


@settings(max_examples=examples(300), deadline=None)
@given(text=score_files())
def test_reader_matches_reference(score_dir, text):
    # the reader parses each distinct row text once; the reference parses
    # every line: same rows, same score bits, or the same error
    path = score_dir / "s.tsv"
    path.write_text(text)
    assert _read_outcome(_read_scores_tsv, str(path)) \
        == _read_outcome(read_scores_tsv, str(path))
