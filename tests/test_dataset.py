import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from basket_rerank.dataset import (BasketDataset, UserHistory,
                                   build_item_groups, build_repeat_sets,
                                   cap_history, filter_min_activity,
                                   ground_truth_repeat_ratio, load_baskets,
                                   load_categories, sample_users,
                                   save_baskets, split_leave_last,
                                   SplitDataset)
from basket_rerank.errors import DataError
from basket_rerank.metrics import diversity_score


def make_ds(baskets_by_user, categories=None):
    users = [UserHistory(uid, [frozenset(b) for b in baskets])
             for uid, baskets in baskets_by_user.items()]
    return BasketDataset(users, categories or {})


def write_jsonl(tmp_path, records, name="baskets.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    return str(path)


class TestLoadBaskets:
    def test_single_user_echo(self, tmp_path):
        path = write_jsonl(tmp_path, [
            {"user_id": "u1", "baskets": [["a", "b"], ["a", "c"]]}])
        ds = load_baskets(path)
        assert len(ds.users) == 1
        assert len(ds.users[0].baskets) == 2
        assert ds.item_vocabulary == {"a", "b", "c"}

    def test_dedup_within_basket(self, tmp_path):
        path = write_jsonl(tmp_path, [
            {"user_id": "u1", "baskets": [["a", "a", "b"], ["c"]]}])
        ds = load_baskets(path)
        assert ds.users[0].baskets[0] == frozenset({"a", "b"})
        assert ds.dedup_count == 1

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"user_id": "u1", "baskets": [["a"]]}\nnot json\n')
        with pytest.raises(DataError, match=":2:"):
            load_baskets(str(path))

    # a string or an object iterates too, into characters or keys
    @pytest.mark.parametrize("baskets", [5, [5, [1, 2]], None, "xyz", ["abc"],
                                         {"a": 1}, [{"a": 1}]],
                             ids=["number", "number-basket", "null", "string",
                                  "string-basket", "object", "object-basket"])
    def test_malformed_baskets_report_lineno(self, tmp_path, baskets):
        path = write_jsonl(tmp_path, [{"user_id": "u0", "baskets": [["a"]]},
                                      {"user_id": "u1", "baskets": baskets}])
        with pytest.raises(DataError, match=r"baskets\.jsonl:2: malformed record"):
            load_baskets(path)

    def test_dedup_after_str(self, tmp_path):
        # item ids are strings, so 1 and "1" are one item
        path = write_jsonl(tmp_path, [
            {"user_id": "u1", "baskets": [[1, "1", 2], ["a", "a", "a"]]}])
        ds = load_baskets(path)
        assert ds.users[0].baskets == [frozenset({"1", "2"}), frozenset({"a"})]
        assert ds.dedup_count == 3

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DataError):
            load_baskets(str(path))

    def test_csv_format(self, tmp_path):
        path = tmp_path / "baskets.csv"
        path.write_text(
            "user_id,basket_index,item_id\n"
            "u1,0,a\nu1,0,b\nu1,1,a\nu2,0,c\n")
        ds = load_baskets(str(path), "csv")
        assert [u.user_id for u in ds.users] == ["u1", "u2"]
        assert ds.users[0].baskets == [frozenset({"a", "b"}), frozenset({"a"})]

    def test_roundtrip(self, tmp_path):
        ds = make_ds({"u1": [["a", "b"], ["c"]], "u2": [["b"], ["a", "c"]]})
        out = tmp_path / "saved.jsonl"
        save_baskets(ds, str(out))
        reloaded = load_baskets(str(out))
        assert [u.user_id for u in reloaded.users] == [u.user_id for u in ds.users]
        for a, b in zip(reloaded.users, ds.users):
            assert a.baskets == b.baskets


class TestCategories:
    def test_load_tsv(self, tmp_path):
        path = tmp_path / "cats.tsv"
        path.write_text("a\tfruit\nb\tdairy\n")
        cats = load_categories(str(path))
        assert cats == {"a": "fruit", "b": "dairy"}

    def test_unknown_item_gets_unk(self):
        # an item missing from the categories counts as category "UNK": two
        # such items share one category
        baskets = {"u1": ["a", "y", "z"]}
        assert diversity_score(baskets, {"a": "fruit"}, 3) == 2 / 3


class TestFilterMinActivity:
    def test_user_below_min_baskets_removed(self):
        ds = make_ds({"u1": [["a"] for _ in range(5)],
                      "u2": [["a"], ["a"]]})
        out = filter_min_activity(ds, min_baskets=3, min_item_purchases=5)
        assert [u.user_id for u in out.users] == ["u1"]

    def test_rare_item_removed_everywhere(self):
        baskets = {"u1": [["a", "b"], ["a"], ["a"]],
                   "u2": [["a", "b"], ["a"], ["a"]]}
        out = filter_min_activity(make_ds(baskets), min_baskets=3,
                                  min_item_purchases=5)
        # b appears 2 < 5 times; a appears 6 times
        assert out.item_vocabulary == {"a"}

    def test_fixed_point_cascade(self):
        # hand-traced instance: removing item x empties one of u1's baskets,
        # dropping u1 below 3 baskets, which in turn drops item y below the
        # purchase threshold for the remaining users
        baskets = {
            "u1": [["x"], ["y", "a"], ["a", "b"]],
            "u2": [["a", "b"], ["a", "y"], ["a", "b"]],
            "u3": [["a", "b"], ["a", "b"], ["a", "b"]],
        }
        out = filter_min_activity(make_ds(baskets), min_baskets=3,
                                  min_item_purchases=3)
        # x bought once -> removed -> u1 basket empties -> u1 removed ->
        # y count falls to 1 -> removed
        assert "u1" not in {u.user_id for u in out.users}
        assert "x" not in out.item_vocabulary
        assert "y" not in out.item_vocabulary
        assert out.item_vocabulary == {"a", "b"}

    def test_exhausted_raises(self):
        ds = make_ds({"u1": [["a"], ["a"]]})
        with pytest.raises(DataError, match="exhausted"):
            filter_min_activity(ds, min_baskets=3, min_item_purchases=5)

    def test_idempotent(self):
        baskets = {f"u{i}": [["a", "b"], ["a"], ["a", "b"], ["b"]]
                   for i in range(4)}
        once = filter_min_activity(make_ds(baskets), 3, 5)
        twice = filter_min_activity(once, 3, 5)
        assert [(u.user_id, u.baskets) for u in once.users] == \
               [(u.user_id, u.baskets) for u in twice.users]


class TestCapHistory:
    def test_below_cap_unchanged(self):
        ds = make_ds({"u1": [[f"i{j}"] for j in range(8)]})
        out = cap_history(ds, 50)
        assert out.users[0].baskets == ds.users[0].baskets

    def test_keeps_most_recent(self):
        ds = make_ds({"u1": [[f"i{j}"] for j in range(60)]})
        out = cap_history(ds, 50)
        assert len(out.users[0].baskets) == 50
        assert out.users[0].baskets[0] == frozenset({"i10"})
        assert out.users[0].baskets[-1] == frozenset({"i59"})

    def test_cap_one_keeps_final(self):
        ds = make_ds({"u1": [["a"], ["b"], ["c"]]})
        out = cap_history(ds, 1)
        assert out.users[0].baskets == [frozenset({"c"})]


class TestSplitLeaveLast:
    def test_train_and_target(self):
        ds = make_ds({"u1": [["a"], ["b"], ["c"]], "u2": [["x"], ["y"]]})
        train, val, test = split_leave_last(ds, seed=0)
        assert train.user("u1").baskets == [frozenset({"a"}), frozenset({"b"})]
        targets = {**val.eval_targets, **test.eval_targets}
        assert targets["u1"] == frozenset({"c"})
        assert targets["u2"] == frozenset({"y"})

    def test_deterministic_and_disjoint(self):
        ds = make_ds({f"u{i}": [["a"], ["b"]] for i in range(4)})
        _, v1, t1 = split_leave_last(ds, seed=3)
        _, v2, t2 = split_leave_last(ds, seed=3)
        assert set(v1.eval_targets) == set(v2.eval_targets)
        assert len(v1.eval_targets) == 2 and len(t1.eval_targets) == 2
        assert not (set(v1.eval_targets) & set(t1.eval_targets))

    def test_odd_count_validation_gets_extra(self):
        ds = make_ds({f"u{i}": [["a"], ["b"]] for i in range(5)})
        for seed in range(100):
            _, val, test = split_leave_last(ds, seed=seed)
            assert len(val.eval_targets) == 3
            assert len(test.eval_targets) == 2
            assert set(val.eval_targets) | set(test.eval_targets) == \
                {f"u{i}" for i in range(5)}

    def test_single_basket_user_rejected(self):
        ds = make_ds({"u1": [["a"]]})
        with pytest.raises(DataError, match="filter first"):
            split_leave_last(ds, seed=0)


class TestRepeatSets:
    def test_union(self):
        ds = make_ds({"u1": [["a", "b"], ["b", "c"]]})
        assert build_repeat_sets(ds)["u1"] == frozenset({"a", "b", "c"})

    def test_single_basket(self):
        ds = make_ds({"u1": [["a"]]})
        assert build_repeat_sets(ds)["u1"] == frozenset({"a"})

    def test_empty_train_rejected(self):
        ds = BasketDataset([UserHistory("u1", [])])
        with pytest.raises(DataError):
            build_repeat_sets(ds)


class TestItemGroups:
    def test_top_fraction_size(self):
        ds = make_ds({"u1": [[f"i{j}" for j in range(10)]] * 3})
        groups = build_item_groups(ds, 0.2)
        assert len(groups.popular) == 2

    def test_tie_broken_by_id(self):
        ds = make_ds({"u1": [["a", "b"]] * 5 + [["c"]] * 3})
        groups = build_item_groups(ds, 0.34)
        # counts a:5, b:5, c:3 -> ceil(0.34*3)=2? no: 3 items * 0.34 -> 1.02 -> 2
        assert "a" in groups.popular

    def test_exact_tie_rule(self):
        ds = make_ds({"u1": [["a", "b", "c"]] * 5})
        groups = build_item_groups(ds, 0.34)
        # uniform counts, ceil(0.34*3) = 2 -> lexicographically first two
        assert groups.popular == {"a", "b"}

    def test_uniform_counts_lexicographic(self):
        items = [f"i{j:02d}" for j in range(10)]
        ds = make_ds({"u1": [items] * 5})
        groups = build_item_groups(ds, 0.2)
        assert groups.popular == set(items[:2])

    def test_cut_inside_tied_counts(self):
        # counts z:4, then b10, b9, b2 tied at 2, then a:1; the cut of
        # ceil(0.5 * 5) = 3 falls inside the tie, which goes by id order
        ds = make_ds({"u1": [["z", "b9"], ["z", "b2", "b10"], ["z", "b9"],
                             ["z", "b2", "b10", "a"]]})
        groups = build_item_groups(ds, 0.5)
        assert groups.popular == {"z", "b10", "b2"}
        assert groups.unpopular == {"b9", "a"}
        assert groups.popularity_counts == {"z": 4, "b9": 2, "b2": 2,
                                            "b10": 2, "a": 1}

    def test_partition(self):
        ds = make_ds({"u1": [["a", "b"], ["c", "d"], ["a"]]})
        groups = build_item_groups(ds)
        assert groups.popular | groups.unpopular == ds.item_vocabulary
        assert not (groups.popular & groups.unpopular)


class TestGroundTruthRepeatRatio:
    def test_half(self):
        split = SplitDataset(make_ds({}), {"u1": frozenset({"a", "b"})}, "test")
        assert ground_truth_repeat_ratio(split, {"u1": frozenset({"a"})}) == 0.5

    def test_all_repeat(self):
        split = SplitDataset(make_ds({}), {"u1": frozenset({"a"})}, "test")
        assert ground_truth_repeat_ratio(split, {"u1": frozenset({"a", "z"})}) == 1.0

    def test_empty_targets_error(self):
        split = SplitDataset(make_ds({}), {}, "test")
        with pytest.raises(DataError):
            ground_truth_repeat_ratio(split, {})


class TestSampleUsers:
    def test_deterministic_subset(self):
        ds = make_ds({f"u{i}": [["a"], ["b"]] for i in range(10)})
        s1 = sample_users(ds, 4, seed=1)
        s2 = sample_users(ds, 4, seed=1)
        assert [u.user_id for u in s1.users] == [u.user_id for u in s2.users]
        assert len(s1.users) == 4

    def test_oversample_is_noop(self):
        ds = make_ds({"u1": [["a"]]})
        assert sample_users(ds, 5, seed=0) is ds


@st.composite
def small_datasets(draw):
    n_users = draw(st.integers(1, 6))
    baskets_by_user = {}
    for i in range(n_users):
        n_baskets = draw(st.integers(1, 6))
        baskets = []
        for _ in range(n_baskets):
            size = draw(st.integers(1, 4))
            items = draw(st.lists(st.sampled_from("abcdefgh"), min_size=size,
                                  max_size=size))
            baskets.append(set(items))
        baskets_by_user[f"u{i}"] = baskets
    return make_ds(baskets_by_user)


@settings(max_examples=50, deadline=None)
@given(small_datasets(), st.integers(1, 3), st.integers(1, 3))
def test_filter_idempotent_property(ds, min_b, min_p):
    try:
        once = filter_min_activity(ds, min_b, min_p)
    except DataError:
        return
    twice = filter_min_activity(once, min_b, min_p)
    assert [(u.user_id, u.baskets) for u in once.users] == \
           [(u.user_id, u.baskets) for u in twice.users]


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 12), st.integers(0, 1000))
def test_split_partition_property(n_users, seed):
    ds = make_ds({f"u{i}": [["a"], ["b"], ["c"]] for i in range(n_users)})
    _, val, test = split_leave_last(ds, seed)
    assert set(val.eval_targets) | set(test.eval_targets) == \
        {f"u{i}" for i in range(n_users)}
    assert len(val.eval_targets) == math.ceil(n_users / 2)


@settings(max_examples=50, deadline=None)
@given(small_datasets())
def test_group_partition_property(ds):
    if len(ds.item_vocabulary) < 2:
        # one group would be empty
        with pytest.raises(DataError, match="at least 2"):
            build_item_groups(ds)
        return
    groups = build_item_groups(ds)
    assert groups.popular | groups.unpopular == ds.item_vocabulary
    assert not (groups.popular & groups.unpopular)
    assert len(groups.popular) == math.ceil(0.2 * len(ds.item_vocabulary))
