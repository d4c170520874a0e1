import math

import pytest

from basket_rerank.dataset import ItemGroups, SplitDataset
from basket_rerank.errors import DataError
from basket_rerank.metrics import (composite_metrics, diversity_score,
                                   evaluate, group_exposure, log_dp,
                                   recall_at_k, repeat_metrics, report_table)
from basket_rerank.objective import ExposureModel, RerankConfig
from basket_rerank.tuner import rerank_and_evaluate
from tests.synth import make_synthetic_dataset, pipeline_from_dataset
from tests.test_dataset import make_ds


def split_with(targets):
    return SplitDataset(make_ds({}), {u: frozenset(t) for u, t in targets.items()},
                        "test")


class TestRecall:
    def test_superset_is_one(self):
        split = split_with({"u1": {"a", "b"}})
        assert recall_at_k({"u1": ["a", "b", "c"]}, split) == 1.0

    def test_disjoint_is_zero(self):
        split = split_with({"u1": {"a"}})
        assert recall_at_k({"u1": ["x", "y"]}, split) == 0.0

    def test_partial(self):
        split = split_with({"u1": {"a", "b", "c"}})
        assert recall_at_k({"u1": ["a", "z"]}, split) == pytest.approx(1 / 3)

    def test_empty_target_excluded_with_warning(self):
        split = split_with({"u1": set(), "u2": {"a"}})
        with pytest.warns(UserWarning, match="empty target"):
            value = recall_at_k({"u1": ["x"], "u2": ["a"]}, split)
        assert value == 1.0

    def test_missing_target_raises(self):
        split = split_with({"u1": {"a"}})
        with pytest.raises(DataError):
            recall_at_k({"u2": ["a"]}, split)


class TestDiversityScore:
    def test_quarter(self):
        cats = {f"i{j}": f"c{j % 5}" for j in range(20)}
        basket = [f"i{j}" for j in range(20)]
        assert diversity_score({"u": basket}, cats, 20) == pytest.approx(0.25)

    def test_single_category_floor(self):
        cats = {"a": "c1", "b": "c1"}
        assert diversity_score({"u": ["a", "b"]}, cats, 2) == pytest.approx(0.5)

    def test_all_distinct_is_one(self):
        cats = {"a": "c1", "b": "c2"}
        assert diversity_score({"u": ["a", "b"]}, cats, 2) == 1.0


class TestGroupExposure:
    def test_uniform_count(self):
        baskets = {f"u{j}": ["a"] for j in range(3)}
        groups = ItemGroups({"a"}, {"b"})
        e1, e2 = group_exposure(baskets, groups, ExposureModel("uniform"))
        assert e1 == 3.0 and e2 == 0.0

    def test_log_discount_rank_one(self):
        baskets = {"u1": ["a"], "u2": ["a"]}
        groups = ItemGroups({"a"}, {"b"})
        e1, _ = group_exposure(baskets, groups, ExposureModel("log_discount"))
        assert e1 == pytest.approx(2.0)

    def test_hand_computed_two_users(self):
        # popular = {a, b}, unpopular = {x, y}
        baskets = {"u1": ["a", "x"], "u2": ["b", "a"]}
        groups = ItemGroups({"a", "b"}, {"x", "y"})
        e1, e2 = group_exposure(baskets, groups, ExposureModel("log_discount"))
        w1, w2 = 1.0, 1 / math.log2(3)
        assert e1 == pytest.approx((w1 + w2 + w1) / 2)  # a: w1+w2, b: w1
        assert e2 == pytest.approx(w2 / 2)               # x: w2, y: 0


    @pytest.mark.parametrize("kind", ["uniform", "log_discount"])
    def test_equal_to_per_position_weights(self, kind):
        # the loop before the weight table, as the reference
        exposure = ExposureModel(kind)
        baskets = {"u1": ["a", "x", "b", "y"], "u2": ["b", "a"],
                   "u3": ["y", "x", "a"], "u4": []}
        groups = ItemGroups({"a", "b"}, {"x", "y", "z"})
        item_exposure = {}
        for basket in baskets.values():
            for pos, item in enumerate(basket, start=1):
                item_exposure[item] = (item_exposure.get(item, 0.0)
                                       + exposure.weight(pos))
        expect = tuple(
            math.fsum(v for i, v in item_exposure.items() if i in group)
            / len(group) for group in (groups.popular, groups.unpopular))
        assert group_exposure(baskets, groups, exposure) == expect


class TestLogDp:
    def test_parity_zero(self):
        assert log_dp(2.5, 2.5) == pytest.approx(0.0)

    def test_empty_group_finite(self):
        value = log_dp(1.0, 0.0)
        assert math.isfinite(value) and value > 10

    def test_log_identity(self):
        assert log_dp(math.e * 2.0, 2.0) == pytest.approx(1.0, abs=1e-6)

    def test_antisymmetry(self):
        assert log_dp(3.0, 7.0) == pytest.approx(-log_dp(7.0, 3.0), abs=1e-6)

    def test_base_ten(self):
        assert log_dp(10.0, 1.0, base=10.0) == pytest.approx(1.0, abs=1e-6)


class TestRepeatMetrics:
    def test_published_anchor(self):
        # a recommender at rep_ratio 0.9248 against ground truth 0.60
        assert 0.9248 - 0.60 == pytest.approx(0.3248)
        got_rec, got_bias = repeat_metrics({"u": ["r1", "x1"]},
                                           {"u": frozenset({"r1"})}, 0.60, 2)
        assert got_rec == pytest.approx(0.5)
        assert got_bias == pytest.approx(-0.1)

    def test_all_explore_zero(self):
        rec, _ = repeat_metrics({"u": ["x", "y"]}, {"u": frozenset()}, 0.5, 2)
        assert rec == 0.0


class TestCompositeMetrics:
    def test_published_mfr_anchor(self):
        m_fr, _ = composite_metrics(3.1252, 0.3248, 0.0, 0.5)
        assert m_fr == pytest.approx(1.7250, abs=1e-3)

    def test_published_mdr_anchor(self):
        _, m_dr = composite_metrics(0.0, 0.3248, 0.3615, 0.5)
        assert m_dr == pytest.approx(0.0184, abs=5e-4)

    def test_omega_one_is_logdp(self):
        m_fr, _ = composite_metrics(2.5, 0.9, 0.0, 1.0)
        assert m_fr == 2.5

    def test_bounds(self):
        for ldp in (-2.0, 0.0, 3.0):
            for bias in (-0.5, 0.0, 0.5):
                m_fr, m_dr = composite_metrics(ldp, bias, 0.7, 0.5)
                assert m_fr >= 0.0
                assert m_dr <= 0.5


class TestEvaluate:
    def run_pipeline(self, seed=0):
        ds = make_synthetic_dataset(n_users=10, n_items=25, seed=seed)
        train, validation, test, reps, groups, cands = pipeline_from_dataset(
            ds, seed=seed, n=20)
        cfg = RerankConfig(k=5, n=20, objective_kind="relevance_only")
        report = rerank_and_evaluate(cands, test, reps, groups,
                                     train.categories, cfg, rep_ratio_gt=0.5)
        return report

    def test_ranges(self):
        report = self.run_pipeline()
        assert 0.0 <= report.recall <= 1.0
        assert 0.0 <= report.ds <= 1.0
        assert 0.0 <= report.rep_ratio_rec <= 1.0
        assert -1.0 <= report.rep_bias <= 1.0
        assert report.m_fr >= 0.0
        assert math.isfinite(report.log_dp)

    def test_empty_baskets_rejected(self):
        split = split_with({"u1": {"a"}})
        cfg = RerankConfig(k=2, n=2)
        with pytest.raises(DataError):
            evaluate({}, split, {}, ItemGroups({"a"}, {"b"}), {}, cfg)

    @pytest.mark.parametrize("groups", [ItemGroups(set(), {"a", "b"}),
                                        ItemGroups({"a", "b"}, set())])
    def test_an_empty_item_group_has_no_exposure(self, groups):
        # as its fairness coefficient is 0, an empty group's mean exposure
        # is 0, and every metric stays finite
        split = split_with({"u1": {"a"}, "u2": {"c"}})
        cfg = RerankConfig(k=2, n=2, exposure=ExposureModel("uniform"))
        report = evaluate({"u1": ["a", "b"], "u2": ["b", "a"]}, split, {},
                          groups, {}, cfg)
        e1, e2 = (2.0, 0.0) if groups.popular else (0.0, 2.0)
        assert report.log_dp == log_dp(e1, e2, cfg.log_base)
        assert all(math.isfinite(v) for v in report.to_dict().values()
                   if isinstance(v, float))

    def test_user_weighted_mean_decomposition(self):
        # recall/ds/rep_ratio of the full set equal the user-count-weighted
        # mean of two disjoint subsets (exposure metrics aggregate globally)
        ds = make_synthetic_dataset(n_users=10, n_items=25, seed=3)
        train, validation, test, reps, groups, cands = pipeline_from_dataset(
            ds, seed=3, n=20)
        cfg = RerankConfig(k=5, n=20)
        all_users = sorted(test.eval_targets)
        half = len(all_users) // 2
        parts = [all_users[:half], all_users[half:]]
        full = rerank_and_evaluate(cands, test, reps, groups,
                                   train.categories, cfg, rep_ratio_gt=0.5)
        sub_reports = []
        for part in parts:
            sub = SplitDataset(train, {u: test.eval_targets[u] for u in part},
                               "test")
            sub_cands = type(cands)(kind="unified",
                                    unified={u: cands.unified[u] for u in part})
            sub_reports.append(rerank_and_evaluate(
                sub_cands, sub, reps, groups, train.categories, cfg,
                rep_ratio_gt=0.5))
        for attr in ("recall", "ds", "rep_ratio_rec"):
            weighted = sum(getattr(r, attr) * r.n_users for r in sub_reports) \
                / sum(r.n_users for r in sub_reports)
            assert getattr(full, attr) == pytest.approx(weighted, abs=1e-12)

    def test_per_user_breakdown(self):
        ds = make_synthetic_dataset(n_users=6, n_items=20, seed=1)
        train, _, test, reps, groups, cands = pipeline_from_dataset(
            ds, seed=1, n=15)
        cfg = RerankConfig(k=4, n=15)
        lists = {u: [i for i, _ in cands.unified[u][:4]]
                 for u in test.eval_targets}
        report = evaluate(lists, test, reps, groups, train.categories, cfg,
                          per_user=True)
        assert set(report.per_user) == set(lists)


def test_report_table_formats():
    ds = make_synthetic_dataset(n_users=8, n_items=20, seed=5)
    train, _, test, reps, groups, cands = pipeline_from_dataset(ds, seed=5, n=15)
    cfg = RerankConfig(k=4, n=15)
    report = rerank_and_evaluate(cands, test, reps, groups, train.categories,
                                 cfg, rep_ratio_gt=0.4)
    table = report_table([("ori", report), ("rd", report)])
    assert "recall" in table and table.count("\n") == 2
