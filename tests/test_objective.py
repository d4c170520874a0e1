import math

import pytest
from hypothesis import given, settings, strategies as st

from basket_rerank.dataset import ItemGroups
from basket_rerank.errors import DataError, UsageError
from basket_rerank.objective import (ExposureModel, RerankConfig,
                                     build_combined_problem, build_problems,
                                     build_unified_problem, choose_sign_mode,
                                     compute_h_theta, objective_value,
                                     original_topk)
from basket_rerank.scorer import CandidateSet, rank_pairs


def unified_cands(scores, n=100):
    return CandidateSet(kind="unified", n=n,
                        unified={"u": rank_pairs(list(scores.items()), n)})


def combined_cands(rep, exp, n=100):
    return CandidateSet(kind="combined", n=n,
                        repeat_list={"u": rank_pairs(list(rep.items()), n)},
                        explore_list={"u": rank_pairs(list(exp.items()), n)})


def groups_for(items, popular):
    popular = set(popular)
    return ItemGroups(popular, set(items) - popular,
                      {i: 1 for i in items})


class TestExposureModel:
    def test_uniform(self):
        e = ExposureModel("uniform")
        assert e.weights(3) == [1.0, 1.0, 1.0]

    def test_log_discount(self):
        e = ExposureModel("log_discount")
        assert e.weight(1) == 1.0
        assert e.weight(3) == pytest.approx(1 / math.log2(4))

    def test_non_increasing(self):
        for kind in ("uniform", "log_discount"):
            w = ExposureModel(kind).weights(20)
            assert all(a >= b for a, b in zip(w, w[1:]))
            assert all(x > 0 for x in w)

    @pytest.mark.parametrize("kind", ["bogus", "log-discount", ""])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(UsageError, match="unknown exposure kind"):
            ExposureModel(kind)


class TestRerankConfig:
    def test_negative_weight_rejected(self):
        with pytest.raises(UsageError):
            RerankConfig(epsilon=-0.1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(UsageError):
            RerankConfig(objective_kind="nope")

    @pytest.mark.parametrize("bad", [
        dict(k=0), dict(k=-1), dict(epsilon=math.nan), dict(alpha=math.inf),
        dict(lam=math.inf), dict(lam=-math.inf), dict(theta=math.nan),
        dict(omega=math.nan), dict(recall_tolerance=math.inf),
        dict(recall_tolerance=1.5), dict(recall_tolerance=-0.1),
        dict(log_base=math.nan), dict(log_base=1.0), dict(log_base=0.0),
    ])
    def test_bad_number_rejected(self, bad):
        with pytest.raises(UsageError):
            RerankConfig(**bad)


class TestObjectiveValue:
    def test_pure_relevance_radiv_scaling(self):
        cands = unified_cands({"a": 0.6, "b": 0.4})
        cfg = RerankConfig(k=2, n=2, objective_kind="radiv")
        p = build_unified_problem("u", cands, {}, groups_for("ab", "a"),
                                  {}, cfg)
        assert objective_value(p, ["a", "b"]) == pytest.approx(0.5)

    def test_pure_relevance_raif_scaling(self):
        cands = unified_cands({"a": 0.6, "b": 0.4})
        cfg = RerankConfig(k=2, n=2, objective_kind="raif")
        p = build_unified_problem("u", cands, {}, groups_for("ab", "a"),
                                  {}, cfg)
        assert objective_value(p, ["a", "b"]) == pytest.approx(1.0)

    def test_coverage_delta(self):
        # four items with equal relevance, two categories
        cands = unified_cands({"a": 0.5, "b": 0.5, "c": 0.5, "d": 0.5})
        cats = {"a": "c1", "b": "c1", "c": "c2", "d": "c2"}
        cfg = RerankConfig(k=2, n=4, epsilon=1.0, objective_kind="naive_div")
        p = build_unified_problem("u", cands, {}, groups_for("abcd", "a"),
                                  cats, cfg)
        same = objective_value(p, ["a", "b"])
        mixed = objective_value(p, ["a", "c"])
        assert mixed - same == pytest.approx(0.5)

    def test_balanced_fairness_term_zero(self):
        cands = unified_cands({"a": 0.6, "b": 0.4, "c": 0.3, "d": 0.2})
        groups = groups_for("abcd", {"a", "b"})  # |I1| = |I2| = 2
        cfg = RerankConfig(k=2, n=4, alpha=1.0, exposure=ExposureModel("uniform"),
                           objective_kind="naive_fair")
        p = build_unified_problem("u", cands, {}, groups, {}, cfg)
        # one popular (a) + one unpopular (c): coefficients cancel
        assert objective_value(p, ["a", "c"]) == pytest.approx(0.6 + 0.3)

    def test_selection_order_irrelevant(self):
        cands = unified_cands({"a": 0.9, "b": 0.5, "c": 0.1})
        cfg = RerankConfig(k=2, n=3, epsilon=0.3, alpha=0.7, lam=0.2,
                           objective_kind="radiv")
        p = build_unified_problem("u", cands, {"u": frozenset("a")},
                                  groups_for("abc", "a"), {"a": "c1"}, cfg)
        assert objective_value(p, ["a", "c"]) == objective_value(p, ["c", "a"])

    def test_slot_violation_rejected(self):
        cands = unified_cands({"a": 0.9, "b": 0.5, "c": 0.1})
        cfg = RerankConfig(k=2, n=3)
        p = build_unified_problem("u", cands, {}, groups_for("abc", "a"),
                                  {}, cfg)
        with pytest.raises(UsageError):
            objective_value(p, ["a", "b", "c"])

    @pytest.mark.parametrize("kind, selection, message", [
        ("unified", ["a", "a"], "duplicates"),
        ("unified", ["a", "a", "b"], "duplicates"),  # duplicates come first
        ("unified", ["a"], "selection size 1 != slots 2"),
        ("unified", ["a", "z", "y"], "selection size 3"),  # slots before candidates
        ("unified", ["a", "z"], "non-candidates: \\['z'\\]"),
        ("combined", ["x1", "x2"], r"slot violation: got \(0,2\), need \(1,1\)"),
        ("combined", ["r1", "z"], "non-candidates"),
    ])
    def test_invalid_selection_rejected(self, kind, selection, message):
        if kind == "unified":
            p = build_unified_problem(
                "u", unified_cands({"a": 0.9, "b": 0.5, "c": 0.1}), {},
                groups_for("abc", "a"), {}, RerankConfig(k=2, n=3))
        else:
            p = build_combined_problem(
                "u", combined_cands({"r1": 0.9, "r2": 0.1},
                                    {"x1": 0.5, "x2": 0.4}),
                {}, groups_for(["r1", "r2", "x1", "x2"], ["r1"]), {},
                RerankConfig(k=2, n=4, theta=0.5))
        with pytest.raises(UsageError, match=message):
            objective_value(p, selection)

    def test_fairness_swap_invariant(self):
        # replacing an unpopular item by a popular one of equal relevance at
        # the same position shifts the objective by -alpha*(1/|I1|+1/|I2|)*e(p)
        alpha = 2.0
        for exposure in ("uniform", "log_discount"):
            cands = unified_cands({"a": 0.9, "p": 0.5, "q": 0.5, "z": 0.1})
            groups = groups_for("apqz", {"a", "p"})  # p popular, q unpopular
            cfg = RerankConfig(k=2, n=4, alpha=alpha,
                               exposure=ExposureModel(exposure),
                               objective_kind="raif")
            prob = build_unified_problem("u", cands, {}, groups, {}, cfg)
            with_unpop = objective_value(prob, ["a", "q"])
            with_pop = objective_value(prob, ["a", "p"])
            e2 = cfg.exposure.weight(2)
            expected = -alpha * (1 / 2 + 1 / 2) * e2
            assert with_pop - with_unpop == pytest.approx(expected)


class TestBuildUnifiedProblem:
    def test_repeat_flag_count(self):
        scores = {f"i{j:02d}": 1.0 - j / 100 for j in range(20)}
        reps = {"u": frozenset(f"i{j:02d}" for j in range(6))}
        cfg = RerankConfig(k=5, n=20)
        p = build_unified_problem("u", unified_cands(scores), reps,
                                  groups_for(scores, list(scores)[:4]), {}, cfg)
        assert sum(p.is_repeat) == 6

    def test_all_popular_coef(self):
        scores = {"a": 0.9, "b": 0.5}
        groups = ItemGroups({"a", "b"}, {"z"}, {})
        cfg = RerankConfig(k=2, n=2)
        p = build_unified_problem("u", unified_cands(scores), {}, groups, {}, cfg)
        assert p.fairness_coef == [0.5, 0.5]

    def test_exactly_k_candidates(self):
        scores = {"a": 0.9, "b": 0.5}
        cfg = RerankConfig(k=2, n=2)
        p = build_unified_problem("u", unified_cands(scores), {},
                                  groups_for("ab", "a"), {}, cfg)
        assert p.total_slots == p.n_candidates == 2

    def test_insufficient_candidates(self):
        cfg = RerankConfig(k=5, n=10)
        with pytest.raises(DataError, match="insufficient"):
            build_unified_problem("u", unified_cands({"a": 0.9}), {},
                                  groups_for("a", "a"), {}, cfg)

    def test_build_problems_skip_errors_warns(self):
        # users short of K candidates: the first one raises, or with
        # skip_errors each is left out with one warning, in user-id order
        rows = [("a", 0.9), ("b", 0.5)]
        cands = CandidateSet(kind="unified", n=2, unified={
            "u2": rows[:1], "u0": rows, "u1": rows[:1]})
        cfg = RerankConfig(k=2, n=2)
        args = (cands, {}, groups_for("ab", "a"), {}, cfg)
        with pytest.raises(DataError, match="'u1'"):
            build_problems(*args)
        with pytest.warns(UserWarning) as caught:
            problems = build_problems(*args, skip_errors=True)
        assert [p.user_id for p in problems] == ["u0"]
        assert [str(w.message) for w in caught] == [
            f"user {uid!r}: insufficient candidates (1 < K=2)"
            for uid in ("u1", "u2")]

    def test_candidates_sorted(self):
        scores = {"b": 0.5, "a": 0.5, "c": 0.9}
        cfg = RerankConfig(k=2, n=3)
        p = build_unified_problem("u", unified_cands(scores), {},
                                  groups_for("abc", "a"), {}, cfg)
        assert p.items == ["c", "a", "b"]
        # the combined merge: repeat and explore ids interleave within a
        # score, and an id in both pools puts its repeat entry first
        rep = {"d": 0.5, "b": 0.5, "r": 0.9, "f": 0.1}
        exp = {"e": 0.5, "a": 0.5, "c": 0.5, "b": 0.5, "x": 0.7}
        p = build_combined_problem("u", combined_cands(rep, exp), {},
                                   groups_for("abcdefrx", "a"), {},
                                   RerankConfig(k=2, n=9, theta=0.5))
        assert list(zip(p.items, p.is_repeat, p.relevance)) == [
            ("r", True, 0.9), ("x", False, 0.7), ("a", False, 0.5),
            ("b", True, 0.5), ("b", False, 0.5), ("c", False, 0.5),
            ("d", True, 0.5), ("e", False, 0.5), ("f", True, 0.1)]


class TestComputeHTheta:
    def test_clamped_to_k(self):
        scores = [1.0 - j / 100 for j in range(25)]
        assert compute_h_theta(scores, 0.0, 20) == 20

    def test_theta_above_max(self):
        assert compute_h_theta([0.5, 0.4], 0.9, 20) == 0

    def test_strict_inequality(self):
        assert compute_h_theta([0.9, 0.5, 0.5, 0.1], 0.5, 20) == 1

    def test_inclusive_counts_equal_scores(self):
        assert compute_h_theta([0.9, 0.5, 0.5, 0.1], 0.5, 20,
                               strict=False) == 3

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=0, max_size=30),
           st.integers(1, 20))
    def test_non_increasing_in_theta(self, scores, k):
        scores = sorted(scores, reverse=True)
        thetas = [0.0, 0.25, 0.5, 0.75, 1.0]
        values = [compute_h_theta(scores, t, k) for t in thetas]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(0 <= v <= k for v in values)


class TestBuildCombinedProblem:
    def make(self, rep, exp, k, theta):
        cands = combined_cands(rep, exp)
        items = list(rep) + list(exp)
        cats = {i: "c1" for i in items}
        cfg = RerankConfig(k=k, n=100, theta=theta, objective_kind="radiv")
        return build_combined_problem("u", cands, {"u": frozenset(rep)},
                                      groups_for(items, items[:1]), cats, cfg)

    def test_all_repeat(self):
        rep = {f"r{j:02d}": 1.0 - j / 100 for j in range(25)}
        exp = {f"x{j:02d}": 0.5 for j in range(25)}
        p = self.make(rep, exp, k=20, theta=0.0)
        assert (p.repeat_slots, p.explore_slots) == (20, 0)

    def test_all_explore(self):
        rep = {"r1": 0.1}
        exp = {f"x{j:02d}": 0.5 for j in range(25)}
        p = self.make(rep, exp, k=20, theta=0.9)
        assert (p.repeat_slots, p.explore_slots) == (0, 20)

    def test_slot_arithmetic(self):
        rep = {"r1": 0.9, "r2": 0.8, "r3": 0.7, "r4": 0.1}
        exp = {f"x{j:02d}": 0.5 for j in range(40)}
        p = self.make(rep, exp, k=20, theta=0.5)
        assert (p.repeat_slots, p.explore_slots) == (3, 17)

    def test_short_explore_raises_h(self):
        rep = {f"r{j:02d}": 0.4 for j in range(10)}  # none above theta
        exp = {"x1": 0.5, "x2": 0.4}
        p = self.make(rep, exp, k=5, theta=0.9)
        # explore can only fill 2 of 5 slots -> H raised to 3
        assert (p.repeat_slots, p.explore_slots) == (3, 2)
        assert not p.short

    def test_short_problem(self):
        rep = {"r1": 0.9}
        exp = {"x1": 0.5}
        p = self.make(rep, exp, k=5, theta=0.0)
        assert p.short
        assert (p.repeat_slots, p.explore_slots) == (1, 1)


class TestChooseSignMode:
    def test_repeat_biased_penalized(self):
        baskets = {"u1": ["a", "b"]}
        reps = {"u1": frozenset({"a", "b"})}
        assert choose_sign_mode(baskets, reps, 0.60) == "penalize_repeat"

    def test_explore_biased_rewarded(self):
        baskets = {"u1": ["a", "b"]}
        reps = {"u1": frozenset()}
        assert choose_sign_mode(baskets, reps, 0.60) == "reward_repeat"

    def test_exact_tie_penalizes(self):
        baskets = {"u1": ["a", "b"]}
        reps = {"u1": frozenset({"a"})}
        assert choose_sign_mode(baskets, reps, 0.5) == "penalize_repeat"


class TestOriginalTopk:
    def test_unified(self):
        cands = unified_cands({"a": 0.9, "b": 0.5, "c": 0.1})
        cfg = RerankConfig(k=2, n=3)
        assert original_topk(cands, cfg) == {"u": ["a", "b"]}

    def test_combined_respects_h(self):
        cands = combined_cands({"r1": 0.9, "r2": 0.2}, {"x1": 0.5, "x2": 0.4})
        cfg = RerankConfig(k=2, n=4, theta=0.5)
        baskets = original_topk(cands, cfg)
        # H = 1 (only r1 above theta), one explore slot
        assert set(baskets["u"]) == {"r1", "x1"}

    @pytest.mark.parametrize("rep, exp, k, theta, slots", [
        ({"r1": 0.9, "r2": 0.8, "r3": 0.2}, {"x1": 0.5, "x2": 0.4, "x3": 0.3},
         4, 0.5, (2, 2)),
        # explore fills 1 of the 3 slots H(theta) = 1 leaves: H raised to 3
        ({"r1": 0.9, "r2": 0.4, "r3": 0.3, "r4": 0.2}, {"x1": 0.5},
         4, 0.5, (3, 1)),
        # 2 candidates for 4 slots: every candidate gets one
        ({"r1": 0.9}, {"x1": 0.5}, 4, 0.0, (1, 1)),
    ], ids=["normal", "explore_limited", "short"])
    def test_combined_matches_problem_slots(self, rep, exp, k, theta, slots):
        cfg = RerankConfig(k=k, n=100, theta=theta, objective_kind="radiv")
        basket = original_topk(combined_cands(rep, exp), cfg)["u"]
        problem = TestBuildCombinedProblem().make(rep, exp, k, theta)
        n_rep = sum(1 for i in basket if i in rep)
        assert (n_rep, len(basket) - n_rep) == slots
        assert (problem.repeat_slots, problem.explore_slots) == slots
