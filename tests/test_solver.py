import gc
import importlib.util
import itertools
import math
import random

import pytest

from basket_rerank.errors import SolverError, UsageError
from basket_rerank.objective import (OBJECTIVE_KINDS, ExposureModel,
                                     RerankConfig, build_combined_problem,
                                     build_unified_problem, objective_value)
from basket_rerank import solver as solver_module
from basket_rerank.scorer import CandidateSet
from basket_rerank.solver import (rerank_all, solve, solve_branch_and_bound,
                                  solve_bruteforce, solve_exposure_dp,
                                  solve_topk_linear)
from basket_rerank.synth import (random_combined_instance,
                                 random_unified_instance)
from tests.conftest import toy_path
from tests.test_objective import combined_cands, groups_for, unified_cands


def small_problem(objective_kind="radiv", **cfg_kwargs):
    scores = {"a": 0.9, "b": 0.7, "c": 0.5, "d": 0.3, "e": 0.1}
    cats = {"a": "c1", "b": "c1", "c": "c2", "d": "c2", "e": "c3"}
    reps = {"u": frozenset({"a", "c"})}
    defaults = dict(k=2, n=5, objective_kind=objective_kind)
    defaults.update(cfg_kwargs)
    cfg = RerankConfig(**defaults)
    return build_unified_problem("u", unified_cands(scores), reps,
                                 groups_for("abcde", {"a", "b"}), cats, cfg)


def two_pool_problem(theta=0.6, objective_kind="radiv", **cfg_kwargs):
    rep = {"a": 0.9, "c": 0.5}
    exp = {"b": 0.7, "d": 0.3}
    cats = {"a": "c1", "b": "c1", "c": "c2", "d": "c2"}
    cfg = RerankConfig(k=2, n=4, theta=theta, objective_kind=objective_kind,
                       **cfg_kwargs)
    return build_combined_problem("u", combined_cands(rep, exp), {},
                                  groups_for("abcd", {"a", "b"}), cats, cfg)


class TestTopkLinear:
    def test_reduces_to_topk(self):
        p = small_problem(exposure=ExposureModel("uniform"))
        sel = solve_topk_linear(p)
        assert sel.items == ["a", "b"]
        assert sel.solver_tag == "topk_linear"

    def test_matches_bruteforce_on_raif(self):
        for seed in range(40):
            p, _ = random_unified_instance(seed, n=5, k=2,
                                           objective_kind="raif",
                                           exposure_kind="uniform")
            assert abs(solve_topk_linear(p).objective -
                       solve_bruteforce(p).objective) < 1e-12

    def test_huge_lambda_minimizes_repeat(self):
        p = small_problem(lam=100.0, sign_mode="penalize_repeat",
                          exposure=ExposureModel("uniform"))
        sel = solve_topk_linear(p)
        n_rep = sum(1 for i in sel.items if i in {"a", "c"})
        assert n_rep == 0

    def test_rejects_diversity_term(self):
        # a diversity term with slots in both pools
        p = two_pool_problem(epsilon=0.5)
        assert p.repeat_slots and p.explore_slots
        with pytest.raises(UsageError):
            solve_topk_linear(p)

    def test_rejects_positional_fairness(self):
        p = small_problem(objective_kind="raif", alpha=1.0,
                          exposure=ExposureModel("log_discount"))
        with pytest.raises(UsageError):
            solve_topk_linear(p)


class TestBranchAndBound:
    def test_matches_linear_subclass(self):
        for seed in range(30):
            p, _ = random_unified_instance(seed, n=8, k=3,
                                           exposure_kind="uniform")
            if p.epsilon_eff != 0:
                continue
            a = solve_branch_and_bound(p)
            b = solve_topk_linear(p)
            assert abs(a.objective - b.objective) < 1e-9

    def test_single_category_matches_plain(self):
        scores = {"a": 0.9, "b": 0.7, "c": 0.5}
        cats = {i: "only" for i in scores}
        cfg = RerankConfig(k=2, n=3, epsilon=5.0, objective_kind="radiv")
        p = build_unified_problem("u", unified_cands(scores), {},
                                  groups_for("abc", "a"), cats, cfg)
        assert solve_branch_and_bound(p).items == ["a", "b"]

    def test_degenerate_identity(self):
        p = small_problem()
        assert solve_branch_and_bound(p).items == ["a", "b"]

    def test_objective_consistent(self):
        for seed in range(20):
            p, _ = random_unified_instance(seed, n=9, k=4)
            sel = solve_branch_and_bound(p)
            assert sel.objective == pytest.approx(
                objective_value(p, sel.items), abs=1e-9)

    def test_tie_broken_lexicographically(self):
        # b and c are interchangeable: same relevance, category, flags
        scores = {"a": 0.9, "c": 0.5, "b": 0.5}
        cats = {"a": "c1", "b": "c2", "c": "c2"}
        cfg = RerankConfig(k=2, n=3, epsilon=0.4, objective_kind="radiv")
        p = build_unified_problem("u", unified_cands(scores), {},
                                  groups_for("abc", "a"), cats, cfg)
        assert solve_branch_and_bound(p).items == \
            solve_bruteforce(p).items == ["a", "b"]


class TestBruteforce:
    def test_forced_selection(self):
        scores = {"a": 0.9, "b": 0.1}
        cfg = RerankConfig(k=2, n=2)
        p = build_unified_problem("u", unified_cands(scores), {},
                                  groups_for("ab", "a"), {}, cfg)
        assert solve_bruteforce(p).items == ["a", "b"]

    def test_k1_argmax(self):
        p = small_problem(k=1, lam=10.0, sign_mode="penalize_repeat",
                          exposure=ExposureModel("uniform"))
        sel = solve_bruteforce(p)
        assert sel.items == ["b"]  # best non-repeat beats penalized "a"

    def test_guard(self):
        scores = {f"i{j:03d}": 1.0 - j / 1000 for j in range(100)}
        cfg = RerankConfig(k=20, n=100)
        p = build_unified_problem("u", unified_cands(scores), {},
                                  groups_for(scores, list(scores)[:5]), {}, cfg)
        with pytest.raises(SolverError, match="branch_and_bound"):
            solve_bruteforce(p)


class TestCombined:
    def test_budget_exactness(self):
        for seed in range(60):
            p, _ = random_combined_instance(seed, n_repeat=6, n_explore=6, k=4)
            sel = solve_branch_and_bound(p)
            rep_items = {p.items[j] for j in range(p.n_candidates)
                         if p.is_repeat[j]}
            assert sum(1 for i in sel.items if i in rep_items) == p.repeat_slots

    def test_h_equals_k_uses_repeat_pool_only(self):
        p, _ = random_combined_instance(0, n_repeat=8, n_explore=4, k=3,
                                        theta=-1.0)
        assert p.repeat_slots == 3
        sel = solve_branch_and_bound(p)
        assert all(i.startswith("r") for i in sel.items)

    def test_small_slots_vs_enumeration(self):
        p, _ = random_combined_instance(5, n_repeat=4, n_explore=3, k=3,
                                        theta=None)
        brute = solve_bruteforce(p)
        assert abs(solve_branch_and_bound(p).objective - brute.objective) < 1e-9


class TestScalarizationMonotonicity:
    def test_repeat_count_monotone_in_lambda(self):
        for sign, cmp in (("penalize_repeat", lambda a, b: a >= b),
                          ("reward_repeat", lambda a, b: a <= b)):
            counts = []
            for lam in [0.0, 0.1, 0.3, 0.6, 1.0]:
                p = small_problem(lam=lam, sign_mode=sign, k=3,
                                  exposure=ExposureModel("uniform"))
                sel = solve_branch_and_bound(p)
                counts.append(sum(1 for i in sel.items if i in {"a", "c"}))
            assert all(cmp(a, b) for a, b in zip(counts, counts[1:]))

    def test_coverage_monotone_in_epsilon(self):
        covs = []
        for eps in [0.0, 0.1, 0.3, 0.8, 2.0]:
            p = small_problem(epsilon=eps, k=3)
            sel = solve_branch_and_bound(p)
            idx = {i: j for j, i in enumerate(p.items)}
            covs.append(len({p.category[idx[i]] for i in sel.items}))
        assert all(a <= b for a, b in zip(covs, covs[1:]))


class TestSeparability:
    def test_sum_of_user_optima_is_joint_optimum(self):
        # joint enumeration over 3 users' feasible sets
        problems = []
        for seed in (11, 12, 13):
            p, _ = random_unified_instance(seed, n=6, k=2)
            problems.append(p)
        per_user = sum(solve_bruteforce(p).objective for p in problems)
        joint_best = -math.inf
        feasible_sets = [
            [list(c) for c in itertools.combinations(p.items, p.total_slots)]
            for p in problems]
        for combo in itertools.product(*feasible_sets):
            total = sum(objective_value(p, sel)
                        for p, sel in zip(problems, combo))
            joint_best = max(joint_best, total)
        assert per_user == pytest.approx(joint_best, abs=1e-9)


class TestRerankAll:
    def make_problems(self, n_users=3):
        problems = []
        for i in range(n_users):
            p, _ = random_unified_instance(100 + i, n=8, k=3)
            p.user_id = f"u{i}"
            problems.append(p)
        return problems

    def test_singleton(self):
        problems = self.make_problems(1)
        out = rerank_all(problems)
        assert set(out.baskets) == {"u0"}

    def test_identical_users_identical_selections(self):
        p1, _ = random_unified_instance(7, n=8, k=3)
        p2, _ = random_unified_instance(7, n=8, k=3)
        p2.user_id = "u2"
        out = rerank_all([p1, p2])
        assert out.baskets["u"].items == out.baskets["u2"].items

    def test_total_objective_is_sum(self):
        problems = self.make_problems()
        out = rerank_all(problems)
        assert out.total_objective == pytest.approx(
            sum(s.objective for s in out.baskets.values()))

    def test_error_carries_user_id(self):
        problems = self.make_problems(2)
        problems[1].explore_slots = 99  # infeasible
        with pytest.raises(SolverError, match="u1"):
            rerank_all(problems)

    def test_skip_errors_downgrades(self):
        problems = self.make_problems(2)
        problems[1].explore_slots = 99
        out = rerank_all(problems, skip_errors=True)
        assert set(out.baskets) == {"u0"}
        assert any("u1" in w for w in out.warnings)


def test_auto_engine_dispatch():
    closed_form = [
        small_problem(exposure=ExposureModel("uniform")),
        small_problem(epsilon=0.2),
        two_pool_problem(theta=1.0, epsilon=0.2),  # no repeat slots
    ]
    assert closed_form[2].repeat_slots == 0
    for p in closed_form:
        sel = solve(p)
        assert (sel.solver_tag, sel.nodes) == ("topk_linear", 0)
    log_discount = dict(alpha=1.0, exposure=ExposureModel("log_discount"))
    one_pool_exposure = [
        small_problem(objective_kind="raif", **log_discount),
        small_problem(objective_kind="naive_fair", **log_discount),
        two_pool_problem(theta=1.0, objective_kind="raif", **log_discount),
    ]
    for p in one_pool_exposure:
        sel = solve(p)
        # nodes: the candidates of the certified prefix
        assert sel.solver_tag == "exposure_dp"
        assert p.total_slots <= sel.nodes <= p.n_candidates
        assert sel.prunes == 0
    search = [
        two_pool_problem(epsilon=0.2),
        two_pool_problem(objective_kind="raif", **log_discount),
    ]
    for p in search:
        assert p.repeat_slots and p.explore_slots
        assert solve(p).solver_tag == "branch_and_bound"


def tie_heavy_problem(seed, kind, objective_kind, exposure):
    """A problem like the popularity scorer's: scores from four levels, two
    categories, a few weight values, and ids that do not follow rank order."""
    rng = random.Random(seed)
    levels = (0.2, 0.4, 0.6, 0.8)
    ids = [f"i{j:02d}" for j in rng.sample(range(100), 8)]
    scores = {i: rng.choice(levels) for i in ids}
    cats = {i: rng.choice(("c1", "c2")) for i in ids}
    groups = groups_for(ids, rng.sample(ids, 2))
    cfg = RerankConfig(
        k=3, n=8, epsilon=rng.choice((0.1, 0.2, 0.4)),
        alpha=rng.choice((0.2, 1.0, 2.0)), lam=rng.choice((0.0, 0.2, 0.4, 0.6)),
        theta=rng.choice(levels), exposure=ExposureModel(exposure),
        sign_mode=rng.choice(("penalize_repeat", "reward_repeat")),
        objective_kind=objective_kind)
    if kind == "unified":
        reps = {"u": frozenset(i for i in ids if rng.random() < 0.5)}
        return build_unified_problem("u", unified_cands(scores), reps, groups,
                                     cats, cfg)
    rep = {i: scores[i] for i in ids[:4]}
    exp = {i: scores[i] for i in ids[4:]}
    return build_combined_problem("u", combined_cands(rep, exp), {}, groups,
                                  cats, cfg)


@pytest.mark.parametrize("exposure", ["uniform", "log_discount"])
@pytest.mark.parametrize("objective_kind", OBJECTIVE_KINDS)
@pytest.mark.parametrize("kind", ["unified", "combined"])
def test_tie_heavy_matches_oracle(kind, objective_kind, exposure):
    for seed in range(60):
        p = tie_heavy_problem(seed, kind, objective_kind, exposure)
        oracle = solve_bruteforce(p)
        for sel in (solve(p), solve_branch_and_bound(p)):
            assert sel.items == oracle.items, f"seed {seed} {sel.solver_tag}"
            assert sel.objective == pytest.approx(oracle.objective, abs=1e-9)
            # the closed form scores its own basket, in objective_value's
            # float order
            assert sel.objective == objective_value(p, sel.items)


@pytest.mark.parametrize("kind", ["unified", "combined"])
def test_closed_form_rejects_broken_slot_counts(kind, monkeypatch):
    # a tie fill that adds nothing leaves a pool one item short
    monkeypatch.setattr(solver_module, "_fill_ties",
                        lambda problem, forced, ties: [])
    p = tie_heavy_problem(0, kind, "repeat_only", "uniform")
    with pytest.raises(UsageError, match="selection size|slot violation"):
        solve_topk_linear(p)


def test_closed_form_rejects_duplicate_items():
    # "a" sits in both pools and tops each, so both copies are chosen
    cands = CandidateSet(kind="combined", n=4,
                         repeat_list={"u": [("a", 0.9), ("b", 0.1)]},
                         explore_list={"u": [("a", 0.8), ("x", 0.2)]})
    cfg = RerankConfig(k=2, n=4, theta=0.5, exposure=ExposureModel("uniform"))
    p = build_combined_problem("u", cands, {}, groups_for("abx", "a"), {}, cfg)
    with pytest.raises(UsageError, match="duplicates"):
        solve_topk_linear(p)


def test_rounding_tie_goes_to_smaller_sequence():
    # {b, m} scores 0.49999999999999994 and {m, a} 0.5: a tie within the
    # tolerance, won by the smaller position-ordered sequence (b, m)
    scores = {"b": 0.8, "m": 0.6, "a": 0.4}
    cfg = RerankConfig(k=2, n=3, lam=0.4, objective_kind="repeat_only",
                       exposure=ExposureModel("uniform"))
    p = build_unified_problem("u", unified_cands(scores),
                              {"u": frozenset({"b"})},
                              groups_for("bma", "b"), {}, cfg)
    for solver in (solve_topk_linear, solve_branch_and_bound, solve_bruteforce):
        assert solver(p).items == ["b", "m"], solver.__name__


def one_pool_coverage_problem(seed, kind, epsilon):
    """A coverage problem with one pool holding every slot: 1-4 categories,
    scores from four levels or continuous, radiv or naive_div. Combined
    problems keep a few candidates in the pool with no slots, sharing the
    categories."""
    rng = random.Random(seed)
    quantized = rng.random() < 0.5
    score = (lambda: rng.choice((0.2, 0.4, 0.6, 0.8))) if quantized \
        else rng.random
    k = rng.randint(1, 4)
    ids = [f"i{j:02d}" for j in rng.sample(range(100), k + rng.randint(0, 5))]
    extra = [f"x{j:02d}" for j in rng.sample(range(100), rng.randint(1, 3))]
    n_cats = rng.randint(1, 4)
    cats = {i: f"c{rng.randrange(n_cats)}" for i in ids + extra}
    cfg = RerankConfig(
        k=k, n=len(ids), epsilon=epsilon, lam=score(),
        exposure=ExposureModel("uniform"),
        sign_mode=rng.choice(("penalize_repeat", "reward_repeat")),
        objective_kind=rng.choice(("radiv", "naive_div")),
        theta=rng.choice((-1.0, 2.0)))
    groups = groups_for(ids + extra, rng.sample(ids, 1))
    if kind == "unified":
        reps = {"u": frozenset(i for i in ids if rng.random() < 0.5)}
        return build_unified_problem("u", unified_cands(
            {i: score() for i in ids}, n=len(ids)), reps, groups, cats, cfg)
    # theta -1 gives every slot to the repeat pool, theta 2 to explore
    rep, exp = (ids, extra) if cfg.theta < 0 else (extra, ids)
    p = build_combined_problem("u", combined_cands(
        {i: score() for i in rep}, {i: score() for i in exp}), {}, groups,
        cats, cfg)
    assert 0 in (p.repeat_slots, p.explore_slots) and p.total_slots == k
    return p


@pytest.mark.parametrize("epsilon", [1e-12, 1e-9, 0.05, 0.2, 1.0])
@pytest.mark.parametrize("kind", ["unified", "combined"])
def test_one_pool_coverage_matches_oracle(kind, epsilon):
    for seed in range(120):
        p = one_pool_coverage_problem(seed, kind, epsilon)
        sel, oracle = solve(p), solve_bruteforce(p)
        assert sel.solver_tag == "topk_linear"
        assert sel.items == oracle.items, f"seed {seed}"
        assert sel.objective == oracle.objective, f"seed {seed}"


def test_coverage_closed_form_matches_branch_and_bound():
    # past brute force's reach: N=40, K=10, scores from nine levels
    for seed in range(80):
        rng = random.Random(seed)
        ids = [f"i{j:03d}" for j in rng.sample(range(1000), 40)]
        scores = {i: rng.randint(1, 9) / 10 for i in ids}
        n_cats = rng.randint(2, 8)
        cats = {i: f"c{rng.randrange(n_cats)}" for i in ids}
        cfg = RerankConfig(
            k=10, n=40, epsilon=rng.choice((0.05, 0.2, 0.5, 1.0)),
            lam=rng.choice((0.0, 0.2, 0.4)),
            objective_kind=rng.choice(("radiv", "naive_div")),
            sign_mode=rng.choice(("penalize_repeat", "reward_repeat")))
        reps = {"u": frozenset(i for i in ids if rng.random() < 0.4)}
        p = build_unified_problem("u", unified_cands(scores, n=40), reps,
                                  groups_for(ids, ids[:10]), cats, cfg)
        sel, ref = solve(p), solve_branch_and_bound(p)
        assert sel.solver_tag == "topk_linear"
        assert sel.items == ref.items, f"seed {seed}"
        assert sel.objective == ref.objective, f"seed {seed}"


def general_fill_problem(seed, kind):
    """A closed-form problem with several tie groups whose members differ in
    relevance: 4-8 categories, 2-4 score levels, K 4-6, and weights at the
    levels' gap, so that a repeat, a new category or a fairness coefficient
    ties an item with one a level above it. Unified problems have coverage;
    combined ones either give every slot to one pool and have coverage, or
    give both pools slots under a uniform fairness term."""
    rng = random.Random(seed)
    levels = rng.sample((0.2, 0.4, 0.6, 0.8), rng.randint(2, 4))
    k = rng.randint(4, 6)
    ids = [f"i{j:02d}" for j in rng.sample(range(100), k + rng.randint(2, 5))]
    n_cats = rng.randint(4, 8)
    cats = {i: f"c{rng.randrange(n_cats)}" for i in ids}
    scores = {i: rng.choice(levels) for i in ids}
    two_pools = kind == "combined" and rng.random() < 0.5
    cfg = RerankConfig(
        k=k, n=len(ids), lam=rng.choice((0.0, 0.2, 0.4)),
        epsilon=0.0 if two_pools else rng.choice((0.2, 0.4)),
        alpha=0.2 if two_pools else 0.0, exposure=ExposureModel("uniform"),
        sign_mode=rng.choice(("penalize_repeat", "reward_repeat")),
        objective_kind="raif" if two_pools else rng.choice(("radiv",
                                                            "naive_div")),
        theta=rng.choice(levels) if two_pools else rng.choice((-1.0, 2.0)))
    # four group members make each fairness coefficient +-0.5: alpha 0.2
    # moves an adjusted value by 0.1 either way, the levels' gap between them
    groups = groups_for(ids, rng.sample(ids, 2))
    groups.unpopular = set(rng.sample(sorted(groups.unpopular), 2))
    if kind == "unified":
        reps = {"u": frozenset(i for i in ids if rng.random() < 0.5)}
        return build_unified_problem("u", unified_cands(scores, n=len(ids)),
                                     reps, groups, cats, cfg)
    # theta -1 gives every slot to the repeat pool, theta 2 to explore
    cut = (rng.randint(2, len(ids) - 2) if two_pools
           else len(ids) - 2 if cfg.theta < 0 else 2)
    rep = {i: scores[i] for i in ids[:cut]}
    exp = {i: scores[i] for i in ids[cut:]}
    return build_combined_problem("u", combined_cands(rep, exp), {}, groups,
                                  cats, cfg)


@pytest.mark.parametrize("kind", ["unified", "combined"])
def test_general_tie_fill_matches_oracle(kind, monkeypatch):
    walks = []
    walk = solver_module._walk_ties
    monkeypatch.setattr(solver_module, "_walk_ties",
                        lambda *args: walks.append(1) or walk(*args))
    for seed in range(150):
        p = general_fill_problem(seed, kind)
        if p.short:
            continue
        sel, oracle = solve(p), solve_bruteforce(p)
        assert sel.solver_tag == "topk_linear"
        assert sel.items == oracle.items, f"seed {seed}"
        assert sel.objective == oracle.objective, f"seed {seed}"
    # the general path ran: 86 of the unified problems, 45 of the combined;
    # a walk that leaves its pool's room unchanged on a take fails here
    assert len(walks) >= 40


def one_pool_exposure_problem(seed, kind, objective_kind):
    """A log-discount fairness problem with one pool holding every slot:
    scores from four levels or continuous, a few alpha and lambda values,
    ids that do not follow rank order. Combined problems keep a few
    candidates in the pool with no slots."""
    rng = random.Random(seed)
    quantized = rng.random() < 0.5
    score = (lambda: rng.choice((0.2, 0.4, 0.6, 0.8))) if quantized \
        else rng.random
    k = rng.randint(1, 4)
    ids = [f"i{j:02d}" for j in rng.sample(range(100), k + rng.randint(0, 5))]
    extra = [f"x{j:02d}" for j in rng.sample(range(100), rng.randint(1, 3))]
    cfg = RerankConfig(
        k=k, n=len(ids), alpha=rng.choice((0.2, 1.0, 2.0, 10.0)),
        lam=rng.choice((0.0, 0.2, 0.4, 0.6)),
        exposure=ExposureModel("log_discount"),
        sign_mode=rng.choice(("penalize_repeat", "reward_repeat")),
        objective_kind=objective_kind, theta=rng.choice((-1.0, 2.0)))
    groups = groups_for(ids + extra, rng.sample(ids + extra, 2))
    if kind == "unified":
        reps = {"u": frozenset(i for i in ids if rng.random() < 0.5)}
        return build_unified_problem("u", unified_cands(
            {i: score() for i in ids}, n=len(ids)), reps, groups, {}, cfg)
    # theta -1 gives every slot to the repeat pool, theta 2 to explore
    rep, exp = (ids, extra) if cfg.theta < 0 else (extra, ids)
    p = build_combined_problem("u", combined_cands(
        {i: score() for i in rep}, {i: score() for i in exp}), {}, groups,
        {}, cfg)
    assert 0 in (p.repeat_slots, p.explore_slots) and p.total_slots == k
    return p


@pytest.mark.parametrize("objective_kind", ["raif", "naive_fair"])
@pytest.mark.parametrize("kind", ["unified", "combined"])
def test_exposure_dp_matches_oracle(kind, objective_kind):
    for seed in range(150):
        p = one_pool_exposure_problem(seed, kind, objective_kind)
        sel, oracle = solve(p), solve_bruteforce(p)
        assert sel.solver_tag == "exposure_dp"
        assert sel.items == oracle.items, f"seed {seed}"
        assert sel.objective == oracle.objective, f"seed {seed}"


@pytest.mark.parametrize("kind", ["unified", "combined"])
def test_exposure_dp_grows_prefix_to_every_candidate(kind):
    # popular items lead the ranking and unpopular ones close it, so under a
    # large alpha the optimum sits at the end and only the whole pool
    # certifies it
    ids = [f"i{j:02d}" for j in range(30)]
    scores = {i: 1.0 - j / 100 for j, i in enumerate(ids)}
    cfg = RerankConfig(k=3, n=30, alpha=100.0, theta=-1.0,
                       objective_kind="naive_fair",
                       exposure=ExposureModel("log_discount"))
    groups = groups_for(ids + ["x"], ids[:-3] + ["x"])
    if kind == "unified":
        p = build_unified_problem("u", unified_cands(scores, n=30), {},
                                  groups, {}, cfg)
    else:
        p = build_combined_problem("u", combined_cands(scores, {"x": 0.5}),
                                   {}, groups, {}, cfg)
        assert (p.repeat_slots, p.explore_slots) == (3, 0)
    sel, oracle = solve(p), solve_bruteforce(p)
    assert sel.solver_tag == "exposure_dp" and sel.nodes == 30
    assert sel.items == oracle.items == ids[-3:]
    assert sel.objective == oracle.objective


@pytest.mark.parametrize("k", [12, 20])
def test_exposure_dp_matches_branch_and_bound(k):
    # past brute force's reach: N=100, scores from nine levels
    for seed in range(40):
        rng = random.Random(seed)
        ids = [f"i{j:03d}" for j in rng.sample(range(1000), 100)]
        scores = {i: rng.randint(1, 9) / 10 for i in ids}
        cfg = RerankConfig(
            k=k, n=100, alpha=rng.choice((0.5, 1.0, 5.0, 20.0)),
            lam=rng.choice((0.0, 0.2, 0.4)),
            objective_kind=rng.choice(("raif", "naive_fair")),
            sign_mode=rng.choice(("penalize_repeat", "reward_repeat")),
            exposure=ExposureModel("log_discount"))
        reps = {"u": frozenset(i for i in ids if rng.random() < 0.4)}
        p = build_unified_problem("u", unified_cands(scores), reps,
                                  groups_for(ids, rng.sample(ids, 20)), {},
                                  cfg)
        sel, ref = solve(p), solve_branch_and_bound(p)
        assert sel.solver_tag == "exposure_dp"
        assert sel.items == ref.items, f"seed {seed}"
        assert sel.objective == ref.objective, f"seed {seed}"


def test_exposure_dp_floor_out_of_reach(monkeypatch):
    # a negative tolerance puts the floor above the optimum, as rounding can
    # put it above every completion: each position then takes the best one
    problems = [one_pool_exposure_problem(seed, kind, "raif")
                for seed in range(40) for kind in ("unified", "combined")]
    optima = [solve_bruteforce(p).objective for p in problems]
    monkeypatch.setattr(solver_module, "_TIE_TOL", -1e-9)
    for p, optimum in zip(problems, optima):
        assert solve_exposure_dp(p).objective == pytest.approx(optimum,
                                                               abs=1e-12)


def test_exposure_dp_rejects_out_of_scope_problems():
    with pytest.raises(UsageError, match="exposure DP"):
        solve_exposure_dp(two_pool_problem(objective_kind="raif", alpha=1.0))
    with pytest.raises(UsageError, match="exposure DP"):
        solve_exposure_dp(small_problem(epsilon=0.2))
    with pytest.raises(UsageError, match="exposure DP"):
        solve_exposure_dp(small_problem("raif", alpha=1.0,
                                        exposure=ExposureModel("uniform")))


def test_solves_leave_no_cyclic_garbage():
    # the CLI pauses cyclic collection for a verb, so every solve must free
    # its search structures by reference counting alone
    problems = [random_combined_instance(seed, n_repeat=6, n_explore=6, k=4)[0]
                for seed in range(5)]
    problems += [one_pool_exposure_problem(seed, "unified", "raif")
                 for seed in range(3)]
    problems.append(small_problem(epsilon=0.2))
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for p in problems:
            solve(p)
            solve_branch_and_bound(p)
        assert gc.collect() == 0
    finally:
        if collecting:
            gc.enable()


def test_toy_golden_is_oracle_output(tmp_path):
    spec = importlib.util.spec_from_file_location("regen", toy_path("regen.py"))
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    out = tmp_path / "golden.tsv"
    regen.write_golden(str(out))
    with open(toy_path("golden_radiv_e0.1_l0.1.tsv"), "rb") as fh:
        assert out.read_bytes() == fh.read()
