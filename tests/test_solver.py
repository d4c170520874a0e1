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
                                  solve_bruteforce, solve_topk_linear)
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
        p = small_problem(epsilon=0.5)
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
    p_linear = small_problem(exposure=ExposureModel("uniform"))
    assert solve(p_linear).solver_tag == "topk_linear"
    p_general = small_problem(epsilon=0.2)
    assert solve(p_general).solver_tag == "branch_and_bound"


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


def test_toy_golden_is_oracle_output(tmp_path):
    spec = importlib.util.spec_from_file_location("regen", toy_path("regen.py"))
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    out = tmp_path / "golden.tsv"
    regen.write_golden(str(out))
    with open(toy_path("golden_radiv_e0.1_l0.1.tsv"), "rb") as fh:
        assert out.read_bytes() == fh.read()
