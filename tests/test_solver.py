import dataclasses
import gc
import importlib.util
import itertools
import math
import os
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from basket_rerank.errors import SolverError, UsageError
from basket_rerank.objective import (OBJECTIVE_KINDS, ExposureModel,
                                     RerankConfig, RerankProblem,
                                     build_combined_problem,
                                     build_unified_problem, objective_value)
from basket_rerank import solver as solver_module
from basket_rerank.scorer import CandidateSet
from basket_rerank.solver import (rerank_all, settled, solve,
                                  solve_exposure_dp, solve_topk_linear)
from tests.conftest import examples, toy_path
from tests.oracle import solve_bruteforce
from tests.synth import random_combined_instance, random_unified_instance
from tests.test_objective import combined_cands, groups_for, unified_cands

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def small_problem(objective_kind="radiv", **cfg_kwargs):
    scores = {"a": 0.9, "b": 0.7, "c": 0.5, "d": 0.3, "e": 0.1}
    cats = {"a": "c1", "b": "c1", "c": "c2", "d": "c2", "e": "c3"}
    reps = {"u": frozenset({"a", "c"})}
    defaults = dict(k=2, n=5, objective_kind=objective_kind)
    defaults.update(cfg_kwargs)
    cfg = RerankConfig(**defaults)
    return build_unified_problem("u", unified_cands(scores), reps,
                                 groups_for("abcde", {"a", "b"}), cats, cfg)


def two_pool_problem(theta=0.6, objective_kind="radiv", k=2, **cfg_kwargs):
    rep = {"a": 0.9, "c": 0.5}
    exp = {"b": 0.7, "d": 0.3}
    cats = {"a": "c1", "b": "c1", "c": "c2", "d": "c2"}
    cfg = RerankConfig(k=k, n=4, theta=theta, objective_kind=objective_kind,
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

    def test_rejects_positional_fairness(self):
        p = small_problem(objective_kind="raif", alpha=1.0,
                          exposure=ExposureModel("log_discount"))
        with pytest.raises(UsageError):
            solve_topk_linear(p)


class TestBranchAndBound:
    """The cases the deleted branch-and-bound search was checked on, now
    solved by ``solve``'s own paths."""

    def test_matches_linear_subclass(self):
        for seed in range(30):
            p, _ = random_unified_instance(seed, n=8, k=3,
                                           exposure_kind="uniform")
            if p.epsilon_eff != 0:
                continue
            a = solve_bruteforce(p)
            b = solve_topk_linear(p)
            assert (a.items, a.objective) == (b.items, b.objective)

    def test_single_category_matches_plain(self):
        scores = {"a": 0.9, "b": 0.7, "c": 0.5}
        cats = {i: "only" for i in scores}
        cfg = RerankConfig(k=2, n=3, epsilon=5.0, objective_kind="radiv")
        p = build_unified_problem("u", unified_cands(scores), {},
                                  groups_for("abc", "a"), cats, cfg)
        assert solve(p).items == ["a", "b"]

    def test_degenerate_identity(self):
        p = small_problem()
        assert solve(p).items == ["a", "b"]

    def test_objective_consistent(self):
        for seed in range(20):
            p, _ = random_unified_instance(seed, n=9, k=4)
            sel = solve(p)
            assert sel.objective == objective_value(p, sel.items)

    def test_tie_broken_lexicographically(self):
        # b and c are interchangeable: same relevance, category, flags
        scores = {"a": 0.9, "c": 0.5, "b": 0.5}
        cats = {"a": "c1", "b": "c2", "c": "c2"}
        cfg = RerankConfig(k=2, n=3, epsilon=0.4, objective_kind="radiv")
        p = build_unified_problem("u", unified_cands(scores), {},
                                  groups_for("abc", "a"), cats, cfg)
        assert solve(p).items == solve_bruteforce(p).items == ["a", "b"]


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
        with pytest.raises(SolverError, match="use solve"):
            solve_bruteforce(p)


class TestCombined:
    def test_budget_exactness(self):
        for seed in range(60):
            p, _ = random_combined_instance(seed, n_repeat=6, n_explore=6, k=4)
            sel = solve(p)
            rep_items = {p.items[j] for j in range(p.n_candidates)
                         if p.is_repeat[j]}
            assert sum(1 for i in sel.items if i in rep_items) == p.repeat_slots
            assert sel.items == solve_bruteforce(p).items, f"seed {seed}"

    def test_h_equals_k_uses_repeat_pool_only(self):
        p, _ = random_combined_instance(0, n_repeat=8, n_explore=4, k=3,
                                        theta=-1.0)
        assert p.repeat_slots == 3
        sel = solve(p)
        assert all(i.startswith("r") for i in sel.items)

    def test_small_slots_vs_enumeration(self):
        p, _ = random_combined_instance(5, n_repeat=4, n_explore=3, k=3,
                                        theta=None)
        brute = solve_bruteforce(p)
        sel = solve(p)
        assert (sel.items, sel.objective) == (brute.items, brute.objective)


class TestScalarizationMonotonicity:
    def test_repeat_count_monotone_in_lambda(self):
        for sign, cmp in (("penalize_repeat", lambda a, b: a >= b),
                          ("reward_repeat", lambda a, b: a <= b)):
            counts = []
            for lam in [0.0, 0.1, 0.3, 0.6, 1.0]:
                p = small_problem(lam=lam, sign_mode=sign, k=3,
                                  exposure=ExposureModel("uniform"))
                sel = solve(p)
                counts.append(sum(1 for i in sel.items if i in {"a", "c"}))
            assert all(cmp(a, b) for a, b in zip(counts, counts[1:]))

    def test_coverage_monotone_in_epsilon(self):
        covs = []
        for eps in [0.0, 0.1, 0.3, 0.8, 2.0]:
            p = small_problem(epsilon=eps, k=3)
            sel = solve(p)
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
        # one warning per failed user, in user-id order whatever the input
        # order
        problems = self.make_problems(3)
        for p in problems[1:]:
            p.explore_slots = 99
        with pytest.warns(UserWarning) as caught:
            out = rerank_all(problems[::-1], skip_errors=True)
        assert set(out.baskets) == {"u0"}
        assert [str(w.message) for w in caught] == [
            f"user {uid!r}: pool 0 has 8 candidates for 102 slots"
            for uid in ("u1", "u2")]


def test_auto_engine_dispatch():
    closed_form = [
        small_problem(exposure=ExposureModel("uniform")),
        small_problem(epsilon=0.2),
        two_pool_problem(theta=1.0, epsilon=0.2),  # no repeat slots
        # the repeat pool taken whole, one explore slot for two candidates
        two_pool_problem(theta=0.4, k=3, epsilon=0.2),
    ]
    assert closed_form[2].repeat_slots == 0
    assert (closed_form[3].repeat_slots, closed_form[3].explore_slots) == (2, 1)
    for p in closed_form:
        sel = solve(p)
        assert (sel.solver_tag, sel.nodes) == ("topk_linear", 0)
    log_discount = dict(alpha=1.0, exposure=ExposureModel("log_discount"))
    one_pool_exposure = [
        small_problem(objective_kind="raif", **log_discount),
        small_problem(objective_kind="naive_fair", **log_discount),
        two_pool_problem(theta=1.0, objective_kind="raif", **log_discount),
    ]
    # slots in both pools
    two_pool_exposure = two_pool_problem(objective_kind="raif", **log_discount)
    assert (two_pool_exposure.repeat_slots,
            two_pool_exposure.explore_slots) == (1, 1)
    for p in one_pool_exposure + [two_pool_exposure]:
        sel = solve(p)
        # nodes: the candidates of the certified prefix
        assert sel.solver_tag == "exposure_dp"
        assert p.total_slots <= sel.nodes <= p.n_candidates
    # a choice in both pools: the Lagrangian search evaluates its two ends
    # and at least one point between them
    p = two_pool_problem(epsilon=0.2)
    assert (p.repeat_slots, p.explore_slots) == (1, 1)
    sel = solve(p)
    assert sel.solver_tag == "topk_linear" and sel.nodes >= 3


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
        oracle, sel = solve_bruteforce(p), solve(p)
        assert sel.items == oracle.items, f"seed {seed} {sel.solver_tag}"
        # each path scores its own basket, in objective_value's float order
        assert sel.objective == oracle.objective, f"seed {seed}"


@pytest.mark.parametrize("kind", ["unified", "combined"])
def test_closed_form_rejects_broken_slot_counts(kind, monkeypatch):
    # a tie fill that adds nothing leaves a pool one item short
    monkeypatch.setattr(solver_module, "_fill_ties", lambda *args: [])
    p = tie_heavy_problem(0, kind, "repeat_only", "uniform")
    with pytest.raises(UsageError, match="selection size|slot violation"):
        solve_topk_linear(p)


def test_closed_form_rejects_duplicate_items():
    # "a" sits in both pools and tops each, so both copies are chosen
    cands = CandidateSet(kind="combined",
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
    for solver in (solve_topk_linear, solve_bruteforce):
        assert solver(p).items == ["b", "m"], solver.__name__


def one_pool_coverage_problem(seed, kind, epsilon):
    """A coverage problem with at most one pool with a choice: 1-4
    categories, scores from four levels or continuous, radiv or naive_div.
    "combined" problems give every slot to one pool and keep a few
    candidates in the other, sharing the categories. "whole" problems take
    those few candidates whole, as many slots as candidates, and give the
    other pool 1-4 slots and more candidates than slots; either pool is
    the one taken whole."""
    rng = random.Random(seed)
    quantized = rng.random() < 0.5
    score = (lambda: rng.choice((0.2, 0.4, 0.6, 0.8))) if quantized \
        else rng.random
    k = rng.randint(1, 4)
    ids = [f"i{j:02d}" for j in rng.sample(
        range(100), k + rng.randint(1 if kind == "whole" else 0, 5))]
    extra = [f"x{j:02d}" for j in rng.sample(range(100), rng.randint(1, 3))]
    if kind == "whole":
        k += len(extra)
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
    # theta -1 gives the repeat pool every slot it can fill, theta 2 gives
    # the explore pool every slot it can fill
    rep, exp = (ids, extra) if (cfg.theta < 0) == (kind == "combined") \
        else (extra, ids)
    p = build_combined_problem("u", combined_cands(
        {i: score() for i in rep}, {i: score() for i in exp}), {}, groups,
        cats, cfg)
    slots = (p.repeat_slots, p.explore_slots)
    if kind == "combined":
        assert 0 in slots and p.total_slots == k
    else:
        # the pool of extra candidates is taken whole
        whole = 0 if rep is extra else 1
        assert slots[whole] == len(extra) and slots[1 - whole] < len(ids)
    return p


ONE_POOL_KINDS = ["unified", "combined", "whole"]
ONE_POOL_EPSILONS = [1e-12, 1e-9, 0.05, 0.2, 1.0]


@pytest.mark.parametrize("epsilon", ONE_POOL_EPSILONS)
@pytest.mark.parametrize("kind", ONE_POOL_KINDS)
def test_one_pool_coverage_matches_oracle(kind, epsilon):
    for seed in range(120):
        p = one_pool_coverage_problem(seed, kind, epsilon)
        sel, oracle = solve(p), solve_bruteforce(p)
        assert sel.solver_tag == "topk_linear"
        assert sel.items == oracle.items, f"seed {seed}"
        assert sel.objective == oracle.objective, f"seed {seed}"


def frozen_reference(directory, sets):
    """(problem, items, repr of the objective) for every user of ``sets``
    in ``fixtures/<directory>/golden_bnb.tsv``: branch-and-bound's answers,
    frozen before that search was deleted, past brute force's reach."""
    regen = load_regen(os.path.join(FIXTURES, directory, "regen.py"))
    with open(regen.GOLDEN, encoding="utf-8") as fh:
        golden = [line.rstrip("\n").split("\t") for line in fh]
    problems = regen.golden_problems()
    assert len(golden) == len(problems)
    out = []
    for (name, uid, items, obj), (set_name, p) in zip(golden, problems):
        assert (name, uid) == (set_name, p.user_id)
        if name in sets:
            out.append((p, items.split(","), obj))
    return out


def test_coverage_cut_leaves_more_slots_than_group_lows(monkeypatch):
    # _coverage_cut fixes the groups' counts only when there is one group or
    # the slots left fill every group to its hi; the slots left never equal
    # the sum of the groups' lo, which would fix them too
    cut = solver_module._coverage_cut
    seen = []

    def recording(problem, pool, quota, adj, taken):
        forced, groups, marginals = cut(problem, pool, quota, adj, taken)
        seen.append((quota - len(forced), groups))
        return forced, groups, marginals

    monkeypatch.setattr(solver_module, "_coverage_cut", recording)
    problems = [one_pool_coverage_problem(seed, kind, epsilon)
                for kind in ONE_POOL_KINDS for epsilon in ONE_POOL_EPSILONS
                for seed in range(120)]
    problems += [p for p, _, _ in frozen_reference(
        "one_pool", ("coverage-unified", "coverage-whole"))]
    for p in problems:
        solve(p)
    free = [(left, groups) for left, groups in seen
            if any(lo != hi for _, lo, hi in groups)]
    assert free and len(seen) > len(free)
    for left, groups in free:
        assert sum(lo for _, lo, _ in groups) < left


def test_coverage_closed_form_matches_branch_and_bound():
    # N=40, K=10, scores from nine levels. "whole" problems take 1-9
    # candidates whole, as the repeat pool (odd seeds) or the explore pool
    # (even seeds), and leave the other pool a choice.
    reference = frozen_reference("one_pool", ("coverage-unified",
                                              "coverage-whole"))
    assert len(reference) == 120
    for p, items, obj in reference:
        sel = solve(p)
        assert sel.solver_tag == "topk_linear"
        assert sel.items == items, p.user_id
        assert repr(sel.objective) == obj, p.user_id


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
    # N=100, scores from nine levels, unified raif or naive_fair
    reference = frozen_reference("one_pool", (f"exposure-k{k}",))
    assert len(reference) == 40
    for p, items, obj in reference:
        sel = solve(p)
        assert sel.solver_tag == "exposure_dp"
        assert sel.items == items, p.user_id
        assert repr(sel.objective) == obj, p.user_id


def two_pool_problem_with_choice(seed, kind, epsilon=None):
    """A combined problem with more candidates than slots in both pools:
    2-7 candidates a pool, 2-4 score levels or continuous scores, 1-5
    categories, both sign modes and ids that do not follow rank order.
    "coverage" problems are radiv or naive_div, with ``epsilon`` or one
    drawn from 1e-12 to 1 and the gap between score levels; "exposure"
    ones are log-discount raif or naive_fair."""
    rng = random.Random(seed)
    quantized = rng.random() < 0.6
    levels = rng.sample((0.2, 0.4, 0.6, 0.8), rng.randint(2, 4))
    score = (lambda: rng.choice(levels)) if quantized else rng.random
    n_rep, n_exp = rng.randint(2, 7), rng.randint(2, 7)
    h, e = rng.randint(1, n_rep - 1), rng.randint(1, n_exp - 1)
    k = h + e
    ids = [f"i{j:02d}" for j in rng.sample(range(100), n_rep + n_exp)]
    n_cats = rng.randint(1, 5)
    cats = {i: f"c{rng.randrange(n_cats)}" for i in ids}
    # a weight of gap * K moves an adjusted value by one level's gap
    gap = abs(levels[0] - levels[1]) * k
    common = dict(k=k, n=len(ids), lam=rng.choice((0.0, 0.2, gap)),
                  sign_mode=rng.choice(("penalize_repeat", "reward_repeat")))
    if kind == "coverage":
        if epsilon is None:
            epsilon = rng.choice((1e-12, 1e-9, 0.05, 0.2, 1.0, gap, gap / 2))
        cfg = RerankConfig(epsilon=epsilon, exposure=ExposureModel("uniform"),
                           objective_kind=rng.choice(("radiv", "naive_div")),
                           **common)
    else:
        cfg = RerankConfig(alpha=rng.choice((0.2, 1.0, 2.0, 10.0)),
                           exposure=ExposureModel("log_discount"),
                           objective_kind=rng.choice(("raif", "naive_fair")),
                           **common)
    p = build_combined_problem(
        "u", combined_cands({i: score() for i in ids[:n_rep]},
                            {i: score() for i in ids[n_rep:]}), {},
        groups_for(ids, rng.sample(ids, rng.randint(1, 3))), cats, cfg)
    # the H(theta) split does not matter here: set the slots directly
    return dataclasses.replace(p, repeat_slots=h, explore_slots=e)


@pytest.mark.parametrize("epsilon", [None, 1e-12, 1.0])
def test_two_pool_coverage_matches_oracle(epsilon):
    for seed in range(600):
        p = two_pool_problem_with_choice(seed, "coverage", epsilon)
        sel, oracle = solve(p), solve_bruteforce(p)
        # the two ends of the Lagrangian search and a point between them
        assert sel.solver_tag == "topk_linear" and sel.nodes >= 3
        assert sel.items == oracle.items, f"seed {seed}"
        assert sel.objective == oracle.objective, f"seed {seed}"


def test_two_pool_exposure_dp_matches_oracle():
    for seed in range(600):
        p = two_pool_problem_with_choice(seed, "exposure")
        sel, oracle = solve(p), solve_bruteforce(p)
        assert sel.solver_tag == "exposure_dp"
        assert sel.items == oracle.items, f"seed {seed}"
        assert sel.objective == oracle.objective, f"seed {seed}"


def test_lagrangian_search_is_bounded(monkeypatch):
    # a cut whose count range never holds the explore quota ends the search
    # after K + 1 evaluations with a solver error, not in an endless loop
    cuts = []
    monkeypatch.setattr(solver_module, "_coverage_cut",
                        lambda problem, pool, quota, adj, taken:
                        cuts.append(1) or ([], [], [0.0] * len(pool)))
    p = two_pool_problem(epsilon=0.2)
    with pytest.raises(SolverError, match="did not converge"):
        solve(p)
    assert len(cuts) == p.total_slots + 1


def walk_instance(seed):
    """Tie groups for ``_walk_ties`` over up to nine candidates of two
    pools, in candidate order (relevance desc, id asc) with ids that do not
    follow that order: forced candidates, groups with random lo and hi, and
    each pool's slots left, taken from one random completion."""
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    ranked = sorted((-rng.choice((0.2, 0.4, 0.6)), f"i{j:02d}")
                    for j in rng.sample(range(100), n))
    problem = dataclasses.replace(
        two_pool_problem(), items=[i for _, i in ranked],
        relevance=[-r for r, _ in ranked],
        is_repeat=[rng.random() < 0.5 for _ in ranked])
    forced, members = [], [[] for _ in range(rng.randint(1, 3))]
    for j in range(n):
        role = rng.randrange(len(members) + 2)
        if role == 0:
            forced.append(j)
        elif role > 1:
            members[role - 2].append(j)
    groups, left = [], [0, 0]
    for group in members:
        lo = rng.randint(0, len(group))
        hi = rng.randint(max(lo, 1), len(group)) if group else 0
        for j in rng.sample(group, rng.randint(lo, hi)):
            left[not problem.is_repeat[j]] += 1
        groups.append((group, lo, hi))
    return problem, forced, left, groups


def test_walk_ties_matches_enumeration():
    # the tie walk against every choice of group members that meets the
    # groups' bounds and both pools' slots left
    for seed in range(6000):
        problem, forced, left, groups = walk_instance(seed)
        best = None
        for counts in itertools.product(*[range(lo, hi + 1)
                                          for _, lo, hi in groups]):
            for picks in itertools.product(*[
                    itertools.combinations(group, c)
                    for (group, _, _), c in zip(groups, counts)]):
                chosen = [j for pick in picks for j in pick]
                explore = sum(not problem.is_repeat[j] for j in chosen)
                if [len(chosen) - explore, explore] != left:
                    continue
                seq = [problem.items[j] for j in sorted(forced + chosen)]
                best = seq if best is None else min(best, seq)
        fills = [solver_module._walk_ties]
        # _fill_ties takes groups that hold members of one pool
        if all(len({problem.is_repeat[j] for j in group}) < 2
               for group, _, _ in groups):
            fills.append(solver_module._fill_ties)
        for fill in fills:
            taken = fill(problem, forced, left, groups)
            assert [problem.items[j] for j in sorted(forced + taken)] == \
                best, f"seed {seed} {fill.__name__}"


def test_walk_ties_keeps_the_member_the_pools_need():
    # candidate 0 is the only member of its group in the repeat pool, and
    # the forced candidate 1 fills the explore pool, so the repeat slot
    # needs candidate 0. Candidate 1's smaller id must not be taken first,
    # which would skip candidate 0.
    problem = dataclasses.replace(two_pool_problem(), items=["m", "a", "x"],
                                  relevance=[0.8, 0.6, 0.4],
                                  is_repeat=[True, False, False])
    assert solver_module._walk_ties(problem, [1], [1, 0],
                                    [([0, 2], 1, 1)]) == [0]


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
    # no objective kind has both a diversity and a fairness term
    both = dataclasses.replace(small_problem("raif", alpha=1.0),
                               epsilon_eff=0.2)
    with pytest.raises(UsageError, match="exposure DP"):
        solve_exposure_dp(both)
    with pytest.raises(UsageError, match="exposure DP"):
        solve_exposure_dp(small_problem(epsilon=0.2))
    with pytest.raises(UsageError, match="exposure DP"):
        solve_exposure_dp(small_problem("raif", alpha=1.0,
                                        exposure=ExposureModel("uniform")))


class TestNarrowed:
    """Candidates that trail others of their class can still be chosen."""

    def test_margin_leaves_room_for_rounding(self):
        # "a" trails "b" by just over the tie tolerance, yet after rounding
        # the solver ties them, and the tie rule takes "a"
        cfg = RerankConfig(k=1, objective_kind="raif", alpha=0.3,
                           exposure=ExposureModel("uniform"))
        scores = {"b": 1.0, "a": 1.0 - solver_module._TIE_TOL * (1 + 2 ** -20)}
        problem = build_unified_problem("u", unified_cands(scores), {},
                                        groups_for("ab", ()), {}, cfg)
        assert solve(problem).items == ["a"]

    def test_exposure_dp_chooses_a_dominated_candidate(self):
        # i4 has two candidates of its class (repeat, coefficient 0.5) ahead
        # of it by 0.5 and 0.4, yet log-discount exposure puts it in the
        # answer
        problem = RerankProblem(
            "u", [f"i{j}" for j in range(5)], [0.9, 0.8, 0.7, 0.5, 0.4],
            [True, True, False, False, True], ["c"] * 5,
            [0.5, 0.5, 0.5, -0.25, 0.5], "unified", 2, 0, 1.0, 0.0, 3.0,
            -0.1, 2, ExposureModel("log_discount"), "raif")
        assert solve(problem).items == ["i3", "i4"]
        without = dataclasses.replace(
            problem, **{name: getattr(problem, name)[:4] for name in (
                "items", "relevance", "is_repeat", "category",
                "fairness_coef")})
        assert solve(without).items == ["i0", "i3"]


# cross-flag gaps, in units of the tie tolerance, at which a column's
# repeat weights sit around a crossing
CROSSING_OFFSETS = [-2.0, -(1 + 2 ** -20), -1.0, -(1 - 2 ** -20), -0.5, 0.0,
                    0.5, 1 - 2 ** -20, 1.0, 1 + 2 ** -20, 2.0]


def settled_column(rng):
    """One user's unified problem along a column of repeat weights, and
    whether it is additive.

    Relevance comes from three levels, some lowered by the tie tolerance
    (over the relevance scale) times a half, just under or over one, or
    two, so equal-relevance blocks and chains of near ties are common.
    The column holds 0, a weight where a repeat and an explore candidate
    cross, some weights around it where their gap is a multiple of the
    tolerance, and one far past it. Raif has no, a small, a large or a
    huge fairness weight (rounding errors then near the tolerance). One
    column in three is a coverage (radiv) or exposure (log-discount raif)
    problem instead."""
    tol = solver_module._TIE_TOL
    k = rng.randint(1, 4)
    n = rng.randint(k + 1, 12)
    kind = rng.choice(["raif", "radiv"])
    rel_scale = 1.0 if kind == "raif" else 1.0 / k
    alpha = rng.choice([0.0, 1e-3, 50.0, 1e6]) if kind == "raif" else 0.0
    rows = sorted(((rng.choice([1.0, 0.6, 0.3])
                    - rng.choice([0.0, 0.5, 1 - 2 ** -20, 1 + 2 ** -20, 2.0])
                    * tol / rel_scale,
                    rng.random() < 0.5, rng.random() < 0.5)
                   for _ in range(n)), reverse=True)
    ids = [f"i{j:02d}" for j in range(n)]
    rng.shuffle(ids)
    rel = [r for r, _, _ in rows]
    rep = [r for _, r, _ in rows]
    popular = sum(p for _, _, p in rows)
    coef = [1 / popular if p else -1 / (n - popular) for _, _, p in rows]
    additive = rng.random() < 2 / 3
    epsilon, exposure = 0.0, "uniform"
    if not additive:
        if kind == "radiv":
            epsilon = 0.1
        else:
            alpha, exposure = alpha or 1.0, "log_discount"
    sign = rng.choice([-1.0, 1.0])
    base = RerankProblem(
        user_id="u", items=ids, relevance=rel, is_repeat=rep,
        category=[rng.choice("ab") for _ in ids], fairness_coef=coef,
        kind="unified", repeat_slots=k, explore_slots=0, rel_scale=rel_scale,
        epsilon_eff=epsilon, alpha_eff=alpha, signed_lambda=0.0, k=k,
        exposure=ExposureModel(exposure), objective_kind=kind)
    crossings = [lam for r, e in itertools.product(range(n), repeat=2)
                 if rep[r] and not rep[e]
                 for lam in [-sign * k * (rel_scale * (rel[r] - rel[e])
                                          - alpha * (coef[r] - coef[e]))]
                 if lam >= 0]
    cross = rng.choice(crossings) if crossings else 0.0
    lams = {0.0, cross + 0.3}
    for offset in rng.sample(CROSSING_OFFSETS,
                             rng.randint(3, len(CROSSING_OFFSETS))):
        lams.add(max(0.0, cross + offset * k * tol))
    return [dataclasses.replace(base, signed_lambda=sign * lam)
            for lam in sorted(lams)], additive


class TestSettled:
    """``settled`` certifies an additive answer along repeat weights."""

    # seeds on which a certificate without its blocks or its rounding room,
    # or with none at all, accepts an interval whose answer changes inside
    # (86, 100), and on which skipping the certificate at the solved end
    # does (109, 228)
    @example(random.Random(86))
    @example(random.Random(100))
    @example(random.Random(109))
    @example(random.Random(228))
    @settings(max_examples=examples(300), deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_settled_ends_hold_between(self, rng):
        # the lower end is solved, and its answer certified at both ends:
        # the answer holds at every weight between, the upper end included
        column, additive = settled_column(rng)
        answers = [solve(p).items for p in column]
        if not additive:
            assert not any(settled(p, items)
                           for p, items in zip(column, answers))
        for lo, hi in itertools.combinations(range(len(column)), 2):
            items = answers[lo]
            if settled(column[lo], items) and settled(column[hi], items):
                assert answers[lo:hi + 1] == [items] * (hi + 1 - lo)

    def test_one_block_at_the_cut(self):
        # b and c are one block (explore, relevance 0.5, one coefficient):
        # K = 2 takes a and the first of them at every repeat weight
        problem = RerankProblem(
            "u", ["a", "b", "c"], [0.9, 0.5, 0.5], [True, False, False],
            ["x"] * 3, [0.5, -0.5, -0.5], "unified", 2, 0, 1.0, 0.0, 0.0,
            0.0, 2, ExposureModel("uniform"), "raif")
        assert solve(problem).items == ["a", "b"]
        assert settled(problem, ["a", "b"])
        # with another coefficient c leaves the block: b and c tie only here
        other = dataclasses.replace(problem, fairness_coef=[0.5, -0.5, 0.5])
        assert solve(other).items == ["a", "b"]
        assert not settled(other, ["a", "b"])

    def test_room_past_the_tolerance(self):
        # a leads b by the tie tolerance and a little more: solve separates
        # them, but the gap leaves no room for rounding
        tol = solver_module._TIE_TOL
        problem = RerankProblem(
            "u", ["b", "a"], [0.5 + tol * (1 + 2 ** -20), 0.5], [True, False],
            ["x"] * 2, [0.0, 0.0], "unified", 1, 0, 1.0, 0.0, 0.0, 0.0, 1,
            ExposureModel("uniform"), "raif")
        assert solve(problem).items == ["b"]
        assert not settled(problem, ["b"])
        wide = dataclasses.replace(problem, relevance=[0.5 + 2 * tol, 0.5])
        assert settled(wide, ["b"])


def answer_pair(rng):
    """Two additive problems of one user, p and q, with the same candidates
    and, unless (one combined pair in three) q has another, the same slot
    split, and repeat weights around a crossing (``CROSSING_OFFSETS``).

    Unified or combined candidates come from three relevance levels, some
    lowered by the tie tolerance (over the relevance scale) times a half,
    just under or over one, or two, so equal-relevance blocks and chains of
    near ties are common. Rarely an id is a candidate of both pools. Each
    weight sits where two candidates' adjusted values cross, or some
    multiple of the tolerance off it: two of different repeat flags along
    the repeat weight, or two of one flag and different coefficients along
    the fairness weight (raif). p keeps each of q's weights, takes another
    offset from the crossing, or another weight, of either sign."""
    tol = solver_module._TIE_TOL
    k = rng.randint(1, 4)
    kind = rng.choice(["raif", "radiv"])
    rel_scale = 1.0 if kind == "raif" else 1.0 / k
    combined = rng.random() < 0.5
    if combined:
        n_rep, n_exp = rng.randint(0, 7), rng.randint(0, 7)
        while n_rep + n_exp <= k:
            n_rep += 1
            n_exp += 1
        flags = [True] * n_rep + [False] * n_exp
    else:
        flags = [rng.random() < 0.5 for _ in range(rng.randint(k + 1, 12))]
    n = len(flags)
    ids = [f"i{j:02d}" for j in range(n)]
    if combined and n_rep and n_exp and rng.random() < 0.05:
        ids[n_rep] = ids[0]  # one id in both pools
    # candidate order: relevance descending, then id, then repeat first
    rows = sorted((-(rng.choice([1.0, 0.6, 0.3])
                     - rng.choice([0.0, 0.5, 1 - 2 ** -20, 1 + 2 ** -20, 2.0])
                     * tol / rel_scale), x, not rep, rng.random() < 0.5)
                  for x, rep in zip(ids, flags))
    rel = [-r for r, _, _, _ in rows]
    rep = [not e for _, _, e, _ in rows]
    popular = sum(p for *_, p in rows)
    coef = [1 / popular if p else -1 / (n - popular) for *_, p in rows]
    n_rep = sum(rep)
    h = max(min(n_rep, rng.randint(0, k)), k - (n - n_rep))
    base = RerankProblem(
        user_id="u", items=[x for _, x, _, _ in rows], relevance=rel,
        is_repeat=rep, category=["c"] * n, fairness_coef=coef,
        kind="combined" if combined else "unified",
        repeat_slots=h if combined else k,
        explore_slots=k - h if combined else 0, rel_scale=rel_scale,
        epsilon_eff=0.0, alpha_eff=0.0, signed_lambda=0.0, k=k,
        exposure=ExposureModel("uniform"), objective_kind=kind)
    choices = [0.0, 1e-3, 50.0, 1e6] if kind == "raif" else [0.0]
    # q's weights, then p's
    alphas = [rng.choice(choices), rng.choice(choices)]
    lams = [rng.choice([-1.0, 1.0]) * rng.random() for _ in range(2)]
    around = []
    pairs = [(a, b) for a, b in itertools.combinations(range(n), 2)
             if rep[a] != rep[b] or (kind == "raif" and coef[a] != coef[b])]
    if pairs:
        a, b = rng.choice(pairs)
        gap = rel_scale * (rel[a] - rel[b])
        offsets = [rng.choice(CROSSING_OFFSETS) for _ in range(2)]
        if rep[a] != rep[b]:
            # the repeat weights, of one sign, at which a and b cross at
            # q's alpha, and around it
            sign = 1.0 if rep[a] else -1.0
            cross = -sign * k * (gap - alphas[0] * (coef[a] - coef[b]))
            if cross < 0:
                cross, sign = -cross, -sign
            at = [sign * max(0.0, cross + o * k * tol)
                  for o in [*offsets, *CROSSING_OFFSETS]]
            lams = [at[0], at[1] if rng.random() < 3 / 4 else lams[1]]
            around = [0.0, sign * (cross + 0.3), *at[2:]]
        else:
            # the fairness weights at which they cross, and around it
            diff = coef[a] - coef[b]
            alphas = [max(0.0, gap / diff + o * tol / abs(diff))
                      for o in offsets]
    q = dataclasses.replace(base, alpha_eff=alphas[0], signed_lambda=lams[0])
    p = dataclasses.replace(
        base, alpha_eff=alphas[rng.random() < 1 / 3],
        signed_lambda=lams[rng.random() < 3 / 4])
    if combined and rng.random() < 1 / 3:
        h = rng.randint(max(0, k - (n - n_rep)), min(n_rep, k))
        q = dataclasses.replace(q, repeat_slots=h, explore_slots=k - h)
    return p, q, around


def full_frontier(problem, items):
    """``frontier(problem, items)`` with every candidate a member."""
    front = solver_module.frontier(problem, items)
    inside = set(items)
    pools = ([], []), ([], [])
    for x, r, rep, coef in zip(problem.items, problem.relevance,
                               problem.is_repeat, problem.fairness_coef):
        pool = problem.kind == "combined" and not rep
        pools[pool][x not in inside].append((rep, r, coef))
    return front._replace(pools=tuple((chosen + unchosen, len(chosen))
                                      for chosen, unchosen in pools))


class TestFrontier:
    """An answer carries to any additive problem of the user where it
    settles, and along the repeat weight between two where it settles
    (Theorems 1 and 2 of ``settled``), decided on the answer's frontier."""

    # seeds on which a frontier without its members of another relevance
    # (0, 73), a certificate without the slot count (7, 16) and one without
    # the rounding room (178, 1065, 2856) accept a basket that is not the
    # answer
    @example(random.Random(0))
    @example(random.Random(73))
    @example(random.Random(7))
    @example(random.Random(16))
    @example(random.Random(178))
    @example(random.Random(1065))
    @example(random.Random(2856))
    @settings(max_examples=examples(300), deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_an_answer_carries(self, rng):
        p, q, around = answer_pair(rng)

        def answer(problem):
            try:
                return tuple(solve(problem).items)
            except UsageError:  # both entries of an id in both pools
                assert len(set(problem.items)) < problem.n_candidates
                return None

        items, at_q = answer(p), answer(q)
        for problem, basket in ((q, items), (p, items), (q, at_q)):
            if basket is not None:
                full = {basket: full_frontier(problem, basket)}
                assert (settled(problem, basket)
                        == settled(problem, basket, full))
        if items is None:
            return
        if settled(q, items):
            assert at_q == items
        if (dataclasses.replace(p, signed_lambda=0.0)
                == dataclasses.replace(q, signed_lambda=0.0)):
            # along the column of repeat weights through p, q and the
            # crossing, an answer settled where it is solved and at another
            # point is the answer at every point between
            column = [dataclasses.replace(p, signed_lambda=lam) for lam in
                      sorted({*around, p.signed_lambda, q.signed_lambda})]
            answers = [answer(r) for r in column]
            for lo, hi in itertools.combinations(range(len(column)), 2):
                for solved, other in ((lo, hi), (hi, lo)):
                    basket = answers[solved]
                    if (basket is not None and settled(column[solved], basket)
                            and settled(column[other], basket)):
                        assert answers[lo:hi + 1] == [basket] * (hi + 1 - lo)


def test_solves_leave_no_cyclic_garbage(monkeypatch):
    # the CLI pauses cyclic collection for a verb, so every solve must free
    # its search structures by reference counting alone: the closed form
    # with and without the Lagrangian search and the tie walk, and the
    # exposure DP with one and two pools
    problems = [random_combined_instance(seed, n_repeat=6, n_explore=6, k=4)[0]
                for seed in range(5)]
    problems += [one_pool_exposure_problem(seed, "unified", "raif")
                 for seed in range(3)]
    problems += [two_pool_problem_with_choice(seed, kind)
                 for seed in range(12) for kind in ("coverage", "exposure")]
    problems.append(small_problem(epsilon=0.2))
    walks = []
    walk = solver_module._walk_ties
    monkeypatch.setattr(solver_module, "_walk_ties",
                        lambda *args: walks.append(1) or walk(*args))
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        tags = {(sel.solver_tag, sel.nodes > 0)
                for sel in map(solve, problems)}
        assert gc.collect() == 0
        assert tags == {("topk_linear", False), ("topk_linear", True),
                        ("exposure_dp", True)}
        assert walks
    finally:
        if collecting:
            gc.enable()


def load_regen(path):
    spec = importlib.util.spec_from_file_location("regen", path)
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    return regen


def test_toy_golden_is_oracle_output(tmp_path):
    regen = load_regen(toy_path("regen.py"))
    out = tmp_path / "golden.tsv"
    regen.write_golden(str(out))
    with open(toy_path("golden_radiv_e0.1_l0.1.tsv"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_two_pool_golden_matches_solve():
    # branch-and-bound's frozen answers on full-size two-pool problems: the
    # same items and a bit-equal objective from whatever path solve takes
    regen = load_regen(os.path.join(FIXTURES, "two_pool", "regen.py"))
    with open(regen.GOLDEN, encoding="utf-8") as fh:
        golden = [line.rstrip("\n").split("\t") for line in fh]
    problems = regen.golden_problems()
    assert len(golden) == len(problems) == 216
    for (name, uid, items, obj), (set_name, p) in zip(golden, problems):
        assert (name, uid) == (set_name, p.user_id)
        sel = solve(p)
        assert sel.items == items.split(","), f"{name} {uid}"
        assert repr(sel.objective) == obj, f"{name} {uid}"
