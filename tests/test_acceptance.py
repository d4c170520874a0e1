"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines live.
"""
import csv
import dataclasses
import itertools
import random
import time

import pytest

from basket_rerank.dataset import (ItemGroups, build_item_groups,
                                   build_repeat_sets, ground_truth_repeat_ratio,
                                   split_leave_last)
from basket_rerank.metrics import composite_metrics, evaluate, group_exposure
from basket_rerank.objective import (OBJECTIVE_KINDS, ExposureModel,
                                     RerankConfig, build_unified_problem,
                                     objective_value, original_topk)
from basket_rerank.scorer import (CandidateSet, make_unified, rank_pairs,
                                  score_explore_popularity,
                                  score_repeat_topfreq)
from basket_rerank.solver import rerank_all, solve
from basket_rerank.tuner import GridSpec, rerank_and_evaluate, run_grid, write_sweep_csv
from tests.conftest import TOY_K, TOY_N
from tests.oracle import solve_bruteforce
from tests.synth import (make_synthetic_dataset, random_combined_instance,
                         random_unified_instance)


def _report(num: int, desc: str, check) -> None:
    try:
        check()
    except BaseException:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    print(f"[PASS] criterion {num}: {desc}")


def test_criterion_1_oracle_equivalence():
    def check():
        start = time.time()
        count = 0
        sizes = [(8, 3), (10, 4), (12, 5)]
        for kind, exposure in itertools.product(OBJECTIVE_KINDS,
                                                ("uniform", "log_discount")):
            for seed in range(42):
                n, k = sizes[seed % len(sizes)]
                problem, _ = random_unified_instance(
                    1000 * seed + count, n=n, k=k, objective_kind=kind,
                    exposure_kind=exposure)
                brute = solve_bruteforce(problem)
                # the path solve picks: closed form or exposure DP
                sel = solve(problem)
                assert (sel.items, sel.objective) == (
                    brute.items, brute.objective), \
                    f"{sel.solver_tag}: kind={kind} exposure={exposure} seed={seed}"
                count += 1
        elapsed = time.time() - start
        assert count >= 500
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(1, "solve matches brute force on >=500 unified instances "
               "(identical selections, bit-equal objective) in <60s", check)


def test_criterion_2_combined_slots():
    def check():
        for seed in range(200):
            problem, _ = random_combined_instance(seed, n_repeat=6,
                                                  n_explore=6, k=4)
            sel = solve(problem)
            rep_items = {problem.items[j] for j in range(problem.n_candidates)
                         if problem.is_repeat[j]}
            n_rep = sum(1 for i in sel.items if i in rep_items)
            assert n_rep == problem.repeat_slots, f"seed={seed}"
            brute = solve_bruteforce(problem)
            assert abs(sel.objective - brute.objective) < 1e-9, f"seed={seed}"
            assert sel.items == brute.items, f"seed={seed}"
        for seed in range(20):
            slots = []
            for theta in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
                problem, _ = random_combined_instance(seed, n_repeat=6,
                                                      n_explore=6, k=4,
                                                      theta=theta)
                slots.append(problem.repeat_slots)
            assert all(a >= b for a, b in zip(slots, slots[1:])), \
                f"seed={seed}: {slots}"
    _report(2, "every combined solution spends exactly H(theta) repeat "
               "slots; H non-increasing in theta; oracle equivalence on "
               ">=200 instances", check)


def test_criterion_3_separability():
    def check():
        for base_seed in range(20):
            problems = [random_unified_instance(100 * base_seed + j, n=6, k=2)[0]
                        for j in range(3)]
            per_user = sum(solve_bruteforce(p).objective for p in problems)
            feasible = [
                [list(c) for c in itertools.combinations(p.items, p.total_slots)]
                for p in problems]
            joint = max(sum(objective_value(p, sel)
                            for p, sel in zip(problems, combo))
                        for combo in itertools.product(*feasible))
            assert abs(per_user - joint) < 1e-9, f"seed={base_seed}"
    _report(3, "sum of per-user optima equals the joint brute-force optimum "
               "on >=20 seeded 3-user instances (1e-9)", check)


def test_criterion_4_degenerate_identity(toy_cands, toy_reps, toy_groups,
                                         toy_categories, toy_test_split):
    def check():
        cfg = RerankConfig(k=TOY_K, n=TOY_N, epsilon=0.0, alpha=0.0, lam=0.0,
                           exposure=ExposureModel("log_discount"),
                           objective_kind="radiv")
        users = sorted(set(toy_cands.user_ids)
                       & set(toy_test_split.eval_targets))
        problems = [build_unified_problem(u, toy_cands, toy_reps, toy_groups,
                                          toy_categories, cfg)
                    for u in users]
        reranked = rerank_all(problems)
        raw = {u: b for u, b in original_topk(toy_cands, cfg).items()
               if u in toy_test_split.eval_targets}
        assert reranked.as_item_lists() == raw
        via_rerank = evaluate(reranked, toy_test_split, toy_reps, toy_groups,
                              toy_categories, cfg)
        direct = evaluate(raw, toy_test_split, toy_reps, toy_groups,
                          toy_categories, cfg)
        assert via_rerank.to_dict() == direct.to_dict()
    _report(4, "epsilon=alpha=lambda=0 reranking reproduces the raw top-K "
               "bit-exactly on the toy fixture, metrics identical", check)


def _toy_sweep(cands, reps, groups, categories, **cfg_kwargs):
    cfg = RerankConfig(k=TOY_K, n=TOY_N,
                       exposure=ExposureModel("log_discount"), **cfg_kwargs)
    users = sorted(cands.user_ids)
    problems = [build_unified_problem(u, cands, reps, groups, categories, cfg)
                for u in users]
    return rerank_all(problems), cfg


def test_criterion_5_scalarization_monotonicity(toy_cands, toy_reps,
                                                toy_groups, toy_categories):
    from basket_rerank.tuner import (DEFAULT_ALPHA_GRID, DEFAULT_EPSILON_GRID,
                                     DEFAULT_LAMBDA_GRID)

    def total_repeats(out):
        return sum(sum(1 for i in sel.items if i in toy_reps.get(u, frozenset()))
                   for u, sel in out.baskets.items())

    def total_coverage(out):
        return sum(len({toy_categories.get(i, "UNK") for i in sel.items})
                   for sel in out.baskets.values())

    def check():
        for sign, cmp in (("penalize_repeat", lambda a, b: a >= b - 1e-12),
                          ("reward_repeat", lambda a, b: a <= b + 1e-12)):
            counts = []
            for lam in DEFAULT_LAMBDA_GRID:
                out, _ = _toy_sweep(toy_cands, toy_reps, toy_groups,
                                    toy_categories, lam=lam, sign_mode=sign,
                                    objective_kind="radiv")
                counts.append(total_repeats(out))
            assert all(cmp(a, b) for a, b in zip(counts, counts[1:])), \
                f"{sign}: {counts}"
        coverages = []
        for eps in DEFAULT_EPSILON_GRID:
            out, _ = _toy_sweep(toy_cands, toy_reps, toy_groups,
                                toy_categories, epsilon=eps,
                                objective_kind="radiv")
            coverages.append(total_coverage(out))
        assert all(a <= b for a, b in zip(coverages, coverages[1:])), \
            f"coverage: {coverages}"
        gaps = []
        for alpha in DEFAULT_ALPHA_GRID:
            out, cfg = _toy_sweep(toy_cands, toy_reps, toy_groups,
                                  toy_categories, alpha=alpha,
                                  objective_kind="raif")
            e1, e2 = group_exposure(out, toy_groups, cfg.exposure)
            gaps.append(e1 - e2)
        assert all(a >= b - 1e-9 for a, b in zip(gaps, gaps[1:])), \
            f"gaps: {gaps}"
    _report(5, "default-grid sweeps on the toy fixture: repeat count "
               "monotone in lambda (both signs), coverage non-decreasing in "
               "epsilon, exposure gap non-increasing in alpha", check)


def test_criterion_6_published_arithmetic_anchors():
    def check():
        m_fr, _ = composite_metrics(3.1252, 0.3248, 0.0, 0.5)
        assert m_fr == pytest.approx(1.7250, abs=1e-3)
        _, m_dr = composite_metrics(0.0, 0.3248, 0.3615, 0.5)
        assert m_dr == pytest.approx(0.0184, abs=5e-4)
        _, m_dr = composite_metrics(0.0, 0.2874, 0.5898, 0.5)
        assert m_dr == pytest.approx(0.1512, abs=5e-4)
        assert 0.9248 - 0.60 == pytest.approx(0.3248, abs=1e-12)
        assert 0.1923 - 0.60 == pytest.approx(-0.4077, abs=1e-12)
    _report(6, "composite metrics reproduce the published mFR/mDR/RepBias "
               "arithmetic at stated tolerances", check)


def _synthetic_pipeline(seed, mix, n_users=30, n_items=40, n=20):
    ds = make_synthetic_dataset(n_users=n_users, n_items=n_items,
                                n_categories=6, seed=seed)
    train, validation, test = split_leave_last(ds, seed)
    reps = build_repeat_sets(train)
    groups = build_item_groups(train)
    cands = make_unified(score_repeat_topfreq(train, reps, n),
                         score_explore_popularity(train, reps, n),
                         mix=mix, n=n)
    return ds, train, validation, test, reps, groups, cands


def test_criterion_7_tuner_rule_fidelity(tmp_path):
    def check():
        ds, train, validation, test, reps, groups, cands = \
            _synthetic_pipeline(seed=11, mix=0.5)
        grid = GridSpec(epsilon_grid=[0.0, 0.05, 0.1, 0.2],
                        alpha_grid=[0.0, 0.1, 0.5, 2.0],
                        lambda_grid=[0.0, 0.1, 0.3, 0.5])
        for kind in ("radiv", "raif"):
            cfg = RerankConfig(k=5, n=20, objective_kind=kind,
                               exposure=ExposureModel("log_discount"))
            result = run_grid(validation, cands, reps, groups, ds.categories,
                              cfg, grid)
            assert not result.infeasible
            chosen_report = next(r for p, r in result.results
                                 if p.snapshot() == result.best.snapshot())
            assert chosen_report.recall >= 0.9 * result.baseline.recall - 1e-12
            # independent rescan of the sweep CSV
            path = tmp_path / f"sweep_{kind}.csv"
            write_sweep_csv(result, str(path))
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            floor = 0.9 * result.baseline.recall
            feasible = [r for r in rows if float(r["recall"]) >= floor]
            if kind == "radiv":
                target = max(float(r["m_dr"]) for r in feasible)
                assert chosen_report.m_dr == pytest.approx(target, abs=1e-9)
            else:
                target = min(float(r["m_fr"]) for r in feasible)
                assert chosen_report.m_fr == pytest.approx(target, abs=1e-9)
    _report(7, "tuned config keeps >=90% of baseline recall and matches an "
               "independent rescan of the sweep CSV (max mDR / min mFR)",
            check)


def test_criterion_8_qualitative_bias_reduction():
    def check():
        ds, train, validation, test, reps, groups, cands = \
            _synthetic_pipeline(seed=11, mix=0.95)
        gt = ground_truth_repeat_ratio(test, reps)
        base = RerankConfig(k=5, n=20, exposure=ExposureModel("log_discount"),
                            sign_mode="penalize_repeat")

        def run(kind, **kw):
            cfg = dataclasses.replace(base, objective_kind=kind, **kw)
            return rerank_and_evaluate(cands, test, reps, groups,
                                       ds.categories, cfg, gt)

        ori = run("relevance_only")
        assert ori.rep_bias > 0, "scorer must be repeat-biased"
        radiv = run("radiv", epsilon=0.1, lam=0.3)
        naive_div = run("naive_div", epsilon=0.1)
        raif = run("raif", alpha=0.5, lam=2.0)
        naive_fair = run("naive_fair", alpha=0.5)
        assert abs(radiv.rep_bias) < abs(ori.rep_bias)
        assert abs(radiv.rep_bias) < abs(naive_div.rep_bias)
        assert abs(raif.rep_bias) < abs(ori.rep_bias)
        assert abs(raif.rep_bias) < abs(naive_fair.rep_bias)
    _report(8, "with a repeat-biased scorer, the lambda-bearing objectives "
               "cut |RepBias| strictly below the unmodified and naive runs",
            check)


def _performance_problems(n_users, kind, exposure, eps, alpha, lam):
    rng = random.Random(123)
    items = [f"i{j:03d}" for j in range(500)]
    popular = set(items[:100])
    groups = ItemGroups(popular, set(items) - popular)
    categories = {i: f"c{rng.randrange(40)}" for i in items}
    cfg = RerankConfig(k=20, n=100, epsilon=eps, alpha=alpha, lam=lam,
                       exposure=ExposureModel(exposure), objective_kind=kind)
    problems = []
    for u in range(n_users):
        uid = f"u{u:04d}"
        cand_items = rng.sample(items, 100)
        pairs = rank_pairs([(i, rng.random()) for i in cand_items], 100)
        cands = CandidateSet(kind="unified", unified={uid: pairs})
        reps = {uid: frozenset(i for i in cand_items if rng.random() < 0.4)}
        problems.append(build_unified_problem(uid, cands, reps, groups,
                                              categories, cfg))
    return problems


def test_criterion_9_performance():
    def check():
        problems = _performance_problems(1000, "radiv", "log_discount",
                                         0.1, 0.0, 0.1)
        start = time.time()
        out = rerank_all(problems)
        elapsed = time.time() - start
        assert len(out.baskets) == 1000
        assert elapsed < 60.0, f"coverage users took {elapsed:.1f}s"

        linear = _performance_problems(1000, "raif", "uniform",
                                       0.0, 1.0, 0.1)
        start = time.time()
        out = rerank_all(linear)
        elapsed = time.time() - start
        assert elapsed < 5.0, f"linear path took {elapsed:.1f}s"
    _report(9, "1000 users (N=100, K=20) rerank in <60s with optimality on "
               "every user; linear uniform-fairness path in <5s", check)
