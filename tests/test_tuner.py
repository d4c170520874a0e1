import csv
import dataclasses
import json

import pytest

from basket_rerank.dataset import ground_truth_repeat_ratio
from basket_rerank.errors import UsageError
from basket_rerank.objective import (ExposureModel, RerankConfig,
                                     build_combined_problem,
                                     build_unified_problem, choose_sign_mode,
                                     compute_h_theta, original_topk,
                                     reweighted)
from basket_rerank.scorer import CandidateSet, rank_pairs
from basket_rerank.tuner import (GridSpec, final_evaluate,
                                 rerank_and_evaluate, run_grid, theta_deciles,
                                 write_chosen_config, write_sweep_csv)
from tests.conftest import TOY_K, TOY_N


def small_grid(**kwargs):
    defaults = dict(epsilon_grid=[0.0, 0.05, 0.2], alpha_grid=[0.0, 0.5, 2.0],
                    lambda_grid=[0.0, 0.1, 0.5])
    defaults.update(kwargs)
    return GridSpec(**defaults)


def base_cfg(kind="radiv", **kwargs):
    defaults = dict(k=TOY_K, n=TOY_N, objective_kind=kind)
    defaults.update(kwargs)
    return RerankConfig(**defaults)


class TestGridSpec:
    def test_dedup_and_sort(self):
        g = GridSpec(epsilon_grid=[0.2, 0.0, 0.2])
        assert g.epsilon_grid == [0.0, 0.2]

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            GridSpec(lambda_grid=[])

    def test_negative_rejected(self):
        with pytest.raises(UsageError):
            GridSpec(alpha_grid=[-1.0])

    @pytest.mark.parametrize("name", ["epsilon_grid", "alpha_grid",
                                      "lambda_grid", "theta_grid"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(UsageError, match="non-finite"):
            GridSpec(**{name: [0.0, value]})


class TestThetaDeciles:
    def test_pooled_and_sorted(self):
        cands = CandidateSet(
            kind="combined", n=10,
            repeat_list={"u1": rank_pairs([(f"r{j}", j / 10) for j in range(5)]),
                         "u2": rank_pairs([(f"r{j}", (j + 5) / 10) for j in range(5)])},
            explore_list={"u1": [], "u2": []})
        deciles = theta_deciles(cands)
        assert deciles == sorted(deciles)
        assert all(0.0 <= t <= 0.9 for t in deciles)

    def test_constant_scores_collapse(self):
        cands = CandidateSet(
            kind="combined", n=4,
            repeat_list={"u": [("a", 0.5), ("b", 0.5)]},
            explore_list={"u": []})
        assert theta_deciles(cands) == [0.5]


class TestRunGrid:
    def test_singleton_grid_returns_its_point(self, toy_validation, toy_cands,
                                              toy_reps, toy_groups,
                                              toy_categories):
        grid = GridSpec(epsilon_grid=[0.1], lambda_grid=[0.2])
        result = run_grid(toy_validation, toy_cands, toy_reps, toy_groups,
                          toy_categories, base_cfg("radiv", recall_tolerance=1.0),
                          grid)
        assert len(result.results) == 1
        assert result.best.epsilon == 0.1 and result.best.lam == 0.2
        assert not result.infeasible

    def test_rule_fidelity_rescan(self, toy_validation, toy_cands, toy_reps,
                                  toy_groups, toy_categories):
        # re-derive the winner from the per-point reports with an
        # independent implementation of the two-condition rule
        cfg = base_cfg("radiv")
        result = run_grid(toy_validation, toy_cands, toy_reps, toy_groups,
                          toy_categories, cfg, small_grid())
        floor = (1.0 - cfg.recall_tolerance) * result.baseline.recall
        expect = None
        for pcfg, report in result.results:  # grid order = lexicographic
            if report.recall < floor:
                continue
            if expect is None or report.m_dr > expect[1].m_dr:
                expect = (pcfg, report)
        assert expect is not None
        assert result.best.snapshot() == expect[0].snapshot()

    def test_raif_minimizes_mfr(self, toy_validation, toy_cands, toy_reps,
                                toy_groups, toy_categories):
        cfg = base_cfg("raif")
        result = run_grid(toy_validation, toy_cands, toy_reps, toy_groups,
                          toy_categories, cfg, small_grid())
        floor = (1.0 - cfg.recall_tolerance) * result.baseline.recall
        feasible = [r for _, r in result.results if r.recall >= floor]
        best_report = next(r for p, r in result.results
                           if p.snapshot() == result.best.snapshot())
        assert best_report.m_fr == min(r.m_fr for r in feasible)

    def test_zero_tolerance_keeps_baseline_recall(self, toy_validation,
                                                  toy_cands, toy_reps,
                                                  toy_groups, toy_categories):
        cfg = base_cfg("radiv", recall_tolerance=0.0)
        result = run_grid(toy_validation, toy_cands, toy_reps, toy_groups,
                          toy_categories, cfg, small_grid())
        if not result.infeasible:
            best_report = next(r for p, r in result.results
                               if p.snapshot() == result.best.snapshot())
            assert best_report.recall >= result.baseline.recall - 1e-12

    def test_tolerance_monotone_feasible_count(self, toy_validation, toy_cands,
                                               toy_reps, toy_groups,
                                               toy_categories):
        counts = []
        for tol in (0.0, 0.1, 0.5, 1.0):
            result = run_grid(toy_validation, toy_cands, toy_reps, toy_groups,
                              toy_categories,
                              base_cfg("radiv", recall_tolerance=tol),
                              small_grid())
            counts.append(result.feasible_count)
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert counts[-1] == len(result.results)

    def test_full_tolerance_never_infeasible(self, toy_validation, toy_cands,
                                             toy_reps, toy_groups,
                                             toy_categories):
        result = run_grid(toy_validation, toy_cands, toy_reps, toy_groups,
                          toy_categories, base_cfg("radiv", recall_tolerance=1.0),
                          small_grid())
        assert not result.infeasible
        assert result.feasible_count == len(result.results)

    def test_combined_grid_sweeps_theta(self, toy_validation,
                                        toy_combined_cands, toy_reps,
                                        toy_groups, toy_categories):
        grid = small_grid(theta_grid=[0.1, 0.9])
        result = run_grid(toy_validation, toy_combined_cands, toy_reps,
                          toy_groups, toy_categories, base_cfg("radiv"), grid)
        thetas = {p.theta for p, _ in result.results}
        lams = {p.lam for p, _ in result.results}
        assert thetas == {0.1, 0.9}
        assert lams == {0.0}  # repeat count is fixed by the slot budget
        assert len(result.results) == 3 * 2

    def test_wrong_kind_rejected(self, toy_validation, toy_cands, toy_reps,
                                 toy_groups, toy_categories):
        with pytest.raises(UsageError):
            run_grid(toy_validation, toy_cands, toy_reps, toy_groups,
                     toy_categories, base_cfg("naive_div"), small_grid())

    def test_test_split_rejected(self, toy_test_split, toy_cands, toy_reps,
                                 toy_groups, toy_categories):
        with pytest.raises(UsageError, match="validation"):
            run_grid(toy_test_split, toy_cands, toy_reps, toy_groups,
                     toy_categories, base_cfg("radiv"), small_grid())

    def test_deterministic(self, toy_validation, toy_cands, toy_reps,
                           toy_groups, toy_categories):
        runs = [run_grid(toy_validation, toy_cands, toy_reps, toy_groups,
                         toy_categories, base_cfg("radiv"), small_grid())
                for _ in range(2)]
        assert runs[0].best.snapshot() == runs[1].best.snapshot()
        assert [r.to_dict() for _, r in runs[0].results] == \
            [r.to_dict() for _, r in runs[1].results]


def reference_grid(split, cands, reps, groups, categories, cfg, grid):
    """``run_grid`` rebuilt on the public ``rerank_and_evaluate``, which
    builds every problem afresh at every point: (best config, per-point
    results, baseline report)."""
    radiv = cfg.objective_kind == "radiv"
    gt = ground_truth_repeat_ratio(split, reps)
    if cands.kind == "unified":
        base_theta = 0.0
        seconds = [(lam, 0.0) for lam in grid.lambda_grid]
    else:
        deciles = theta_deciles(cands)
        base_theta = deciles[0]
        thetas = grid.theta_grid if grid.theta_grid is not None else deciles
        seconds = [(0.0, theta) for theta in thetas]
    sign_mode = choose_sign_mode(
        original_topk(cands, dataclasses.replace(cfg, theta=base_theta)),
        reps, gt)

    def at(weight, lam, theta, kind):
        pcfg = dataclasses.replace(
            cfg, epsilon=weight if radiv else 0.0,
            alpha=0.0 if radiv else weight, lam=lam, theta=theta,
            sign_mode=sign_mode, objective_kind=kind)
        return pcfg, rerank_and_evaluate(cands, split, reps, groups,
                                         categories, pcfg, gt)

    baseline_cfg, baseline = at(0.0, 0.0, base_theta, "relevance_only")
    weights = grid.epsilon_grid if radiv else grid.alpha_grid
    results = [at(w, lam, theta, cfg.objective_kind)
               for w in weights for lam, theta in seconds]
    floor = (1.0 - cfg.recall_tolerance) * baseline.recall
    feasible = [(p, r) for p, r in results if r.recall >= floor]
    if not feasible:
        return baseline_cfg, results, baseline
    # max keeps the first of equal scores: the lexicographically smallest
    best, _ = max(feasible, key=lambda pr: pr[1].m_dr if radiv else -pr[1].m_fr)
    return best, results, baseline


def cut_pools(cands):
    """The toy combined candidates with two validation users' pools cut.

    u003 keeps two explore items, so a theta above every repeat score
    raises its repeat slots from H(theta) = 0 to K - 2. u004 keeps three
    repeat items and no explore item, so its basket is short."""
    repeat_list = dict(cands.repeat_list)
    explore_list = dict(cands.explore_list)
    explore_list["u003"] = explore_list["u003"][:2]
    repeat_list["u004"] = repeat_list["u004"][:3]
    explore_list["u004"] = []
    return dataclasses.replace(cands, repeat_list=repeat_list,
                               explore_list=explore_list)


class TestBuildOnce:
    """``run_grid`` builds each problem once and re-weights it per point;
    every point must match a fresh build."""

    THETAS = [0.1, 0.5, 2.0]

    def test_cut_pools_reach_every_slot_branch(self, toy_combined_cands,
                                               toy_groups, toy_categories):
        cands = cut_pools(toy_combined_cands)
        cfg = base_cfg("raif", theta=max(self.THETAS))
        raised = build_combined_problem("u003", cands, {}, toy_groups,
                                        toy_categories, cfg)
        rep_scores = [s for _, s in cands.repeat_list["u003"]]
        assert compute_h_theta(rep_scores, cfg.theta, TOY_K) == 0
        assert (raised.repeat_slots, raised.explore_slots) == (TOY_K - 2, 2)
        assert not raised.short
        short = build_combined_problem("u004", cands, {}, toy_groups,
                                       toy_categories, cfg)
        assert short.short and (short.repeat_slots, short.explore_slots) == (3, 0)

    @pytest.mark.parametrize("exposure", ["uniform", "log_discount"])
    @pytest.mark.parametrize("kind", ["radiv", "raif"])
    @pytest.mark.parametrize("candidates, thetas", [
        ("unified", None), ("combined", THETAS), ("combined", None)])
    def test_matches_fresh_builds(self, candidates, thetas, kind, exposure,
                                  toy_validation, toy_cands,
                                  toy_combined_cands, toy_reps, toy_groups,
                                  toy_categories):
        cands = (toy_cands if candidates == "unified"
                 else cut_pools(toy_combined_cands))
        cfg = base_cfg(kind, exposure=ExposureModel(exposure))
        grid = small_grid(theta_grid=thetas)
        args = (toy_validation, cands, toy_reps, toy_groups, toy_categories,
                cfg, grid)
        result = run_grid(*args)
        best, results, baseline = reference_grid(*args)

        def text(report):  # JSON, so that NaN metrics compare equal
            return json.dumps(report.to_dict(), sort_keys=True)

        assert [(p.snapshot(), text(r)) for p, r in result.results] == \
            [(p.snapshot(), text(r)) for p, r in results]
        assert result.best.snapshot() == best.snapshot()
        assert text(result.baseline) == text(baseline)

    @pytest.mark.parametrize("candidates", ["unified", "combined"])
    def test_reweighted_problems_equal_fresh_builds(self, candidates,
                                                    toy_validation, toy_cands,
                                                    toy_combined_cands,
                                                    toy_reps, toy_groups,
                                                    toy_categories):
        # every field, including those no solver reads (short,
        # objective_kind), as the builders would set it at each point
        cands = (toy_cands if candidates == "unified"
                 else cut_pools(toy_combined_cands))
        result = run_grid(toy_validation, cands, toy_reps, toy_groups,
                          toy_categories, base_cfg("radiv"),
                          small_grid(theta_grid=self.THETAS))
        builder = (build_unified_problem if candidates == "unified"
                   else build_combined_problem)

        def build(cfg):
            return [builder(u, cands, toy_reps, toy_groups, toy_categories, cfg)
                    for u in cands.user_ids]

        built = build(base_cfg("relevance_only"))
        for pcfg, _ in result.results:
            assert reweighted(built, cands, pcfg) == build(pcfg)


class TestFinalEvaluate:
    def test_kind_mismatch_guard(self, toy_test_split, toy_cands, toy_reps,
                                 toy_groups, toy_categories):
        best = base_cfg("radiv", epsilon=0.1)
        with pytest.raises(UsageError, match="mismatch"):
            final_evaluate(best, toy_test_split, toy_cands, toy_reps,
                           toy_groups, toy_categories, objective_kind="raif")

    def test_matches_direct_evaluation(self, toy_test_split, toy_cands,
                                       toy_reps, toy_groups, toy_categories):
        from basket_rerank.tuner import rerank_and_evaluate
        best = base_cfg("radiv", epsilon=0.1, lam=0.1)
        via_final = final_evaluate(best, toy_test_split, toy_cands, toy_reps,
                                   toy_groups, toy_categories)
        gt = ground_truth_repeat_ratio(toy_test_split, toy_reps)
        direct = rerank_and_evaluate(toy_cands, toy_test_split, toy_reps,
                                     toy_groups, toy_categories, best, gt)
        assert via_final.to_dict() == direct.to_dict()


class TestArtifacts:
    def run_once(self, toy_validation, toy_cands, toy_reps, toy_groups,
                 toy_categories):
        return run_grid(toy_validation, toy_cands, toy_reps, toy_groups,
                        toy_categories, base_cfg("radiv"),
                        GridSpec(epsilon_grid=[0.0, 0.1],
                                 lambda_grid=[0.0, 0.2]))

    def test_sweep_csv_roundtrip(self, tmp_path, toy_validation, toy_cands,
                                 toy_reps, toy_groups, toy_categories):
        result = self.run_once(toy_validation, toy_cands, toy_reps, toy_groups,
                               toy_categories)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(result, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(result.results)
        for row, (pcfg, report) in zip(rows, result.results):
            assert float(row["epsilon"]) == pcfg.epsilon
            assert float(row["m_dr"]) == pytest.approx(report.m_dr)

    def test_chosen_config_json(self, tmp_path, toy_validation, toy_cands,
                                toy_reps, toy_groups, toy_categories):
        result = self.run_once(toy_validation, toy_cands, toy_reps, toy_groups,
                               toy_categories)
        path = tmp_path / "chosen.json"
        write_chosen_config(result, str(path))
        payload = json.loads(path.read_text())
        assert payload["best"] == result.best.snapshot()
        assert payload["infeasible"] == result.infeasible
