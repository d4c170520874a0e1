import csv
import json

import pytest

from basket_rerank.dataset import ground_truth_repeat_ratio
from basket_rerank.errors import UsageError
from basket_rerank.objective import RerankConfig
from basket_rerank.scorer import CandidateSet, rank_pairs
from basket_rerank.tuner import (GridSpec, final_evaluate, run_grid,
                                 theta_deciles, write_chosen_config,
                                 write_sweep_csv)
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
