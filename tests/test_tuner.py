import csv
import dataclasses
import itertools
import json
import math

import pytest

from basket_rerank import tuner
from basket_rerank.dataset import (BasketDataset, ItemGroups, SplitDataset,
                                   build_item_groups, build_repeat_sets,
                                   ground_truth_repeat_ratio,
                                   split_leave_last)
from basket_rerank.errors import SolverError, UsageError
from basket_rerank.objective import (ExposureModel, RerankConfig,
                                     build_combined_problem, build_problems,
                                     build_unified_problem, choose_sign_mode,
                                     original_topk, reweighted)
from basket_rerank.scorer import (CandidateSet, make_unified, rank_pairs,
                                  score_explore_popularity,
                                  score_repeat_topfreq)
from basket_rerank.solver import _TIE_TOL, settled
from basket_rerank.tuner import (GridSpec, TuneResult, final_evaluate,
                                 rerank_and_evaluate, run_grid, theta_deciles,
                                 write_chosen_config, write_sweep_csv)
from tests.conftest import TOY_K, TOY_N
from tests.oracle import compute_h_theta
from tests.synth import TIE_OFFSETS, make_synthetic_dataset, tie_chain_inputs


def small_grid(**kwargs):
    defaults = dict(epsilon_grid=[0.0, 0.05, 0.2], alpha_grid=[0.0, 0.5, 2.0],
                    lambda_grid=[0.0, 0.1, 0.5])
    defaults.update(kwargs)
    return GridSpec(**defaults)


def base_cfg(kind="radiv", **kwargs):
    defaults = dict(k=TOY_K, n=TOY_N, objective_kind=kind)
    defaults.update(kwargs)
    return RerankConfig(**defaults)


@pytest.fixture
def counted(monkeypatch):
    """Counts of the tuner's ``evaluate`` and ``solve`` calls."""
    counts = {"evaluations": 0, "solves": 0}
    evaluate, solve = tuner.evaluate, tuner.solve

    def counting_evaluate(*args, **kwargs):
        counts["evaluations"] += 1
        return evaluate(*args, **kwargs)

    def counting_solve(problem):
        counts["solves"] += 1
        return solve(problem)

    monkeypatch.setattr(tuner, "evaluate", counting_evaluate)
    monkeypatch.setattr(tuner, "solve", counting_solve)
    return counts


def n_users(cands, split):
    return len(set(cands.user_ids) & set(split.eval_targets))


class TestGridSpec:
    def test_dedup_and_sort(self):
        g = GridSpec(epsilon_grid=[0.2, 0.0, 0.2])
        assert g.epsilon_grid == [0.0, 0.2]

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            GridSpec(lambda_grid=[])

    def test_empty_theta_rejected(self):
        with pytest.raises(UsageError, match="theta_grid is empty"):
            GridSpec(theta_grid=[])

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
            kind="combined",
            repeat_list={"u1": rank_pairs([(f"r{j}", j / 10) for j in range(5)]),
                         "u2": rank_pairs([(f"r{j}", (j + 5) / 10) for j in range(5)])},
            explore_list={"u1": [], "u2": []})
        deciles = theta_deciles(cands)
        assert deciles == sorted(deciles)
        assert all(0.0 <= t <= 0.9 for t in deciles)

    def test_constant_scores_collapse(self):
        cands = CandidateSet(
            kind="combined",
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

    def test_equal_slot_splits_reuse_work(self, counted, toy_validation,
                                          toy_combined_cands, toy_reps,
                                          toy_groups, toy_categories):
        # both thresholds lie above every repeat score, so every user has
        # the same H(theta) at both: the second theta of each weight
        # repeats the first one's problems and baskets
        grid = small_grid(theta_grid=[2.0, 3.0])
        result = run_grid(toy_validation, toy_combined_cands, toy_reps,
                          toy_groups, toy_categories, base_cfg("raif"), grid)
        points = len(result.results) + 1  # with the baseline
        users = n_users(toy_combined_cands, toy_validation)
        assert counted["evaluations"] < points
        # fewer than users * points: only the first theta of each weight solves
        assert counted["solves"] == users * (1 + len(grid.alpha_grid))
        for (cfg2, report2), (cfg3, report3) in zip(result.results[::2],
                                                    result.results[1::2]):
            assert (cfg2.theta, cfg3.theta) == (2.0, 3.0)
            assert report3.config == cfg3.snapshot() != report2.config
            assert dataclasses.replace(report3, config={}) == \
                dataclasses.replace(report2, config={})

    def test_report_config_is_per_point(self, counted, toy_validation,
                                        toy_cands, toy_reps, toy_groups,
                                        toy_categories):
        result = run_grid(toy_validation, toy_cands, toy_reps, toy_groups,
                          toy_categories, base_cfg("radiv"), small_grid())
        assert counted["evaluations"] < len(result.results) + 1  # a memo hit
        for pcfg, report in result.results:
            assert report.config == pcfg.snapshot()

    def test_deterministic(self, toy_validation, toy_cands, toy_reps,
                           toy_groups, toy_categories):
        runs = [run_grid(toy_validation, toy_cands, toy_reps, toy_groups,
                         toy_categories, base_cfg("radiv"), small_grid())
                for _ in range(2)]
        assert runs[0].best.snapshot() == runs[1].best.snapshot()
        assert [r.to_dict() for _, r in runs[0].results] == \
            [r.to_dict() for _, r in runs[1].results]

    @pytest.mark.parametrize("exposure", ["uniform", "log_discount"])
    def test_an_empty_item_group(self, exposure, toy_validation, toy_cands,
                                 toy_reps, toy_categories):
        # no popular item: every fairness coefficient is one constant, and
        # the popular group's mean exposure is 0 at every point
        items = {i for pairs in toy_cands.unified.values() for i, _ in pairs}
        args = (toy_validation, toy_cands, toy_reps, ItemGroups(set(), items),
                toy_categories,
                base_cfg("raif", exposure=ExposureModel(exposure)),
                small_grid())
        result = run_grid(*args)
        best, results, _ = reference_grid(*args)
        assert [(p.snapshot(), r.to_dict()) for p, r in result.results] == \
            [(p.snapshot(), r.to_dict()) for p, r in results]
        assert result.best.snapshot() == best.snapshot()
        assert all(math.isfinite(r.log_dp) for _, r in result.results)


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

    @pytest.mark.parametrize("exposure", ["uniform", "log_discount"])
    @pytest.mark.parametrize("kind", ["radiv", "raif"])
    @pytest.mark.parametrize("candidates, thetas", [
        ("unified", None), ("combined", THETAS), ("combined", None)])
    def test_grids_hit_the_memos(self, candidates, thetas, kind, exposure,
                                 counted, toy_validation, toy_cands,
                                 toy_combined_cands, toy_reps, toy_groups,
                                 toy_categories):
        # so that test_matches_fresh_builds compares reused reports and
        # selections, not only fresh ones: every grid repeats a basket set,
        # and on combined candidates some users keep their H(theta) split
        # from one theta to the next
        cands = (toy_cands if candidates == "unified"
                 else cut_pools(toy_combined_cands))
        result = run_grid(toy_validation, cands, toy_reps, toy_groups,
                          toy_categories,
                          base_cfg(kind, exposure=ExposureModel(exposure)),
                          small_grid(theta_grid=thetas))
        points = len(result.results) + 1  # with the baseline
        assert counted["evaluations"] < points
        if candidates == "combined":
            assert counted["solves"] < n_users(cands, toy_validation) * points

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
            again = reweighted(built, cands, pcfg)
            assert again == build(pcfg)
            # the candidate lists are shared with the built problems
            for new, old in zip(again, built):
                for name in ("items", "relevance", "is_repeat", "category",
                             "fairness_coef"):
                    assert getattr(new, name) is getattr(old, name)


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


@pytest.fixture(scope="module")
def synth_inputs():
    """Tie-heavy tuning inputs from the built-in scorers: frequency and
    popularity scores repeat, so many candidates tie. (validation split,
    unified and combined candidates, repeat sets, groups, categories)."""
    ds = make_synthetic_dataset(n_users=24, n_items=40, n_categories=6,
                                seed=3)
    train, validation, _ = split_leave_last(ds, 3)
    reps = build_repeat_sets(train)
    repeat_side = score_repeat_topfreq(train, reps, 20)
    explore_side = score_explore_popularity(train, reps, 20)
    cands = {"unified": make_unified(repeat_side, explore_side, mix=0.5, n=20),
             "combined": CandidateSet(kind="combined",
                                      repeat_list=repeat_side,
                                      explore_list=explore_side)}
    return validation, cands, reps, build_item_groups(train), ds.categories


# the default lambda grid, and weights from none to large
WALK_GRID = GridSpec(epsilon_grid=[0.0, 0.01, 0.1], alpha_grid=[0.0, 0.01, 1, 50])


@pytest.fixture(scope="module")
def tie_inputs():
    """Inputs whose scores tie, or miss a tie by a rounding, at the tie
    tolerance (``tie_chain_inputs``)."""
    return tie_chain_inputs(3)


# K = 3; lambda at 0 and at multiples of the tolerance off the weights
# where a repeat and an explore candidate whose levels are 0.3 or 0.4 apart
# cross; alpha = 50 makes rounding errors near the tolerance
TIE_K = 3
TIE_GRID = GridSpec(
    epsilon_grid=[0.0, 0.01], alpha_grid=[0.0, 50.0],
    lambda_grid=[0.0] + [TIE_K * (gap + sign * offset * _TIE_TOL)
                         for gap in (0.3, 0.4) for sign in (-1, 1)
                         for offset in TIE_OFFSETS])


def shape_args(source, candidates, kind, exposure, request):
    """run_grid's arguments on the toy fixture, the synthetic inputs or
    the tie inputs."""
    if source == "ties":
        validation, cands, reps, groups, categories = \
            request.getfixturevalue("tie_inputs")
        return (validation, cands[candidates], reps, groups, categories,
                RerankConfig(k=TIE_K, n=12, objective_kind=kind,
                             exposure=ExposureModel(exposure)), TIE_GRID)
    if source == "toy":
        cands = request.getfixturevalue(
            "toy_cands" if candidates == "unified" else "toy_combined_cands")
        return (request.getfixturevalue("toy_validation"), cands,
                request.getfixturevalue("toy_reps"),
                request.getfixturevalue("toy_groups"),
                request.getfixturevalue("toy_categories"),
                base_cfg(kind, exposure=ExposureModel(exposure)), WALK_GRID)
    validation, cands, reps, groups, categories = \
        request.getfixturevalue("synth_inputs")
    return (validation, cands[candidates], reps, groups, categories,
            RerankConfig(k=5, n=20, objective_kind=kind,
                         exposure=ExposureModel(exposure)), WALK_GRID)


SHAPES = [(kind, exposure, candidates) for kind in ("radiv", "raif")
          for exposure in ("uniform", "log_discount")
          for candidates in ("unified", "combined")]


def problem_key(problem):
    """What a re-weighted problem changes between grid points."""
    return (problem.rel_scale, problem.epsilon_eff, problem.alpha_eff,
            problem.signed_lambda, problem.repeat_slots, problem.explore_slots,
            problem.objective_kind)


class TestColumnWalk:
    """``run_grid`` solves a user at a point only when the column scan
    cannot fill it; every point must still match a fresh solve."""

    @pytest.mark.parametrize("kind, exposure, candidates", SHAPES)
    @pytest.mark.parametrize("source", ["toy", "synth", "ties"])
    def test_matches_per_point_solves(self, source, kind, exposure,
                                      candidates, tmp_path, request):
        args = shape_args(source, candidates, kind, exposure, request)
        best, results, baseline = reference_grid(*args)
        floor = (1 - args[5].recall_tolerance) * baseline.recall
        reference = TuneResult(best, results, baseline,
                               sum(r.recall >= floor for _, r in results))
        files = []
        for result in (run_grid(*args), reference):
            path = tmp_path / "sweep.csv"
            write_sweep_csv(result, str(path))
            files.append(path.read_bytes())
            path = tmp_path / "chosen.json"
            write_chosen_config(result, str(path))
            files.append(path.read_bytes())
        assert files[:2] == files[2:]

    @pytest.mark.parametrize("kind, exposure, candidates", SHAPES)
    def test_each_problem_solved_once(self, kind, exposure, candidates,
                                      monkeypatch, request):
        args = shape_args("synth", candidates, kind, exposure, request)
        solved = []
        solve = tuner.solve

        def recording(problem):
            solved.append((problem.user_id, problem_key(problem)))
            return solve(problem)

        monkeypatch.setattr(tuner, "solve", recording)
        result = run_grid(*args)
        assert len(solved) == len(set(solved))
        split, cands = args[0], args[1]
        configs = [result.baseline.config] + [p.snapshot()
                                              for p, _ in result.results]
        built = [build_problems(cands, *args[2:5], RerankConfig(**{
                     **c, "exposure": ExposureModel(c["exposure"])}), split)
                 for c in configs]
        keys = {(p.user_id, problem_key(p)) for ps in built for p in ps}
        per_point = n_users(cands, split) * len(configs)
        if candidates == "combined":
            # each distinct problem at most once: equal H(theta) splits
            # share it, and a previous column's answer certified at a point
            # needs no solve there; the additive grid certifies some
            assert len(solved) <= len(keys) < per_point
            if kind == "raif" and exposure == "uniform":
                assert len(solved) < len(keys)
        elif kind == "raif" and exposure == "uniform":
            # per user and column (the baseline is one of its own), a solve
            # starts a run of equal answers or serves a point whose answer
            # is not settled; the other end of a run is certified, not solved
            bound = 0
            for _, column in itertools.groupby(
                    zip(configs, built),
                    key=lambda cb: (cb[0]["objective_kind"], cb[0]["alpha"])):
                for points in zip(*(ps for _, ps in column)):
                    answers = [solve(p).items for p in points]
                    bound += sum(1 for _ in itertools.groupby(answers))
                    bound += sum(not settled(p, items)
                                 for p, items in zip(points, answers))
            assert len(solved) <= bound < per_point
        elif exposure == "log_discount" and kind == "raif":
            # the exposure DP's columns (alpha > 0) solve every point
            dp = [key for _, key in solved if key[2] > 0]
            assert len(dp) == n_users(cands, split) * sum(
                p.alpha > 0 for p, _ in result.results)

    def test_each_pool_settles_on_its_own(self, counted):
        # every repeat candidate scores below every explore one, and the
        # split takes one repeat and two explore items: no basket settles
        # across the pools, yet each pool's part settles within its pool,
        # so each column after the first takes the previous one's answers
        users = [f"u{u}" for u in range(4)]
        cands = CandidateSet(
            kind="combined",
            repeat_list={u: rank_pairs([("r1", 0.3), ("r2", 0.2), ("r3", 0.1)])
                         for u in users},
            explore_list={u: rank_pairs([("x1", 1.0), ("x2", 0.9),
                                         ("x3", 0.8)]) for u in users})
        items = ["r1", "r2", "r3", "x1", "x2", "x3"]
        validation = SplitDataset(BasketDataset([]), {u: frozenset({"x3"})
                                                      for u in users},
                                  "validation")
        # no candidate is popular: the fairness weight moves all alike
        result = run_grid(validation, cands, {},
                          ItemGroups({"p"}, set(items)),
                          {i: "c" for i in items},
                          RerankConfig(k=3, n=3, objective_kind="raif",
                                       exposure=ExposureModel("uniform")),
                          GridSpec(alpha_grid=[0.0, 1.0, 10.0],
                                   theta_grid=[0.25]))
        assert [r.recall for _, r in result.results] == [0.0] * 3
        # the baseline, and the first column
        assert counted["solves"] == 2 * len(users)

    def test_solver_errors_name_the_user(self, monkeypatch, toy_validation,
                                         toy_cands, toy_reps, toy_groups,
                                         toy_categories):
        solve = tuner.solve

        def failing(problem):
            if problem.user_id == "u003" and problem.signed_lambda:
                raise ValueError("no basket")
            return solve(problem)

        monkeypatch.setattr(tuner, "solve", failing)
        with pytest.raises(SolverError, match="^user 'u003': no basket$"):
            run_grid(toy_validation, toy_cands, toy_reps, toy_groups,
                     toy_categories, base_cfg("raif"), small_grid())


class TestScan:
    """``tuner._scan`` along one column: the points it solves, and the
    points it only asks to certify an answer found earlier."""

    @staticmethod
    def scan(answers, uncertified=(), hints=None, split=None):
        """Point i solves to ``answers[i]`` and certifies those items alone,
        unless it is ``uncertified``: (items, solved, certified points)."""
        solved, certified = [], []

        def solve_at(i):
            solved.append(i)
            return answers[i]

        def settles(i, items):
            certified.append(i)
            return i not in uncertified and items == answers[i]

        items = tuner._scan(len(answers), lambda i: i, solve_at, settles,
                            split, hints)
        return items, solved, certified

    def test_one_answer_fills_the_column(self):
        assert self.scan(["a"] * 5) == (["a"] * 5, [0], [0, 4])

    def test_an_uncertified_point_stands_alone(self):
        answers = ["x", "a", "a", "a", "y"]
        items, solved, certified = self.scan(answers, uncertified={0, 4})
        assert items == answers
        assert solved == [0, 1, 4]
        # the last point certifies nothing: bisection finds points 2 and 3
        assert certified == [0, 1, 4, 2, 3, 4]

    def test_two_runs(self):
        answers = ["a"] * 3 + ["b"] * 4
        items, solved, certified = self.scan(answers)
        assert items == answers
        assert solved == [0, 3]
        assert certified == [0, 6, 3, 1, 2, 3, 6]

    def test_a_middle_point_certifies_but_not_the_end(self):
        items, solved, certified = self.scan(["a"] * 5, uncertified={4})
        assert items == ["a"] * 5
        assert solved == [0, 4]
        assert certified == [0, 4, 2, 3, 4]

    def test_one_point(self):
        assert self.scan(["a"]) == (["a"], [0], [0])
        assert self.scan(["a"], uncertified={0}) == (["a"], [0], [0])

    def test_a_certified_hint_is_taken(self):
        # the hint at point 0 settles there: no solve, and the run goes on
        # from it as from a solved answer
        answers = ["a"] * 3 + ["b"] * 2
        items, solved, certified = self.scan(answers, hints=answers)
        assert items == answers
        assert solved == []
        # a hint's certificate is its token there: asked once
        assert certified == [0, 4, 2, 3, 3, 4]

    def test_an_uncertified_hint_is_refused(self):
        # the hint does not settle at point 0 (another answer, or the right
        # one uncertified there): the point is solved
        answers = ["a"] * 3 + ["b"] * 2
        items, solved, _ = self.scan(answers, hints=["b"] * 5)
        assert items == answers
        assert solved == [0]
        items, solved, certified = self.scan(answers, uncertified={0},
                                             hints=["a"] * 5)
        assert items == answers
        assert solved == [0, 3]
        # the hint, then the solved answer: neither settles at 0
        assert certified[:2] == [0, 0]

    def test_a_split_is_the_token(self):
        # on a theta column equal splits share the answer, certified or not;
        # the hint still needs its certificate
        answers = ["a", "a", "a", "b", "b"]
        split = [1, 1, 1, 2, 2].__getitem__
        items, solved, certified = self.scan(answers, uncertified={0, 1, 2},
                                             split=split)
        assert items == answers
        assert solved == [0, 3]
        assert certified == []
        items, solved, certified = self.scan(answers, uncertified={3},
                                             hints=answers, split=split)
        assert items == answers
        assert solved == [3]
        assert certified == [0, 3]
