import csv
import dataclasses
import gc
import json
import os
import random
import re
import shlex
import subprocess
import sys
from collections import Counter

import pytest

from basket_rerank import cli
from basket_rerank import solver as solver_module
from basket_rerank.cli import main, read_baskets_tsv
from basket_rerank.errors import SolverError
from tests.conftest import toy_path

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SRC = os.path.join(ROOT, "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def truncated_scores(tmp_path, limit):
    """The toy unified scores with each user in ``limit`` cut to that many
    rows."""
    counts, kept = Counter(), []
    for line in open(toy_path("scores_unified.tsv")):
        uid = line.split("\t")[0]
        counts[uid] += 1
        if counts[uid] <= limit.get(uid, counts[uid]):
            kept.append(line)
    scores = tmp_path / "scores.tsv"
    scores.write_text("".join(kept))
    return str(scores)


# every metric of a report but recall
_REPORT_REST = ('"ds": 0, "log_dp": 0, "rep_ratio_rec": 0, "rep_bias": 0, '
                '"m_fr": 0, "m_dr": 0, "n_users": 1')


def rerank_args(out, *extra, mode="radiv"):
    return ["rerank", "--mode", mode, "--k", "5", "--n", "15",
            "--train", toy_path("train.jsonl"),
            "--categories", toy_path("categories.tsv"),
            "--scores", toy_path("scores_unified.tsv"),
            "--out", str(out), *extra]


class TestRerank:
    def test_golden_match(self, tmp_path, capsys):
        out = tmp_path / "baskets.tsv"
        code, _, _ = run(capsys, *rerank_args(out, "--epsilon", "0.1",
                                              "--lambda", "0.1"))
        assert code == 0
        golden = open(toy_path("golden_radiv_e0.1_l0.1.tsv")).read()
        assert out.read_text() == golden

    def test_mode_none_is_score_order(self, tmp_path, capsys):
        out = tmp_path / "baskets.tsv"
        code, _, _ = run(capsys, *rerank_args(out, mode="none"))
        assert code == 0
        lists = read_baskets_tsv(str(out))
        from basket_rerank.scorer import import_scores
        cands = import_scores(toy_path("scores_unified.tsv"), "unified", n=15)
        for uid, basket in lists.items():
            assert basket == [i for i, _ in cands.unified[uid][:5]]

    def test_stats_json(self, tmp_path, capsys):
        out = tmp_path / "baskets.tsv"
        stats = tmp_path / "stats.json"
        code, _, _ = run(capsys, *rerank_args(out, "--epsilon", "0.1",
                                              "--stats", str(stats)))
        assert code == 0
        payload = json.loads(stats.read_text())
        assert all(set(row) == {"objective", "solver", "nodes", "wall_time"}
                   for row in payload["per_user"].values())

    def test_dump_problems(self, tmp_path, capsys):
        out = tmp_path / "baskets.tsv"
        dump = tmp_path / "problems.jsonl"
        code, _, _ = run(capsys, *rerank_args(out, "--dump-problems", str(dump)))
        assert code == 0
        rows = [json.loads(line) for line in dump.read_text().splitlines()]
        assert len(rows) == len(read_baskets_tsv(str(out)))
        assert all("candidates" in r and r["k"] == 5 for r in rows)

    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "baskets.tsv"
        code, stdout, _ = run(capsys, *rerank_args(out, "--dry-run"))
        assert code == 0
        assert not out.exists()
        assert json.loads(stdout)["resolved_config"]["k"] == 5

    def test_combined_scores(self, tmp_path, capsys):
        out = tmp_path / "baskets.tsv"
        code, _, _ = run(capsys, "rerank", "--mode", "radiv", "--k", "5",
                         "--n", "15", "--theta", "0.3",
                         "--train", toy_path("train.jsonl"),
                         "--categories", toy_path("categories.tsv"),
                         "--repeat-scores", toy_path("scores_repeat.tsv"),
                         "--explore-scores", toy_path("scores_explore.tsv"),
                         "--out", str(out))
        assert code == 0
        assert all(len(b) == 5 for b in read_baskets_tsv(str(out)).values())

    def test_theta_inclusive_flag(self, tmp_path, capsys):
        out = tmp_path / "baskets.tsv"
        argv = rerank_args(out, "--theta-inclusive", "--dry-run")
        at = argv.index("--scores")
        argv[at:at + 2] = ["--repeat-scores", toy_path("scores_repeat.tsv"),
                           "--explore-scores", toy_path("scores_explore.tsv")]
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(stdout)["resolved_config"]["theta_strict"] is False

    def test_skip_errors(self, tmp_path, capsys):
        # two users short of K candidates: an error, or with --skip-errors
        # one warning each, in user-id order, and the others' baskets
        out = tmp_path / "baskets.tsv"
        argv = rerank_args(out, "--epsilon", "0.1")
        argv[argv.index("--scores") + 1] = truncated_scores(
            tmp_path, {"u003": 3, "u007": 2})
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.splitlines() == [
            "data error: user 'u003': insufficient candidates (3 < K=5)"]
        code, _, err = run(capsys, *argv, "--skip-errors")
        assert code == 0 and err.splitlines() == [
            "warning: user 'u003': insufficient candidates (3 < K=5)",
            "warning: user 'u007': insufficient candidates (2 < K=5)"]
        assert len(read_baskets_tsv(str(out))) == 10

    def test_sign_auto_needs_targets(self, tmp_path, capsys):
        out = tmp_path / "baskets.tsv"
        code, _, err = run(capsys, *rerank_args(out, "--sign", "auto"))
        assert code == 1 and "targets" in err

    def test_targets_only_with_sign_auto(self, tmp_path, capsys):
        out = tmp_path / "baskets.tsv"
        code, _, err = run(capsys, *rerank_args(
            out, "--targets", toy_path("targets_validation.jsonl")))
        assert code == 1 and err.splitlines() == [
            "usage error: --targets is read only with --sign auto"]

    def test_config_file_overridden_by_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epsilon = 0.9\nlambda = 0.1\n")
        out = tmp_path / "baskets.tsv"
        code, stdout, _ = run(capsys, "--config", str(cfg),
                              *rerank_args(out, "--epsilon", "0.1",
                                           "--dry-run"))
        assert code == 0
        resolved = json.loads(stdout)["resolved_config"]
        assert resolved["epsilon"] == 0.1  # CLI flag wins
        assert resolved["lam"] == 0.1      # config file fills the rest


class TestEvaluate:
    def make_baskets(self, tmp_path, capsys, mode="none", *extra):
        out = tmp_path / "baskets.tsv"
        code, _, _ = run(capsys, *rerank_args(out, mode=mode, *extra))
        assert code == 0
        return out

    def test_noop_equivalence(self, tmp_path, capsys, toy_test_split, toy_reps,
                              toy_groups, toy_categories):
        # CLI evaluate on mode=none baskets == library evaluate of the raw top-K
        baskets = self.make_baskets(tmp_path, capsys)
        report_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "evaluate", "--baskets", str(baskets),
                         "--train", toy_path("train.jsonl"),
                         "--categories", toy_path("categories.tsv"),
                         "--targets", toy_path("targets_test.jsonl"),
                         "--k", "5", "--out", str(report_path))
        assert code == 0
        got = json.loads(report_path.read_text())

        from basket_rerank.metrics import evaluate
        from basket_rerank.objective import (ExposureModel, RerankConfig,
                                             original_topk)
        from basket_rerank.scorer import import_scores
        cands = import_scores(toy_path("scores_unified.tsv"), "unified", n=15)
        cfg = RerankConfig(k=5, n=15, exposure=ExposureModel("log_discount"))
        topk = {u: b for u, b in original_topk(cands, cfg).items()
                if u in toy_test_split.eval_targets}
        expected = evaluate(topk, toy_test_split, toy_reps, toy_groups,
                            toy_categories, cfg)
        for key in ("recall", "ds", "log_dp", "rep_ratio_rec", "rep_bias",
                    "m_fr", "m_dr"):
            assert got[key] == pytest.approx(getattr(expected, key), abs=1e-12)

    def test_per_user_tsv(self, tmp_path, capsys, toy_test_split):
        baskets = self.make_baskets(tmp_path, capsys)
        per_user = tmp_path / "per_user.tsv"
        code, _, _ = run(capsys, "evaluate", "--baskets", str(baskets),
                         "--train", toy_path("train.jsonl"),
                         "--targets", toy_path("targets_test.jsonl"),
                         "--k", "5", "--per-user", str(per_user))
        assert code == 0
        lines = per_user.read_text().splitlines()
        assert lines[0] == "user_id\trecall\tds\trep_ratio"
        evaluated = set(read_baskets_tsv(str(baskets))) \
            & set(toy_test_split.eval_targets)
        assert len(lines) == 1 + len(evaluated)


class TestTune:
    def tune_args(self, tmp_path, *extra):
        return ["tune", "--mode", "radiv", "--k", "5", "--n", "15",
                "--train", toy_path("train.jsonl"),
                "--categories", toy_path("categories.tsv"),
                "--scores", toy_path("scores_unified.tsv"),
                "--targets", toy_path("targets_validation.jsonl"),
                "--epsilon-grid", "0,0.1", "--lambda-grid", "0,0.2", *extra]

    def test_deterministic(self, tmp_path, capsys):
        outputs = []
        for run_idx in range(2):
            chosen = tmp_path / f"chosen{run_idx}.json"
            sweep = tmp_path / f"sweep{run_idx}.csv"
            code, _, _ = run(capsys, *self.tune_args(
                tmp_path, "--chosen-out", str(chosen), "--sweep-out", str(sweep)))
            assert code == 0
            outputs.append((chosen.read_text(), sweep.read_text()))
        assert outputs[0] == outputs[1]

    def test_dry_run_counts_grid(self, tmp_path, capsys):
        code, stdout, _ = run(capsys, *self.tune_args(tmp_path, "--dry-run"))
        assert code == 0
        assert json.loads(stdout)["grid_points"] == 4

    def test_dry_run_counts_combined_grid(self, tmp_path, capsys, toy_validation,
                                          toy_combined_cands, toy_reps,
                                          toy_groups, toy_categories):
        args = self.tune_args(tmp_path, "--dry-run")
        at = args.index("--scores")
        args[at:at + 2] = ["--repeat-scores", toy_path("scores_repeat.tsv"),
                           "--explore-scores", toy_path("scores_explore.tsv")]
        at = args.index("--lambda-grid")  # combined scores read no lambda
        del args[at:at + 2]
        code, stdout, _ = run(capsys, *args)
        assert code == 0
        from basket_rerank.objective import RerankConfig
        from basket_rerank.tuner import GridSpec, run_grid
        result = run_grid(toy_validation, toy_combined_cands, toy_reps,
                          toy_groups, toy_categories,
                          RerankConfig(k=5, n=15, objective_kind="radiv"),
                          GridSpec(epsilon_grid=[0, 0.1]))
        # two epsilon values crossed with the theta deciles
        assert json.loads(stdout)["grid_points"] == len(result.results) > 2

    @pytest.mark.parametrize("mode", ["radiv", "raif"])
    @pytest.mark.parametrize("scores", [
        ["--scores", toy_path("scores_unified.tsv")],
        ["--repeat-scores", toy_path("scores_repeat.tsv"),
         "--explore-scores", toy_path("scores_explore.tsv")]],
        ids=["unified", "combined"])
    def test_round_trip(self, tmp_path, capsys, mode, scores):
        # tune, re-rank with the chosen point, evaluate on validation: the
        # report is the chosen point's sweep row
        data = ["--train", toy_path("train.jsonl"),
                "--categories", toy_path("categories.tsv")]
        validation = toy_path("targets_validation.jsonl")
        chosen, sweep = tmp_path / "chosen.json", tmp_path / "sweep.csv"
        assert run(capsys, "tune", "--mode", mode, "--k", "5", "--n", "15",
                   *data, *scores, "--targets", validation,
                   "--chosen-out", str(chosen), "--sweep-out", str(sweep))[0] == 0
        payload = json.loads(chosen.read_text())
        assert not payload["infeasible"]
        best = payload["best"]
        sign = {"penalize_repeat": "penalize",
                "reward_repeat": "reward"}[best["sign_mode"]]
        baskets = tmp_path / "baskets.tsv"
        # unified scores read no theta, and reject the flag
        theta = (["--theta", repr(best["theta"])]
                 if "--repeat-scores" in scores else [])
        assert run(capsys, "rerank", "--mode", mode, "--k", "5", "--n", "15",
                   *data, *scores, "--epsilon", repr(best["epsilon"]),
                   "--alpha", repr(best["alpha"]), "--lambda", repr(best["lam"]),
                   *theta, "--sign", sign, "--out", str(baskets))[0] == 0
        report = tmp_path / "report.json"
        assert run(capsys, "evaluate", "--baskets", str(baskets), *data,
                   "--targets", validation, "--k", "5",
                   "--out", str(report))[0] == 0
        got = json.loads(report.read_text())
        point = [best[key] for key in ("epsilon", "alpha", "lam", "theta")]
        with open(sweep, newline="") as fh:
            rows = [row for row in csv.DictReader(fh) if point == [
                float(row[key]) for key in ("epsilon", "alpha", "lambda", "theta")]]
        assert len(rows) == 1
        for column, key in [("recall", "recall"), ("ds", "ds"),
                            ("logdp", "log_dp"), ("rep_ratio_rec", "rep_ratio_rec"),
                            ("rep_bias", "rep_bias"), ("m_fr", "m_fr"),
                            ("m_dr", "m_dr")]:
            assert float(rows[0][column]) == got[key], column

    def test_mode_radiv_or_raif(self, tmp_path, capsys):
        args = self.tune_args(tmp_path)
        args[args.index("radiv")] = "naive-div"
        code, _, err = run(capsys, *args)
        assert code == 1 and "invalid choice: 'naive-div'" in err

    def test_test_targets_rejected(self, tmp_path, capsys):
        args = self.tune_args(tmp_path)
        args[args.index(toy_path("targets_validation.jsonl"))] = \
            toy_path("targets_test.jsonl")
        code, _, err = run(capsys, *args)
        assert code == 1 and "validation" in err


class TestReport:
    def write_report(self, tmp_path, name, k=5, recall=0.5):
        payload = {"recall": recall, "ds": 0.6, "log_dp": 1.0,
                   "rep_ratio_rec": 0.4, "rep_bias": -0.1, "m_fr": 0.55,
                   "m_dr": 0.25, "n_users": 12, "config": {"k": k, "omega": 0.5}}
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_markdown_bolds_best(self, tmp_path, capsys):
        a = self.write_report(tmp_path, "a.json", recall=0.5)
        b = self.write_report(tmp_path, "b.json", recall=0.7)
        code, stdout, _ = run(capsys, "report", a, b, "--markdown")
        assert code == 0
        assert "**0.7000**" in stdout and "**0.5000**" not in stdout

    def test_mixed_k_rejected(self, tmp_path, capsys):
        a = self.write_report(tmp_path, "a.json", k=5)
        b = self.write_report(tmp_path, "b.json", k=10)
        code, _, err = run(capsys, "report", a, b)
        assert code == 1 and "basket sizes" in err


class TestExitCodes:
    def test_unknown_flag_is_usage(self, capsys):
        code, _, err = run(capsys, "rerank", "--nope")
        assert code == 1 and "usage error" in err

    def test_seed_only_for_ingest(self, tmp_path, capsys):
        # only ingest draws random numbers
        code, _, err = run(capsys, *rerank_args(tmp_path / "b.tsv", "--seed", "1"))
        assert code == 1 and "--seed" in err

    def test_missing_file_is_data(self, tmp_path, capsys):
        out = tmp_path / "baskets.tsv"
        code, _, err = run(capsys, "rerank", "--mode", "none", "--k", "5",
                           "--n", "15", "--train", "/does/not/exist.jsonl",
                           "--scores", toy_path("scores_unified.tsv"),
                           "--out", str(out))
        assert code == 2 and "data error" in err

    def test_solver_failure_is_solver(self, tmp_path, capsys, monkeypatch):
        def fail(problems, **kwargs):
            raise SolverError("user 'u000': no feasible selection")

        monkeypatch.setattr(cli, "rerank_all", fail)
        out = tmp_path / "baskets.tsv"
        code, _, err = run(capsys, *rerank_args(out, "--epsilon", "0.1"))
        assert code == 3 and "solver error" in err
        assert "Traceback" not in err and not out.exists()


class TestInterpreterState:
    """``main`` pauses cyclic collection for the verb only."""

    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def collecting(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("code", [0, 1, 2, 3])
    def test_gc_state_restored(self, tmp_path, capsys, monkeypatch, code,
                               collecting):
        seen = []

        def solve(problems, **kwargs):
            seen.append(gc.isenabled())
            raise SolverError("user 'u000': no feasible selection")

        monkeypatch.setattr(cli, "rerank_all", solve)
        argv = {0: rerank_args(tmp_path / "b.tsv", "--dry-run"),
                1: ["rerank", "--nope"],
                2: rerank_args(tmp_path / "b.tsv", "--train", "/no/such.jsonl"),
                3: rerank_args(tmp_path / "b.tsv")}[code]
        assert run(capsys, *argv)[0] == code
        assert gc.isenabled() is collecting
        assert seen == ([False] if code == 3 else [])


class TestIngestScore:
    def test_ingest_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "data"
        code, stdout, _ = run(capsys, "ingest",
                              "--baskets", toy_path("baskets.jsonl"),
                              "--categories", toy_path("categories.tsv"),
                              "--min-baskets", "3", "--min-item-purchases", "1",
                              "--seed", "7", "--out", str(out))
        assert code == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["n_users"] > 0
        assert (out / "train.jsonl").exists()
        assert (out / "targets_validation.jsonl").exists()
        assert (out / "targets_test.jsonl").exists()

    def test_score_unified(self, tmp_path, capsys):
        out = tmp_path / "scores"
        code, _, _ = run(capsys, "score", "--train", toy_path("train.jsonl"),
                         "--kind", "unified", "--n", "15", "--out", str(out))
        assert code == 0
        from basket_rerank.scorer import import_scores
        cands = import_scores(str(out / "unified.tsv"), "unified", n=15)
        assert len(cands.user_ids) == 12

    def test_score_combined(self, tmp_path, capsys):
        out = tmp_path / "scores"
        code, _, _ = run(capsys, "score", "--train", toy_path("train.jsonl"),
                         "--kind", "combined", "--n", "15", "--out", str(out))
        assert code == 0
        repeat, explore = str(out / "repeat.tsv"), str(out / "explore.tsv")
        assert sorted(os.listdir(out)) == ["explore.tsv", "repeat.tsv"]
        from basket_rerank.scorer import import_scores
        cands = import_scores(repeat, "combined", n=15, explore_path=explore)
        assert len(cands.user_ids) == 12
        code, _, _ = run(capsys, "rerank", "--mode", "radiv", "--k", "5",
                         "--n", "15", "--train", toy_path("train.jsonl"),
                         "--repeat-scores", repeat, "--explore-scores",
                         explore, "--theta", "0.5", "--epsilon", "0.1",
                         "--out", str(tmp_path / "baskets.tsv"))
        assert code == 0
        assert len(read_baskets_tsv(str(tmp_path / "baskets.tsv"))) == 12


def run_process(*argv, hash_seed="0"):
    """The CLI in a fresh interpreter: (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, "-m", "basket_rerank.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def write_text(path, text):
    path.write_text(text)
    return str(path)


def evaluate_args(baskets, *extra):
    return ["evaluate", "--baskets", baskets, "--train", toy_path("train.jsonl"),
            "--targets", toy_path("targets_test.jsonl"), "--k", "5", *extra]


class TestBadInputExitCodes:
    """Malformed numbers and files end with the documented exit code and a
    one-line message, never a traceback."""

    @pytest.mark.parametrize("flags, message", [
        (["--k", "0"], "K must be at least 1"),
        (["--epsilon", "nan"], "epsilon must be finite"),
        (["--lambda", "inf"], "lam must be finite"),
        (["--theta=-inf"], "theta must be finite"),
    ])
    def test_rerank_numbers(self, tmp_path, flags, message):
        got, _, err = run_process(*rerank_args(tmp_path / "b.tsv", *flags))
        assert got == 1 and message in err and "Traceback" not in err

    @pytest.mark.parametrize("verb", ["evaluate", "tune"])
    def test_log_base_one(self, tmp_path, verb):
        if verb == "evaluate":
            argv = evaluate_args(write_text(tmp_path / "b.tsv",
                                            "u000\t1\ti000\t0\n"))
        else:
            argv = TestTune().tune_args(tmp_path)
        got, _, err = run_process(*argv, "--log-base", "1")
        assert got == 1 and "log base" in err and "Traceback" not in err

    @pytest.mark.parametrize("verb", ["rerank", "tune"])
    def test_k_exceeds_n(self, tmp_path, verb):
        argv = (rerank_args(tmp_path / "b.tsv") if verb == "rerank"
                else TestTune().tune_args(tmp_path))
        got, _, err = run_process(*argv, "--k", "10", "--n", "5")
        assert got == 1 and "Traceback" not in err
        assert err.splitlines() == ["usage error: K (10) must not exceed N (5)"]

    @pytest.mark.parametrize("verb, flag", [
        ("rerank", "--omega"), ("rerank", "--log-base"),
        ("tune", "--epsilon"), ("tune", "--alpha"), ("tune", "--lambda"),
        ("tune", "--theta"), ("tune", "--sign"),
    ])
    def test_unread_flag_rejected(self, tmp_path, verb, flag):
        # tune sets the weights and the sign per grid point, and rerank
        # computes no metric, so neither verb accepts these
        argv = (rerank_args(tmp_path / "b.tsv") if verb == "rerank"
                else TestTune().tune_args(tmp_path))
        value = "penalize" if flag == "--sign" else "0.5"
        got, _, err = run_process(*argv, flag, value)
        assert got == 1 and "Traceback" not in err
        assert err.splitlines() == [
            f"usage error: unrecognized arguments: {flag} {value}"]

    def test_tune_grid_nan(self, tmp_path):
        got, _, err = run_process(
            *TestTune().tune_args(tmp_path, "--epsilon-grid", "0,nan"))
        assert got == 1 and "non-finite" in err and "Traceback" not in err

    def test_tune_empty_theta_grid(self, tmp_path):
        args = TestTune().tune_args(tmp_path, "--theta-grid", "")
        at = args.index("--scores")
        args[at:at + 2] = ["--repeat-scores", toy_path("scores_repeat.tsv"),
                           "--explore-scores", toy_path("scores_explore.tsv")]
        got, _, err = run_process(*args)
        assert got == 1 and "Traceback" not in err
        assert err.splitlines() == ["usage error: theta_grid is empty"]

    @pytest.mark.parametrize("flag", ["--epsilon-grid", "--alpha-grid",
                                      "--lambda-grid"])
    def test_tune_empty_weight_grid(self, tmp_path, flag):
        got, _, err = run_process(*TestTune().tune_args(tmp_path, flag, ""))
        assert got == 1 and "Traceback" not in err
        name = flag[2:].replace("-", "_")
        assert err.splitlines() == [f"usage error: {name} is empty"]

    @pytest.mark.parametrize("change, message", [
        (["--theta-grid", "0.5"], "--theta-grid is not read with unified "
                                  "scores under --mode radiv"),
        ("combined", "--lambda-grid is not read with combined scores under "
                     "--mode radiv"),
        (["--alpha-grid", "1"], "--alpha-grid is not read with unified scores "
                                "under --mode radiv"),
        ("raif", "--epsilon-grid is not read with unified scores under "
                 "--mode raif"),
    ], ids=["theta-unified", "lambda-combined", "alpha-radiv", "epsilon-raif"])
    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]],
                             ids=["run", "dry-run"])
    def test_tune_unread_grid(self, tmp_path, change, message, dry_run):
        # tune_args gives --epsilon-grid and --lambda-grid, which unified
        # scores under --mode radiv read
        args = TestTune().tune_args(tmp_path, *dry_run)
        if change == "combined":
            at = args.index("--scores")
            args[at:at + 2] = ["--repeat-scores", toy_path("scores_repeat.tsv"),
                               "--explore-scores",
                               toy_path("scores_explore.tsv")]
        elif change == "raif":
            args[args.index("radiv")] = "raif"
        else:
            args += change
        got, _, err = run_process(*args)
        assert got == 1 and "Traceback" not in err
        assert err.splitlines() == [f"usage error: {message}"]

    @pytest.mark.parametrize("verb, flag", [
        ("rerank", "--train"), ("rerank", "--config"), ("rerank", "--scores"),
        ("evaluate", "--baskets")])
    @pytest.mark.parametrize("content", [None, b"\xffu000\t1\n"],
                             ids=["directory", "not-utf8"])
    def test_unreadable_input(self, tmp_path, verb, flag, content):
        # None puts a directory where the file belongs
        path = tmp_path / "input"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        argv = (rerank_args(tmp_path / "b.tsv") if verb == "rerank" else
                evaluate_args(write_text(tmp_path / "b.tsv", "u000\t1\ti000\t0\n")))
        if flag == "--config":
            argv = [flag, str(path)] + argv
        else:
            argv[argv.index(flag) + 1] = str(path)
        got, _, err = run_process(*argv)
        assert got == 2 and "Traceback" not in err
        assert err.splitlines()[-1].startswith("data error: ")

    @pytest.mark.parametrize("baskets, error", [
        (5, "'int' object is not iterable"),
        ([5, [1, 2]], "'int' object is not iterable"),
        ("xyz", "'str' object is not a JSON array"),
        (["abc"], "'str' object is not a JSON array"),
        ([{"a": 1}], "'dict' object is not a JSON array")],
        ids=["number", "number-basket", "string", "string-basket",
             "object-basket"])
    def test_ingest_malformed_baskets(self, tmp_path, baskets, error):
        path = write_text(tmp_path / "b.jsonl", json.dumps(
            {"user_id": "u1", "baskets": baskets}) + "\n")
        got, _, err = run_process("ingest", "--baskets", path,
                                  "--out", str(tmp_path / "out"))
        assert got == 2 and "Traceback" not in err
        assert err.splitlines() == [
            "data error: " + path + f":1: malformed record ({error})"]

    @pytest.mark.parametrize("flag, record, kind", [
        ("--train", {"user_id": "u000", "baskets": [["i000"], "ab"]},
         "record"),
        ("--targets", {"user_id": "u000", "basket": "ab", "split": "test"},
         "target")])
    def test_evaluate_string_baskets(self, tmp_path, capsys, flag, record,
                                     kind):
        # a string is a list of characters to Python, not a basket
        baskets = write_text(tmp_path / "b.tsv", "u000\t1\ti000\t0\n")
        path = write_text(tmp_path / "in.jsonl", json.dumps(record) + "\n")
        argv = evaluate_args(baskets)
        argv[argv.index(flag) + 1] = path
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.splitlines() == [
            f"data error: {path}:1: malformed {kind} "
            "('str' object is not a JSON array)"]

    @pytest.mark.parametrize("verb, flags", [
        ("rerank", ["--theta", "0.3"]), ("rerank", ["--theta-inclusive"]),
        ("tune", ["--theta-inclusive"])])
    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]],
                             ids=["run", "dry-run"])
    def test_theta_flags_unified(self, tmp_path, verb, flags, dry_run):
        # unified scores have no H(theta) split, so nothing reads these
        argv = (rerank_args(tmp_path / "b.tsv") if verb == "rerank"
                else TestTune().tune_args(tmp_path))
        got, _, err = run_process(*argv, *flags, *dry_run)
        assert got == 1 and "Traceback" not in err
        assert err.splitlines() == [
            f"usage error: {flags[0]} is not read with unified scores"]

    def test_score_n_zero(self, tmp_path):
        got, _, err = run_process("score", "--train", toy_path("train.jsonl"),
                                  "--n", "0", "--out", str(tmp_path))
        assert got == 1 and "--n" in err and "Traceback" not in err

    def test_evaluate_bad_rank(self, tmp_path):
        baskets = write_text(tmp_path / "b.tsv", "u000\t1\ti000\t0\n"
                                                 "u000\tsecond\ti001\t0\n")
        got, _, err = run_process(*evaluate_args(baskets))
        assert got == 2 and "b.tsv:2: bad rank" in err and "Traceback" not in err

    @pytest.mark.parametrize("row, message", [
        ("u000\t0\ti000\tzzz\n", "rank must be at least 1, got 0"),
        ("u000\t-7\ti001\t\n", "rank must be at least 1, got -7"),
        ("u000\t2\ti001\tzzz\n", "repeat flag must be 0 or 1, got 'zzz'"),
        ("u000\t2\ti001\t\n", "repeat flag must be 0 or 1, got ''"),
        ("u000\t2\ti001\t2", "repeat flag must be 0 or 1, got '2'")],
        ids=["rank-zero", "rank-negative", "flag-word", "flag-empty",
             "flag-last-line"])
    def test_evaluate_bad_rank_or_flag(self, tmp_path, capsys, row, message):
        baskets = write_text(tmp_path / "b.tsv", "u000\t1\ti000\t0\n" + row)
        code, _, err = run(capsys, *evaluate_args(baskets))
        assert code == 2
        assert err.splitlines() == [f"data error: {baskets}:2: {message}"]

    def test_evaluate_k_zero(self, tmp_path):
        baskets = write_text(tmp_path / "b.tsv", "u000\t1\ti000\t0\n")
        got, _, err = run_process(*evaluate_args(baskets, "--k", "0"))
        assert got == 1 and "K must be" in err and "Traceback" not in err

    @pytest.mark.parametrize("rows, message", [
        ("u000\t1\ti000\t0\nu000\t1\ti001\t0\n",
         "2: user 'u000' repeats rank 1"),
        ("u000\t1\ti000\t0\nu001\t1\ti000\t0\nu000\t2\ti000\t0\n",
         "3: user 'u000' repeats item 'i000'"),
    ], ids=["rank", "item"])
    def test_evaluate_repeated_row(self, tmp_path, capsys, rows, message):
        # the second user's rows come between the first user's
        baskets = write_text(tmp_path / "b.tsv", rows)
        code, _, err = run(capsys, *evaluate_args(baskets))
        assert code == 2
        assert err.splitlines() == [f"data error: {baskets}:{message}"]

    def test_evaluate_basket_longer_than_k(self, capsys):
        golden = toy_path("golden_radiv_e0.1_l0.1.tsv")
        code, _, err = run(capsys, *evaluate_args(golden, "--k", "3"))
        assert code == 2 and err.splitlines() == [
            f"data error: {golden}: user 'u000' has 5 items, more than K=3"]

    @pytest.mark.parametrize("flag, value, least", [
        ("--sample-users", "-3", 1), ("--sample-users", "0", 1),
        ("--max-baskets", "0", 2), ("--max-baskets", "-1", 2),
        ("--min-baskets", "1", 2)])
    def test_ingest_numbers(self, tmp_path, capsys, flag, value, least):
        out = tmp_path / "out"
        code, _, err = run(capsys, "ingest", "--baskets",
                           toy_path("baskets.jsonl"), flag, value,
                           "--out", str(out))
        assert code == 1 and not out.exists()
        assert err.splitlines() == [
            f"usage error: {flag} must be at least {least}, got {value}"]

    @pytest.mark.parametrize("mix", ["2", "-0.5", "nan"])
    def test_score_mix_out_of_range(self, tmp_path, capsys, mix):
        code, _, err = run(capsys, "score", "--train", toy_path("train.jsonl"),
                           "--mix", mix, "--out", str(tmp_path / "out"))
        assert code == 1 and not (tmp_path / "out").exists()
        assert err.splitlines() == [
            f"usage error: --mix must be in [0,1], got {float(mix)}"]

    @pytest.mark.parametrize("tolerance", ["5", "-0.1"])
    def test_tune_recall_tolerance_out_of_range(self, tmp_path, capsys,
                                                tolerance):
        argv = TestTune().tune_args(tmp_path, "--recall-tolerance", tolerance)
        code, _, err = run(capsys, *argv)
        assert code == 1 and err.splitlines() == [
            f"usage error: recall_tolerance must be in [0,1], "
            f"got {float(tolerance)}"]

    @pytest.mark.parametrize("text, message", [
        ('{"recall": 1}', "lacks 'ds'"),
        ("recall = 1\n", "not a JSON file"),
        ("[1, 2]", "not a metrics report"),
        ('{"recall": "high", "ds": 0, "log_dp": 0, "rep_ratio_rec": 0, '
         '"rep_bias": 0, "m_fr": 0, "m_dr": 0, "n_users": 1}',
         "'recall' is not a number"),
        ('{"recall": true, ' + _REPORT_REST + '}',
         "'recall' is not a number: True"),
        ('{"recall": 1, ' + _REPORT_REST
         + ', "config": {"k": [5], "omega": 0.5}}',
         "config 'k' is not a number: [5]"),
        ('{"recall": 1, ' + _REPORT_REST
         + ', "config": {"k": 5, "omega": {"v": 0.5}}}',
         "config 'omega' is not a number"),
        ('{"recall": NaN, ' + _REPORT_REST + '}', "'recall' is not finite"),
        ('{"recall": 1, ' + _REPORT_REST.replace('"ds": 0', '"ds": Infinity')
         + '}', "'ds' is not finite"),
        ('{"recall": 1, ' + _REPORT_REST.replace('"m_dr": 0',
                                                 '"m_dr": -Infinity') + '}',
         "'m_dr' is not finite"),
        ('{"recall": 1, ' + _REPORT_REST.replace('"n_users": 1',
                                                 '"n_users": -1.5') + '}',
         "'n_users' is not an integer >= 0: -1.5"),
        ('{"recall": 1, ' + _REPORT_REST.replace('"n_users": 1',
                                                 '"n_users": -1') + '}',
         "'n_users' is not an integer >= 0: -1"),
        ('{"recall": 1, ' + _REPORT_REST
         + ', "config": {"k": -2.5, "omega": 0.5}}',
         "config 'k' is not an integer >= 1: -2.5"),
        ('{"recall": 1, ' + _REPORT_REST
         + ', "config": {"k": 0, "omega": 0.5}}',
         "config 'k' is not an integer >= 1: 0"),
        ('{"recall": 1, ' + _REPORT_REST
         + ', "config": {"k": 5, "omega": 7}}',
         "config 'omega' is not in [0, 1]: 7"),
        ('{"recall": 1, ' + _REPORT_REST
         + ', "config": {"k": 5, "omega": NaN}}',
         "config 'omega' is not finite"),
    ])
    def test_report_malformed(self, tmp_path, text, message):
        path = write_text(tmp_path / "r.json", text)
        got, _, err = run_process("report", path)
        assert got == 2 and message in err and "Traceback" not in err

    def test_report_config_missing(self, tmp_path):
        with_k = TestReport().write_report(tmp_path, "a.json")
        payload = json.loads((tmp_path / "a.json").read_text())
        del payload["config"]
        without = write_text(tmp_path / "b.json", json.dumps(payload))
        got, _, err = run_process("report", with_k, without)
        assert got == 1 and "basket sizes" in err and "Traceback" not in err

    @pytest.mark.parametrize("verb", ["rerank", "tune", "evaluate"])
    def test_empty_target_basket(self, tmp_path, verb):
        split = "test" if verb == "evaluate" else "validation"
        targets = write_text(tmp_path / "t.jsonl", json.dumps(
            {"user_id": "u000", "basket": [], "split": split}) + "\n")
        if verb == "rerank":
            argv = rerank_args(tmp_path / "b.tsv", "--sign", "auto",
                               "--targets", targets)
        elif verb == "tune":
            argv = TestTune().tune_args(tmp_path)
            argv[argv.index(toy_path("targets_validation.jsonl"))] = targets
        else:
            baskets = write_text(tmp_path / "b.tsv", "u000\t1\ti000\t0\n")
            argv = ["evaluate", "--baskets", baskets, "--train",
                    toy_path("train.jsonl"), "--targets", targets, "--k", "1"]
        got, _, err = run_process(*argv)
        assert got == 2 and "non-empty" in err and "Traceback" not in err

    def test_one_item_vocabulary(self, tmp_path):
        train = write_text(tmp_path / "train.jsonl", "".join(
            json.dumps({"user_id": f"u{u}", "baskets": [["i0"], ["i0"]]}) + "\n"
            for u in range(3)))
        scores = write_text(tmp_path / "s.tsv",
                            "".join(f"u{u}\ti0\t0.5\n" for u in range(3)))
        got, _, err = run_process("rerank", "--mode", "raif", "--alpha", "1",
                                  "--k", "1", "--n", "1", "--train", train,
                                  "--scores", scores,
                                  "--out", str(tmp_path / "b.tsv"))
        assert got == 2 and "at least 2" in err and "Traceback" not in err


def test_evaluate_report_independent_of_hash_seed(tmp_path):
    # Group exposure sums over item sets, whose iteration order follows the
    # string hash seed; the report must not.
    rng = random.Random(3)
    items = [f"i{j:03d}" for j in range(300)]
    train, targets, baskets = [], [], []
    for u in range(80):
        uid = f"u{u:03d}"
        history = [rng.sample(items, 8) for _ in range(3)]
        train.append(json.dumps({"user_id": uid, "baskets": history}))
        targets.append(json.dumps({"user_id": uid, "basket": rng.sample(items, 4),
                                   "split": "test"}))
        baskets += [f"{uid}\t{r}\t{i}\t0\n"
                    for r, i in enumerate(rng.sample(items, 20), start=1)]
    args = ["evaluate", "--train", write_text(tmp_path / "train.jsonl", "\n".join(train)),
            "--targets", write_text(tmp_path / "t.jsonl", "\n".join(targets)),
            "--baskets", write_text(tmp_path / "b.tsv", "".join(baskets)),
            "--k", "20"]
    reports = []
    for seed in ("1", "2"):
        out = tmp_path / f"report{seed}.json"
        code, _, err = run_process(*args, "--out", str(out), hash_seed=seed)
        assert code == 0, err
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("verb", ["evaluate", "tune"])
def test_empty_target_basket_warns_once(tmp_path, verb):
    # One user's empty target basket is left out of Recall with a one-line
    # warning, printed once although tune evaluates every grid point.
    split = "test" if verb == "evaluate" else "validation"
    source = toy_path(f"targets_{split}.jsonl")
    rows = [json.loads(line) for line in open(source)]
    rows[0]["basket"] = []
    targets = write_text(tmp_path / "t.jsonl",
                         "".join(json.dumps(row) + "\n" for row in rows))
    if verb == "evaluate":
        baskets = write_text(tmp_path / "b.tsv", "".join(
            f"{row['user_id']}\t1\ti000\t0\n" for row in rows))
        argv = evaluate_args(baskets)
    else:
        argv = TestTune().tune_args(tmp_path)
    argv[argv.index(source)] = targets
    got, _, err = run_process(*argv)
    message = (f"warning: user {rows[0]['user_id']!r}: empty target basket, "
               "excluded from Recall")
    assert got == 0, err
    assert err.count(message) == 1
    assert "UserWarning" not in err and "Traceback" not in err
    assert "metrics.py" not in err


def test_warnings_printed_once_in_order(tmp_path, capsys, monkeypatch):
    # Every warning reaches stderr through main: from the CLI itself, from
    # build_problems, from rerank_all and from recall_at_k. Each is printed
    # once, in the order raised, and before the error line of a failed verb.
    solve = solver_module.solve

    def fail_u005(problem):
        if problem.user_id == "u005":
            raise SolverError("no feasible selection")
        return solve(problem)

    monkeypatch.setattr(solver_module, "solve", fail_u005)
    out = tmp_path / "baskets.tsv"
    argv = rerank_args(out, "--epsilon", "0.1", "--skip-errors")
    argv[argv.index("--scores") + 1] = truncated_scores(
        tmp_path, {"u003": 3, "u007": 2, "u010": 0})
    code, _, err = run(capsys, *argv)
    assert code == 0 and err.splitlines() == [
        "warning: 1 train users missing from scores (e.g. ['u010'])",
        "warning: user 'u003': insufficient candidates (3 < K=5)",
        "warning: user 'u007': insufficient candidates (2 < K=5)",
        "warning: user 'u005': no feasible selection"]

    rows = [json.loads(line) for line in open(toy_path("targets_test.jsonl"))]
    assert rows[1]["user_id"] == "u001"
    rows[1]["basket"] = []
    targets = write_text(tmp_path / "t.jsonl",
                         "".join(json.dumps(row) + "\n" for row in rows))
    argv = evaluate_args(str(out), "--out", str(tmp_path))
    argv[argv.index(toy_path("targets_test.jsonl"))] = targets
    code, _, err = run(capsys, *argv)
    lines = err.splitlines()
    assert code == 2 and lines[:2] == [
        "warning: 3 users have no target in this split and are excluded "
        "(e.g. ['u004', 'u008', 'u011'])",
        "warning: user 'u001': empty target basket, excluded from Recall"]
    assert len(lines) == 3 and lines[2].startswith("data error: ")


def test_solver_error_names_the_user_once(tmp_path, capsys, monkeypatch):
    # a pool short of its slots exits 3, and the message names the user
    # once; with --skip-errors the warning carries the same text
    solve = solver_module.solve

    def short_pool(problem):
        if problem.user_id == "u005":
            problem = dataclasses.replace(problem, repeat_slots=99)
        return solve(problem)

    monkeypatch.setattr(solver_module, "solve", short_pool)
    out = tmp_path / "baskets.tsv"
    message = "user 'u005': pool 0 has 15 candidates for 99 slots"
    code, _, err = run(capsys, *rerank_args(out, "--epsilon", "0.1"))
    assert code == 3 and err.splitlines() == [f"solver error: {message}"]
    assert not out.exists()
    code, _, err = run(capsys, *rerank_args(out, "--epsilon", "0.1",
                                            "--skip-errors"))
    assert code == 0 and err.splitlines() == [f"warning: {message}"]


def test_two_pool_shapes_through_main(tmp_path, capsys, monkeypatch):
    # at theta 0.5, 10 of the 12 toy users have more candidates than slots
    # in both pools: combined radiv takes the Lagrangian search, in tune and
    # in rerank, and log-discount raif the exposure DP over both pools
    cuts = []
    cut = solver_module._lagrangian_cut
    monkeypatch.setattr(solver_module, "_lagrangian_cut",
                        lambda *args: cuts.append(1) or cut(*args))
    common = ["--k", "5", "--n", "15", "--train", toy_path("train.jsonl"),
              "--categories", toy_path("categories.tsv"),
              "--repeat-scores", toy_path("scores_repeat.tsv"),
              "--explore-scores", toy_path("scores_explore.tsv")]
    code, _, _ = run(capsys, "tune", "--mode", "radiv", *common,
                     "--targets", toy_path("targets_validation.jsonl"),
                     "--epsilon-grid", "0.1,0.5", "--theta-grid", "0.5",
                     "--chosen-out", str(tmp_path / "chosen.json"),
                     "--sweep-out", str(tmp_path / "sweep.csv"))
    assert code == 0 and cuts
    for mode, weight, solver in (("radiv", "--epsilon", "topk_linear"),
                                 ("raif", "--alpha", "exposure_dp")):
        stats = tmp_path / f"stats_{mode}.json"
        code, _, _ = run(capsys, "rerank", "--mode", mode, *common,
                         weight, "0.5", "--theta", "0.5",
                         "--exposure", "log-discount", "--stats", str(stats),
                         "--out", str(tmp_path / f"baskets_{mode}.tsv"))
        assert code == 0
        rows = json.loads(stats.read_text())["per_user"].values()
        assert {row["solver"] for row in rows} == {solver}
        nodes = sorted(row["nodes"] for row in rows)
        if mode == "radiv":
            # the Lagrangian search's greedy evaluations, its two ends and
            # a point between them; 0 where one pool has no choice
            assert nodes[:2] == [0, 0] and nodes[2] >= 3
        else:
            # the DP's certified prefix holds at least K candidates
            assert nodes[0] >= 5


def test_readme_commands_parse():
    # every CLI command in the README's shell blocks names only flags that
    # its verb declares
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines
                if line.startswith("basket-rerank ")]
    assert {argv[1] for argv in commands} == set(cli._COMMANDS)
    for argv in commands:
        cli.build_parser().parse_args(argv[1:])
