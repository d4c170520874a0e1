import json
import os
import random
import subprocess
import sys

import pytest

from basket_rerank.cli import main, read_baskets_tsv
from tests.conftest import toy_path

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rerank_args(out, *extra, engine="bnb", mode="radiv"):
    return ["rerank", "--mode", mode, "--k", "5", "--n", "15",
            "--engine", engine,
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
        assert all(row["optimal"] for row in payload["per_user"].values())

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
        code, stdout, _ = run(capsys, *rerank_args(out, "--theta-inclusive",
                                                   "--dry-run"))
        assert code == 0
        assert json.loads(stdout)["resolved_config"]["theta_strict"] is False

    def test_sign_auto_needs_targets(self, tmp_path, capsys):
        out = tmp_path / "baskets.tsv"
        code, _, err = run(capsys, *rerank_args(out, "--sign", "auto"))
        assert code == 1 and "targets" in err

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

    def test_missing_file_is_data(self, tmp_path, capsys):
        out = tmp_path / "baskets.tsv"
        code, _, err = run(capsys, "rerank", "--mode", "none", "--k", "5",
                           "--n", "15", "--train", "/does/not/exist.jsonl",
                           "--scores", toy_path("scores_unified.tsv"),
                           "--out", str(out))
        assert code == 2 and "data error" in err

    def test_bruteforce_guard_is_solver(self, tmp_path, capsys):
        # C(100, 20) exceeds the enumeration guard
        scores = tmp_path / "big.tsv"
        scores.write_text("".join(f"u000\ti{j:03d}\t{1 - j / 200}\n"
                                  for j in range(100)))
        out = tmp_path / "baskets.tsv"
        code, _, err = run(capsys, "rerank", "--mode", "radiv", "--k", "20",
                           "--n", "100", "--engine", "bruteforce",
                           "--train", toy_path("train.jsonl"),
                           "--scores", str(scores),
                           "--out", str(out))
        assert code == 3 and "solver error" in err


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
        (["--log-base", "1"], "log base"),
    ])
    def test_rerank_numbers(self, tmp_path, flags, message):
        got, _, err = run_process(*rerank_args(tmp_path / "b.tsv", *flags))
        assert got == 1 and message in err and "Traceback" not in err

    def test_tune_grid_nan(self, tmp_path):
        got, _, err = run_process(
            *TestTune().tune_args(tmp_path, "--epsilon-grid", "0,nan"))
        assert got == 1 and "non-finite" in err and "Traceback" not in err

    def test_score_n_zero(self, tmp_path):
        got, _, err = run_process("score", "--train", toy_path("train.jsonl"),
                                  "--n", "0", "--out", str(tmp_path))
        assert got == 1 and "--n" in err and "Traceback" not in err

    def test_evaluate_bad_rank(self, tmp_path):
        baskets = write_text(tmp_path / "b.tsv", "u000\t1\ti000\t0\n"
                                                 "u000\tsecond\ti001\t0\n")
        got, _, err = run_process(*evaluate_args(baskets))
        assert got == 2 and "b.tsv:2: bad rank" in err and "Traceback" not in err

    def test_evaluate_k_zero(self, tmp_path):
        baskets = write_text(tmp_path / "b.tsv", "u000\t1\ti000\t0\n")
        got, _, err = run_process(*evaluate_args(baskets, "--k", "0"))
        assert got == 1 and "K must be" in err and "Traceback" not in err

    @pytest.mark.parametrize("text, message", [
        ('{"recall": 1}', "lacks 'ds'"),
        ("recall = 1\n", "not a JSON file"),
        ("[1, 2]", "not a metrics report"),
        ('{"recall": "high", "ds": 0, "log_dp": 0, "rep_ratio_rec": 0, '
         '"rep_bias": 0, "m_fr": 0, "m_dr": 0, "n_users": 1}',
         "'recall' is not a number"),
    ])
    def test_report_malformed(self, tmp_path, text, message):
        path = write_text(tmp_path / "r.json", text)
        got, _, err = run_process("report", path)
        assert got == 2 and message in err and "Traceback" not in err


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
