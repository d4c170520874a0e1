"""Each checker passes correct output and reports deliberately corrupted
output. Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""
from __future__ import annotations

import csv
import json
import os
import sys
from contextlib import nullcontext

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import checks  # noqa: E402
import gen  # noqa: E402
from workloads import Pipeline, RerankTies, Tune  # noqa: E402

SPEC = dict(users=60, items=300, categories=6, baskets=(4, 8),
            basket_size=(3, 7), favourites=(4, 10), p_favourite=0.7,
            n=20, k=5)


def _no_span(name):
    return nullcontext()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("inputs") / "s3")
    gen.generate(SPEC, 3, path)
    return path


def _run(cls, inputs, work):
    workload = cls(inputs, str(work), SPEC, 3)
    workload.setup()
    os.makedirs(work, exist_ok=True)
    return workload, workload.run_round(_no_span)


def test_generation_is_deterministic(inputs, tmp_path):
    again = str(tmp_path / "again")
    gen.generate(SPEC, 3, again)
    for name in sorted(os.listdir(inputs)):
        with open(os.path.join(inputs, name), "rb") as a, \
                open(os.path.join(again, name), "rb") as b:
            assert a.read() == b.read(), name


def _worse_swap(ref, uid, combined, items):
    """Replace the basket's best item with the worst same-pool outsider."""
    cands = ref.candidates(uid, combined)
    best = max(items, key=lambda i: cands.relevance[i])
    outsiders = [i for i in cands.relevance if i not in items
                 and cands.repeat[i] == cands.repeat[best]]
    worst = min(outsiders, key=lambda i: cands.relevance[i])
    return [worst if i == best else i for i in items]


def test_rerank_checker(inputs, tmp_path):
    workload, rnd = _run(RerankTies, inputs, tmp_path / "w")
    assert rnd.failed == 0
    assert workload.check(rnd) == []
    ref = checks.Reference(inputs, SPEC["n"])
    for name, combined, obj in workload.sets:
        baskets = {u: (s.items, s.objective)
                   for u, s in rnd.data[name].baskets.items()}
        uid = sorted(baskets)[0]
        items, value = baskets[uid]
        worse = _worse_swap(ref, uid, combined, items)
        # the swapped basket is caught by its recomputed objective ...
        bad = dict(baskets, **{uid: (worse, value)})
        assert checks.check_rerank(ref, obj, combined, bad, set()), name
        # ... and, reported honestly, by the swap search
        honest = checks.objective_value(ref, obj, ref.candidates(uid, combined), worse)
        bad = dict(baskets, **{uid: (worse, honest)})
        assert checks.check_rerank(ref, obj, combined, bad, {uid}), name
        bad = dict(baskets, **{uid: (items[:-1], value)})
        assert checks.check_rerank(ref, obj, combined, bad, set()), name
        bad = dict(baskets)
        del bad[uid]
        assert checks.check_rerank(ref, obj, combined, bad, set()), name


def _edit(path, change):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(change(text))


@pytest.fixture
def pipeline(inputs, tmp_path):
    workload, rnd = _run(Pipeline, inputs, str(tmp_path / "w"))
    assert rnd.failed == 0
    assert workload.check(rnd) == []
    return workload, rnd


def test_pipeline_checker_swapped_basket_item(pipeline):
    workload, rnd = pipeline
    path = os.path.join(workload.work, "baskets.tsv")
    baskets = checks.read_baskets_tsv(path)
    ref = checks.Reference(workload.work, SPEC["n"])
    uid = sorted(baskets)[0]
    worse = _worse_swap(ref, uid, False, baskets[uid])
    with open(path, "w", encoding="utf-8") as fh:
        for u in sorted(baskets):
            for rank, item in enumerate(worse if u == uid else baskets[u], 1):
                fh.write(f"{u}\t{rank}\t{item}\t0\n")
    assert any(f"user {uid}" in f for f in workload.check(rnd))


def test_pipeline_checker_perturbed_report(pipeline):
    workload, rnd = pipeline
    path = os.path.join(workload.work, "report.json")
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    report["log_dp"] += 1e-6
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    assert any("log_dp" in f for f in workload.check(rnd))


def test_pipeline_checker_scores_and_split(pipeline):
    workload, rnd = pipeline
    _edit(os.path.join(workload.work, "unified.tsv"),
          lambda text: text.replace("\t0.", "\t0.0", 1))
    failures = workload.check(rnd)
    assert any("unified scores" in f for f in failures)
    _edit(os.path.join(workload.work, "targets_test.jsonl"),
          lambda text: text.split("\n", 1)[1])
    assert any("partition" in f for f in workload.check(rnd))


def test_pipeline_checker_filter(pipeline):
    workload, rnd = pipeline
    _edit(os.path.join(workload.work, "dataset.jsonl"),
          lambda text: text.replace('"]', '", "rare-item"]', 1))
    assert any("fewer than 5 times" in f for f in workload.check(rnd))


@pytest.fixture
def tune(inputs, tmp_path):
    workload, rnd = _run(Tune, inputs, str(tmp_path / "w"))
    assert rnd.failed == 0
    assert workload.check(rnd) == []
    return workload, rnd


def _rewrite_sweep(path, change):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows = change(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_tune_checker_dropped_row(tune):
    workload, rnd = tune
    _rewrite_sweep(os.path.join(workload.work, "sweep_unified.csv"),
                   lambda rows: rows[:-1])
    assert any("unified: sweep has" in f for f in workload.check(rnd))


def test_tune_checker_wrong_choice(tune):
    workload, rnd = tune
    path = os.path.join(workload.work, "chosen_combined.json")
    with open(path, encoding="utf-8") as fh:
        chosen = json.load(fh)
    chosen["best"]["alpha"] = 12345.0
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chosen, fh)
    assert any("combined: chosen point" in f for f in workload.check(rnd))


def test_tune_checker_non_monotone(tune):
    workload, rnd = tune

    def break_order(rows):
        # rows 1-3 are alpha 0 at the three smallest lambdas; a dip
        # breaks either direction
        col = rows[0].index("rep_ratio_rec")
        for row, value in zip(rows[1:4], ("1.0", "0.0", "1.0")):
            row[col] = value
        return rows
    path = os.path.join(workload.work, "sweep_unified.csv")
    _rewrite_sweep(path, break_order)
    assert any("not monotone" in f for f in workload.check(rnd))
