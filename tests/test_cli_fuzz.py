"""Fuzz the CLI's exit-code contract: whatever the numbers and input files
(garbled text, bytes that are not UTF-8, a directory), ``main`` returns 0-3
and raises nothing."""
import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from basket_rerank.cli import main
from tests.conftest import toy_path

NUMBERS = ["0", "-1", "1", "5", "nan", "inf", "-inf", "1e309", "x", ""]

# verb -> (its numeric flags, its input files); every verb also reads --config
VERBS = {
    "ingest": (["--min-baskets", "--min-item-purchases", "--max-baskets",
                "--sample-users", "--seed"],
               ["raw_baskets", "categories", "config"]),
    "rerank": (["--k", "--n", "--epsilon", "--alpha", "--lambda", "--theta"],
               ["train", "categories", "scores", "targets", "config"]),
    "evaluate": (["--k", "--omega", "--log-base"],
                 ["baskets", "train", "categories", "targets", "config"]),
    "tune": (["--k", "--n", "--omega", "--log-base", "--epsilon-grid",
              "--lambda-grid", "--recall-tolerance"],
             ["train", "categories", "scores", "targets", "config"]),
    "score": (["--n", "--mix"], ["train", "config"]),
    "report": ([], ["report", "config"]),
}

LINE = st.one_of(st.text(max_size=30),
                 st.text(alphabet='\tui0123456789.,-{}[]":e ', max_size=30))
# a broken file's content; None stands for a directory in its place
CONTENT = st.one_of(
    st.lists(LINE, max_size=5).map(lambda lines: "\n".join(lines).encode()),
    st.binary(max_size=30).map(lambda raw: b"\xff" + raw),  # never UTF-8
    st.none())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid toy inputs, plus reranked baskets and a report made from them."""
    d = tmp_path_factory.mktemp("fuzz")
    paths = {"raw_baskets": toy_path("baskets.jsonl"),
             "train": toy_path("train.jsonl"),
             "categories": toy_path("categories.tsv"),
             "scores": toy_path("scores_unified.tsv"),
             "val_targets": toy_path("targets_validation.jsonl"),
             "test_targets": toy_path("targets_test.jsonl"),
             "baskets": str(d / "baskets.tsv"),
             "report": str(d / "report.json")}
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(["rerank", "--mode", "radiv", "--epsilon", "0.1",
                     "--k", "5", "--n", "15", "--train", paths["train"],
                     "--scores", paths["scores"],
                     "--out", paths["baskets"]]) == 0
        assert main(["evaluate", "--baskets", paths["baskets"],
                     "--train", paths["train"], "--targets",
                     paths["test_targets"], "--k", "5",
                     "--out", paths["report"]]) == 0
    return d, paths


def _argv(verb, paths, out):
    train, scores = paths["train"], paths["scores"]
    cats, targets = paths["categories"], paths["targets"]
    if verb == "ingest":
        return ["ingest", "--baskets", paths["raw_baskets"],
                "--categories", cats, "--out", out]
    if verb == "rerank":
        return ["rerank", "--mode", "radiv", "--k", "5", "--n", "15",
                "--train", train, "--categories", cats, "--scores", scores,
                "--sign", "auto", "--targets", targets,
                "--out", os.path.join(out, "b.tsv")]
    if verb == "evaluate":
        return ["evaluate", "--baskets", paths["baskets"], "--train", train,
                "--categories", cats, "--targets", targets, "--k", "5",
                "--out", os.path.join(out, "r.json")]
    if verb == "tune":
        return ["tune", "--mode", "radiv", "--k", "5", "--n", "15",
                "--train", train, "--categories", cats, "--scores", scores,
                "--targets", targets, "--epsilon-grid", "0,0.1",
                "--lambda-grid", "0,0.2"]
    if verb == "score":
        return ["score", "--train", train, "--n", "15", "--out", out]
    return ["report", paths["report"], paths["report"]]


@st.composite
def invocations(draw):
    verb = draw(st.sampled_from(sorted(VERBS)))
    flags, files = VERBS[verb]
    numbers = draw(st.dictionaries(st.sampled_from(flags),
                                   st.sampled_from(NUMBERS), max_size=3)
                   if flags else st.just({}))
    broken = draw(st.none() | st.sampled_from(files))
    return verb, numbers, broken, draw(CONTENT)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(case=invocations())
def test_exit_code_contract(inputs, case):
    verb, numbers, broken, content = case
    d, valid = inputs
    paths = dict(valid, targets=valid["test_targets" if verb == "evaluate"
                                     else "val_targets"])
    if broken:
        paths[broken] = tempfile.mkdtemp(dir=d)
        if content is not None:
            paths[broken] = os.path.join(paths[broken], broken)
            with open(paths[broken], "wb") as fh:
                fh.write(content)
    out = str(d / "out")
    os.makedirs(out, exist_ok=True)
    argv = _argv(verb, paths, out) + [f"{flag}={value}"
                                      for flag, value in numbers.items()]
    if broken == "config":
        argv = ["--config", paths["config"]] + argv
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
