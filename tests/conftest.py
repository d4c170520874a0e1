import os

import pytest
from hypothesis import settings

from basket_rerank.dataset import (build_item_groups, build_repeat_sets,
                                   load_baskets, load_categories,
                                   load_targets, split_leave_last)
from basket_rerank.scorer import import_scores

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures", "toy")

# ``pytest --hypothesis-profile deep``: the certificate properties run
# thousands of examples, the same ones on every run
settings.register_profile("deep", max_examples=4000, derandomize=True,
                          database=None, deadline=None)

TOY_SEED = 7
TOY_N = 15
TOY_K = 5


def examples(n: int) -> int:
    """A property's example count: n, or the loaded profile's when it asks
    for more."""
    return max(n, settings.default.max_examples)


def toy_path(name: str) -> str:
    return os.path.join(FIXTURE_DIR, name)


@pytest.fixture(scope="session")
def toy_categories():
    return load_categories(toy_path("categories.tsv"))


@pytest.fixture(scope="session")
def toy_train(toy_categories):
    return load_baskets(toy_path("train.jsonl"), "jsonl", toy_categories)


@pytest.fixture(scope="session")
def toy_dataset(toy_categories):
    return load_baskets(toy_path("baskets.jsonl"), "jsonl", toy_categories)


@pytest.fixture(scope="session")
def toy_reps(toy_train):
    return build_repeat_sets(toy_train)


@pytest.fixture(scope="session")
def toy_groups(toy_train):
    return build_item_groups(toy_train)


@pytest.fixture(scope="session")
def toy_cands():
    return import_scores(toy_path("scores_unified.tsv"), "unified", n=TOY_N)


@pytest.fixture(scope="session")
def toy_combined_cands():
    return import_scores(toy_path("scores_repeat.tsv"), "combined", n=TOY_N,
                         explore_path=toy_path("scores_explore.tsv"))


@pytest.fixture(scope="session")
def toy_validation(toy_train):
    return load_targets(toy_path("targets_validation.jsonl"), toy_train)


@pytest.fixture(scope="session")
def toy_test_split(toy_train):
    return load_targets(toy_path("targets_test.jsonl"), toy_train)
