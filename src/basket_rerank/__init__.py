"""Repeat-bias-aware re-ranking and evaluation for next-basket
recommendation."""

from .dataset import (BasketDataset, ItemGroups, SplitDataset, UserHistory,
                      build_item_groups, build_repeat_sets, cap_history,
                      filter_min_activity, ground_truth_repeat_ratio,
                      load_baskets, load_categories, sample_users,
                      save_baskets, split_leave_last)
from .errors import DataError, SolverError, UsageError
from .metrics import MetricsReport, composite_metrics, diversity_score, \
    evaluate, group_exposure, log_dp, recall_at_k, repeat_metrics
from .objective import (ExposureModel, RerankConfig, RerankProblem,
                        build_combined_problem, build_unified_problem,
                        choose_sign_mode, objective_value)
from .scorer import (CandidateSet, import_scores, make_unified,
                     score_explore_popularity, score_repeat_topfreq)
from .solver import (RerankedBaskets, Selection, rerank_all, solve,
                     solve_exposure_dp, solve_topk_linear)
from .tuner import GridSpec, TuneResult, final_evaluate, run_grid

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
