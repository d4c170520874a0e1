"""Per-user optimization problems: coefficients, slots, objective value.

The global programs are separable across users, so the engine works on one
RerankProblem per user. A problem carries everything the solver needs:
relevance, repeat flags, category labels, group-exposure coefficients, the
effective term weights for the chosen objective kind, and slot constraints
(a single K-slot budget for unified inputs, or a repeat/explore slot pair
derived from the score threshold for combined inputs). A user that
``build_problems`` leaves out is reported through ``warnings.warn``.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, field, replace

from .dataset import ItemGroups, RepeatSets, SplitDataset
from .errors import DataError, UsageError
from .scorer import CandidateSet, rank_pairs

OBJECTIVE_KINDS = ("radiv", "raif", "naive_div", "naive_fair",
                   "repeat_only", "relevance_only")

# Objective kinds sharing the diversity program's 1/K relevance scaling.
_SCALED_KINDS = {"radiv", "naive_div", "repeat_only", "relevance_only"}
_DIV_KINDS = {"radiv", "naive_div"}
_FAIR_KINDS = {"raif", "naive_fair"}
_REPEAT_KINDS = {"radiv", "raif", "repeat_only"}

PENALIZE_REPEAT = "penalize_repeat"
REWARD_REPEAT = "reward_repeat"


@dataclass(frozen=True)
class ExposureModel:
    """Position weight e(p) for rank p = 1..K within a basket."""

    kind: str = "log_discount"  # or "uniform"

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "log_discount"):
            raise UsageError(f"unknown exposure kind: {self.kind!r}")

    def weight(self, position: int) -> float:
        if self.kind == "uniform":
            return 1.0
        return 1.0 / math.log2(position + 1)

    def weights(self, k: int) -> list[float]:
        return [self.weight(p) for p in range(1, k + 1)]


@dataclass
class RerankConfig:
    k: int = 20
    n: int = 100
    epsilon: float = 0.0
    alpha: float = 0.0
    lam: float = 0.0
    theta: float = 0.0
    theta_strict: bool = True
    sign_mode: str = PENALIZE_REPEAT
    exposure: ExposureModel = field(default_factory=ExposureModel)
    omega: float = 0.5
    recall_tolerance: float = 0.10
    objective_kind: str = "relevance_only"
    log_base: float = math.e

    def __post_init__(self) -> None:
        if self.k < 1:
            raise UsageError(f"K must be at least 1, got {self.k}")
        for name in ("epsilon", "alpha", "lam", "theta", "omega",
                     "recall_tolerance", "log_base"):
            if not math.isfinite(getattr(self, name)):
                raise UsageError(f"{name} must be finite, got {getattr(self, name)}")
        if self.log_base <= 0 or self.log_base == 1:
            raise UsageError(f"log base must be > 0 and != 1, got {self.log_base}")
        if min(self.epsilon, self.alpha, self.lam) < 0:
            raise UsageError("weights epsilon/alpha/lambda must be >= 0")
        for name in ("omega", "recall_tolerance"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise UsageError(f"{name} must be in [0,1], "
                                 f"got {getattr(self, name)}")
        if self.objective_kind not in OBJECTIVE_KINDS:
            raise UsageError(f"unknown objective kind: {self.objective_kind!r}")
        if self.sign_mode not in (PENALIZE_REPEAT, REWARD_REPEAT):
            raise UsageError(f"unknown sign mode: {self.sign_mode!r}")

    def snapshot(self) -> dict:
        d = asdict(self)
        d["exposure"] = self.exposure.kind
        return d


@dataclass
class RerankProblem:
    """One user's selection problem, candidates in relevance-desc order."""

    user_id: str
    items: list[str]
    relevance: list[float]
    is_repeat: list[bool]
    category: list[str]
    fairness_coef: list[float]
    kind: str                   # "unified" or "combined"
    repeat_slots: int           # unified: total slots live here with explore_slots=0
    explore_slots: int
    short: bool
    # effective weights, already gated by objective_kind
    rel_scale: float
    epsilon_eff: float
    alpha_eff: float
    signed_lambda: float        # includes the sign; 0 when the kind has no repeat term
    k: int
    exposure: ExposureModel
    objective_kind: str

    @property
    def total_slots(self) -> int:
        return self.repeat_slots + self.explore_slots

    @property
    def n_candidates(self) -> int:
        return len(self.items)

    def to_json(self) -> str:
        d = {
            "user_id": self.user_id, "kind": self.kind,
            "repeat_slots": self.repeat_slots, "explore_slots": self.explore_slots,
            "short": self.short, "k": self.k, "objective_kind": self.objective_kind,
            "exposure": self.exposure.kind, "rel_scale": self.rel_scale,
            "epsilon_eff": self.epsilon_eff, "alpha_eff": self.alpha_eff,
            "signed_lambda": self.signed_lambda,
            "candidates": [
                {"item": i, "relevance": r, "is_repeat": rep,
                 "category": c, "fairness_coef": f}
                for i, r, rep, c, f in zip(self.items, self.relevance,
                                           self.is_repeat, self.category,
                                           self.fairness_coef)],
        }
        return json.dumps(d)


def _effective_weights(cfg: RerankConfig, kind_override: str | None = None
                       ) -> tuple[float, float, float, float]:
    kind = kind_override or cfg.objective_kind
    rel_scale = 1.0 / cfg.k if kind in _SCALED_KINDS else 1.0
    eps = cfg.epsilon if kind in _DIV_KINDS else 0.0
    alpha = cfg.alpha if kind in _FAIR_KINDS else 0.0
    lam = cfg.lam if kind in _REPEAT_KINDS else 0.0
    sign = -1.0 if cfg.sign_mode == PENALIZE_REPEAT else 1.0
    return rel_scale, eps, alpha, sign * lam


def _fairness_coefs(items: list[str], groups: ItemGroups) -> list[float]:
    """1 / |popular| for each popular item, -1 / |unpopular| for any other;
    the constant of an empty group is 0."""
    popular = groups.popular
    pos = 1.0 / len(popular) if popular else 0.0
    neg = -1.0 / len(groups.unpopular) if groups.unpopular else 0.0
    return [pos if i in popular else neg for i in items]


def build_unified_problem(user_id: str, cands: CandidateSet, reps: RepeatSets,
                          groups: ItemGroups, categories: dict[str, str],
                          cfg: RerankConfig) -> RerankProblem:
    if cands.kind != "unified":
        raise UsageError("build_unified_problem needs a unified candidate set")
    pairs = cands.unified.get(user_id)
    if pairs is None:
        raise DataError(f"user {user_id!r} absent from candidate set")
    if len(pairs) < cfg.k:
        raise DataError(
            f"user {user_id!r}: insufficient candidates ({len(pairs)} < K={cfg.k})")
    rep = reps.get(user_id, frozenset())
    rel_scale, eps, alpha, slam = _effective_weights(cfg)
    items = [i for i, _ in pairs]
    return RerankProblem(
        user_id=user_id,
        items=items,
        relevance=[s for _, s in pairs],
        is_repeat=[i in rep for i in items],
        category=[categories.get(i, "UNK") for i in items],
        fairness_coef=_fairness_coefs(items, groups),
        kind="unified",
        repeat_slots=cfg.k, explore_slots=0, short=False,
        rel_scale=rel_scale, epsilon_eff=eps, alpha_eff=alpha,
        signed_lambda=slam, k=cfg.k, exposure=cfg.exposure,
        objective_kind=cfg.objective_kind)


def compute_h_theta(repeat_scores: list[float], theta: float, k: int,
                    strict: bool = True) -> int:
    """Number of repeat slots: count of repeat scores above theta (strictly,
    or inclusively with strict=False), clamped to the basket size."""
    if strict:
        h_aux = sum(1 for s in repeat_scores if s > theta)
    else:
        h_aux = sum(1 for s in repeat_scores if s >= theta)
    return min(h_aux, k)


def _slot_split(rep_pairs: list[tuple[str, float]], n_explore: int,
                cfg: RerankConfig) -> tuple[int, int, bool]:
    """Repeat slots, explore slots and shortness of one combined basket.

    H(theta) repeat slots, raised when the explore list cannot fill K - H;
    if both pools together cannot fill K, the basket is short and every
    candidate gets a slot.
    """
    h = compute_h_theta([s for _, s in rep_pairs], cfg.theta, cfg.k,
                        cfg.theta_strict)
    h = max(h, cfg.k - n_explore)
    if h > len(rep_pairs):
        return len(rep_pairs), n_explore, True
    return h, cfg.k - h, False


def build_combined_problem(user_id: str, cands: CandidateSet, reps: RepeatSets,
                           groups: ItemGroups, categories: dict[str, str],
                           cfg: RerankConfig) -> RerankProblem:
    """Two-pool problem with threshold-derived repeat/explore slots
    (``_slot_split``).

    Pool membership, not ``reps``, defines the repeat flag, matching the
    score files. ``reps`` stays so that both builders share one signature:
    ``build_problems`` and the benchmark pick a builder by candidate kind
    and call it the same way.
    """
    if cands.kind != "combined":
        raise UsageError("build_combined_problem needs a combined candidate set")
    rep_pairs = cands.repeat_list.get(user_id, [])
    exp_pairs = cands.explore_list.get(user_id, [])
    if not rep_pairs and not exp_pairs:
        raise DataError(f"user {user_id!r} absent from candidate set")

    h, explore_slots, short = _slot_split(rep_pairs, len(exp_pairs), cfg)

    # merged candidate list in within-basket ranking order; an id in both
    # pools keeps its repeat entry first
    entries = sorted([(-score, item, False) for item, score in rep_pairs]
                     + [(-score, item, True) for item, score in exp_pairs])

    rel_scale, eps, alpha, slam = _effective_weights(cfg)
    items = [item for _, item, _ in entries]
    return RerankProblem(
        user_id=user_id,
        items=items,
        relevance=[-neg for neg, _, _ in entries],
        is_repeat=[not explore for _, _, explore in entries],
        category=[categories.get(i, "UNK") for i in items],
        fairness_coef=_fairness_coefs(items, groups),
        kind="combined",
        repeat_slots=h, explore_slots=explore_slots, short=short,
        rel_scale=rel_scale, epsilon_eff=eps, alpha_eff=alpha,
        signed_lambda=slam, k=cfg.k, exposure=cfg.exposure,
        objective_kind=cfg.objective_kind)


def build_problems(cands: CandidateSet, reps: RepeatSets, groups: ItemGroups,
                   categories: dict[str, str], cfg: RerankConfig,
                   split: SplitDataset | None = None, skip_errors: bool = False
                   ) -> list[RerankProblem]:
    """Each candidate user's problem (only users with a target in ``split``,
    if given), in user-id order. A user whose problem cannot be built
    raises, or with ``skip_errors`` is left out with a warning."""
    users = cands.user_ids
    if split is not None:
        users = [u for u in users if u in split.eval_targets]
        if not users:
            raise DataError("no overlap between candidate users and the split")
    builder = (build_unified_problem if cands.kind == "unified"
               else build_combined_problem)
    problems = []
    for uid in users:
        try:
            problems.append(builder(uid, cands, reps, groups, categories, cfg))
        except DataError as exc:
            if not skip_errors:
                raise
            warnings.warn(str(exc))
    return problems


def reweighted(problems: list[RerankProblem], cands: CandidateSet,
               cfg: RerankConfig) -> list[RerankProblem]:
    """The problems ``build_*_problem`` would make from ``cands`` under
    ``cfg``, derived from ``problems`` built from ``cands`` under a config
    with the same K and exposure.

    Only the term weights, the objective kind and, for combined candidates,
    the slot split depend on the config's other fields, so only those are
    replaced; the candidate lists are shared, not copied.
    """
    rel_scale, eps, alpha, slam = _effective_weights(cfg)
    out = []
    for p in problems:
        slots = {}
        if p.kind == "combined":
            h, explore_slots, short = _slot_split(
                cands.repeat_list.get(p.user_id, []),
                len(cands.explore_list.get(p.user_id, [])), cfg)
            slots = dict(repeat_slots=h, explore_slots=explore_slots,
                         short=short)
        out.append(replace(
            p, rel_scale=rel_scale, epsilon_eff=eps, alpha_eff=alpha,
            signed_lambda=slam, objective_kind=cfg.objective_kind, **slots))
    return out


def _item_index(problem: RerankProblem) -> dict[str, int]:
    return {item: j for j, item in enumerate(problem.items)}


def ranked_selection(problem: RerankProblem, selection: list[str],
                     idx: dict[str, int] | None = None) -> list[str]:
    """Order selected items by relevance desc, id asc (basket positions).

    ``idx`` is the problem's item -> candidate index map, built here when
    the caller has none.
    """
    if idx is None:
        idx = _item_index(problem)
    missing = [i for i in selection if i not in idx]
    if missing:
        raise UsageError(f"selection contains non-candidates: {missing[:3]}")
    return sorted(selection, key=lambda i: (-problem.relevance[idx[i]], i))


def check_slots(problem: RerankProblem, selection: list[str],
                n_rep: int) -> None:
    """Reject duplicate items and selections that break the slot counts;
    ``n_rep`` is the number of selected repeat candidates."""
    if len(set(selection)) != len(selection):
        raise UsageError("selection contains duplicates")
    n_exp = len(selection) - n_rep
    if problem.kind == "unified":
        if len(selection) != problem.total_slots:
            raise UsageError(
                f"selection size {len(selection)} != slots {problem.total_slots}")
    else:
        if n_rep != problem.repeat_slots or n_exp != problem.explore_slots:
            raise UsageError(
                f"slot violation: got ({n_rep},{n_exp}), "
                f"need ({problem.repeat_slots},{problem.explore_slots})")


def objective_value(problem: RerankProblem, selection: list[str]) -> float:
    """Per-user contribution to the global objective for a selected basket.

    Selection order is irrelevant: in-basket positions are recomputed from
    relevance before exposure weights apply.
    """
    idx = _item_index(problem)
    check_slots(problem, selection, sum(
        1 for i in selection if i in idx and problem.is_repeat[idx[i]]))
    ranked = ranked_selection(problem, selection, idx)
    return indexed_objective_value(problem, [idx[i] for i in ranked])


def indexed_objective_value(problem: RerankProblem, chosen: list[int]) -> float:
    """The objective of the candidates at indices ``chosen``, listed in
    basket-position order, in O(len(chosen)). The caller checks the slots
    (``check_slots``)."""
    rel_sum = 0.0
    n_rep = 0
    cats = set()
    for j in chosen:
        rel_sum += problem.relevance[j]
        if problem.is_repeat[j]:
            n_rep += 1
        cats.add(problem.category[j])
    # without a fairness weight the exposure sum would be multiplied by 0
    fair_sum = 0.0
    if problem.alpha_eff:
        for pos, j in enumerate(chosen, start=1):
            fair_sum += problem.fairness_coef[j] * problem.exposure.weight(pos)

    value = problem.rel_scale * rel_sum
    value += problem.epsilon_eff * len(cats) / problem.k
    value -= problem.alpha_eff * fair_sum
    value += problem.signed_lambda * n_rep / problem.k
    return value


def original_topk(cands: CandidateSet, cfg: RerankConfig) -> dict[str, list[str]]:
    """The unmodified baskets: plain top-K (unified) or H(theta)-split
    top slots per pool (combined)."""
    baskets: dict[str, list[str]] = {}
    if cands.kind == "unified":
        for uid, pairs in cands.unified.items():
            baskets[uid] = [i for i, _ in pairs[:cfg.k]]
        return baskets
    for uid in cands.user_ids:
        rep = cands.repeat_list.get(uid, [])
        exp = cands.explore_list.get(uid, [])
        h, explore_slots, _ = _slot_split(rep, len(exp), cfg)
        chosen = rep[:h] + exp[:explore_slots]
        baskets[uid] = [i for i, _ in rank_pairs(chosen)]
    return baskets


def choose_sign_mode(original_baskets: dict[str, list[str]], reps: RepeatSets,
                     rep_ratio_gt: float) -> str:
    """Penalize the repeat term when the raw baskets over-recommend repeat
    items relative to the ground truth, reward it otherwise. Exact equality
    penalizes (the lambda grid contains 0, so the tuner can neutralize it)."""
    if not original_baskets:
        raise DataError("no baskets to inspect")
    ratios = []
    for uid, basket in original_baskets.items():
        rep = reps.get(uid, frozenset())
        ratios.append(sum(1 for i in basket if i in rep) / max(len(basket), 1))
    rep_ratio_rec = sum(ratios) / len(ratios)
    return PENALIZE_REPEAT if rep_ratio_rec >= rep_ratio_gt else REWARD_REPEAT
