"""Evaluation metrics for re-ranked baskets.

Recall, diversity score, and repeat ratio are per-user means; group
exposure aggregates globally over all baskets before the popular/unpopular
averages are compared.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

from .dataset import (ItemGroups, RepeatSets, SplitDataset,
                      ground_truth_repeat_ratio)
from .errors import DataError
from .objective import ExposureModel, RerankConfig
from .solver import RerankedBaskets

LOG_DP_DELTA = 1e-9

_REPORT_METRICS = ("recall", "ds", "log_dp", "rep_ratio_rec", "rep_bias",
                   "m_fr", "m_dr", "n_users")


@dataclass
class MetricsReport:
    recall: float
    ds: float
    log_dp: float
    rep_ratio_rec: float
    rep_bias: float
    m_fr: float
    m_dr: float
    n_users: int
    config: dict = field(default_factory=dict)
    per_user: dict[str, dict[str, float]] | None = None

    def to_dict(self) -> dict:
        d = {
            "recall": self.recall, "ds": self.ds, "log_dp": self.log_dp,
            "rep_ratio_rec": self.rep_ratio_rec, "rep_bias": self.rep_bias,
            "m_fr": self.m_fr, "m_dr": self.m_dr, "n_users": self.n_users,
            "config": self.config,
        }
        if self.per_user is not None:
            d["per_user"] = self.per_user
        return d

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, d: dict, source: str = "report") -> "MetricsReport":
        """Rebuild a report from ``to_dict`` output; DataError when ``d``
        lacks a metric or holds one that is not a finite number (a JSON
        boolean is not a number), when ``n_users`` is not an integer >= 0,
        or when its config's K is not an integer >= 1 or its omega is not
        a number in [0, 1]."""
        if not isinstance(d, dict):
            raise DataError(f"{source}: not a metrics report (a JSON object)")
        for key in _REPORT_METRICS:
            if key not in d:
                raise DataError(f"{source}: metrics report lacks {key!r}")
        config = d.get("config", {})
        if not isinstance(config, dict):
            raise DataError(f"{source}: 'config' is not a JSON object")
        numbers = [(repr(key), d[key]) for key in _REPORT_METRICS]
        numbers += [(f"config {key!r}", config[key]) for key in ("k", "omega")
                    if key in config]
        for what, value in numbers:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise DataError(f"{source}: {what} is not a number: {value!r}")
            # only a float can be non-finite; isfinite raises on a huge int
            if isinstance(value, float) and not math.isfinite(value):
                raise DataError(f"{source}: {what} is not finite: {value!r}")
        counts = [("'n_users'", d["n_users"], 0)]
        counts += [("config 'k'", config["k"], 1)] if "k" in config else []
        for what, value, least in counts:
            if not isinstance(value, int) or value < least:
                raise DataError(f"{source}: {what} is not an integer "
                                f">= {least}: {value!r}")
        if not 0.0 <= config.get("omega", 0.0) <= 1.0:
            raise DataError(f"{source}: config 'omega' is not in [0, 1]: "
                            f"{config['omega']!r}")
        return cls(recall=d["recall"], ds=d["ds"], log_dp=d["log_dp"],
                   rep_ratio_rec=d["rep_ratio_rec"], rep_bias=d["rep_bias"],
                   m_fr=d["m_fr"], m_dr=d["m_dr"], n_users=d["n_users"],
                   config=config, per_user=d.get("per_user"))


def _basket_lists(baskets: RerankedBaskets | dict[str, list[str]]
                  ) -> dict[str, list[str]]:
    if isinstance(baskets, RerankedBaskets):
        return baskets.as_item_lists()
    return baskets


def recall_at_k(baskets, targets: SplitDataset) -> float:
    """Mean per-user |basket ∩ target| / |target| over untruncated targets.

    Users with empty targets are excluded with a warning; users without a
    target raise.
    """
    lists = _basket_lists(baskets)
    values = []
    for uid, basket in lists.items():
        if uid not in targets.eval_targets:
            raise DataError(f"user {uid!r} has no evaluation target")
        target = targets.eval_targets[uid]
        if not target:
            warnings.warn(f"user {uid!r}: empty target basket, excluded from Recall")
            continue
        values.append(len(set(basket) & target) / len(target))
    if not values:
        raise DataError("no users with non-empty targets")
    return sum(values) / len(values)


def diversity_score(baskets, categories: dict[str, str], k: int) -> float:
    """Mean per-user (#distinct categories in basket) / K."""
    lists = _basket_lists(baskets)
    if not lists:
        raise DataError("no baskets to evaluate")
    values = []
    for basket in lists.values():
        cats = {categories.get(i, "UNK") for i in basket}
        values.append(len(cats) / k)
    return sum(values) / len(values)


def group_exposure(baskets, groups: ItemGroups, exposure: ExposureModel
                   ) -> tuple[float, float]:
    """Average position-weighted exposure of the popular and unpopular
    groups. Items never recommended contribute 0, and an empty group's
    average is 0, as its fairness coefficient is."""
    lists = _basket_lists(baskets)
    table = exposure.weights(max(map(len, lists.values()), default=0))
    item_exposure: dict[str, float] = {}
    for basket in lists.values():
        for item, e in zip(basket, table):
            item_exposure[item] = item_exposure.get(item, 0.0) + e

    def mean(group: set[str]) -> float:
        # fsum is exactly rounded, so the total does not depend on the order
        # in which the group set iterates (which varies with the hash seed)
        if not group:
            return 0.0
        return math.fsum(v for i, v in item_exposure.items()
                         if i in group) / len(group)

    return mean(groups.popular), mean(groups.unpopular)


def log_dp(e1: float, e2: float, base: float = math.e) -> float:
    """Signed log-ratio of group exposures with additive smoothing."""
    return math.log((e1 + LOG_DP_DELTA) / (e2 + LOG_DP_DELTA)) / math.log(base)


def repeat_metrics(baskets, reps: RepeatSets, rep_ratio_gt: float, k: int
                   ) -> tuple[float, float]:
    lists = _basket_lists(baskets)
    if not lists:
        raise DataError("no baskets to evaluate")
    values = []
    for uid, basket in lists.items():
        rep = reps.get(uid, frozenset())
        values.append(sum(1 for i in basket if i in rep) / k)
    rep_ratio_rec = sum(values) / len(values)
    return rep_ratio_rec, rep_ratio_rec - rep_ratio_gt


def composite_metrics(log_dp_value: float, rep_bias: float, ds: float,
                      omega: float) -> tuple[float, float]:
    """mFR = w|logDP| + (1-w)|RepBias|;  mDR = w DS - (1-w)|RepBias|."""
    m_fr = omega * abs(log_dp_value) + (1.0 - omega) * abs(rep_bias)
    m_dr = omega * ds - (1.0 - omega) * abs(rep_bias)
    return m_fr, m_dr


def evaluate(baskets, targets: SplitDataset, reps: RepeatSets,
             groups: ItemGroups, categories: dict[str, str],
             cfg: RerankConfig, rep_ratio_gt: float | None = None,
             per_user: bool = False) -> MetricsReport:
    """Full metrics report for one configuration."""
    lists = _basket_lists(baskets)
    if not lists:
        raise DataError("no baskets to evaluate")
    if rep_ratio_gt is None:
        gt_scope = SplitDataset(targets.train,
                                {u: targets.eval_targets[u] for u in lists
                                 if u in targets.eval_targets},
                                targets.split_label)
        rep_ratio_gt = ground_truth_repeat_ratio(gt_scope, reps)

    recall = recall_at_k(lists, targets)
    ds = diversity_score(lists, categories, cfg.k)
    e1, e2 = group_exposure(lists, groups, cfg.exposure)
    ldp = log_dp(e1, e2, cfg.log_base)
    rep_rec, rep_bias = repeat_metrics(lists, reps, rep_ratio_gt, cfg.k)
    m_fr, m_dr = composite_metrics(ldp, rep_bias, ds, cfg.omega)

    breakdown = None
    if per_user:
        breakdown = {}
        for uid, basket in lists.items():
            target = targets.eval_targets.get(uid, frozenset())
            rep = reps.get(uid, frozenset())
            cats = {categories.get(i, "UNK") for i in basket}
            breakdown[uid] = {
                "recall": (len(set(basket) & target) / len(target)) if target else float("nan"),
                "ds": len(cats) / cfg.k,
                "rep_ratio": sum(1 for i in basket if i in rep) / cfg.k,
            }
    return MetricsReport(recall=recall, ds=ds, log_dp=ldp,
                         rep_ratio_rec=rep_rec, rep_bias=rep_bias,
                         m_fr=m_fr, m_dr=m_dr, n_users=len(lists),
                         config=cfg.snapshot(), per_user=breakdown)


def report_table(reports: list[tuple[str, MetricsReport]]) -> str:
    """Aligned text table, one row per labelled report."""
    cols = ["recall", "ds", "log_dp", "rep_ratio_rec", "rep_bias", "m_fr", "m_dr"]
    header = ["run"] + cols
    rows = [[label] + [f"{getattr(r, c):.4f}" for c in cols]
            for label, r in reports]
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    out = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for row in rows:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)
