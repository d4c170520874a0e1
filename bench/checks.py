"""Independent checks of the workloads' outputs.

Everything here is recomputed from the input files with the benchmark's
own code: the paper's objective, slot counts, the filter and split rules,
the scorer formulas, the evaluation metrics and the tuner's selection rule.
Nothing is imported from the package under test. Every check returns a
list of failure messages; an empty list means the output is correct.

Baskets are compared by objective value, never item for item: the exact
solvers may legitimately return different baskets of equal value.
"""
from __future__ import annotations

import csv
import json
import math
import os
from collections import Counter
from dataclasses import dataclass

import gen

TOL = 1e-9
POPULAR_FRACTION = 0.2
LOG_DP_DELTA = 1e-9
OMEGA = 0.5
RECALL_TOLERANCE = 0.10


# ---------------------------------------------------------------- readers

def read_histories(path: str) -> list[tuple[str, list[list[str]]]]:
    with open(path, encoding="utf-8") as fh:
        return [(rec["user_id"], rec["baskets"])
                for rec in map(json.loads, fh) if rec]


def read_categories(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("\t") for line in fh if line.strip())


def read_targets(path: str) -> dict[str, set[str]]:
    with open(path, encoding="utf-8") as fh:
        return {rec["user_id"]: set(rec["basket"]) for rec in map(json.loads, fh)}


def read_scores(path: str, n: int) -> dict[str, list[tuple[str, float]]]:
    rows: dict[str, list[tuple[str, float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            uid, item, score = line.rstrip("\n").split("\t")
            rows.setdefault(uid, []).append((item, float(score)))
    return {uid: gen.rank(pairs, n) for uid, pairs in rows.items()}


def read_baskets_tsv(path: str) -> dict[str, list[str]]:
    """user -> items in rank order, from ``user rank item flag`` rows."""
    rows: dict[str, list[tuple[int, str]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            uid, rank, item, _ = line.rstrip("\n").split("\t")
            rows.setdefault(uid, []).append((int(rank), item))
    return {uid: [item for _, item in sorted(r)] for uid, r in rows.items()}


# ------------------------------------------------------------- the model

def repeat_sets(train) -> dict[str, set[str]]:
    return {uid: {i for b in baskets for i in b} for uid, baskets in train}


def item_groups(train) -> tuple[set[str], set[str]]:
    """Top 20% of training items by purchase count (ties by id) are popular."""
    counts = Counter(i for _, baskets in train for b in baskets for i in b)
    ranked = sorted(counts, key=lambda i: (-counts[i], i))
    n_pop = math.ceil(POPULAR_FRACTION * len(ranked))
    return set(ranked[:n_pop]), set(ranked[n_pop:])


def exposure_weight(kind: str, position: int) -> float:
    return 1.0 if kind == "uniform" else 1.0 / math.log2(position + 1)


@dataclass(frozen=True)
class Objective:
    """One objective of the paper, with its weights.

    radiv      sum(rel)/K + eps*DS        + s*lam*RepRatio
    naive_div  sum(rel)/K + eps*DS
    raif       sum(rel)   - alpha*fair    + s*lam*RepRatio
    where DS = #categories/K, RepRatio = #repeats/K,
    fair = sum over positions p of coef(item_p)*e(p), coef = 1/|popular|
    for popular items and -1/|unpopular| otherwise, and s = -1 when
    repeats are penalised.
    """

    kind: str
    k: int
    epsilon: float = 0.0
    alpha: float = 0.0
    lam: float = 0.0
    penalize: bool = True
    exposure: str = "log_discount"
    theta: float = 0.0


@dataclass
class Candidates:
    """One user's candidates: relevance and repeat-pool flag per item."""

    relevance: dict[str, float]
    repeat: dict[str, bool]


class Reference:
    """The benchmark's own view of one input directory."""

    def __init__(self, inputs: str, n: int) -> None:
        self.categories = read_categories(os.path.join(inputs, "categories.tsv"))
        self.train = read_histories(os.path.join(inputs, "train.jsonl"))
        self.reps = repeat_sets(self.train)
        self.popular, self.unpopular = item_groups(self.train)
        self.n = n
        self._inputs = inputs
        self._scores: dict[str, dict] = {}

    def scores(self, name: str) -> dict[str, list[tuple[str, float]]]:
        if name not in self._scores:
            self._scores[name] = read_scores(
                os.path.join(self._inputs, f"{name}.tsv"), self.n)
        return self._scores[name]

    def candidates(self, uid: str, combined: bool) -> Candidates:
        if not combined:
            rows = self.scores("unified").get(uid, [])
            rep = self.reps.get(uid, set())
            return Candidates(dict(rows), {i: i in rep for i, _ in rows})
        rep_rows = self.scores("repeat").get(uid, [])
        exp_rows = self.scores("explore").get(uid, [])
        return Candidates(dict(rep_rows + exp_rows),
                          {**{i: False for i, _ in exp_rows},
                           **{i: True for i, _ in rep_rows}})

    def coef(self, item: str) -> float:
        if item in self.popular:
            return 1.0 / len(self.popular)
        return -1.0 / len(self.unpopular)


def objective_value(ref: Reference, obj: Objective, cands: Candidates,
                    basket: list[str]) -> float:
    ranked = sorted(basket, key=lambda i: (-cands.relevance[i], i))
    rel = sum(cands.relevance[i] for i in ranked)
    n_rep = sum(1 for i in ranked if cands.repeat[i])
    sign = -1.0 if obj.penalize else 1.0
    repeat_term = sign * obj.lam * n_rep / obj.k
    if obj.kind in ("radiv", "naive_div"):
        cats = {ref.categories.get(i, "UNK") for i in ranked}
        value = rel / obj.k + obj.epsilon * len(cats) / obj.k
        return value + (repeat_term if obj.kind == "radiv" else 0.0)
    if obj.kind == "raif":
        fair = sum(ref.coef(i) * exposure_weight(obj.exposure, p)
                   for p, i in enumerate(ranked, start=1))
        return rel - obj.alpha * fair + repeat_term
    raise ValueError(f"no reference objective for {obj.kind!r}")


def slot_counts(cands: Candidates, obj: Objective, combined: bool
                ) -> tuple[int, int]:
    """(repeat slots, explore slots) a basket must fill.

    Unified baskets have K slots in one pool, reported as (K, 0). Combined
    baskets give H(theta) slots to repeat items scoring above theta and the
    rest to explore items, borrowing from the other pool when one runs out.
    """
    if not combined:
        return obj.k, 0
    rep = [s for i, s in cands.relevance.items() if cands.repeat[i]]
    n_exp = len(cands.relevance) - len(rep)
    h = min(sum(1 for s in rep if s > obj.theta), obj.k)
    h = max(h, obj.k - n_exp)
    if h > len(rep):
        return len(rep), n_exp
    return h, obj.k - h


def check_basket(ref: Reference, obj: Objective, uid: str, combined: bool,
                 basket: list[str], reported: float | None,
                 swaps: bool = False) -> list[str]:
    """Slots, distinctness, reported objective and same-pool swaps."""
    cands = ref.candidates(uid, combined)
    where = f"user {uid}"
    if len(set(basket)) != len(basket):
        return [f"{where}: duplicate items in {basket}"]
    strangers = [i for i in basket if i not in cands.relevance]
    if strangers:
        return [f"{where}: non-candidates {strangers[:3]}"]
    rep_slots, exp_slots = slot_counts(cands, obj, combined)
    n_rep = sum(1 for i in basket if cands.repeat[i])
    if combined and (n_rep, len(basket) - n_rep) != (rep_slots, exp_slots):
        return [f"{where}: slots ({n_rep},{len(basket) - n_rep}), "
                f"need ({rep_slots},{exp_slots})"]
    if len(basket) != rep_slots + exp_slots:
        return [f"{where}: {len(basket)} items, need {rep_slots + exp_slots}"]
    value = objective_value(ref, obj, cands, basket)
    if reported is not None and abs(value - reported) > TOL:
        return [f"{where}: reported objective {reported!r}, recomputed {value!r}"]
    if swaps:
        chosen = set(basket)
        for out_item in basket:
            for in_item in cands.relevance:
                if in_item in chosen or (
                        combined and cands.repeat[in_item] != cands.repeat[out_item]):
                    continue
                trial = [in_item if i == out_item else i for i in basket]
                better = objective_value(ref, obj, cands, trial)
                if better > value + TOL:
                    return [f"{where}: swapping {out_item} for {in_item} "
                            f"improves {value!r} to {better!r}"]
    return []


def check_rerank(ref: Reference, obj: Objective, combined: bool,
                 baskets: dict[str, tuple[list[str], float]],
                 swap_users: set[str]) -> list[str]:
    """Every user of the candidate set has a correct basket."""
    expected = set(ref.scores("repeat")) | set(ref.scores("explore")) if combined \
        else set(ref.scores("unified"))
    failures = []
    if set(baskets) != expected:
        failures.append(f"baskets for {len(baskets)} users, expected {len(expected)}")
    for uid in sorted(set(baskets) & expected):
        items, reported = baskets[uid]
        failures += check_basket(ref, obj, uid, combined, items, reported,
                                 swaps=uid in swap_users)
    return failures


# ----------------------------------------------------------- pipeline

def check_ingest(work: str, min_baskets: int = gen.MIN_BASKETS,
                 min_item_purchases: int = gen.MIN_ITEM_PURCHASES) -> list[str]:
    """Filter properties, the leave-last split and a 50/50 user partition."""
    failures = []
    data = read_histories(os.path.join(work, "dataset.jsonl"))
    counts = Counter(i for _, baskets in data for b in baskets for i in b)
    rare = sorted(i for i, c in counts.items() if c < min_item_purchases)
    if rare:
        failures.append(f"ingest kept {len(rare)} items bought fewer than "
                        f"{min_item_purchases} times, e.g. {rare[:3]}")
    short = sorted(uid for uid, baskets in data if len(baskets) < min_baskets)
    if short:
        failures.append(f"ingest kept {len(short)} users with fewer than "
                        f"{min_baskets} baskets, e.g. {short[:3]}")
    train = dict(read_histories(os.path.join(work, "train.jsonl")))
    validation = read_targets(os.path.join(work, "targets_validation.jsonl"))
    test = read_targets(os.path.join(work, "targets_test.jsonl"))
    users = {uid for uid, _ in data}
    if set(validation) & set(test) or set(validation) | set(test) != users:
        failures.append("validation and test users do not partition the users")
    if (len(validation), len(test)) != (math.ceil(len(users) / 2), len(users) // 2):
        failures.append(f"split {len(validation)}/{len(test)} is not 50/50 "
                        f"of {len(users)} users")
    for uid, baskets in data:
        target = validation.get(uid, test.get(uid))
        if train.get(uid) != baskets[:-1] or target != set(baskets[-1]):
            failures.append(f"user {uid}: split is not leave-last-basket")
            break
    return failures


def check_scores(work: str, n: int) -> list[str]:
    """unified.tsv equals the scorer formulas applied to train.jsonl."""
    train = read_histories(os.path.join(work, "train.jsonl"))
    expected = gen.unified_scores(gen.repeat_scores(train, n),
                                  gen.explore_scores(train, n), n)
    got = read_scores(os.path.join(work, "unified.tsv"), n)
    if set(got) != set(expected):
        return [f"unified.tsv has {len(got)} users, expected {len(expected)}"]
    for uid in sorted(expected):
        if got[uid] != expected[uid]:
            return [f"user {uid}: unified scores differ from the formulas"]
    return []


def auto_sign_penalizes(ref: Reference, targets: dict[str, set[str]], k: int
                        ) -> bool:
    """Penalise repeats when the plain top-K over-recommends them relative
    to the ground-truth repeat ratio of the targets (ties penalise)."""
    lists = ref.scores("unified")
    rec = sum(sum(1 for i, _ in rows[:k] if i in ref.reps.get(uid, set()))
              / max(len(rows[:k]), 1) for uid, rows in lists.items()) / len(lists)
    gt = sum(len(t & ref.reps.get(uid, set())) / len(t)
             for uid, t in targets.items()) / len(targets)
    return rec >= gt


def check_additive_baskets(ref: Reference, obj: Objective,
                           baskets: dict[str, list[str]]) -> list[str]:
    """Each basket of an additive objective reaches the top-K optimum."""
    failures = []
    expected = set(ref.scores("unified"))
    if set(baskets) != expected:
        failures.append(f"baskets for {len(baskets)} users, expected {len(expected)}")
    for uid in sorted(set(baskets) & expected):
        cands = ref.candidates(uid, combined=False)
        basket = baskets[uid]
        found = check_basket(ref, obj, uid, False, basket, None)
        if found:
            failures += found
            continue
        value = objective_value(ref, obj, cands, basket)
        sign = -1.0 if obj.penalize else 1.0
        adjusted = sorted(
            (r + (sign * obj.lam / obj.k if cands.repeat[i] else 0.0)
             - obj.alpha * ref.coef(i) for i, r in cands.relevance.items()),
            reverse=True)
        best = sum(adjusted[:obj.k])
        if abs(value - best) > TOL:
            failures.append(f"user {uid}: objective {value!r}, optimum {best!r}")
    return failures


def reference_metrics(ref: Reference, baskets: dict[str, list[str]],
                      targets: dict[str, set[str]], k: int, exposure: str
                      ) -> dict[str, float]:
    """The report's metrics over the users that have a target."""
    lists = {u: b for u, b in baskets.items() if u in targets}
    recall = sum(len(set(b) & targets[u]) / len(targets[u])
                 for u, b in lists.items()) / len(lists)
    ds = sum(len({ref.categories.get(i, "UNK") for i in b}) / k
             for b in lists.values()) / len(lists)
    exposure_of: Counter[str] = Counter()
    for b in lists.values():
        for p, i in enumerate(b, start=1):
            exposure_of[i] += exposure_weight(exposure, p)
    e1 = sum(exposure_of[i] for i in ref.popular) / len(ref.popular)
    e2 = sum(exposure_of[i] for i in ref.unpopular) / len(ref.unpopular)
    log_dp = math.log((e1 + LOG_DP_DELTA) / (e2 + LOG_DP_DELTA))
    rep_rec = sum(sum(1 for i in b if i in ref.reps.get(u, set())) / k
                  for u, b in lists.items()) / len(lists)
    gt = sum(len(targets[u] & ref.reps.get(u, set())) / len(targets[u])
             for u in lists) / len(lists)
    bias = rep_rec - gt
    return {"recall": recall, "ds": ds, "log_dp": log_dp,
            "rep_ratio_rec": rep_rec, "rep_bias": bias,
            "m_fr": OMEGA * abs(log_dp) + (1 - OMEGA) * abs(bias),
            "m_dr": OMEGA * ds - (1 - OMEGA) * abs(bias),
            "n_users": len(lists)}


def check_report(report: dict, expected: dict[str, float]) -> list[str]:
    failures = []
    for key, value in expected.items():
        got = report.get(key)
        if not isinstance(got, (int, float)) or abs(got - value) > TOL:
            failures.append(f"report {key} = {got!r}, recomputed {value!r}")
    return failures


# --------------------------------------------------------------- tune

def theta_deciles(repeat_scores: dict[str, list[tuple[str, float]]]) -> list[float]:
    scores = sorted(s for rows in repeat_scores.values() for _, s in rows)
    picks = {scores[min(len(scores) - 1, int(round(q / 10 * (len(scores) - 1))))]
             for q in range(1, 10)}
    return sorted(picks)


def read_sweep(path: str) -> list[dict[str, float]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [{key: (value if key == "objective_kind" else float(value))
                 for key, value in row.items()} for row in csv.DictReader(fh)]


def check_sweep(rows: list[dict], chosen: dict, grid: list[tuple[float, float]],
                second: str) -> list[str]:
    """Grid coverage, the selection rule and monotone repeat ratios.

    ``grid`` lists the (alpha, second) pairs expected, where ``second`` is
    the column swept with alpha: "lambda" on unified candidates, "theta"
    on combined ones.
    """
    failures = []
    got = sorted((r["alpha"], r[second]) for r in rows)
    if got != sorted(grid):
        return [f"sweep has {len(rows)} rows, grid has {len(grid)} points"]
    floor = (1.0 - RECALL_TOLERANCE) * chosen["baseline"]["recall"]
    feasible = [r for r in rows if r["recall"] >= floor]
    if chosen["feasible_count"] != len(feasible):
        failures.append(f"feasible_count {chosen['feasible_count']}, "
                        f"sweep has {len(feasible)} feasible rows")
    if feasible:
        best = min(feasible, key=lambda r: r["m_fr"])
        pick = (chosen["best"]["alpha"], chosen["best"]["lam"],
                chosen["best"]["theta"])
        if pick != (best["alpha"], best["lambda"], best["theta"]) or \
                chosen["infeasible"]:
            failures.append(f"chosen point {pick}, rule picks "
                            f"{(best['alpha'], best['lambda'], best['theta'])}")
    elif not chosen["infeasible"]:
        failures.append("no feasible point, but the result is not flagged")
    # More penalty (lambda) or a higher threshold (theta) never adds repeats.
    # Rewarding repeats more never removes them.
    direction = 1.0 if (second == "lambda" and
                        chosen["best"]["sign_mode"] == "reward_repeat") else -1.0
    for alpha in sorted({r["alpha"] for r in rows}):
        line = sorted((r[second], r["rep_ratio_rec"]) for r in rows
                      if r["alpha"] == alpha)
        if any(direction * (b[1] - a[1]) < -1e-12 for a, b in zip(line, line[1:])):
            failures.append(f"alpha {alpha}: RepRatio not monotone in {second}")
    return failures
