"""Command-line pipeline: ingest -> score -> rerank -> evaluate -> tune ->
report.

Exit codes: 0 success, 1 usage error, 2 data error, 3 solver error. The
CLI and the library warn through ``warnings``; only ``main`` prints them.

A verb allocates hundreds of thousands of acyclic objects (tuples, floats,
frozensets), which reference counting frees, and every cyclic collection
would walk them all. So ``main`` pauses the cyclic garbage collector for the
length of the verb and restores the caller's setting on every exit path; it
never enables a collector that was off. Code on a verb's path must therefore
leave no reference cycle per user or per solve: with the collector paused,
such garbage would pile up until the verb ends. Library calls leave the
collector's state alone.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import warnings

from .dataset import (build_item_groups, build_repeat_sets, cap_history,
                      filter_min_activity, ground_truth_repeat_ratio,
                      load_baskets, load_categories, load_targets,
                      sample_users, save_baskets, save_categories,
                      save_targets, split_leave_last)
from .errors import DataError, SolverError, UsageError
from .metrics import MetricsReport, evaluate, report_table
from .objective import (REWARD_REPEAT, ExposureModel, RerankConfig,
                        build_problems, choose_sign_mode, original_topk)
from .scorer import (CandidateSet, import_scores, make_combined,
                     make_unified, missing_users, save_scores,
                     score_explore_popularity, score_repeat_topfreq)
from .solver import RerankedBaskets, rerank_all
from .tuner import (GridSpec, grid_points, grids_read, run_grid,
                    theta_deciles, write_chosen_config, write_sweep_csv)

MODE_TO_KIND = {
    "radiv": "radiv",
    "raif": "raif",
    "naive-div": "naive_div",
    "naive-fair": "naive_fair",
    "repeat-only": "repeat_only",
    "none": "relevance_only",
}
EXPOSURES = ["uniform", "log-discount"]


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix matching: tune's --epsilon must not become --epsilon-grid
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):  # noqa: D102 - exit code contract
        raise UsageError(message)


def _grid_arg(raw: str) -> list[float]:
    try:
        return [float(x) for x in raw.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad grid value list: {raw!r}") from exc


def build_parser() -> _Parser:
    parser = _Parser(prog="basket-rerank",
                     description="Repeat-bias-aware re-ranking for "
                                 "next-basket recommendation")
    parser.add_argument("--config", help="key = value file; keys match long "
                                         "flag names with dashes or underscores")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("ingest", parents=[], description="Load, filter, and "
                       "split a basket dataset.")
    p.add_argument("--baskets", required=True)
    p.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    p.add_argument("--categories")
    p.add_argument("--min-baskets", type=int, default=3)
    p.add_argument("--min-item-purchases", type=int, default=5)
    p.add_argument("--max-baskets", type=int, default=50)
    p.add_argument("--sample-users", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--dry-run", action="store_true")

    p = sub.add_parser("score", description="Emit built-in scorer candidate "
                       "scores as TSV.")
    p.add_argument("--train", required=True, help="train baskets JSONL")
    p.add_argument("--kind", choices=["unified", "combined"], default="unified")
    p.add_argument("--mix", type=float, default=0.5,
                   help="unified blend weight for the repeat side")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--dry-run", action="store_true")

    p = sub.add_parser("rerank", description="Re-rank candidate scores into "
                       "K-item baskets.")
    _add_problem_flags(p, sorted(MODE_TO_KIND))
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--theta", type=float,
                   help="combined scores only (default 0)")
    p.add_argument("--sign", choices=["auto", "penalize", "reward"],
                   default="penalize")
    p.add_argument("--targets", help="for --sign auto only")
    p.add_argument("--out", required=True, help="reranked baskets TSV")
    p.add_argument("--stats", help="solver statistics JSON")
    p.add_argument("--dump-problems", help="serialized problems JSONL")
    p.add_argument("--skip-errors", action="store_true")
    p.add_argument("--dry-run", action="store_true")

    p = sub.add_parser("evaluate", description="Compute metrics for reranked "
                       "baskets against targets.")
    p.add_argument("--baskets", required=True, help="reranked baskets TSV")
    p.add_argument("--train", required=True)
    p.add_argument("--categories")
    p.add_argument("--targets", required=True)
    p.add_argument("--k", type=int, default=20)
    p.add_argument("--exposure", choices=EXPOSURES, default="log-discount")
    _add_metric_flags(p)
    p.add_argument("--per-user", help="per-user breakdown TSV")
    p.add_argument("--out", help="report JSON")
    p.add_argument("--dry-run", action="store_true")

    p = sub.add_parser("tune", description="Grid search on the validation "
                       "split with the Recall-tolerance selection rule.")
    _add_problem_flags(p, ["radiv", "raif"])
    _add_metric_flags(p)
    p.add_argument("--targets", required=True, help="validation targets JSONL")
    p.add_argument("--epsilon-grid", type=_grid_arg)
    p.add_argument("--alpha-grid", type=_grid_arg)
    p.add_argument("--lambda-grid", type=_grid_arg)
    p.add_argument("--theta-grid", type=_grid_arg)
    p.add_argument("--recall-tolerance", type=float, default=0.10)
    p.add_argument("--sweep-out", help="per-grid-point metrics CSV")
    p.add_argument("--chosen-out", help="chosen config JSON")
    p.add_argument("--dry-run", action="store_true")

    p = sub.add_parser("report", description="Tabulate one or more metrics "
                       "reports.")
    p.add_argument("reports", nargs="+", help="report JSON files")
    p.add_argument("--markdown", action="store_true")
    p.add_argument("--out", help="write table to file instead of stdout")
    p.add_argument("--dry-run", action="store_true")
    return parser


def _add_problem_flags(p: argparse.ArgumentParser, modes: list[str]) -> None:
    """Inputs and basket shape, for the verbs that build problems."""
    p.add_argument("--train", required=True, help="train baskets JSONL")
    p.add_argument("--categories")
    p.add_argument("--scores", help="unified scores TSV")
    p.add_argument("--repeat-scores", help="combined repeat scores TSV")
    p.add_argument("--explore-scores", help="combined explore scores TSV")
    p.add_argument("--mode", required=True, choices=modes)
    p.add_argument("--k", type=int, default=20)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--theta-inclusive", action="store_true",
                   help="combined scores only: count repeat scores >= theta "
                        "instead of > theta")
    p.add_argument("--exposure", choices=EXPOSURES, default="log-discount")


def _add_metric_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--omega", type=float, default=0.5)
    p.add_argument("--log-base", type=float, default=math.e)


def _apply_config_file(argv: list[str]) -> list[str]:
    """Prepend key=value file entries as flags so the CLI overrides them."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    ns, _ = pre.parse_known_args(argv)
    if not ns.config:
        return argv
    extra: list[str] = []
    with open(ns.config, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{ns.config}:{lineno}: expected key = value")
            key, value = (x.strip() for x in line.split("=", 1))
            flag = "--" + key.replace("_", "-")
            extra += [flag, value]
    # insert after the verb so subparser flags resolve
    for i, tok in enumerate(argv):
        if tok in _COMMANDS:
            return argv[:i + 1] + extra + argv[i + 1:]
    return argv + extra


def _exposure(name: str) -> ExposureModel:
    return ExposureModel(name.replace("-", "_"))


def _load_candidates(args) -> CandidateSet:
    """The score lists, each truncated to its top ``--n`` (so K <= N)."""
    if args.k > args.n:
        raise UsageError(f"K ({args.k}) must not exceed N ({args.n})")
    if args.scores:
        if args.repeat_scores or args.explore_scores:
            raise UsageError("give --scores or --repeat-scores/--explore-scores, "
                             "not both")
        return import_scores(args.scores, "unified", n=args.n)
    if args.repeat_scores and args.explore_scores:
        return import_scores(args.repeat_scores, "combined", n=args.n,
                             explore_path=args.explore_scores)
    raise UsageError("no score input: pass --scores (unified) or both "
                     "--repeat-scores and --explore-scores (combined)")


def _problem_config(args, cands: CandidateSet, **fields) -> RerankConfig:
    """``_add_problem_flags``'s settings plus the verb's own ``fields``.

    Unified scores have no H(theta) slot split, so a theta flag given with
    them is read by nothing: a usage error, checked once the settings are.
    """
    cfg = RerankConfig(k=args.k, n=args.n,
                       theta_strict=not args.theta_inclusive,
                       exposure=_exposure(args.exposure),
                       objective_kind=MODE_TO_KIND[args.mode], **fields)
    if cands.kind == "unified":
        for flag, given in (("--theta", getattr(args, "theta", None) is not None),
                            ("--theta-inclusive", args.theta_inclusive)):
            if given:
                raise UsageError(f"{flag} is not read with unified scores")
    return cfg


def _write_baskets_tsv(baskets: RerankedBaskets, repeat_of, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for uid in sorted(baskets.baskets):
            sel = baskets.baskets[uid]
            rep = repeat_of(uid)
            for rank, item in enumerate(sel.items, start=1):
                flag = 1 if item in rep else 0
                fh.write(f"{uid}\t{rank}\t{item}\t{flag}\n")


_FLAGS = frozenset({"0", "1", "0\n", "1\n"})  # the last row may lack "\n"


def read_baskets_tsv(path: str) -> dict[str, list[str]]:
    """Each user's items in rank order. Ranks start at 1, the repeat flag is
    0 or 1, and a user's rows may not repeat a rank or an item."""
    out: dict[str, tuple[dict[int, str], set[str]]] = {}
    uid = ranks = items = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                row_uid, rank, item, flag = line.split("\t")
                position = int(rank)
            except ValueError as exc:
                parts = line.rstrip("\n").split("\t")
                if parts == [""]:
                    continue
                if len(parts) != 4:
                    raise DataError(f"{path}:{lineno}: expected 4 fields") from None
                raise DataError(f"{path}:{lineno}: bad rank {parts[1]!r}") from exc
            if position < 1:
                raise DataError(f"{path}:{lineno}: rank must be at least 1, "
                                f"got {position}")
            if flag not in _FLAGS:
                flag = flag.rstrip("\n")
                raise DataError(f"{path}:{lineno}: repeat flag must be 0 or 1, "
                                f"got {flag!r}")
            if row_uid != uid:
                uid = row_uid
                ranks, items = out.setdefault(uid, ({}, set()))
            if position in ranks:
                raise DataError(f"{path}:{lineno}: user {uid!r} repeats "
                                f"rank {position}")
            if item in items:
                raise DataError(f"{path}:{lineno}: user {uid!r} repeats "
                                f"item {item!r}")
            ranks[position] = item
            items.add(item)
    return {u: [ranks[r] for r in sorted(ranks)] for u, (ranks, _) in out.items()}


def _cmd_ingest(args) -> int:
    # the leave-last split holds one of each user's baskets out
    for flag, value, least in (("--sample-users", args.sample_users, 1),
                               ("--min-baskets", args.min_baskets, 2),
                               ("--max-baskets", args.max_baskets, 2)):
        if value is not None and value < least:
            raise UsageError(f"{flag} must be at least {least}, got {value}")
    categories = load_categories(args.categories) if args.categories else {}
    ds = load_baskets(args.baskets, args.format, categories)
    if args.sample_users is not None:
        ds = sample_users(ds, args.sample_users, args.seed)
    ds = filter_min_activity(ds, args.min_baskets, args.min_item_purchases)
    ds = cap_history(ds, args.max_baskets)
    train, validation, test = split_leave_last(ds, args.seed)
    reps = build_repeat_sets(train)
    meta = {
        "n_users": len(ds.users),
        "n_items": len(ds.item_vocabulary),
        "n_baskets": ds.n_baskets(),
        "dedup_count": ds.dedup_count,
        "seed": args.seed,
        "rep_ratio_gt_validation": ground_truth_repeat_ratio(validation, reps),
        "rep_ratio_gt_test": ground_truth_repeat_ratio(test, reps),
    }
    if args.dry_run:
        print(json.dumps(meta, indent=2))
        return 0
    import os
    os.makedirs(args.out, exist_ok=True)
    save_baskets(ds, os.path.join(args.out, "dataset.jsonl"))
    save_baskets(train, os.path.join(args.out, "train.jsonl"))
    save_targets(validation, os.path.join(args.out, "targets_validation.jsonl"))
    save_targets(test, os.path.join(args.out, "targets_test.jsonl"))
    save_categories(ds.categories, os.path.join(args.out, "categories.tsv"))
    with open(os.path.join(args.out, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
    print(json.dumps(meta, indent=2))
    return 0


def _cmd_score(args) -> int:
    import os
    if args.n < 1:
        raise UsageError(f"--n must be at least 1, got {args.n}")
    if not 0.0 <= args.mix <= 1.0:  # also NaN
        raise UsageError(f"--mix must be in [0,1], got {args.mix}")
    train = load_baskets(args.train, "jsonl")
    reps = build_repeat_sets(train)
    if args.dry_run:
        print(f"would score {len(train.users)} users ({args.kind}, N={args.n})")
        return 0
    os.makedirs(args.out, exist_ok=True)
    if args.kind == "unified":
        cands = make_unified(score_repeat_topfreq(train, reps, args.n),
                             score_explore_popularity(train, reps, args.n),
                             mix=args.mix, n=args.n)
        save_scores(cands.unified, os.path.join(args.out, "unified.tsv"))
        print(f"wrote {os.path.join(args.out, 'unified.tsv')}")
    else:
        cands = make_combined(train, reps, args.n)
        save_scores(cands.repeat_list, os.path.join(args.out, "repeat.tsv"))
        save_scores(cands.explore_list, os.path.join(args.out, "explore.tsv"))
        print(f"wrote repeat.tsv and explore.tsv under {args.out}")
    return 0


def _load_common(args):
    categories = load_categories(args.categories) if args.categories else {}
    train = load_baskets(args.train, "jsonl", categories)
    reps = build_repeat_sets(train)
    groups = build_item_groups(train)
    cands = _load_candidates(args)
    absent = missing_users(cands, train.user_ids)
    if absent:
        warnings.warn(f"{len(absent)} train users missing from scores "
                      f"(e.g. {absent[:3]})")
    return train, categories, reps, groups, cands


def _cmd_rerank(args) -> int:
    train, categories, reps, groups, cands = _load_common(args)
    cfg = _problem_config(args, cands, epsilon=args.epsilon, alpha=args.alpha,
                          lam=args.lam,
                          theta=0.0 if args.theta is None else args.theta)
    if args.sign == "auto":
        if not args.targets:
            raise UsageError("--sign auto needs --targets to estimate the "
                             "ground-truth repeat ratio")
        targets = load_targets(args.targets, train)
        cfg.sign_mode = choose_sign_mode(
            original_topk(cands, cfg), reps,
            ground_truth_repeat_ratio(targets, reps))
    elif args.targets:
        raise UsageError("--targets is read only with --sign auto")
    elif args.sign == "reward":
        cfg.sign_mode = REWARD_REPEAT
    if args.dry_run:
        print(json.dumps({"resolved_config": cfg.snapshot(),
                          "n_users": len(cands.user_ids)}, indent=2))
        return 0
    problems = build_problems(cands, reps, groups, categories, cfg,
                              skip_errors=args.skip_errors)
    if args.dump_problems:
        with open(args.dump_problems, "w", encoding="utf-8") as fh:
            for problem in problems:
                fh.write(problem.to_json() + "\n")
    baskets = rerank_all(problems, skip_errors=args.skip_errors)
    if cands.kind == "combined":
        pools = {u: {i for i, _ in rows}
                 for u, rows in cands.repeat_list.items()}
        repeat_of = lambda uid: pools.get(uid, set())  # noqa: E731
    else:
        repeat_of = lambda uid: reps.get(uid, frozenset())  # noqa: E731
    _write_baskets_tsv(baskets, repeat_of, args.out)
    if args.stats:
        stats = {
            "total_objective": baskets.total_objective,
            "per_user": {
                uid: {"objective": s.objective, "solver": s.solver_tag,
                      "nodes": s.nodes, "prunes": s.prunes,
                      "wall_time": s.wall_time}
                for uid, s in sorted(baskets.baskets.items())},
        }
        with open(args.stats, "w", encoding="utf-8") as fh:
            json.dump(stats, fh, indent=2)
    print(f"reranked {len(baskets.baskets)} users -> {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    cfg = RerankConfig(k=args.k, omega=args.omega,
                       exposure=_exposure(args.exposure),
                       log_base=args.log_base)
    categories = load_categories(args.categories) if args.categories else {}
    train = load_baskets(args.train, "jsonl", categories)
    reps = build_repeat_sets(train)
    groups = build_item_groups(train)
    lists = read_baskets_tsv(args.baskets)
    # shorter is valid: a combined basket can fall short of K
    for uid, basket in lists.items():
        if len(basket) > args.k:
            raise DataError(f"{args.baskets}: user {uid!r} has {len(basket)} "
                            f"items, more than K={args.k}")
    targets = load_targets(args.targets, train)
    dropped = sorted(u for u in lists if u not in targets.eval_targets)
    if dropped:
        warnings.warn(f"{len(dropped)} users have no target in this split "
                      f"and are excluded (e.g. {dropped[:3]})")
        lists = {u: b for u, b in lists.items()
                 if u in targets.eval_targets}
    if args.dry_run:
        print(json.dumps({"n_users": len(lists),
                          "resolved_config": cfg.snapshot()}, indent=2))
        return 0
    report = evaluate(lists, targets, reps, groups, categories, cfg,
                      per_user=bool(args.per_user))
    if args.per_user:
        with open(args.per_user, "w", encoding="utf-8") as fh:
            fh.write("user_id\trecall\tds\trep_ratio\n")
            for uid in sorted(report.per_user):
                row = report.per_user[uid]
                fh.write(f"{uid}\t{row['recall']:.6f}\t{row['ds']:.6f}"
                         f"\t{row['rep_ratio']:.6f}\n")
        report.per_user = None
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json(indent=2))
    print(report_table([("run", report)]))
    return 0


def _cmd_tune(args) -> int:
    train, categories, reps, groups, cands = _load_common(args)
    targets = load_targets(args.targets, train)
    if targets.split_label != "validation":
        raise UsageError(f"tune needs validation targets, got "
                         f"{targets.split_label!r}")
    cfg = _problem_config(args, cands, omega=args.omega, log_base=args.log_base,
                          recall_tolerance=args.recall_tolerance)
    # only the grids given on the command line, so that an empty one is
    # rejected rather than replaced by the default
    given = [name for name in ("epsilon_grid", "alpha_grid", "lambda_grid",
                               "theta_grid") if getattr(args, name) is not None]
    grid = GridSpec(**{name: getattr(args, name) for name in given})
    # a grid that this mode and candidate kind never read is an error
    read = grids_read(cfg.objective_kind, cands.kind)
    unread = [name for name in given if name not in read]
    if unread:
        raise UsageError(f"--{unread[0].replace('_', '-')} is not read with "
                         f"{cands.kind} scores under --mode "
                         f"{cfg.objective_kind}")
    if args.dry_run:
        points = grid_points(cfg.objective_kind, cands.kind, grid,
                             theta_deciles(cands) if cands.kind == "combined"
                             else [])
        print(json.dumps({"resolved_config": cfg.snapshot(),
                          "grid_points": len(points)}, indent=2))
        return 0
    result = run_grid(targets, cands, reps, groups, categories, cfg, grid)
    if args.sweep_out:
        write_sweep_csv(result, args.sweep_out)
    if args.chosen_out:
        write_chosen_config(result, args.chosen_out)
    print(json.dumps({"best": result.best.snapshot(),
                      "feasible_count": result.feasible_count,
                      "infeasible": result.infeasible}, indent=2))
    return 0


def _cmd_report(args) -> int:
    reports = []
    for path in args.reports:
        with open(path, encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise DataError(f"{path}: not a JSON file: {exc}") from exc
        reports.append((path, MetricsReport.from_dict(payload, source=path)))
    ks = {r.config.get("k") for _, r in reports}
    omegas = {r.config.get("omega") for _, r in reports}
    # key=str: a report without a config gives None beside the numbers
    if len(ks) > 1:
        raise UsageError(f"reports mix basket sizes: {sorted(ks, key=str)}")
    if len(omegas) > 1:
        raise UsageError(f"reports mix omega values: {sorted(omegas, key=str)}")
    if args.dry_run:
        print(f"would tabulate {len(reports)} reports")
        return 0
    if args.markdown:
        table = _markdown_table(reports)
    else:
        table = report_table(reports)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(table + "\n")
    else:
        print(table)
    return 0


def _markdown_table(reports: list[tuple[str, MetricsReport]]) -> str:
    cols = [("Recall", "recall", max),
            ("DS", "ds", max),
            ("logDP", "log_dp", lambda vs: min(vs, key=abs)),
            ("RepR", "rep_ratio_rec", None),
            ("RepBias", "rep_bias", lambda vs: min(vs, key=abs)),
            ("mFR", "m_fr", min),
            ("mDR", "m_dr", max)]
    lines = ["| run | " + " | ".join(name for name, _, _ in cols) + " |",
             "|" + "---|" * (len(cols) + 1)]
    best = {}
    for name, attr, rule in cols:
        values = [getattr(r, attr) for _, r in reports]
        best[attr] = rule(values) if rule and len(values) > 1 else None
    for label, r in reports:
        cells = []
        for _, attr, _ in cols:
            v = getattr(r, attr)
            text = f"{v:.4f}"
            if best[attr] is not None and v == best[attr]:
                text = f"**{text}**"
            cells.append(text)
        lines.append(f"| {label} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


_COMMANDS = {
    "ingest": _cmd_ingest,
    "score": _cmd_score,
    "rerank": _cmd_rerank,
    "evaluate": _cmd_evaluate,
    "tune": _cmd_tune,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    """Run one verb, with cyclic garbage collection paused (see the module
    docstring). Warnings it raises are printed once each, in order, as
    one-line ``warning:`` messages before any error line."""
    argv = list(sys.argv[1:] if argv is None else argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                args = build_parser().parse_args(_apply_config_file(argv))
                code, error = _COMMANDS[args.verb](args), None
            except UsageError as exc:
                code, error = 1, f"usage error: {exc}"
            except (DataError, OSError, UnicodeDecodeError) as exc:
                code, error = 2, f"data error: {exc}"
            except SolverError as exc:
                code, error = 3, f"solver error: {exc}"
        for message in dict.fromkeys(str(w.message) for w in caught):
            print(f"warning: {message}", file=sys.stderr)
        if error:
            print(error, file=sys.stderr)
        return code
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
