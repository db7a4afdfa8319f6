"""Command-line tools: synth, ingest, sample, rank, eval, report.

Exit codes: 0 success, 1 usage or configuration error, 2 malformed or
inconsistent data files, 3 internal error.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from .core import ContractError, InputError
from .evaluation import evaluate_ranking, kmin_method, require_slots
from .fileio import (
    ExperimentConfig,
    ingest_model,
    load_config,
    read_model,
    read_prob_triplets,
    read_ranking,
    read_report,
    report_table,
    write_model,
    write_ranking,
    write_report,
    write_samples,
    write_stats,
    write_table,
)
from .ranker import ALGORITHMS, RankerConfig, RankerStats, rank
from .synthgen import SynthParams, build_synthetic_model, model_metadata, sample_relevances

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

_DEFAULTS = {
    "n": 200,
    "sample_seed": 1,
    "algorithm": "matchrank-lazy",
    "ranker_seed": 0,
    "draws": 100,
    "eval_seed": 2,
    "threads": 1,
}


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _config(args) -> ExperimentConfig:
    if getattr(args, "config", None) is None:
        return ExperimentConfig.empty()
    try:
        return load_config(args.config)
    except InputError as e:
        raise UsageError(str(e))


def _pick(cli_value, section: dict, key: str, default):
    """Command line beats config file beats built-in default."""
    if cli_value is not None:
        return cli_value
    if key in section and section[key] is not None:
        return section[key]
    return default


def _positive(value, name: str):
    if not isinstance(value, int) or value < 1:
        raise UsageError(f"{name} must be a positive integer, got {value!r}")
    return value


def _seed(text: str) -> int:
    """A seed flag's value: a non-negative integer."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"seeds must be non-negative, got {text}")
    return int(text)


def _ranker_config(args, cfg: ExperimentConfig) -> RankerConfig:
    algorithm = _pick(args.algorithm, cfg.ranker, "algorithm", _DEFAULTS["algorithm"])
    seed = _pick(args.ranker_seed, cfg.ranker, "seed", _DEFAULTS["ranker_seed"])
    stop_at = _pick(getattr(args, "stop_at", None), cfg.ranker, "stop_at", None)
    try:
        return RankerConfig(algorithm=algorithm, seed=seed, stop_at=stop_at)
    except InputError as e:
        raise UsageError(str(e))


def _sampling(args, cfg: ExperimentConfig) -> tuple[int, int]:
    n = _positive(_pick(args.n, cfg.sampling, "n", _DEFAULTS["n"]), "n")
    seed = _pick(args.sample_seed, cfg.sampling, "seed", _DEFAULTS["sample_seed"])
    return n, seed


def cmd_synth(args) -> int:
    cfg = _config(args)
    fields = {
        "groups": args.groups,
        "slots_per_group": args.slots_per_group,
        "candidates": args.candidates,
        "memberships": args.memberships,
        "p_base": args.p_base,
        "seed": args.seed,
    }
    merged = {
        k: _pick(v, cfg.synth, k, getattr(SynthParams, k)) for k, v in fields.items()
    }
    try:
        params = SynthParams(**merged)
    except InputError as e:
        raise UsageError(str(e))
    model = build_synthetic_model(params)
    meta = model_metadata(model)
    meta["generator"] = dict(merged)
    write_model(model, args.out, metadata=meta)
    print(
        f"wrote {args.out}: {model.candidates} candidates, "
        f"{params.groups} groups x {params.slots_per_group} slots"
    )
    return EXIT_OK


def cmd_ingest(args) -> int:
    cfg = _config(args)
    spl = _positive(
        _pick(args.slots_per_label, cfg.ingest, "slots_per_label", 1), "slots_per_label"
    )
    max_clip = _pick(args.max_clip, cfg.ingest, "max_clip", None)
    if max_clip is not None and not 0.0 < max_clip <= 1.0:
        raise UsageError(f"max_clip must lie in (0, 1], got {max_clip}")
    probs = read_prob_triplets(args.probs)
    model = ingest_model(probs, slots_per_label=spl, max_clip=max_clip)
    meta = model_metadata(model)
    meta["source"] = str(args.probs)
    meta["slots_per_label"] = spl
    if max_clip is not None:
        meta["max_clip"] = max_clip
    write_model(model, args.out, metadata=meta)
    print(f"wrote {args.out}: {model.candidates} candidates, {model.slots} slots")
    return EXIT_OK


def cmd_sample(args) -> int:
    cfg = _config(args)
    n, seed = _sampling(args, cfg)
    model, _ = read_model(args.model)
    samples = sample_relevances(model, n, seed)
    edges = write_samples(samples, args.out)
    print(f"wrote {args.out}: {n} samples, {edges} edges total")
    return EXIT_OK


def cmd_rank(args) -> int:
    cfg = _config(args)
    n, sample_seed = _sampling(args, cfg)
    rcfg = _ranker_config(args, cfg)
    use_model = _pick(
        args.use_model_marginals, cfg.ranker, "use_model_marginals", False
    )
    model, _ = read_model(args.model)
    require_slots(model, "rank")
    try:
        rcfg.length(model.candidates)  # refuse a stop_at beyond the model before sampling
    except InputError as e:
        raise UsageError(str(e))
    samples = sample_relevances(model, n, sample_seed)
    stats = RankerStats()
    start = time.perf_counter()
    # The score rules read the model's own coins; the other rankers ignore it.
    ranking = rank(samples, rcfg, marginals=model if use_model else None, stats=stats)
    rank_s = time.perf_counter() - start
    write_ranking(
        ranking,
        args.out,
        algorithm=rcfg.algorithm,
        candidates=model.candidates,
        slots=model.slots,
        n_samples=n,
        sample_seed=sample_seed,
        ranker_seed=rcfg.seed,
    )
    if args.stats_out:
        write_stats(
            {
                **dataclasses.asdict(stats),
                "algorithm": rcfg.algorithm,
                "rank_s": rank_s,
                "peak_rss_mb": _peak_rss_mb(),
            },
            args.stats_out,
        )
    head = ", ".join(str(a) for a in ranking.order[:5])
    print(f"wrote {args.out}: {len(ranking)} candidates ranked by {rcfg.algorithm} [{head}, ...]")
    return EXIT_OK


def _peak_rss_mb() -> float:
    """Peak resident set size so far of this process or of its largest
    finished worker, whichever is larger, in MiB, from ``ru_maxrss`` in KiB
    as Linux reports it."""
    import resource  # POSIX only: imported when a sidecar is asked for

    who = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    return max(resource.getrusage(w).ru_maxrss for w in who) / 1024


def _kmin_spread(per_draw_kmin) -> dict:
    """Smallest, median, 90th-percentile and largest k_min over the fillable
    draws (None when no draw is fillable)."""
    kmins = [k for k in per_draw_kmin if k is not None]
    if not kmins:
        return dict.fromkeys(("kmin_min", "kmin_p50", "kmin_p90", "kmin_max"))
    p50, p90 = np.percentile(kmins, [50, 90]).tolist()
    return {"kmin_min": min(kmins), "kmin_p50": p50, "kmin_p90": p90, "kmin_max": max(kmins)}


def cmd_eval(args) -> int:
    cfg = _config(args)
    draws = _positive(_pick(args.draws, cfg.evaluation, "draws", _DEFAULTS["draws"]), "draws")
    eval_seed = _pick(args.eval_seed, cfg.evaluation, "seed", _DEFAULTS["eval_seed"])
    threads = args.threads if args.threads is not None else (cfg.threads or _DEFAULTS["threads"])
    _positive(threads, "threads")
    model, _ = read_model(args.model)
    ranking, meta = read_ranking(args.ranking)
    if (meta["candidates"], meta["slots"]) != (model.candidates, model.slots):
        raise InputError(
            f"ranking dimensions ({meta['candidates']} x {meta['slots']}) do not "
            f"match the model ({model.candidates} x {model.slots})"
        )
    start = time.perf_counter()
    report = evaluate_ranking(
        ranking,
        model,
        draws,
        eval_seed,
        threads,
        algorithm=meta["algorithm"],
        n_samples=meta["n_samples"],
        sample_seed=meta["sample_seed"],
        config={
            "algorithm": meta["algorithm"],
            "tie_break": meta["tie_break"],
            "seed": meta["ranker_seed"],
            "ranked_for": {"candidates": meta["candidates"], "slots": meta["slots"]},
        },
    )
    eval_s = time.perf_counter() - start
    write_report(report, args.out)
    if args.stats_out:
        write_stats(
            {
                "kmin_method": kmin_method(model),
                "draws": draws,
                "unfillable": report.unfillable_count,
                **_kmin_spread(report.per_draw_kmin),
                "eval_s": eval_s,
                "peak_rss_mb": _peak_rss_mb(),
            },
            args.stats_out,
        )
    mean = "n/a" if report.normalized_mean is None else f"{report.normalized_mean:.4f}"
    std = "n/a" if report.normalized_std is None else f"{report.normalized_std:.4f}"
    print(
        f"wrote {args.out}: {report.algorithm} normalized k_min {mean} +/- {std} "
        f"({report.unfillable_count}/{draws} unfillable)"
    )
    return EXIT_OK


def cmd_report(args) -> int:
    reports = [read_report(p) for p in args.reports]
    text, rows = report_table(reports)
    print(text)
    if args.out:
        write_table(rows, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="matchrank", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_config(p):
        p.add_argument("--config", help="JSON config supplying defaults for flags")

    p = sub.add_parser("synth", help="generate a group-structured synthetic model")
    p.add_argument("--out", required=True)
    p.add_argument("--groups", type=int)
    p.add_argument("--slots-per-group", type=int)
    p.add_argument("--candidates", type=int)
    p.add_argument("--memberships", type=int)
    p.add_argument("--p-base", type=float)
    p.add_argument("--seed", type=_seed)
    add_config(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="build an independent model from a triplet file")
    p.add_argument("--probs", required=True, help="whitespace triplet file")
    p.add_argument("--out", required=True)
    p.add_argument("--slots-per-label", type=int)
    p.add_argument("--max-clip", type=float)
    add_config(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("sample", help="draw relevance samples (debug dump)")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--sample-seed", type=_seed, dest="sample_seed")
    add_config(p)
    p.set_defaults(func=cmd_sample)

    def add_rank_flags(p):
        p.add_argument("--algorithm", choices=ALGORITHMS)
        p.add_argument("--n", type=int, help="number of relevance samples to rank from")
        p.add_argument("--sample-seed", type=_seed, dest="sample_seed")
        p.add_argument("--ranker-seed", type=_seed, dest="ranker_seed")
        p.add_argument(
            "--use-model-marginals",
            action="store_true",
            default=None,
            help="score baselines from model probabilities instead of sample frequencies",
        )

    p = sub.add_parser("rank", help="rank candidates from sampled relevance")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    add_rank_flags(p)
    p.add_argument("--stop-at", type=int, dest="stop_at")
    p.add_argument(
        "--stats-out",
        help="also write the ranker's counters, wall time and peak RSS to this JSON file",
    )
    add_config(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("eval", help="measure a ranking's k_min on fresh draws")
    p.add_argument("--model", required=True, help="model the ground truth is drawn from")
    p.add_argument("--ranking", required=True, help="ranking file produced by `rank`")
    p.add_argument("--out", required=True)
    p.add_argument("--draws", type=int)
    p.add_argument("--eval-seed", type=_seed, dest="eval_seed")
    p.add_argument("--threads", type=int)
    p.add_argument(
        "--stats-out",
        help="also write the k_min method, the per-draw k_min spread, wall time "
        "and peak RSS to this JSON file",
    )
    add_config(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="tabulate report files")
    p.add_argument("reports", nargs="+")
    p.add_argument("--out", help="also write the table as CSV")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except InputError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except ContractError as e:
        print(f"internal error: {e}", file=sys.stderr)
        if e.__cause__ is not None:
            traceback.print_exception(e.__cause__)
        return EXIT_INTERNAL
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
