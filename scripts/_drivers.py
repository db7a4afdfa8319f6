"""What the experiment drivers share: the run flags, the loop that ranks and
evaluates every algorithm on one model, and the writer of the reports and
their ``table.txt``.

A driver adds its own model flags to :func:`parser` and builds its model.
Importing this module puts ``src/`` on the import path, so a driver imports
it before ``matchrank``.
"""
import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from matchrank.evaluation import evaluate  # noqa: E402
from matchrank.fileio import report_table, write_report, write_text  # noqa: E402
from matchrank.ranker import ALGORITHMS, GREEDY_ALGORITHMS, RankerConfig, RankerStats  # noqa: E402


def parser(doc: str, out_dir: str) -> argparse.ArgumentParser:
    """A parser described by the first line of `doc`, holding the run flags
    (listed after the driver's own flags in ``--help``); `out_dir` is the
    driver's default ``--out-dir``."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    run = ap.add_argument_group("run options")
    run.add_argument("--n-samples", type=int, default=200)
    run.add_argument("--draws", type=int, default=100)
    run.add_argument("--sample-seed", type=int, default=1)
    run.add_argument("--eval-seed", type=int, default=2)
    run.add_argument("--threads", type=int, default=1)
    run.add_argument("--out-dir", default=out_dir)
    return ap


def rank_all(args, model, ranker_seed: int = 0):
    """Rank `model` by every algorithm, evaluate each ranking and write one
    report per algorithm, ``<algorithm>.json``, and their table."""
    t_start = time.time()
    reports = []
    for algo in ALGORITHMS:
        if algo == "matchrank":
            continue  # ranks as matchrank-lazy does; that report stands for both
        t0 = time.time()
        stats = RankerStats()
        cfg = RankerConfig(algorithm=algo, seed=ranker_seed)
        rep = evaluate(
            cfg, model, args.n_samples, args.sample_seed, args.draws, args.eval_seed,
            threads=args.threads, stats=stats,
        )
        reports.append(rep)
        mean = "n/a" if rep.normalized_mean is None else f"{rep.normalized_mean:.3f}"
        extra = f", {stats.gain_evals} gain evals" if algo in GREEDY_ALGORITHMS else ""
        print(f"{algo:>16}: mean {mean}  ({time.time() - t0:.1f}s{extra})")
    write_reports(args, reports, [rep.algorithm for rep in reports], t_start)


def write_reports(args, reports, names, t_start: float):
    """Write each report to ``<out-dir>/<name>.json`` and their table to
    ``<out-dir>/table.txt``; print the table."""
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for rep, name in zip(reports, names):
        write_report(rep, out / f"{name}.json")
    text, _ = report_table(reports)
    print(f"\n{text}")
    write_text(out / "table.txt", text + "\n")
    print(f"\n{len(reports)} runs in {time.time() - t_start:.1f}s; reports in {out}/")
