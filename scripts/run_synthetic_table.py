"""Benchmark every ranking algorithm on the group-structured generator.

Builds one synthetic model, ranks with each algorithm from the same sampled
relevance matrices, and measures normalized fill depth (k_min / slots) on
fresh ground-truth draws.  Defaults match the generator defaults (10 groups
of 50 slots, 10000 candidates, 2 memberships, base rate 0.3); pass
--candidates/--slots-per-group to run a smaller variant.

Writes one report JSON per algorithm plus a combined table.
"""
import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from matchrank.evaluation import evaluate
from matchrank.fileio import report_table, write_report, write_text
from matchrank.ranker import ALGORITHMS, RankerConfig, RankerStats
from matchrank.synthgen import SynthParams, build_synthetic_model, model_metadata


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--groups", type=int, default=10)
    ap.add_argument("--slots-per-group", type=int, default=50)
    ap.add_argument("--candidates", type=int, default=10_000)
    ap.add_argument("--memberships", type=int, default=2)
    ap.add_argument("--p-base", type=float, default=0.3)
    ap.add_argument("--model-seed", type=int, default=0)
    ap.add_argument("--n-samples", type=int, default=200)
    ap.add_argument("--draws", type=int, default=100)
    ap.add_argument("--sample-seed", type=int, default=1)
    ap.add_argument("--eval-seed", type=int, default=2)
    ap.add_argument("--ranker-seed", type=int, default=0)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--out-dir", default="results/synthetic")
    args = ap.parse_args()

    params = SynthParams(
        groups=args.groups,
        slots_per_group=args.slots_per_group,
        candidates=args.candidates,
        memberships=args.memberships,
        p_base=args.p_base,
        seed=args.model_seed,
    )
    model = build_synthetic_model(params)
    meta = model_metadata(model)
    print(
        f"model: {meta['candidates']} candidates, {meta['slots']} slots, "
        f"group sizes {meta['members_per_group']}"
    )

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    reports = []
    for algo in ALGORITHMS:
        if algo == "matchrank":
            continue  # identical output to matchrank-lazy, skip the duplicate
        t0 = time.time()
        stats = RankerStats()
        rep = evaluate(
            RankerConfig(algorithm=algo, seed=args.ranker_seed),
            model,
            args.n_samples,
            args.sample_seed,
            args.draws,
            args.eval_seed,
            threads=args.threads,
            stats=stats,
        )
        write_report(rep, out / f"{algo}.json")
        reports.append(rep)
        mean = "n/a" if rep.normalized_mean is None else f"{rep.normalized_mean:.3f}"
        extra = f", {stats.gain_evals} gain evals" if "matchrank" in algo else ""
        print(f"{algo:>16}: mean {mean}  ({time.time()-t0:.1f}s{extra})")

    text, _ = report_table(reports)
    print()
    print(text)
    write_text(out / "table.txt", text + "\n")
    print(f"\nreports in {out}/")


if __name__ == "__main__":
    main()
