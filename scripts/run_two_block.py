"""Two-population benchmark: rank-by-score stalls, matching-aware does not.

The model splits candidates and slots into two halves that only see each
other: the first 500 candidates hit the first 5 slots with probability 0.5,
the remaining 500 hit the other 5 slots with probability 0.4.  Every score
rule puts the entire stronger half first, so the weaker half's slots stay
empty until rank 500+; the greedy ranker interleaves the halves.

Writes one report JSON per algorithm plus a combined table.
"""
import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from matchrank.evaluation import evaluate
from matchrank.fileio import report_table, write_report, write_text
from matchrank.ranker import ALGORITHMS, RankerConfig
from matchrank.synthgen import two_block_model


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--candidates", type=int, default=1000)
    ap.add_argument("--slots", type=int, default=10)
    ap.add_argument("--p-first", type=float, default=0.5)
    ap.add_argument("--p-second", type=float, default=0.4)
    ap.add_argument("--n-samples", type=int, default=200)
    ap.add_argument("--draws", type=int, default=100)
    ap.add_argument("--sample-seed", type=int, default=1)
    ap.add_argument("--eval-seed", type=int, default=2)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--out-dir", default="results/two_block")
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model = two_block_model(args.candidates, args.slots, args.p_first, args.p_second)

    reports = []
    for algo in ALGORITHMS:
        if algo == "matchrank":
            continue  # identical output to matchrank-lazy, skip the duplicate
        t0 = time.time()
        rep = evaluate(
            RankerConfig(algorithm=algo),
            model,
            args.n_samples,
            args.sample_seed,
            args.draws,
            args.eval_seed,
            threads=args.threads,
        )
        write_report(rep, out / f"{algo}.json")
        reports.append(rep)
        mean = "n/a" if rep.normalized_mean is None else f"{rep.normalized_mean:.2f}"
        print(f"{algo:>16}: mean {mean}  ({time.time()-t0:.1f}s)")

    text, _ = report_table(reports)
    print()
    print(text)
    write_text(out / "table.txt", text + "\n")
    print(f"\nreports in {out}/")


if __name__ == "__main__":
    main()
