"""How wrong can the assumed base rate be before the ranking degrades?

Ground truth always comes from a generator with the true base rate; the
ranker is fed samples from generators built with each assumed rate instead
(same seed, so memberships and noise match and only the rate level shifts).
A matched rate should win, and overestimating relevance should hurt more
than underestimating it — overconfident rankings waste their prefix on
candidates that turn out irrelevant.
"""
import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from matchrank.evaluation import misspecification_run
from matchrank.fileio import report_table, write_report, write_text
from matchrank.ranker import RankerConfig
from matchrank.synthgen import SynthParams


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--true-p-base", type=float, default=0.3)
    ap.add_argument(
        "--assumed",
        type=float,
        nargs="+",
        default=[0.1, 0.2, 0.3, 0.4, 0.5],
        help="assumed base rates to rank under",
    )
    ap.add_argument("--candidates", type=int, default=2000)
    ap.add_argument("--groups", type=int, default=10)
    ap.add_argument("--slots-per-group", type=int, default=10)
    ap.add_argument("--memberships", type=int, default=2)
    ap.add_argument("--model-seed", type=int, default=0)
    ap.add_argument("--n-samples", type=int, default=200)
    ap.add_argument("--draws", type=int, default=100)
    ap.add_argument("--sample-seed", type=int, default=1)
    ap.add_argument("--eval-seed", type=int, default=2)
    ap.add_argument("--algorithm", default="matchrank-lazy")
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--out-dir", default="results/misspecification")
    args = ap.parse_args()

    params = SynthParams(
        groups=args.groups,
        slots_per_group=args.slots_per_group,
        candidates=args.candidates,
        memberships=args.memberships,
        p_base=args.true_p_base,
        seed=args.model_seed,
    )
    t0 = time.time()
    reports = misspecification_run(
        params,
        args.assumed,
        RankerConfig(algorithm=args.algorithm),
        args.n_samples,
        args.sample_seed,
        args.draws,
        args.eval_seed,
        threads=args.threads,
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for rep in reports:
        write_report(rep, out / f"p_base_{rep.config['assumed_p_base']}.json")

    text, _ = report_table(reports)
    print(text)
    write_text(out / "table.txt", text + "\n")
    print(f"\n{len(reports)} runs in {time.time()-t0:.1f}s; reports in {out}/")


if __name__ == "__main__":
    main()
