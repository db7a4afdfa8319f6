"""How wrong can the assumed base rate be before the ranking degrades?

Ground truth always comes from a generator with the true base rate; the
ranker is fed samples from generators built with each assumed rate instead
(same seed, so memberships and noise match and only the rate level shifts).
A matched rate should win, and overestimating relevance should hurt more
than underestimating it — overconfident rankings waste their prefix on
candidates that turn out irrelevant.
"""
import time

import _drivers  # first: puts src/ on the import path
from matchrank.evaluation import misspecification_run
from matchrank.ranker import RankerConfig
from matchrank.synthgen import SynthParams


def main():
    ap = _drivers.parser(__doc__, "results/misspecification")
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
    ap.add_argument("--algorithm", default="matchrank-lazy")
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
    names = [f"p_base_{rep.config['assumed_p_base']}" for rep in reports]
    _drivers.write_reports(args, reports, names, t0)


if __name__ == "__main__":
    main()
