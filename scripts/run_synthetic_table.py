"""Benchmark every ranking algorithm on the group-structured generator.

Builds one synthetic model, ranks with each algorithm from the same sampled
relevance matrices, and measures normalized fill depth (k_min / slots) on
fresh ground-truth draws.  Defaults match the generator defaults (10 groups
of 50 slots, 10000 candidates, 2 memberships, base rate 0.3); pass
--candidates/--slots-per-group to run a smaller variant.

Writes one report JSON per algorithm plus a combined table.
"""
import _drivers  # first: puts src/ on the import path
from matchrank.synthgen import SynthParams, build_synthetic_model, model_metadata


def main():
    ap = _drivers.parser(__doc__, "results/synthetic")
    ap.add_argument("--groups", type=int, default=10)
    ap.add_argument("--slots-per-group", type=int, default=50)
    ap.add_argument("--candidates", type=int, default=10_000)
    ap.add_argument("--memberships", type=int, default=2)
    ap.add_argument("--p-base", type=float, default=0.3)
    ap.add_argument("--model-seed", type=int, default=0)
    ap.add_argument("--ranker-seed", type=int, default=0)
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
    _drivers.rank_all(args, model, ranker_seed=args.ranker_seed)


if __name__ == "__main__":
    main()
