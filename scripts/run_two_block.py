"""Two-population benchmark: rank-by-score stalls, matching-aware does not.

The model splits candidates and slots into two halves that only see each
other: the first 500 candidates hit the first 5 slots with probability 0.5,
the remaining 500 hit the other 5 slots with probability 0.4.  Every score
rule puts the entire stronger half first, so the weaker half's slots stay
empty until rank 500+; the greedy ranker interleaves the halves.

Writes one report JSON per algorithm plus a combined table.
"""
import _drivers  # first: puts src/ on the import path
from matchrank.synthgen import two_block_model


def main():
    ap = _drivers.parser(__doc__, "results/two_block")
    ap.add_argument("--candidates", type=int, default=1000)
    ap.add_argument("--slots", type=int, default=10)
    ap.add_argument("--p-first", type=float, default=0.5)
    ap.add_argument("--p-second", type=float, default=0.4)
    args = ap.parse_args()

    model = two_block_model(args.candidates, args.slots, args.p_first, args.p_second)
    _drivers.rank_all(args, model)


if __name__ == "__main__":
    main()
