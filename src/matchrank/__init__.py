"""Ranking candidates under slot constraints by expected bipartite matching size.

The objective for a prefix X of a ranking is the average, over sampled
relevance matrices, of the maximum bipartite matching size between X and the
slots.  The main ranker greedily maximizes this objective; score-based
baselines and a synthetic generator round out the toolkit.
"""

from .core import (
    ContractError,
    InputError,
    ProbabilityModel,
    Ranking,
    RelevanceMatrix,
    SampleSet,
    SlotLayout,
    UNMATCHED,
    substream,
)
from .matching import max_matching_size
from .ranker import RankerConfig, rank
from .synthgen import SynthParams, build_synthetic_model, sample_relevances
from .evaluation import EvalReport, evaluate, k_min

__version__ = "0.1.0"

__all__ = [
    "ContractError",
    "InputError",
    "ProbabilityModel",
    "Ranking",
    "RelevanceMatrix",
    "SampleSet",
    "SlotLayout",
    "UNMATCHED",
    "substream",
    "max_matching_size",
    "RankerConfig",
    "rank",
    "SynthParams",
    "build_synthetic_model",
    "sample_relevances",
    "EvalReport",
    "evaluate",
    "k_min",
]
