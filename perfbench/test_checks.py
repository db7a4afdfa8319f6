"""The benchmark's output checks accept the program's outputs and reject corrupted ones.

Run from the repository root::

    python3 -m pytest perfbench/test_checks.py
"""
import json
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np
import pytest

import matchrank.matching
import matchrank.ranker
from matchrank import RankerConfig, SynthParams, build_synthetic_model, rank, sample_relevances
from matchrank.core import PURPOSE_EVAL, Ranking, substream
from matchrank.evaluation import evaluate_ranking
from matchrank.synthgen import draw_relevance

import checks
import run
from tracing import Tracer

DRAWS = 6


@pytest.fixture(scope="module")
def case():
    model = build_synthetic_model(
        SynthParams(groups=3, slots_per_group=4, candidates=60, seed=0)
    )
    samples = sample_relevances(model, 20, 2)
    lazy = rank(samples, RankerConfig("matchrank-lazy"))
    report = evaluate_ranking(
        lazy, model, DRAWS, 2, algorithm="matchrank-lazy", n_samples=20, sample_seed=2
    )
    draws = [draw_relevance(model, substream(2, PURPOSE_EVAL, i)) for i in range(DRAWS)]
    return SimpleNamespace(
        model=model,
        samples=samples.samples,
        lazy=lazy,
        eager=rank(samples, RankerConfig("matchrank")),
        ntr=rank(samples, RankerConfig("ntr")),
        report=report,
        draws=draws,
    )


def swap_top(order):
    out = np.array(order)
    out[[0, 1]] = out[[1, 0]]
    return out


def test_checks_accept_program_outputs(case):
    c = case.model.candidates
    for ranking in (case.lazy, case.eager, case.ntr):
        checks.check_permutation(ranking.order, c, "ranking")
    pg = case.lazy.prefix_gain
    checks.check_prefix_gain(case.samples, case.lazy.order, pg, range(1, c + 1), "lazy")
    checks.check_gains_nonincreasing(pg, "lazy")
    checks.check_same_ranking(case.lazy, case.eager, "lazy vs eager")
    checks.check_score_order(case.ntr.order, checks.ntr_scores(case.samples), "ntr")
    checks.check_report(case.report.normalized_mean, case.report.unfillable_count, "report")
    for draw, kmin in zip(case.draws, case.report.per_draw_kmin):
        checks.check_kmin(draw, case.lazy.order, kmin, "draw")


def test_permutation_check_rejects_repeats_and_gaps(case):
    order = np.array(case.ntr.order)
    with pytest.raises(checks.CheckError):
        checks.check_permutation(np.concatenate([order[:-1], order[:1]]), len(order), "x")
    with pytest.raises(checks.CheckError):
        checks.check_permutation(order[:-1], len(order), "x")


def test_swap_at_top_is_rejected(case):
    swapped = swap_top(case.lazy.order)
    with pytest.raises(checks.CheckError):
        checks.check_same_ranking(Ranking(swapped, case.lazy.prefix_gain), case.eager, "x")
    # The top two differ in their gain on their own, so prefix 1 exposes the swap.
    second_alone = sum(int(m.degrees()[swapped[0]] > 0) for m in case.samples)
    assert second_alone != case.lazy.prefix_gain[0]
    with pytest.raises(checks.CheckError):
        checks.check_prefix_gain(case.samples, swapped, case.lazy.prefix_gain, [1], "x")
    scores = checks.ntr_scores(case.samples)
    assert scores[case.ntr.order[0]] > scores[case.ntr.order[1]]
    with pytest.raises(checks.CheckError):
        checks.check_score_order(swap_top(case.ntr.order), scores, "x")


@pytest.mark.parametrize("off", [-1, 1])
def test_kmin_off_by_one_is_rejected(case, off):
    for draw, kmin in zip(case.draws, case.report.per_draw_kmin):
        with pytest.raises(checks.CheckError):
            checks.check_kmin(draw, case.lazy.order, kmin + off, "x")


def test_raised_prefix_gain_step_is_rejected(case):
    pg = list(case.lazy.prefix_gain)
    step = len(pg) - 2  # inside the zero-gain tail
    assert pg[step] == pg[step - 1]
    raised = pg[:step] + [g + 1 for g in pg[step:]]
    with pytest.raises(checks.CheckError):
        checks.check_prefix_gain(case.samples, case.lazy.order, raised, [1, len(pg)], "x")
    with pytest.raises(checks.CheckError):
        checks.check_gains_nonincreasing(raised, "x")


def test_report_check_rejects_unfillable_and_low_mean():
    with pytest.raises(checks.CheckError):
        checks.check_report(1.2, 1, "x")
    with pytest.raises(checks.CheckError):
        checks.check_report(0.99, 0, "x")
    with pytest.raises(checks.CheckError):
        checks.check_report(None, 0, "x")


def test_tracer_restores_the_program(case):
    original = matchrank.ranker.augmenting_slots
    tracer = Tracer()
    with tracer.installed():
        assert matchrank.ranker.augmenting_slots is not original
        with tracer.span("ranker.rank.matchrank-lazy"):
            rank(sample_relevances(case.model, 5, 1), RankerConfig("matchrank-lazy"))
    assert matchrank.ranker.augmenting_slots is original is matchrank.matching.augmenting_slots
    calls, seconds = tracer.counter("matching.rank.augmenting_slots")
    assert calls > 0 and 0 < seconds < tracer.total("ranker.rank.matchrank-lazy")
    assert 0 < tracer.self_time("ranker.rank.") < tracer.total("ranker.rank.matchrank-lazy")


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run._per_layer_units()
