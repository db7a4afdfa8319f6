"""Workloads and the pipeline round the benchmark times.

A round makes the public calls the ``matchrank`` command line makes, in the
same order: read the model file, ``sample_relevances``, then per algorithm
``rank``, write and read the ranking file, and for evaluated rankings
``evaluate_ranking`` and ``write_report``.  Set-up builds or ingests the
model and writes and reads it back.  Every call goes through
:meth:`Pipeline.call`, which counts it, times it and, in a traced round,
opens a span named after it.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from matchrank.core import PURPOSE_EVAL, substream
from matchrank.evaluation import evaluate_ranking
from matchrank.fileio import (
    ingest_model,
    read_model,
    read_prob_triplets,
    read_ranking,
    write_model,
    write_ranking,
    write_report,
)
from matchrank.ranker import GREEDY_ALGORITHMS, RankerConfig, RankerStats, rank
from matchrank.synthgen import (
    SynthParams,
    build_synthetic_model,
    draw_relevance,
    model_metadata,
    sample_relevances,
)

import checks

#: Relevance samples the ranker works from.
N_SAMPLES = 200
#: Seeds of the command line's acceptance runs; ``--seed s`` adds s to each.
BASE_SEEDS = {"model": 0, "sample": 1, "eval": 2, "ranker": 0}


@dataclass(frozen=True)
class GroupModel:
    """A synthetic group-structured model (``matchrank synth``)."""

    candidates: int
    groups: int
    slots_per_group: int
    memberships: int = 2


@dataclass(frozen=True)
class TripletModel:
    """An independent model ingested from a triplet file (``matchrank ingest``).

    Each candidate gets `labels_per_candidate` distinct labels, uniformly,
    each with a Beta(`beta_a`, `beta_b`) probability.
    """

    candidates: int
    labels: int
    labels_per_candidate: int
    beta_a: float
    beta_b: float
    slots_per_label: int


@dataclass(frozen=True)
class Workload:
    name: str
    model: GroupModel | TripletModel
    algorithms: tuple[str, ...]  # ranked every round, in this order
    draws: dict  # algorithm -> evaluation draws, for the evaluated rankings
    #: Whether the run's times are scaled by the host-speed probe (see
    #: ``run.probe``).  The probe follows interpreter-bound work; stages bound
    #: by memory and page mapping do not follow it, and scaling them added noise.
    host_scaled: bool = True

    @property
    def headline(self) -> str:
        """The ranking whose quality ``kmin_norm`` reports."""
        return next(a for a in self.algorithms if a in self.draws)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "group-greedy",
            GroupModel(candidates=500, groups=10, slots_per_group=10),
            ("matchrank-lazy",),
            {"matchrank-lazy": 100},
        ),
        Workload(
            "indep-greedy",
            TripletModel(
                candidates=450, labels=30, labels_per_candidate=3,
                beta_a=2.0, beta_b=3.0, slots_per_label=3,
            ),
            ("matchrank-lazy", "matchrank"),
            {"matchrank-lazy": 100},
        ),
        Workload(
            "baseline-eval",
            GroupModel(candidates=10_000, groups=10, slots_per_group=50),
            ("ntr", "random"),
            {"ntr": 8, "random": 4},
            host_scaled=False,
        ),
    )
}


def seeds_for(seed: int) -> dict:
    return {k: v + seed for k, v in BASE_SEEDS.items()}


def write_triplets(spec: TripletModel, seed: int, path: Path):
    """Write the probability triplet file of `spec`, drawn from `seed` alone."""
    rng = np.random.default_rng(seed)
    c, k = spec.candidates, spec.labels_per_candidate
    labels = np.sort(np.argsort(rng.random((c, spec.labels)), axis=1)[:, :k], axis=1)
    probs = rng.beta(spec.beta_a, spec.beta_b, size=(c, k))
    lines = [f"{c} {spec.labels} {c * k}"]
    lines += [
        f"{a} {t} {p!r}"
        for a, t, p in zip(
            np.repeat(np.arange(c), k).tolist(), labels.ravel().tolist(), probs.ravel().tolist()
        )
    ]
    path.write_text("\n".join(lines) + "\n")


@dataclass
class Round:
    """What one round produced: stage times, and the outputs the checks read."""

    times: dict  # span name -> seconds
    pipeline_s: float
    model: object = None
    samples: tuple = ()
    rankings: dict = field(default_factory=dict)  # algorithm -> Ranking (read back from file)
    stats: dict = field(default_factory=dict)  # algorithm -> RankerStats
    reports: dict = field(default_factory=dict)  # algorithm -> EvalReport

    @property
    def rank_s(self) -> float:
        return sum(v for k, v in self.times.items() if k.startswith("ranker.rank."))

    def digest(self) -> tuple:
        """Everything a round must reproduce exactly."""
        return (
            tuple((a, r.order.tobytes(), r.prefix_gain) for a, r in self.rankings.items()),
            tuple((a, r.per_draw_kmin) for a, r in self.reports.items()),
        )


class Pipeline:
    """Runs set-up and rounds of one workload inside `workdir`."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.w = workload
        self.seeds = seeds_for(seed)
        self.dir = workdir
        self.model_path = workdir / "model.json"
        self.triplet_path = workdir / "probs.txt"
        self.attempted = 0
        self.failed = 0
        self.tracer = None
        self._times: dict = defaultdict(float)

    def call(self, name: str, fn, *args, **kwargs):
        """One public call of the program: counted, timed, and traced if a tracer is set."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            with self.tracer.span(name) if self.tracer else nullcontext():
                out = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise
        self._times[name] += time.perf_counter() - start
        return out

    def write_inputs(self):
        """The benchmark's own input file; written once, outside any timing."""
        if isinstance(self.w.model, TripletModel):
            write_triplets(self.w.model, self.seeds["model"], self.triplet_path)

    def setup(self) -> float:
        """Build or ingest the model, write it and read it back; returns seconds."""
        spec = self.w.model
        start = time.perf_counter()
        if isinstance(spec, GroupModel):
            params = SynthParams(
                groups=spec.groups, slots_per_group=spec.slots_per_group,
                candidates=spec.candidates, memberships=spec.memberships,
                seed=self.seeds["model"],
            )
            model = self.call("synthgen.build_model", build_synthetic_model, params)
        else:
            probs = self.call("fileio.read_prob_triplets", read_prob_triplets, self.triplet_path)
            model = self.call(
                "fileio.ingest_model", ingest_model, probs, slots_per_label=spec.slots_per_label
            )
        meta = self.call("synthgen.model_metadata", model_metadata, model)
        self.call("fileio.write_model", write_model, model, self.model_path, metadata=meta)
        self.call("fileio.read_model", read_model, self.model_path)
        return time.perf_counter() - start

    def run_round(self) -> Round:
        self._times = defaultdict(float)
        n, s = N_SAMPLES, self.seeds
        start = time.perf_counter()
        model, _ = self.call("fileio.read_model", read_model, self.model_path)
        samples = self.call("synthgen.sample_relevances", sample_relevances, model, n, s["sample"])
        out = Round(times=self._times, pipeline_s=0.0, model=model)
        for alg in self.w.algorithms:
            stats = RankerStats()
            ranking = self.call(
                f"ranker.rank.{alg}", rank, samples,
                RankerConfig(algorithm=alg, seed=s["ranker"]), stats=stats,
            )
            path = self.dir / f"ranking-{alg}.json"
            self.call(
                "fileio.write_ranking", write_ranking, ranking, path, algorithm=alg,
                candidates=model.candidates, slots=model.slots, n_samples=n,
                sample_seed=s["sample"], ranker_seed=s["ranker"],
            )
            ranking, meta = self.call("fileio.read_ranking", read_ranking, path)
            out.rankings[alg], out.stats[alg] = ranking, stats
            if alg not in self.w.draws:
                continue
            report = self.call(
                "evaluation.evaluate_ranking", evaluate_ranking, ranking, model,
                self.w.draws[alg], s["eval"], 1,
                algorithm=meta["algorithm"], n_samples=meta["n_samples"],
                sample_seed=meta["sample_seed"],
                config={
                    "algorithm": meta["algorithm"],
                    "tie_break": meta["tie_break"],
                    "seed": meta["ranker_seed"],
                    "ranked_for": {"candidates": meta["candidates"], "slots": meta["slots"]},
                },
            )
            self.call("fileio.write_report", write_report, report, self.dir / f"report-{alg}.json")
            out.reports[alg] = report
        out.pipeline_s = time.perf_counter() - start
        out.samples = samples.samples
        return out

    # ------------------------------------------------------------------ checks

    def check(self, rnd: Round) -> list[str]:
        """Run every output check on `rnd`; returns the failures."""
        failures = []

        def attempt(fn, *args):
            try:
                fn(*args)
            except checks.CheckError as e:
                failures.append(str(e))

        model = rnd.model
        c = model.candidates
        for alg, ranking in rnd.rankings.items():
            attempt(checks.check_permutation, ranking.order, c, alg)
            if alg in GREEDY_ALGORITHMS:
                pg = ranking.prefix_gain
                productive = int(np.count_nonzero(np.diff(np.concatenate([[0], pg]))))
                lengths = sorted({1, 2, max(1, productive // 2), max(1, productive), c})
                attempt(checks.check_prefix_gain, rnd.samples, ranking.order, pg, lengths, alg)
                attempt(checks.check_gains_nonincreasing, pg, alg)
            if alg == "ntr":
                attempt(checks.check_score_order, ranking.order, checks.ntr_scores(rnd.samples), alg)
        greedy = [a for a in rnd.rankings if a in GREEDY_ALGORITHMS]
        for other in greedy[1:]:
            attempt(checks.check_same_ranking, rnd.rankings[greedy[0]], rnd.rankings[other],
                    f"{greedy[0]} vs {other}")
        for alg, report in rnd.reports.items():
            attempt(checks.check_report, report.normalized_mean, report.unfillable_count, alg)
            d = report.draws
            for i in sorted({0, d // 2, d - 1}):
                draw = draw_relevance(model, substream(self.seeds["eval"], PURPOSE_EVAL, i))
                attempt(checks.check_kmin, draw, rnd.rankings[alg].order,
                        report.per_draw_kmin[i], f"{alg} draw {i}")
        return failures
