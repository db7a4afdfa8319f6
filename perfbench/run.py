"""End-to-end and per-layer benchmark of the matchrank pipeline.

Run from the root of a checkout (matchrank is imported from its ``src``)::

    python3 perfbench/run.py --workload group-greedy --seed 0 --seconds 40 --trace 0

One invocation runs one workload in its own process, in iterations for
``--seconds`` (an iteration starts only if one as long as the last would end
in time; at least one runs): host-speed probes, set-up several times, then one
whole pipeline round.  The output checks run on the last round.  Times are
medians over the run, scaled to the reference host speed (see :func:`probe`).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics, including the
tracing overhead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The files the pipeline writes,
and for traced runs ``trace.json``, go to
``perfbench/out/<workload>-seed<s>-trace<t>/``.  See README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

# numpy advises the kernel to back large arrays with transparent huge pages.
# Whether it gets them depends on the memory fragmentation of the whole host,
# and baseline-eval allocates a fresh 40 MB array per sample in `ntr`: with the
# advice its rank_s ranged from 2.4 to 4.9 s between runs an hour apart.  The
# benchmark turns the advice off, before numpy is imported, for a slower but
# steadier figure (see README.md).
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Before every round, set-up is repeated at least this many times and until
#: this many seconds have passed (at most ``SETUP_MAX_REPEATS``); ``setup_s``
#: is the median over all repetitions of the run.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 0.25
SETUP_MAX_REPEATS = 40
#: Host-speed probes run before every round, and the median probe time that
#: defines the reference host speed (see :func:`probe`).
PROBES = 15
PROBE_REF_S = 0.010
#: Algorithms whose rank time is reported per layer.
RANKED = ("matchrank-lazy", "matchrank", "ntr", "random")
MB = float(2**20)

END_TO_END = {
    "setup_s": "s",
    "sample_s": "s",
    "rank_s": "s",
    "eval_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "kmin_norm": "slots",
}


def _per_layer_units() -> dict:
    from tracing import MATCHING_FNS

    units = {
        "synthgen.build_model_s": "s",
        "synthgen.sample.draw_s": "s",
        "synthgen.eval.draw_s": "s",
        "synthgen.sample_edges": "count",
        "synthgen.sample_mb": "MB",
    }
    units.update({f"ranker.rank_s.{a}": "s" for a in RANKED})
    for name in ("rounds", "productive_rounds", "zero_flushed", "gain_evals", "eager_gain_evals"):
        units[f"ranker.{name}"] = "count"
    units["ranker.useful_eval_ratio"] = "ratio"
    units["ranker.empirical_marginals_s"] = "s"
    units["ranker.self_s"] = "s"
    for caller in ("rank", "eval"):
        for fn in MATCHING_FNS:
            units[f"matching.{caller}.{fn}.calls"] = "count"
            units[f"matching.{caller}.{fn}.s"] = "s"
    units.update({
        "evaluation.kmin_ms.p50": "ms",
        "evaluation.kmin_ms.tail": "ms",
        "evaluation.kmin_ms.tail_pct": "%",
        "evaluation.kmin_draws": "count",
        "evaluation.candidates_walked": "count",
        "evaluation.self_s": "s",
    })
    for name in ("read_prob_triplets", "ingest_model", "write_model", "read_model",
                 "write_ranking", "read_ranking", "write_report"):
        units[f"fileio.{name}_s"] = "s"
    units["fileio.model_mb"] = "MB"
    units["trace.pipeline_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["host.probe_ms"] = "ms"
    return units


def _round_layers(rnd, tracer, workload) -> dict:
    """Per-layer values of one traced round."""
    from matchrank.ranker import GREEDY_ALGORITHMS
    from tracing import MATCHING_FNS

    v = {
        "synthgen.sample.draw_s": tracer.counter("synthgen.sample.draw")[1],
        "synthgen.eval.draw_s": tracer.total("synthgen.eval.draw"),
        "synthgen.sample_edges": statistics.fmean(m.edge_count for m in rnd.samples),
        "synthgen.sample_mb": sum(m.indptr.nbytes + m.indices.nbytes for m in rnd.samples) / MB,
        "ranker.empirical_marginals_s": tracer.total("ranker.empirical_marginals"),
        "ranker.self_s": tracer.self_time("ranker.rank."),
        "evaluation.candidates_walked": sum(
            k for r in rnd.reports.values() for k in r.per_draw_kmin if k is not None
        ),
        "evaluation.self_s": tracer.self_time("evaluation.evaluate_ranking"),
    }
    for a in RANKED:
        v[f"ranker.rank_s.{a}"] = tracer.total(f"ranker.rank.{a}")
    greedy = [a for a in workload.algorithms if a in GREEDY_ALGORITHMS]
    if greedy:
        st = rnd.stats[greedy[0]]
        v["ranker.rounds"] = st.rounds
        v["ranker.productive_rounds"] = st.rounds - st.zero_flushed
        v["ranker.zero_flushed"] = st.zero_flushed
        v["ranker.gain_evals"] = st.gain_evals
        v["ranker.useful_eval_ratio"] = (st.rounds - st.zero_flushed) / st.gain_evals
    if "matchrank" in rnd.stats:
        v["ranker.eager_gain_evals"] = rnd.stats["matchrank"].gain_evals
    for caller in ("rank", "eval"):
        for fn in MATCHING_FNS:
            calls, seconds = tracer.counter(f"matching.{caller}.{fn}")
            v[f"matching.{caller}.{fn}.calls"] = calls
            v[f"matching.{caller}.{fn}.s"] = seconds
    for name in ("read_model", "write_ranking", "read_ranking", "write_report"):
        v[f"fileio.{name}_s"] = tracer.total(f"fileio.{name}")
    v["trace.pipeline_s"] = rnd.pipeline_s
    return v


def _setup_layers(tracer) -> dict:
    return {
        "synthgen.build_model_s": tracer.total("synthgen.build_model"),
        "fileio.read_prob_triplets_s": tracer.total("fileio.read_prob_triplets"),
        "fileio.ingest_model_s": tracer.total("fileio.ingest_model"),
        "fileio.write_model_s": tracer.total("fileio.write_model"),
    }


_PROBE_TEXT = json.dumps(
    [{"id": i, "name": f"c{i}", "probs": [0.1 * (i % 7), 0.2, 0.3]} for i in range(3000)]
)
_PROBE_FLOATS = np.random.default_rng(1).random(20_000).tolist()


def probe() -> float:
    """Seconds taken by a fixed piece of work: the host-speed probe.

    It parses a 3,000-record JSON text and sorts 20,000 floats: interpreter
    work over many small objects, as the ranker and the matching walk do.  It
    takes about ``PROBE_REF_S`` on the reference host.  The throughput of a
    shared host drifts by more than the metrics' bounds over minutes, and a
    whole run drifts with it, so every time a run reports is multiplied by
    ``PROBE_REF_S / median probe time of the run``: the time the stage would
    take at the reference host speed.  Workloads whose stages are bound by
    memory rather than the interpreter are not scaled
    (``Workload.host_scaled``).  The probe runs between rounds, never inside a
    timed stage, and is the benchmark's own code, so it does not change with
    the program.  ``host.probe_ms`` and the table printed before the result
    give the median probe time and the unscaled figures.
    """
    start = time.perf_counter()
    json.loads(_PROBE_TEXT)
    sorted(_PROBE_FLOATS)
    return time.perf_counter() - start


def _scaled(values: dict, speed: float, units: dict) -> dict:
    """`values` with every time scaled to the reference host speed."""
    return {k: v * speed if units[k] in ("s", "ms") else v for k, v in values.items()}


def _medians(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def _walk_percentiles(walk_ms: list[float]) -> dict:
    """Median per-draw walk time and, from 40 draws on, the highest percentile
    with ten draws beyond it (fewer draws would leave no tail to speak of)."""
    xs = sorted(walk_ms)
    n = len(xs)
    out = {"evaluation.kmin_draws": n}
    if n:
        out["evaluation.kmin_ms.p50"] = statistics.median(xs)
    if n >= 40:
        out["evaluation.kmin_ms.tail"] = xs[n - 11]
        out["evaluation.kmin_ms.tail_pct"] = 100.0 * (n - 10) / n
    return out


def _parse(argv):
    from pipeline import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_checkout_source() -> bool:
    """Put the checkout's ``src`` first on the path; false when it is missing."""
    if not (SRC / "matchrank" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import matchrank

    return Path(matchrank.__file__).resolve().parent == SRC / "matchrank"


def main(argv=None) -> int:
    if not _import_checkout_source():
        print(f"error: matchrank source not found under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    args = _parse(argv)
    from pipeline import WORKLOADS, Pipeline
    from tracing import Tracer

    workload = WORKLOADS[args.workload]
    workdir = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    pipe = Pipeline(workload, args.seed, workdir)
    traces = {"workload": workload.name, "seed": args.seed, "setup": [], "rounds": []}

    def traced(tracer):
        pipe.tracer = tracer
        return tracer.installed() if tracer else nullcontext()

    try:
        pipe.write_inputs()
        # One iteration: host probes, set-up repetitions, one round.  Set-up is
        # repeated in every iteration so that its median covers the whole run.
        probes, setup_s, setup_layers, plain, layers, walk_ms, digests = [], [], [], [], [], [], []
        start = time.perf_counter()
        while True:
            it_start = time.perf_counter()
            gc.collect()
            trace_round = bool(args.trace) and len(plain) > len(layers)
            probes += [probe() for _ in range(PROBES)]
            reps_start, reps = time.perf_counter(), 0
            while reps < SETUP_MIN_REPEATS or (
                time.perf_counter() - reps_start < SETUP_MIN_SECONDS and reps < SETUP_MAX_REPEATS
            ):
                tracer = Tracer() if trace_round else None
                with traced(tracer):
                    setup_s.append(pipe.setup())
                reps += 1
                if tracer:
                    setup_layers.append(_setup_layers(tracer))
                    traces["setup"].append(tracer.to_json())

            tracer = Tracer() if trace_round else None
            with traced(tracer):
                rnd = pipe.run_round()
            digests.append(rnd.digest())
            print(f"round {len(digests)}{' traced' if tracer else ''}: pipeline_s={rnd.pipeline_s:.4f} "
                  f"rank_s={rnd.rank_s:.4f} probe_ms={1e3 * statistics.median(probes[-PROBES:]):.3f}",
                  file=sys.stderr)
            if tracer:
                layers.append(_round_layers(rnd, tracer, workload))
                walk_ms += tracer.walk_ms()
                traces["rounds"].append(tracer.to_json())
            else:
                plain.append(rnd)
            # Start another iteration only if one as long as the last fits the time left.
            now = time.perf_counter()
            if now - start + (now - it_start) > args.seconds and (not args.trace or layers):
                break
            rnd.samples = ()
        probes += [probe() for _ in range(PROBES)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        pipe.tracer = None
        failures = pipe.check(rnd)
    except Exception:
        traceback.print_exc()
        _emit(False, pipe, {})
        return 1

    failures += [
        f"round {i + 1} outputs differ from round 1"
        for i, d in enumerate(digests) if d != digests[0]
    ]
    probe_ms = 1e3 * statistics.median(probes)
    speed = PROBE_REF_S * 1e3 / probe_ms if workload.host_scaled else 1.0
    if args.trace:
        units = _per_layer_units()
        values = dict.fromkeys(units, 0.0)
        values.update(_medians(setup_layers))
        values.update(_medians(layers))
        values.update(_walk_percentiles(walk_ms))
        values["fileio.model_mb"] = pipe.model_path.stat().st_size / MB
        values["trace.overhead_s"] = values["trace.pipeline_s"] - statistics.median(
            r.pipeline_s for r in plain
        )
        values = _scaled(values, speed, units)
        values["host.probe_ms"] = probe_ms
        (workdir / "trace.json").write_text(json.dumps(traces))
    else:
        units = END_TO_END
        values = {
            "setup_s": statistics.median(setup_s),
            "sample_s": statistics.median(r.times["synthgen.sample_relevances"] for r in plain),
            "rank_s": statistics.median(r.rank_s for r in plain),
            "eval_s": statistics.median(r.times["evaluation.evaluate_ranking"] for r in plain),
            "pipeline_s": statistics.median(r.pipeline_s for r in plain),
            "peak_rss_mb": peak_rss_mb,
            "kmin_norm": plain[-1].reports[workload.headline].normalized_mean,
        }
        print("unscaled: " + " ".join(f"{k}={values[k]:.6g}" for k in units if units[k] == "s"))
        values = _scaled(values, speed, units)
    metrics = {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}
    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(f"{workload.name} seed={args.seed} trace={args.trace} rounds={len(plain)}+{len(layers)} "
          f"setups={len(setup_s)} probe_ms={probe_ms:.4f} checks={'pass' if not failures else 'FAIL'}")
    for k, m in metrics.items():
        print(f"  {k:42s} {m['value']:.6g} {m['unit']}")
    _emit(not failures, pipe, metrics)
    return 0 if not failures else 1


def _emit(correct: bool, pipe, metrics: dict):
    print(json.dumps(
        {"correct": correct, "attempted": pipe.attempted, "failed": pipe.failed, "metrics": metrics}
    ))


if __name__ == "__main__":
    sys.exit(main())
