"""Spans and counters for the traced benchmark run.

The program carries no tracing of its own.  :meth:`Tracer.installed` swaps
the names that one module imports from the next layer for timing wrappers,
and puts the originals back when it exits:

* the functions ``matchrank.ranker`` imports from ``matchrank.matching``,
  recorded as ``matching.rank.<fn>``, plus ``ranker.empirical_marginals``;
* the functions ``matchrank.evaluation`` imports from ``matchrank.matching``,
  recorded as ``matching.eval.<fn>``, and its ``draw_relevance``, recorded as
  one span per draw (``synthgen.eval.draw``);
* ``draw_relevance`` as ``matchrank.synthgen.sample_relevances`` calls it
  (``synthgen.sample.draw``).

The pipeline opens a span around each public call it makes (see
``pipeline.py``).  Calls that happen many thousand times per round (the
matching functions, sample draws) are kept as a count and a summed time;
all other spans are kept whole.  Everything stays in memory until the run
writes it out.
"""
from __future__ import annotations

import inspect
import time
from contextlib import contextmanager

import matchrank.evaluation
import matchrank.matching
import matchrank.ranker
import matchrank.synthgen

#: The matching functions whose calls and time are reported per caller.
MATCHING_FNS = (
    "augmenting_slots",
    "commit_add",
    "commit_nonaugmenting",
    "max_matching_size",
    "scan_augmenting_candidates",
)


def _matching_imports(module) -> list[str]:
    """Names of the functions `module` imports from ``matchrank.matching``."""
    return sorted(
        name
        for name, value in vars(module).items()
        if inspect.isfunction(value) and value.__module__ == matchrank.matching.__name__
    )


class Tracer:
    """Spans of one traced round (or of one traced set-up).

    ``spans`` holds ``[name, start, end, parent, child_s]`` lists, where
    `parent` is the index of the enclosing span (or -1) and `child_s` the
    time covered by the span's children.  ``counters`` maps a name to
    ``[calls, seconds]`` for the high-frequency calls.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, list] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        record = [name, time.perf_counter(), 0.0, parent, 0.0]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()
            if parent >= 0:
                self.spans[parent][4] += record[2] - record[1]

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _counted(self, name: str, fn):
        counter = self.counters.setdefault(name, [0, 0.0])
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                counter[0] += 1
                counter[1] += took
                if open_:
                    spans[open_[-1]][4] += took

        return wrapper

    @contextmanager
    def installed(self):
        """Route the layer boundaries listed in the module docstring through this tracer."""
        patches = [
            (matchrank.ranker, name, self._counted(f"matching.rank.{name}", getattr(matchrank.ranker, name)))
            for name in _matching_imports(matchrank.ranker)
        ]
        patches += [
            (matchrank.evaluation, name, self._counted(f"matching.eval.{name}", getattr(matchrank.evaluation, name)))
            for name in _matching_imports(matchrank.evaluation)
        ]
        patches += [
            (matchrank.ranker, "empirical_marginals",
             self._spanned("ranker.empirical_marginals", matchrank.ranker.empirical_marginals)),
            (matchrank.evaluation, "draw_relevance",
             self._spanned("synthgen.eval.draw", matchrank.evaluation.draw_relevance)),
            (matchrank.synthgen, "draw_relevance",
             self._counted("synthgen.sample.draw", matchrank.synthgen.draw_relevance)),
        ]
        saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
        try:
            for module, name, wrapper in patches:
                setattr(module, name, wrapper)
            yield self
        finally:
            for module, name, original in saved:
                setattr(module, name, original)

    # ---------------------------------------------------------------- queries

    def total(self, name: str) -> float:
        """Summed duration of the spans called `name`."""
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def self_time(self, prefix: str) -> float:
        """Summed duration of the spans whose name starts with `prefix`, minus their children."""
        return sum(s[2] - s[1] - s[4] for s in self.spans if s[0].startswith(prefix))

    def counter(self, name: str) -> tuple[int, float]:
        calls, seconds = self.counters.get(name, (0, 0.0))
        return calls, seconds

    def walk_ms(self) -> list[float]:
        """Per-draw walk time inside ``evaluate_ranking``, in ms.

        A draw's walk runs from the end of its ``draw_relevance`` call to the
        start of the next one, or to the end of ``evaluate_ranking`` for the
        last draw.
        """
        out = []
        for i, s in enumerate(self.spans):
            if s[0] != "evaluation.evaluate_ranking":
                continue
            draws = [d for d in self.spans if d[3] == i and d[0] == "synthgen.eval.draw"]
            ends = [d[1] for d in draws[1:]] + [s[2]]
            out += [(e - d[2]) * 1e3 for d, e in zip(draws, ends)]
        return out

    def to_json(self) -> dict:
        return {
            "spans": [[n, a, b, p] for n, a, b, p, _ in self.spans],
            "counters": self.counters,
        }
