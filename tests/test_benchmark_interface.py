"""The names of the library that the benchmark in ``perfbench/`` imports,
patches or reads.

The benchmark changes only with a benchmark change, never with the library,
so a library change that deletes or renames one of these names breaks every
benchmark run.  This test finds that in seconds.  The imports are read from
the benchmark's own files; the names it patches or reads as attributes are
listed here.
"""
import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def benchmark_imports() -> list[tuple[str, str | None]]:
    """(module, name) for every ``from matchrank... import name`` in the
    benchmark's files, and (module, None) for every ``import matchrank...``."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "matchrank":
                found.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                found.update((a.name, None) for a in node.names if a.name.split(".")[0] == "matchrank")
    return sorted(found, key=str)


#: What the tracer (``perfbench/tracing.py``) patches by name, and what the
#: pipeline, the checks and the per-layer report read off the objects the
#: library returns.
PATCHED_OR_READ = [
    ("matchrank.evaluation", "draw_relevance"),
    ("matchrank.synthgen", "draw_relevance"),
    ("matchrank.ranker", "empirical_marginals"),
    ("matchrank.ranker", "GREEDY_ALGORITHMS"),
    ("matchrank.core", "SampleSet.samples"),
    ("matchrank.core", "RelevanceMatrix.degrees"),
    ("matchrank.core", "RelevanceMatrix.edge_count"),
]


def test_the_imports_are_found():
    modules = {module for module, _ in benchmark_imports()}
    assert {"matchrank.matching", "matchrank.fileio", "matchrank.core", "matchrank.synthgen"} <= modules


@pytest.mark.parametrize("module, name", benchmark_imports() + PATCHED_OR_READ)
def test_name_exists(module, name):
    value = importlib.import_module(module)
    for part in name.split(".") if name else ():
        value = getattr(value, part)
