"""On-disk formats: probability triplets, models, samples, rankings, reports.

All JSON artifacts are written with sorted keys and fixed separators, so a
given in-memory object always serializes to identical bytes — runs can be
compared with ``cmp`` alone.  Parse errors carry file names and line numbers
where lines exist.
"""
from __future__ import annotations

import csv
import io
import json
import os
import stat
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable

import numpy as np

from .core import (
    InputError,
    ProbabilityModel,
    Ranking,
    SampleSet,
    SlotLayout,
    _ID_LIMIT,
    _as_count,
    _owned,
    _require_memory,
)
from .evaluation import EvalReport
from .ranker import ALGORITHMS, TIE_BREAK

__all__ = [
    "read_prob_triplets",
    "ingest_model",
    "write_model",
    "read_model",
    "write_samples",
    "write_stats",
    "write_ranking",
    "read_ranking",
    "write_report",
    "read_report",
    "report_table",
    "write_table",
    "write_text",
    "ExperimentConfig",
    "load_config",
]

MODEL_FORMAT = "matchrank-model"
RANKING_FORMAT = "matchrank-ranking"
REPORT_FORMAT = "matchrank-report"
FORMAT_VERSION = 1


def write_text(path: str | Path, text: str | Iterable[str]):
    """Write `text`, a string or its chunks, to `path` as UTF-8 in place.

    The file is opened without ``O_TRUNC`` and cut to the written length
    afterwards.  On ext4, an open with ``O_TRUNC`` of a file whose last
    write also truncated it waited 40-80 ms, so every write of a path from
    its third on paid that; cutting it to a nonzero length after the write
    never waited, and every writer's text ends with a newline.  A new file
    costs the same either way.  The inode is kept, so links and the file
    mode are too.

    Nothing is fsynced.  A write that fails inside the process leaves the
    file empty, never new bytes followed by old ones, so the readers refuse
    it.  A crash or power loss is another matter: the new length can reach
    the disk before the overwritten pages do, so an overwritten file can
    then hold old bytes, or old and new ones mixed, which may still parse.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    # A pipe or a terminal (``--out /dev/stdout``) has no length to cut.
    regular = stat.S_ISREG(os.fstat(fd).st_mode)
    try:
        with open(fd, "wb", closefd=False) as fh:
            for chunk in (text,) if isinstance(text, str) else text:
                fh.write(chunk.encode())
        if regular:  # to the offset, the bytes written
            os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    except BaseException:
        if regular:
            os.ftruncate(fd, 0)
        raise
    finally:
        os.close(fd)


def _dump_compact(obj, path: str | Path):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    write_text(path, text + "\n")


def _dump_pretty(obj, path: str | Path):
    write_text(path, json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n")


def write_stats(stats: dict, path: str | Path):
    """Write a run's statistics sidecar: work counters, wall time and memory.

    Kept apart from the ranking and report files, whose bytes must not
    depend on timing."""
    _dump_pretty(stats, path)


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token}")


def _read_json(path: str | Path):
    """Parse a JSON file.  ``NaN`` and ``Infinity``, which Python's parser
    accepts by default but JSON does not define, are rejected like any other
    malformed input."""
    try:
        return json.loads(Path(path).read_text(), parse_constant=_reject_constant)
    except FileNotFoundError:
        raise InputError(f"{path}: no such file")
    except ValueError as e:  # JSONDecodeError, undecodable bytes, NaN/Infinity
        raise InputError(f"{path}: not valid JSON ({e})")


def _load_json(path: str | Path, expect_format: str) -> dict:
    obj = _read_json(path)
    if not isinstance(obj, dict) or obj.get("format") != expect_format:
        raise InputError(f"{path}: expected a {expect_format} file")
    if obj.get("version") != FORMAT_VERSION:
        raise InputError(f"{path}: unsupported version {obj.get('version')!r}")
    return obj


def _require(obj: dict, path: str | Path, fields: dict):
    """Check that `obj` has every key of `fields`, each holding a value of
    one of the listed types.  Parsed JSON values have exact types, so a
    boolean never passes for an int."""
    for key, types in fields.items():
        if key not in obj:
            raise InputError(f"{path}: missing field {key!r}")
        if type(obj[key]) not in types:
            raise InputError(f"{path}: field {key!r} has the wrong type")


def _ints(values: list, path: str | Path, key: str, allow_none: bool = False):
    if not all(type(v) is int or (allow_none and v is None) for v in values):
        raise InputError(f"{path}: field {key!r} must hold integers")


# --------------------------------------------------------------------------
# probability triplet text files


def read_prob_triplets(path: str | Path) -> ProbabilityModel:
    """Parse a whitespace triplet file into an independent model.

    Line 1: ``candidates slots nnz``; then nnz lines ``candidate slot p``
    with 0-based ids.  Zero probabilities may be listed but are dropped;
    blank lines and ``#`` comments are allowed.
    """
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise InputError(f"{path}: no such file")
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not a text file ({e})")
    rows = [
        (no, line.split())
        for no, raw in enumerate(text.splitlines(), start=1)
        if (line := raw.split("#")[0].strip())
    ]
    if not rows:
        raise InputError(f"{path}: empty file")
    head_no, head = rows[0]
    # int() and float() also read PEP 515 underscores and the digits of
    # other scripts, which the format does not.  Only a file that holds
    # either has its numbers checked one by one.
    if not text.isascii() or "_" in text:
        for no, parts in rows:
            if not all(t.isascii() and "_" not in t for t in parts):
                what = "header values must be integers" if no == head_no else "malformed numbers"
                raise InputError(f"{path}:{no}: {what}")
    if len(head) != 3:
        raise InputError(f"{path}:{head_no}: header must be 'candidates slots nnz'")
    try:
        c, s, nnz = (int(x) for x in head)
    except ValueError:
        raise InputError(f"{path}:{head_no}: header values must be integers")
    if c < 0 or s < 0 or nnz < 0:
        raise InputError(f"{path}:{head_no}: header values must be non-negative")
    if len(rows) - 1 != nnz:
        raise InputError(
            f"{path}: header promises {nnz} entries but found {len(rows) - 1}"
        )
    entries = []
    for no, parts in rows[1:]:
        if len(parts) != 3:
            raise InputError(f"{path}:{no}: expected 'candidate slot p'")
        try:
            a, t, p = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise InputError(f"{path}:{no}: malformed numbers")
        entries.append((a, t, p))
    try:
        return ProbabilityModel.from_triplets(c, s, entries)
    except InputError as e:
        raise InputError(f"{path}: {e}")


def ingest_model(
    probs: ProbabilityModel,
    slots_per_label: int = 1,
    max_clip: float | None = None,
) -> ProbabilityModel:
    """Independent model over slots from one over labels, such as
    :func:`read_prob_triplets` returns.

    Each slot of `probs` is a label; with ``slots_per_label`` = k, label t
    expands to slots [t*k, (t+1)*k) sharing its probability.  ``max_clip``
    caps every probability (useful when frequencies of 1 would make the
    "or"/"and" scores degenerate).
    """
    if probs.kind != "independent":
        raise InputError(f"ingest takes an independent model, not a {probs.kind} one")
    k = _as_count(slots_per_label, "slots_per_label")
    if k < 1:
        raise InputError("slots_per_label must be at least 1")
    slots = probs.slots * k
    if slots >= _ID_LIMIT:
        raise InputError(
            f"{probs.slots} labels x {k} slots per label exceed the "
            f"int32 slot limit: a model holds fewer than {_ID_LIMIT} slots"
        )
    if max_clip is not None and not 0.0 < max_clip <= 1.0:
        raise InputError("max_clip must lie in (0, 1]")
    indptr, indices, vals = probs.coin_ptr, probs.coin_bins, probs.coin_probs
    if max_clip is not None:
        vals = np.minimum(vals, max_clip)
    if k > 1:
        # An expanded entry holds 20 bytes at the peak (an int64 slot id,
        # its int32 copy and its probability), and a one-slot bin 8.
        entries = vals.size * k
        _require_memory(20 * entries + 8 * slots, f"{entries} entries in {slots} one-slot bins")
        indptr = indptr * k
        base = indices.astype(np.int64) * k
        indices = (base[:, None] + np.arange(k)[None, :]).ravel().astype(np.int32)
        vals = np.repeat(vals, k)
    coins = map(_owned, (indptr, indices, vals))
    return ProbabilityModel.independent(slots, *coins, like=probs.bins)


# --------------------------------------------------------------------------
# model files


def write_model(model: ProbabilityModel, path: str | Path, metadata: dict | None = None):
    obj: dict = {
        "format": MODEL_FORMAT,
        "version": FORMAT_VERSION,
        "kind": model.kind,
        "metadata": metadata or {},
    }
    c = model.candidates
    if model.kind == "group":
        # Every candidate has the same number of coins, its memberships.
        shape = (c, model.coin_bins.size // max(c, 1))
        obj["slots_per_group"] = model.bins.group_sizes.tolist()
        obj["membership"] = model.coin_bins.reshape(shape).tolist()
        obj["group_prob"] = model.coin_probs.reshape(shape).tolist()
    else:  # one coin per stored entry, in one-slot bins: bin t is slot t
        rows = np.repeat(np.arange(c), np.diff(model.coin_ptr))
        obj["candidates"] = c
        obj["slots"] = model.slots
        coins = zip(rows.tolist(), model.coin_bins.tolist(), model.coin_probs.tolist())
        obj["entries"] = list(map(list, coins))
    _dump_compact(obj, path)


def read_model(path: str | Path) -> tuple[ProbabilityModel, dict]:
    obj = _load_json(path, MODEL_FORMAT)
    if obj.get("kind") == "group":
        # SlotLayout would truncate a fractional or boolean slot count.
        _require(obj, path, {"slots_per_group": (list,)})
        _ints(obj["slots_per_group"], path, "slots_per_group")
    try:
        if obj["kind"] == "group":
            # NumPy would read a boolean membership entry as 0 or 1.  The
            # entries' types are collected in one pass that runs in C.
            if not set(map(type, chain.from_iterable(obj["membership"]))) <= {int}:
                raise InputError("membership must be integers")
            model = ProbabilityModel.group_structured(
                SlotLayout(obj["slots_per_group"]),
                np.array(obj["membership"]),
                _owned(np.array(obj["group_prob"], dtype=np.float64)),
            )
        elif obj["kind"] == "independent":
            model = ProbabilityModel.from_triplets(obj["candidates"], obj["slots"], obj["entries"])
        else:
            raise InputError(f"unknown model kind {obj.get('kind')!r}")
    except KeyError as e:
        raise InputError(f"{path}: missing field {e}")
    # InputError subclasses ValueError, so it must be caught first to keep the
    # validator's own message.
    except InputError as e:
        raise InputError(f"{path}: {e}")
    except (TypeError, ValueError) as e:
        raise InputError(f"{path}: malformed model ({e})")
    return model, obj.get("metadata", {})


# --------------------------------------------------------------------------
# sample-set debug dumps (plain text)


def write_samples(samples: SampleSet, path: str | Path) -> int:
    """Write the samples as text, one sample at a time, expanding none ahead
    and keeping none; return the edge count."""
    counts = []
    def chunks():
        yield f"{samples.n} {samples.candidates} {samples.slots} {samples.seed}\n"
        for i in range(samples.n):
            m = samples.sample(i)
            counts.append(m.edge_count)
            lines = [f"sample {i} {m.edge_count}"]
            lines += [f"{a} {t}" for a, t in zip(m.row_ids().tolist(), m.indices.tolist())]
            yield "\n".join(lines) + "\n"

    write_text(path, chunks())
    return sum(counts)


# --------------------------------------------------------------------------
# ranking files


def write_ranking(
    ranking: Ranking,
    path: str | Path,
    algorithm: str,
    candidates: int,
    slots: int,
    n_samples: int,
    sample_seed: int,
    ranker_seed: int,
):
    obj = {
        "format": RANKING_FORMAT,
        "version": FORMAT_VERSION,
        "algorithm": algorithm,
        "tie_break": TIE_BREAK,
        "candidates": candidates,
        "slots": slots,
        "n_samples": n_samples,
        "sample_seed": sample_seed,
        "ranker_seed": ranker_seed,
        "order": ranking.order.tolist(),
        "prefix_gain": list(ranking.prefix_gain) if ranking.prefix_gain else None,
    }
    _dump_compact(obj, path)


_RANKING_FIELDS = {
    **dict.fromkeys(("candidates", "slots", "n_samples", "sample_seed", "ranker_seed"), (int,)),
    "algorithm": (str,), "tie_break": (str,), "order": (list,), "prefix_gain": (list, type(None)),
}


def read_ranking(path: str | Path) -> tuple[Ranking, dict]:
    obj = _load_json(path, RANKING_FORMAT)
    _require(obj, path, _RANKING_FIELDS)
    if obj["tie_break"] != TIE_BREAK:
        raise InputError(f"{path}: unsupported tie_break {obj['tie_break']!r}")
    order, pg = obj["order"], obj["prefix_gain"]
    _ints(order, path, "order")
    _ints(pg or [], path, "prefix_gain")
    # Candidate ids are int32 throughout.
    if obj["candidates"] >= 2**31 or not all(0 <= a < obj["candidates"] for a in order):
        raise InputError(f"{path}: order must hold ids in [0, candidates < 2**31)")
    try:
        ranking = Ranking(order, pg)
    except InputError as e:
        raise InputError(f"{path}: {e}")
    meta = {k: v for k, v in obj.items() if k not in ("order", "prefix_gain")}
    return ranking, meta


# --------------------------------------------------------------------------
# report files


def write_report(report: EvalReport, path: str | Path):
    obj = {
        "format": REPORT_FORMAT,
        "version": FORMAT_VERSION,
        "algorithm": report.algorithm,
        "candidates": report.candidates,
        "slots": report.slots,
        "n_samples": report.n_samples,
        "sample_seed": report.sample_seed,
        "draws": report.draws,
        "eval_seed": report.eval_seed,
        "per_draw_kmin": list(report.per_draw_kmin),
        "normalized_mean": report.normalized_mean,
        "normalized_std": report.normalized_std,
        "unfillable_count": report.unfillable_count,
        "config": report.config,
    }
    _dump_pretty(obj, path)


_REPORT_FIELDS = {
    **dict.fromkeys(
        ("candidates", "slots", "n_samples", "sample_seed", "draws", "eval_seed", "unfillable_count"),
        (int,),
    ),
    **dict.fromkeys(("normalized_mean", "normalized_std"), (int, float, type(None))),
    "algorithm": (str,), "per_draw_kmin": (list,), "config": (dict,),
}


def read_report(path: str | Path) -> EvalReport:
    obj = _load_json(path, REPORT_FORMAT)
    _require(obj, path, _REPORT_FIELDS)
    _ints(obj["per_draw_kmin"], path, "per_draw_kmin", allow_none=True)
    fields = {key: obj[key] for key in _REPORT_FIELDS}
    fields["per_draw_kmin"] = tuple(obj["per_draw_kmin"])
    try:
        return EvalReport(**fields)
    except InputError as e:
        raise InputError(f"{path}: {e}")


def report_table(reports: list[EvalReport]) -> tuple[str, list[list[str]]]:
    """Console text and CSV rows summarizing a list of reports.

    Rows are ordered best-first (ascending mean depth); reports where every
    draw was unfillable sink to the bottom.
    """
    ordered = sorted(
        reports,
        key=lambda r: (r.normalized_mean is None, r.normalized_mean or 0.0),
    )
    csv_rows = [
        ["algorithm", "label", "normalized_mean", "normalized_std", "unfillable", "draws"]
    ]
    for r in ordered:
        label = ""
        if "assumed_p_base" in r.config:
            label = f"p_base={r.config['assumed_p_base']}"
        mean = "n/a" if r.normalized_mean is None else f"{r.normalized_mean:.4f}"
        std = "n/a" if r.normalized_std is None else f"{r.normalized_std:.4f}"
        csv_rows.append(
            [r.algorithm, label, mean, std, str(r.unfillable_count), str(r.draws)]
        )
    widths = [max(len(row[i]) for row in csv_rows) for i in range(len(csv_rows[0]))]
    lines = []
    for irow, row in enumerate(csv_rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if irow == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines), csv_rows


def write_table(rows: list[list[str]], path: str | Path):
    """Write `report_table`'s rows as CSV, with the csv module's CRLF line
    ends."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    write_text(path, buf.getvalue())


# --------------------------------------------------------------------------
# experiment configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """Optional JSON-backed defaults for the command-line tools.

    Every section may be absent; command-line flags override section values.
    Recognized sections: ``synth`` (generator parameters), ``ingest``
    (slots_per_label, max_clip), ``sampling`` (n, seed), ``ranker``
    (algorithm, seed, stop_at, use_model_marginals), ``evaluation``
    (draws, seed), and a top-level ``threads``.  Each key holds null (unset)
    or a value of its type: an integer, never a boolean, for counts, and a
    non-negative one for seeds; a real number; a boolean; or a string.
    """

    synth: dict
    ingest: dict
    sampling: dict
    ranker: dict
    evaluation: dict
    threads: int | None

    _SECTIONS = {
        "synth": {"groups": int, "slots_per_group": int, "candidates": int,
                  "memberships": int, "p_base": float, "seed": int},
        "ingest": {"slots_per_label": int, "max_clip": float},
        "sampling": {"n": int, "seed": int},
        "ranker": {"algorithm": str, "seed": int, "stop_at": int, "use_model_marginals": bool},
        "evaluation": {"draws": int, "seed": int},
    }
    # Parsed JSON values have exact types, so a boolean never passes for an int.
    _KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
              bool: ((bool,), "a boolean"), str: ((str,), "a string")}

    @classmethod
    def empty(cls) -> "ExperimentConfig":
        return cls({}, {}, {}, {}, {}, None)

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise InputError("config root must be a JSON object")
        unknown = set(obj) - set(cls._SECTIONS) - {"threads"}
        if unknown:
            raise InputError(f"unknown config keys: {', '.join(sorted(unknown))}")
        sections = {}
        for name, allowed in cls._SECTIONS.items():
            sec = obj.get(name, {})
            if not isinstance(sec, dict):
                raise InputError(f"config section {name!r} must be an object")
            bad = set(sec) - set(allowed)
            if bad:
                raise InputError(
                    f"unknown keys in config section {name!r}: {', '.join(sorted(bad))}"
                )
            for key, value in sec.items():
                types, what = cls._KINDS[allowed[key]]
                if value is not None and (type(value) not in types or key == "seed" and value < 0):
                    what = "a non-negative integer" if key == "seed" else what
                    raise InputError(f"config {name}.{key} must be {what}, got {value!r}")
            sections[name] = sec
        threads = obj.get("threads")
        if threads is not None and (type(threads) is not int or threads < 1):
            raise InputError("config threads must be a positive integer")
        algo = sections["ranker"].get("algorithm")
        if algo is not None and algo not in ALGORITHMS:
            raise InputError(
                f"unknown algorithm {algo!r} in config; valid: {', '.join(ALGORITHMS)}"
            )
        return cls(
            synth=sections["synth"],
            ingest=sections["ingest"],
            sampling=sections["sampling"],
            ranker=sections["ranker"],
            evaluation=sections["evaluation"],
            threads=threads,
        )


def load_config(path: str | Path) -> ExperimentConfig:
    obj = _read_json(path)
    try:
        return ExperimentConfig.from_dict(obj)
    except InputError as e:
        raise InputError(f"{path}: {e}")
