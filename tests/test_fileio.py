import dataclasses
import errno
import hashlib
import json
import os
import stat
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CONTRADICTORY_REPORTS,
    coin_view,
    edge_set,
    random_sampleset,
    read_samples,
    report_file,
    write_triplets,
)
from oracles import dense_probs
from matchrank import core, fileio
from matchrank.cli import main
from matchrank.core import (
    InputError,
    ProbabilityModel,
    Ranking,
    SlotLayout,
    substream,
)
from matchrank.evaluation import evaluate
from matchrank.fileio import (
    ExperimentConfig,
    ingest_model,
    load_config,
    read_model,
    read_prob_triplets,
    read_ranking,
    read_report,
    report_table,
    write_model,
    write_ranking,
    write_report,
    write_samples,
    write_stats,
    write_table,
)
from matchrank.ranker import TIE_BREAK, RankerConfig, score_ranking
from matchrank.synthgen import (
    SynthParams,
    build_synthetic_model,
    draw_relevance,
    model_metadata,
    sample_relevances,
    two_block_model,
)


class TestTriplets:
    def test_roundtrip(self, tmp_path):
        m = ProbabilityModel.from_dense([[0.5, 0.0, 0.125], [0.0, 1.0, 0.0]])
        path = tmp_path / "probs.txt"
        write_triplets(m, path)
        back = read_prob_triplets(path)
        assert (back.candidates, back.slots) == (2, 3)
        assert coin_view(back) == coin_view(m)

    def test_reads_an_independent_model_of_one_slot_bins(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("3 4 2\n2 3 0.5\n0 1 0.25\n")
        m = read_prob_triplets(path)
        assert m.kind == "independent"
        assert m.bins.group_sizes.tolist() == [1] * 4
        assert (m.coin_ptr.tolist(), m.coin_bins.tolist()) == ([0, 1, 1, 2], [1, 3])
        assert m.coin_probs.tolist() == [0.25, 0.5]

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("# a comment\n2 2 2\n\n0 0 0.5  # trailing\n1 1 0.25\n")
        m = read_prob_triplets(path)
        assert dense_probs(m).tolist() == [[0.5, 0.0], [0.0, 0.25]]

    def test_zero_entries_dropped(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("2 2 2\n0 0 0.0\n1 1 0.25\n")
        assert read_prob_triplets(path).coin_probs.tolist() == [0.25]

    @pytest.mark.parametrize(
        "body,fragment",
        [
            ("", "empty"),
            ("1 2\n", "header"),
            ("a 2 1\n0 0 0.5\n", "integers"),
            ("2 2 3\n0 0 0.5\n", "promises 3"),
            ("2 2 1\n0 0\n", ":2:"),
            ("2 2 1\n0 0 zz\n", ":2: malformed"),
            ("2 2 1\n5 0 0.5\n", "out of range"),
            ("2 2 1\n0 0 1.5\n", "out of range"),
            ("2 2 2\n0 0 0.5\n0 0 0.6\n", "duplicate"),
            # int() and float() read PEP 515 underscores and the digits of
            # other scripts; the format does not.
            ("2 2 1\n0_1 0 0.5\n", "bad.txt:2: malformed"),
            ("2 2 1\n0 1 0.2_5\n", "bad.txt:2: malformed"),
            ("2 2 1\n\u0660 1 0.25\n", "bad.txt:2: malformed"),
            ("2 2 1\n0 1 \u0660.5\n", "bad.txt:2: malformed"),
            ("\u0662 2 1\n0 0 0.5\n", "bad.txt:1: header values must be integers"),
            ("2 2_0 1\n0 0 0.5\n", "bad.txt:1: header values must be integers"),
        ],
    )
    def test_parse_errors(self, tmp_path, body, fragment):
        path = tmp_path / "bad.txt"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(InputError, match=fragment):
            read_prob_triplets(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="no such file"):
            read_prob_triplets(tmp_path / "nope.txt")

    def test_other_whitespace_and_comments_may_be_unicode(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("2 2 1  # k\u00e4se\n1\u30000 0.5\n", encoding="utf-8")
        assert dense_probs(read_prob_triplets(path)).tolist() == [[0.0, 0.0], [0.5, 0.0]]


class TestIngestModel:
    def test_label_broadcast(self):
        probs = ProbabilityModel.from_dense([[0.5, 0.0], [0.0, 0.4]])
        model = ingest_model(probs, slots_per_label=3)
        dense = dense_probs(model)
        assert dense.shape == (2, 6)
        assert dense[0].tolist() == [0.5, 0.5, 0.5, 0.0, 0.0, 0.0]
        assert dense[1].tolist() == [0.0, 0.0, 0.0, 0.4, 0.4, 0.4]

    def test_one_slot_per_label_shares_the_labels_bins(self):
        probs = ProbabilityModel.from_dense([[0.5, 0.0], [0.0, 0.4]])
        assert ingest_model(probs).bins is probs.bins
        assert ingest_model(probs, max_clip=0.45).bins is probs.bins
        assert ingest_model(probs, slots_per_label=2).bins.group_count == 4

    def test_max_clip(self):
        probs = ProbabilityModel.from_dense([[1.0, 0.5], [0.999, 0.0]])
        model = ingest_model(probs, max_clip=0.9)
        assert model.coin_probs.tolist() == [0.9, 0.5, 0.9]
        assert probs.coin_probs.tolist() == [1.0, 0.5, 0.999]  # the input untouched
        assert ingest_model(probs, 2, max_clip=0.9).coin_probs.tolist() == [0.9, 0.9, 0.5, 0.5, 0.9, 0.9]

    def test_validation(self):
        probs = ProbabilityModel.from_dense([[0.5]])
        with pytest.raises(InputError):
            ingest_model(probs, slots_per_label=0)
        with pytest.raises(InputError):
            ingest_model(probs, max_clip=0.0)

    def test_refuses_a_group_model(self):
        group = build_synthetic_model(SynthParams(groups=3, slots_per_group=2, candidates=6, seed=1))
        with pytest.raises(InputError, match="independent"):
            ingest_model(group)

    @pytest.mark.parametrize("slots_per_label", [2.5, True, "3"])
    def test_slots_per_label_must_be_an_integer(self, slots_per_label):
        probs = ProbabilityModel.from_dense([[0.5]])
        with pytest.raises(InputError, match="slots_per_label"):
            ingest_model(probs, slots_per_label)

    def test_refuses_an_expansion_beyond_memory_before_making_it(self, monkeypatch):
        # One entry at 200,000 slots per label: 4 MB of expanded entries and
        # 3.2 MB of one-slot bins, against 1 MiB.
        probs = ProbabilityModel.from_dense([[0.5, 0.0]])
        monkeypatch.setattr(core, "_physical_memory", lambda: 2**20)
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="200000 entries in 400000 one-slot bins need more memory"):
                ingest_model(probs, slots_per_label=200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        # 8 slots per label: 8 expanded entries of 20 bytes, 16 bins of 8.
        monkeypatch.setattr(core, "_physical_memory", lambda: 8 * 20 + 16 * 8 - 1)
        with pytest.raises(InputError, match="8 entries in 16 one-slot bins"):
            ingest_model(probs, slots_per_label=8)
        monkeypatch.setattr(core, "_physical_memory", lambda: 8 * 20 + 16 * 8)
        assert ingest_model(probs, slots_per_label=8).coin_probs.size == 8


class TestModelFiles:
    def test_group_roundtrip(self, tmp_path):
        model = build_synthetic_model(
            SynthParams(groups=3, slots_per_group=2, candidates=20, memberships=2, seed=4)
        )
        path = tmp_path / "model.json"
        write_model(model, path, metadata={"note": "x"})
        back, meta = read_model(path)
        assert meta == {"note": "x"}
        assert back.kind == "group"
        assert np.array_equal(back.bins.group_sizes, model.bins.group_sizes)
        assert coin_view(back) == coin_view(model)

    def test_independent_roundtrip_and_bytes(self, tmp_path):
        model = two_block_model(8, 4, 0.5, 0.25)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_model(model, p1)
        write_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()
        back, _ = read_model(p1)
        assert back.kind == "independent"
        assert np.array_equal(back.bins.group_sizes, model.bins.group_sizes)
        assert coin_view(back) == coin_view(model)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_keeps_kind_bins_and_coins(self, tmp_path_factory, data):
        draw = data.draw
        if draw(st.booleans()):
            sizes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=5))
            c, k = draw(st.integers(1, 6)), draw(st.integers(1, len(sizes)))
            membership = [sorted(draw(st.permutations(range(len(sizes))))[:k]) for _ in range(c)]
            prob = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
            group_prob = [[draw(prob) for _ in range(k)] for _ in range(c)]
            model = ProbabilityModel.group_structured(SlotLayout(tuple(sizes)), membership, group_prob)
        else:
            c, s = draw(st.integers(0, 6)), draw(st.integers(0, 6))
            entry = st.just(0.0) | st.floats(0.0, 1.0, exclude_min=True)
            dense = np.array([[draw(entry) for _ in range(s)] for _ in range(c)]).reshape(c, s)
            model = ProbabilityModel.from_dense(dense)
        path = tmp_path_factory.getbasetemp() / "roundtrip-model.json"
        write_model(model, path)
        back, _ = read_model(path)
        assert back.kind == model.kind
        assert np.array_equal(back.bins.group_sizes, model.bins.group_sizes)
        assert coin_view(back) == coin_view(model)

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"format": "other", "version": 1}))
        with pytest.raises(InputError, match="expected a matchrank-model"):
            read_model(path)
        path.write_text("not json")
        with pytest.raises(InputError, match="not valid JSON"):
            read_model(path)
        path.write_text(json.dumps({"format": "matchrank-model", "version": 9}))
        with pytest.raises(InputError, match="version"):
            read_model(path)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_rejects_non_finite_constants(self, tmp_path, token):
        path = tmp_path / "x.json"
        path.write_text(
            '{"format":"matchrank-model","version":1,"kind":"independent",'
            f'"candidates":1,"slots":1,"entries":[[0,0,{token}]]}}'
        )
        with pytest.raises(InputError, match="non-finite"):
            read_model(path)

    def test_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(
            json.dumps({"format": "matchrank-model", "version": 1, "kind": "group"})
        )
        with pytest.raises(InputError, match="missing field"):
            read_model(path)


class TestSampleFiles:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        ss = random_sampleset(rng, 6, 4, 3, 0.4, seed=11)
        path = tmp_path / "samples.txt"
        write_samples(ss, path)
        back = read_samples(path)
        assert (back.seed, back.candidates, back.slots) == (ss.seed, ss.candidates, ss.slots)
        assert [edge_set(m) for m in back.samples] == [edge_set(m) for m in ss.samples]

    def test_writes_one_sample_at_a_time(self, tmp_path):
        # Each sample is expanded from its coins as it is written and then
        # dropped, so writing 32 samples peaks under writing 2 plus two
        # samples' rows, and the bytes are the plain per-edge join.
        model = build_synthetic_model(SynthParams(groups=4, slots_per_group=5, candidates=2000))
        peaks = {}
        for n in (2, 32):
            ss = sample_relevances(model, n, 3)
            tracemalloc.start()
            try:
                edges = write_samples(ss, tmp_path / f"{n}.txt")
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert "samples" not in vars(ss)  # no sample was kept
            lines = [f"{ss.n} {ss.candidates} {ss.slots} {ss.seed}"]
            for i, m in enumerate(ss.samples):
                lines.append(f"sample {i} {m.edge_count}")
                lines += [f"{a} {t}" for a, t in zip(m.row_ids().tolist(), m.indices.tolist())]
            assert (tmp_path / f"{n}.txt").read_text() == "\n".join(lines) + "\n"
            assert edges == sum(m.edge_count for m in ss.samples)
        rows = max(m.indptr.nbytes + m.indices.nbytes for m in ss.samples)
        assert rows > 40_000
        assert peaks[32] < peaks[2] + 2 * rows

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("2 3 3 0\nsample 0 1\n0 1\n")
        with pytest.raises(InputError, match="truncated"):
            read_samples(path)


class TestPinnedBytes:
    """Sample dumps, reports, model files and rankings at fixed seeds,
    pinned by their sha256: a change in how any sub-stream is consumed, in
    what is drawn from it, or in how a model is written, shows here.  The
    independent model has empty rows and sure entries, and draws that
    cannot fill its slots."""

    @staticmethod
    def model(kind: str) -> ProbabilityModel:
        if kind == "group":
            return build_synthetic_model(SynthParams(groups=4, slots_per_group=3, candidates=60, seed=5))
        rng = np.random.default_rng(11)
        dense = np.where(
            rng.random((24, 8)) < 0.3,
            rng.choice([0.2, 0.4, 1.0], size=(24, 8), p=[0.5, 0.4, 0.1]),
            0.0,
        )
        dense[:3] = 0.0
        return ProbabilityModel.from_dense(dense)

    @pytest.mark.parametrize(
        "kind, dump, report",
        [
            ("group", "590a818fc32e26d3702bcae0b2578e093a81fc12447a707939632a369db2da57",
             "54261a3bf6428a19c6ef42564cd6fa04d3056b09d0879f8affeb17d68de3487b"),
            ("independent", "32f99159a7b9fa0fb8337918f2c0a6816712677dc135f15cf94fa35e4ef2448f",
             "64ac9d731e18b2e7bcd421817474e284ea32b609eb775f43b7f195237a9eefd8"),
        ],
    )
    def test_dump_and_report_bytes(self, tmp_path, kind, dump, report):
        model = self.model(kind)
        write_samples(sample_relevances(model, 5, 7), tmp_path / "s.txt")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the independent model's unfillable draws
            rep = evaluate(RankerConfig(), model, n_samples=20, sample_seed=7, draws=10, eval_seed=9)
        write_report(rep, tmp_path / "r.json")
        digest = lambda name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert (digest("s.txt"), digest("r.json")) == (dump, report)

    @pytest.mark.parametrize(
        "kind, model_file, ranking",
        [
            ("group", "7c20d3f2582e88e954c424fe84cb3710d2c5ab140898d1aa86b3943f3896eb92",
             "92305ed0820e547b1188150c51de02da2d2fca11fccad1ce17b79a58ad7b48c5"),
            ("independent", "8598adc42af99578d0f3d0076cba053cbcf0851c8fc166f19c5c14d002c1ea5b",
             "f6a246132a3f3846d2199ab2890fdfcf08222328773fe71bd08b15327baa51e3"),
        ],
    )
    def test_model_file_and_model_marginal_ranking_bytes(self, tmp_path, kind, model_file, ranking):
        model = self.model(kind)
        write_model(model, tmp_path / "m.json", metadata=model_metadata(model))
        order = score_ranking(model, "ntr")
        write_ranking(order, tmp_path / "r.json", "ntr", model.candidates, model.slots, 5, 7, 0)
        digest = lambda name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert (digest("m.json"), digest("r.json")) == (model_file, ranking)


class TestRankingFiles:
    def test_roundtrip_with_prefix(self, tmp_path):
        r = Ranking(np.array([2, 0, 1], dtype=np.int32), (1, 2, 2))
        path = tmp_path / "r.json"
        write_ranking(r, path, "matchrank", 3, 2, 5, 1, 0)
        back, meta = read_ranking(path)
        assert back.order.tolist() == [2, 0, 1]
        assert back.prefix_gain == (1, 2, 2)
        assert meta["algorithm"] == "matchrank"
        assert meta["n_samples"] == 5

    def test_roundtrip_without_prefix(self, tmp_path):
        r = Ranking(np.array([1, 0], dtype=np.int32))
        path = tmp_path / "r.json"
        write_ranking(r, path, "random", 2, 2, 5, 1, 7)
        back, meta = read_ranking(path)
        assert back.prefix_gain is None
        assert meta["ranker_seed"] == 7

    def test_rejects_ids_beyond_int32(self, tmp_path):
        path = tmp_path / "r.json"
        write_ranking(Ranking(np.array([1, 0], dtype=np.int32)), path, "random", 2, 2, 5, 1, 7)
        obj = json.loads(path.read_text())
        obj["candidates"], obj["order"] = 2**40, [2**35, 0]
        path.write_text(json.dumps(obj))
        with pytest.raises(InputError, match="r.json: order"):
            read_ranking(path)


    @pytest.mark.parametrize(
        "key, value, match",
        [
            ("n_samples", 0, "n_samples must be at least 1"),
            ("n_samples", -3, "n_samples must be at least 1"),
            ("sample_seed", -1, "sample_seed must be non-negative"),
            ("ranker_seed", -2, "ranker_seed must be non-negative"),
        ],
    )
    def test_refuses_no_samples_and_negative_seeds(self, tmp_path, key, value, match):
        path = tmp_path / "r.json"
        write_ranking(Ranking(np.array([1, 0], dtype=np.int32)), path, "random", 2, 2, 5, 1, 7)
        obj = json.loads(path.read_text())
        obj[key] = value
        path.write_text(json.dumps(obj))
        with pytest.raises(InputError, match=f"r.json: {match}"):
            read_ranking(path)


class TestReportFiles:
    def make_report(self):
        return evaluate(RankerConfig(), two_block_model(12, 4, 0.8, 0.7), 4, 1, 6, 2)

    def test_roundtrip_and_bytes(self, tmp_path):
        rep = self.make_report()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_report(rep, p1)
        write_report(rep, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert read_report(p1) == rep

    def test_the_base_of_the_contradictions_reads(self, tmp_path):
        rep = read_report(report_file(tmp_path / "r.json"))
        assert (rep.per_draw_kmin, rep.unfillable_count) == ((2, 4, None), 1)

    @pytest.mark.parametrize("case", CONTRADICTORY_REPORTS)
    def test_refuses_a_report_that_contradicts_itself(self, tmp_path, case):
        changes, fragment = CONTRADICTORY_REPORTS[case]
        path = report_file(tmp_path / "r.json", **changes)
        with pytest.raises(InputError) as refused:
            read_report(path)
        assert str(refused.value).startswith(f"{path}: ") and fragment in str(refused.value)

    def test_refuses_to_write_non_finite(self, tmp_path):
        rep = dataclasses.replace(self.make_report(), normalized_mean=float("nan"))
        with pytest.raises(ValueError):
            write_report(rep, tmp_path / "r.json")

    def test_config_echoes_the_tie_break_policy(self, tmp_path):
        path = tmp_path / "r.json"
        write_report(self.make_report(), path)
        assert json.loads(path.read_text())["config"]["tie_break"] == TIE_BREAK

    def test_table(self):
        rep = self.make_report()
        text, rows = report_table([rep, rep])
        assert rows[0][0] == "algorithm"
        assert len(rows) == 3
        assert "matchrank-lazy" in text


_WRITERS = ("group-model", "independent-model", "ranking", "report", "stats", "samples", "table", "text")


@pytest.fixture(scope="module")
def writers():
    """Every library writer, as a function of the output path."""
    group = build_synthetic_model(SynthParams(groups=3, slots_per_group=2, candidates=6, seed=1))
    independent = two_block_model(6, 4, 0.8, 0.7)
    ranking = Ranking(np.array([2, 0, 3, 1], dtype=np.int32), (1, 2, 2, 2))
    report = evaluate(RankerConfig(), two_block_model(12, 4, 0.8, 0.7), 4, 1, 3, 2)
    samples = random_sampleset(np.random.default_rng(3), 6, 4, 3, 0.4, seed=11)
    return dict(zip(_WRITERS, (
        lambda p: write_model(group, p, metadata={"note": "x"}),
        lambda p: write_model(independent, p),
        lambda p: write_ranking(ranking, p, "matchrank", 4, 2, 5, 1, 0),
        lambda p: write_report(report, p),
        lambda p: write_stats({"rank_s": 0.5, "rounds": 4}, p),
        lambda p: write_samples(samples, p),
        lambda p: write_table(report_table([report])[1], p),
        lambda p: fileio.write_text(p, report_table([report])[0] + "\n"),
    )))


class _FullDisk:
    """Stands in for the output file object: takes what it is given until
    `ROOM` bytes are in, then fails as a full disk does, so a writer of
    chunks fails after its first ones."""

    ROOM = 64

    def __init__(self, fd, mode, closefd):
        self.fd, self.room = fd, self.ROOM

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def write(self, data):
        os.write(self.fd, data[: self.room])
        if len(data) > self.room:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= len(data)
        return len(data)


class TestWritersRewriteInPlace:
    """An existing output file is rewritten in place: never truncated at
    open, which on ext4 makes the file's close wait for writeback."""

    @pytest.mark.parametrize("before", ["longer", "same length", "shorter"])
    @pytest.mark.parametrize("name", _WRITERS)
    def test_bytes_do_not_depend_on_the_file_overwritten(self, writers, tmp_path, name, before):
        fresh, target = tmp_path / "fresh", tmp_path / "target"
        writers[name](fresh)
        want = fresh.read_bytes()
        old = {"longer": want * 2 + b"tail", "same length": b"x" * len(want),
               "shorter": want[: len(want) // 2]}[before]
        target.write_bytes(old)
        writers[name](target)
        assert target.read_bytes() == want

    @pytest.mark.parametrize("name", _WRITERS)
    def test_no_writer_opens_with_o_trunc(self, writers, tmp_path, os_open_calls, name):
        path = tmp_path / "out"
        path.write_bytes(b"an older and longer file\n" * 100)
        writers[name](path)
        flags = [f for p, f in os_open_calls if p == str(path)]
        assert len(flags) == 1 and not flags[0] & os.O_TRUNC

    def test_overwrite_keeps_the_inode_its_links_and_its_mode(self, writers, tmp_path):
        path, link = tmp_path / "r.json", tmp_path / "hard.json"
        path.write_bytes(b"x" * 5000)
        path.chmod(0o640)
        os.link(path, link)
        inode = path.stat().st_ino
        writers["ranking"](path)
        assert path.stat().st_ino == inode
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert link.read_bytes() == path.read_bytes() != b"x" * 5000

    @pytest.mark.parametrize("name", _WRITERS)
    def test_writes_into_a_pipe(self, writers, tmp_path, name):
        # As ``--out /dev/stdout`` does when piped on: a pipe has no length.
        writers[name](tmp_path / "fresh")
        r, w = os.pipe()
        with open(r, "rb") as reader:
            with open(w, "wb") as writer_end:
                writers[name](f"/dev/fd/{writer_end.fileno()}")
            assert reader.read() == (tmp_path / "fresh").read_bytes()

    def test_a_failed_write_leaves_the_file_empty(self, writers, tmp_path, monkeypatch):
        # Never the new head followed by the old tail, which could parse.
        path = tmp_path / "report.json"
        writers["report"](path)
        monkeypatch.setattr(fileio, "open", _FullDisk, raising=False)
        with pytest.raises(OSError, match="No space"):
            writers["report"](path)
        assert path.read_bytes() == b""
        with pytest.raises(InputError, match="not valid JSON"):
            read_report(path)

    @pytest.mark.parametrize("name", ["text", "samples"])
    def test_text_writer_keeps_links_and_a_failed_write_leaves_it_empty(
        self, writers, tmp_path, monkeypatch, name
    ):
        # The experiment drivers write their table.txt through write_text;
        # the sample writer hands it one chunk per sample.
        path, link = tmp_path / "table.txt", tmp_path / "hard.txt"
        path.write_bytes(b"x" * 5000)
        os.link(path, link)
        inode = path.stat().st_ino
        writers[name](path)
        assert path.stat().st_ino == inode
        assert link.read_bytes() == path.read_bytes() != b"x" * 5000
        monkeypatch.setattr(fileio, "open", _FullDisk, raising=False)
        with pytest.raises(OSError, match="No space"):
            writers[name](path)
        assert path.read_bytes() == b""


class TestExperimentConfig:
    def test_valid(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "synth": {"groups": 4, "p_base": 0.2},
                    "sampling": {"n": 16, "seed": 5},
                    "ranker": {"algorithm": "ntr"},
                    "evaluation": {"draws": 9},
                    "threads": 2,
                }
            )
        )
        cfg = load_config(path)
        assert cfg.synth["groups"] == 4
        assert cfg.sampling == {"n": 16, "seed": 5}
        assert cfg.ranker["algorithm"] == "ntr"
        assert cfg.threads == 2

    def test_unknown_keys(self):
        with pytest.raises(InputError, match="unknown config keys"):
            ExperimentConfig.from_dict({"sampling2": {}})
        with pytest.raises(InputError, match="unknown keys in config section"):
            ExperimentConfig.from_dict({"sampling": {"m": 3}})

    def test_bad_algorithm(self):
        with pytest.raises(InputError, match="unknown algorithm"):
            ExperimentConfig.from_dict({"ranker": {"algorithm": "bfs"}})

    def test_rejects_non_finite(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"synth": {"p_base": NaN}}')
        with pytest.raises(InputError, match="non-finite"):
            load_config(path)

    def test_bad_threads(self):
        with pytest.raises(InputError, match="threads"):
            ExperimentConfig.from_dict({"threads": 0})

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="no such file"):
            load_config(tmp_path / "none.json")


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A valid ranking file and a valid report file, as bytes."""
    folder = tmp_path_factory.mktemp("valid")
    ranking, report = folder / "ranking.json", folder / "report.json"
    write_ranking(Ranking(np.array([2, 0, 3, 1], dtype=np.int32), (1, 2, 2, 2)), ranking,
                  "matchrank", 4, 2, 5, 1, 0)
    write_report(evaluate(RankerConfig(), two_block_model(12, 4, 0.8, 0.7), 4, 1, 3, 2), report)
    group, independent = folder / "group.json", folder / "independent.json"
    write_model(
        build_synthetic_model(SynthParams(groups=3, slots_per_group=2, candidates=6, seed=1)),
        group, metadata={"note": "x"},
    )
    write_model(two_block_model(6, 4, 0.8, 0.7), independent)
    return {
        "ranking": ranking.read_bytes(), "report": report.read_bytes(),
        "group": group.read_bytes(), "independent": independent.read_bytes(), "folder": folder,
    }


# A replacement value of any JSON type, including integers too wide for
# int32 or int64 and lists of mixed items.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


# The same for model files, with integers bounded by 2**16 apart from a few
# beyond int32.  A model that declares, say, 10**9 candidates is read by
# allocating arrays of that length before anything checks its size, so a
# fuzz that drew such counts could exhaust the host's memory.
_model_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**16), 2**16) | st.sampled_from([2**31, 2**63, 2**70])
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _mutate(data: bytes, draw, values=_json_values) -> bytes:
    """Drop a key, retype a value or one item of a list value, or truncate."""
    how = draw(st.sampled_from(["drop", "retype", "retype-item", "truncate"]))
    if how == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    obj = json.loads(data)
    key = draw(st.sampled_from(sorted(obj)))
    if how == "drop":
        del obj[key]
    elif how == "retype" or not isinstance(obj[key], list) or not obj[key]:
        obj[key] = draw(values)
    else:
        obj[key][draw(st.integers(0, len(obj[key]) - 1))] = draw(values)
    return json.dumps(obj).encode()


class TestReaderFuzz:
    """Every mangled model, ranking or report file either loads as a valid
    object or is refused with InputError."""

    @given(st.sampled_from(["group", "independent"]), st.data())
    @settings(max_examples=300, deadline=None)
    def test_model(self, valid_files, kind, data):
        path = valid_files["folder"] / f"mangled-{kind}.json"
        path.unlink(missing_ok=True)
        path.write_bytes(_mutate(valid_files[kind], data.draw, _model_values))
        try:
            model, _ = read_model(path)
        except InputError:
            return
        assert isinstance(model, ProbabilityModel) and model.kind in ("group", "independent")
        draw = draw_relevance(model, substream(0, 0))
        assert (draw.candidates, draw.slots) == (model.candidates, model.slots)
        write_model(model, path)
        again, _ = read_model(path)
        redraw = draw_relevance(again, substream(0, 0))
        assert (redraw.candidates, redraw.slots) == (draw.candidates, draw.slots)
        assert edge_set(redraw) == edge_set(draw)

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_ranking(self, valid_files, data):
        path = valid_files["folder"] / "mangled-ranking.json"
        path.unlink(missing_ok=True)
        path.write_bytes(_mutate(valid_files["ranking"], data.draw))
        try:
            ranking, meta = read_ranking(path)
        except InputError:
            return
        assert all(0 <= a < meta["candidates"] for a in ranking.order.tolist())
        for key in ("candidates", "slots", "n_samples", "sample_seed", "ranker_seed"):
            assert type(meta[key]) is int
        assert meta["tie_break"] == TIE_BREAK and isinstance(meta["algorithm"], str)

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_report(self, valid_files, data):
        path = valid_files["folder"] / "mangled-report.json"
        path.unlink(missing_ok=True)
        path.write_bytes(_mutate(valid_files["report"], data.draw))
        try:
            rep = read_report(path)
        except InputError:
            return
        assert len(rep.per_draw_kmin) == rep.draws
        report_table([rep])
        write_report(rep, path)
        assert read_report(path) == rep


# Config values, with integers bounded: a config that asks for, say, 10**9
# candidates or samples is run as asked, and no test host holds that.
_config_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)

# Triplet-file tokens: integers bounded as in `_model_values`, numbers that
# are not finite or too wide, and raw bytes that need not be UTF-8.
_triplet_tokens = (
    st.integers(-(2**16), 2**16).map(lambda v: str(v).encode())
    | st.sampled_from([b"2147483648", b"9223372036854775808", b"nan", b"inf", b"1e400", b"-0", b"#"])
    | st.floats().map(lambda v: repr(v).encode())
    | st.binary(max_size=3)
)

VALID_CONFIG = {
    "synth": {"groups": 3, "slots_per_group": 2, "candidates": 6, "memberships": 2,
              "p_base": 0.3, "seed": 1},
    "ingest": {"slots_per_label": 2, "max_clip": 0.9},
    "sampling": {"n": 4, "seed": 1},
    "ranker": {"algorithm": "matchrank-lazy", "seed": 0, "stop_at": None,
               "use_model_marginals": False},
    "evaluation": {"draws": 3, "seed": 2},
    "threads": 1,
}
VALID_TRIPLETS = b"# candidates slots entries\n4 3 5\n0 0 0.5\n0 2 0.25\n1 1 0.75\n\n2 0 1.0\n3 2 0.125\n"


def _mutate_config(data: bytes, draw) -> bytes:
    """Drop a key or retype a value, at the top level or in one section, or truncate."""
    how = draw(st.sampled_from(["drop", "retype", "truncate"]))
    if how == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    obj = where = json.loads(data)
    key = draw(st.sampled_from(sorted(obj)))
    if isinstance(obj[key], dict) and draw(st.booleans()):
        where, key = obj[key], draw(st.sampled_from(sorted(obj[key])))
    if how == "drop":
        del where[key]
    else:
        where[key] = draw(_config_values)
    return json.dumps(obj).encode()


def _mutate_lines(data: bytes, draw) -> bytes:
    """Drop a line, retype one token of a line, or truncate."""
    how = draw(st.sampled_from(["drop", "retype", "truncate"]))
    if how == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    lines = data.split(b"\n")
    i = draw(st.integers(0, len(lines) - 1))
    if how == "drop":
        del lines[i]
    else:
        tokens = lines[i].split() or [b""]
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_triplet_tokens)
        lines[i] = b" ".join(tokens)
    return b"\n".join(lines)


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A small group model, a ranking of it, and a triplet file."""
    folder = tmp_path_factory.mktemp("cli-inputs")
    model, ranking, probs = folder / "model.json", folder / "ranking.json", folder / "p.txt"
    assert main(["synth", "--out", str(model), "--groups", "3", "--slots-per-group", "2",
                 "--candidates", "6", "--seed", "1"]) == 0
    assert main(["rank", "--model", str(model), "--out", str(ranking), "--n", "4"]) == 0
    probs.write_bytes(VALID_TRIPLETS)
    return {"folder": folder, "model": model, "ranking": ranking, "probs": probs}


class TestConfigAndTripletFuzz:
    """Every mangled config or triplet file either loads as a valid object or
    is refused with InputError; the command line exits 1 on such a config
    and 2 on such a triplet file."""

    @given(st.sampled_from(["synth", "ingest", "sample", "rank", "eval"]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_config(self, cli_inputs, command, data):
        folder = cli_inputs["folder"]
        path = folder / "mangled.json"
        path.unlink(missing_ok=True)
        path.write_bytes(_mutate_config(json.dumps(VALID_CONFIG).encode(), data.draw))
        try:
            cfg = load_config(path)
            refused = False
        except InputError:
            refused = True
        if not refused:
            for name, allowed in ExperimentConfig._SECTIONS.items():
                for key, value in getattr(cfg, name).items():
                    assert value is None or type(value) in ExperimentConfig._KINDS[allowed[key]][0]
                    assert key != "seed" or value is None or value >= 0
            assert cfg.threads is None or (type(cfg.threads) is int and cfg.threads >= 1)
        inputs = {
            "synth": [],
            "ingest": ["--probs", str(cli_inputs["probs"])],
            "eval": ["--model", str(cli_inputs["model"]), "--ranking", str(cli_inputs["ranking"])],
        }.get(command, ["--model", str(cli_inputs["model"])])
        (folder / "out").unlink(missing_ok=True)
        code = main([command, *inputs, "--out", str(folder / "out"), "--config", str(path)])
        assert code == 1 if refused else code in (0, 1)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_triplets(self, cli_inputs, data):
        folder = cli_inputs["folder"]
        path = folder / "mangled.txt"
        path.unlink(missing_ok=True)
        path.write_bytes(_mutate_lines(VALID_TRIPLETS, data.draw))
        try:
            probs = read_prob_triplets(path)
        except InputError:
            probs = None
        if probs is not None:
            assert isinstance(probs, ProbabilityModel) and probs.kind == "independent"
            (folder / "again.txt").unlink(missing_ok=True)
            write_triplets(probs, folder / "again.txt")
            again = read_prob_triplets(folder / "again.txt")
            assert (again.candidates, again.slots) == (probs.candidates, probs.slots)
            assert coin_view(again) == coin_view(probs)
        (folder / "model-out.json").unlink(missing_ok=True)
        code = main(["ingest", "--probs", str(path), "--out", str(folder / "model-out.json")])
        assert code == (2 if probs is None else 0)
