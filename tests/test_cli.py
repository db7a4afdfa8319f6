import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import matchrank
from matchrank import core
from matchrank import cli
from matchrank.cli import main
from matchrank.core import Ranking
from conftest import CONTRADICTORY_REPORTS, read_samples, report_file
from matchrank.fileio import read_model, read_ranking, read_report, write_ranking


def run(*argv):
    return main(list(argv))


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "model.json"
    assert (
        run(
            "synth",
            "--out",
            str(path),
            "--groups",
            "3",
            "--slots-per-group",
            "2",
            "--candidates",
            "30",
            "--memberships",
            "2",
            "--seed",
            "4",
        )
        == 0
    )
    return path


@pytest.fixture
def ingested_model_path(tmp_path):
    """An independent model, ingested from a triplet file of 24 candidates
    and 16 labels."""
    probs = np.random.default_rng(6).uniform(0.05, 0.7, size=(24, 16))
    lines = [f"{a} {t} {p:.3f}" for (a, t), p in np.ndenumerate(probs) if p > 0.3]
    path = tmp_path / "p.txt"
    path.write_text(f"24 16 {len(lines)}\n" + "\n".join(lines) + "\n")
    model = tmp_path / "ingested.json"
    assert run("ingest", "--probs", str(path), "--out", str(model)) == 0
    return model


class TestSynth:
    def test_writes_model_with_metadata(self, model_path):
        model, meta = read_model(model_path)
        assert model.candidates == 30
        assert model.slots == 6
        assert meta["generator"]["p_base"] == 0.3
        assert sum(meta["members_per_group"]) == 60

    def test_memberships_exceed_groups_is_usage_error(self, tmp_path, capsys):
        code = run("synth", "--out", str(tmp_path / "m.json"), "--groups", "2", "--memberships", "3")
        assert code == 1
        assert "memberships exceed groups" in capsys.readouterr().err

    def test_config_supplies_defaults_cli_wins(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"groups": 3, "slots_per_group": 2, "candidates": 40, "seed": 9}}))
        out = tmp_path / "m.json"
        assert run("synth", "--out", str(out), "--config", str(cfg), "--candidates", "25") == 0
        model, meta = read_model(out)
        assert model.candidates == 25  # CLI beat config
        assert meta["generator"]["seed"] == 9  # config beat default

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synht": {}}))
        assert run("synth", "--out", str(tmp_path / "m.json"), "--config", str(cfg)) == 1
        assert "unknown config keys" in capsys.readouterr().err


class TestIngest:
    def test_happy_path(self, tmp_path):
        probs = tmp_path / "p.txt"
        probs.write_text("2 2 2\n0 0 0.5\n1 1 0.75\n")
        out = tmp_path / "m.json"
        assert run("ingest", "--probs", str(probs), "--out", str(out), "--slots-per-label", "2") == 0
        model, meta = read_model(out)
        assert model.slots == 4
        assert meta["slots_per_label"] == 2

    def test_parse_error_exits_2(self, tmp_path, capsys):
        probs = tmp_path / "p.txt"
        probs.write_text("2 2 1\n0 9 0.5\n")
        assert run("ingest", "--probs", str(probs), "--out", str(tmp_path / "m.json")) == 2
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("body", ["2 2 1\n0_1 0 0.5\n", "\u0662 2 1\n0 0 0.5\n"])
    def test_numbers_outside_the_format_exit_2(self, tmp_path, capsys, body):
        probs = tmp_path / "p.txt"
        probs.write_text(body, encoding="utf-8")
        out = tmp_path / "m.json"
        assert run("ingest", "--probs", str(probs), "--out", str(out)) == 2
        assert "p.txt:" in capsys.readouterr().err
        assert not out.exists()

    def test_slots_beyond_the_int32_limit_exit_2(self, tmp_path, capsys):
        # 70,000 x 40,000 slots would wrap the int32 slot ids.
        probs = tmp_path / "p.txt"
        probs.write_text("1 70000 1\n0 0 0.5\n")
        out = tmp_path / "m.json"
        argv = ("ingest", "--probs", str(probs), "--out", str(out), "--slots-per-label", "40000")
        assert run(*argv) == 2
        assert "int32 slot limit" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_exits_2(self, tmp_path):
        assert run("ingest", "--probs", str(tmp_path / "none.txt"), "--out", str(tmp_path / "m.json")) == 2


class TestSample:
    def test_dump_roundtrips(self, tmp_path, model_path):
        out = tmp_path / "samples.txt"
        assert run("sample", "--model", str(model_path), "--out", str(out), "--n", "3", "--sample-seed", "8") == 0
        ss = read_samples(out)
        assert ss.n == 3
        assert ss.seed == 8
        assert ss.candidates == 30

    def test_bad_n(self, tmp_path, model_path, capsys):
        assert run("sample", "--model", str(model_path), "--out", str(tmp_path / "s.txt"), "--n", "0") == 1
        assert "positive" in capsys.readouterr().err


class TestRank:
    def test_greedy_writes_prefix_gain(self, tmp_path, model_path):
        out = tmp_path / "r.json"
        assert (
            run("rank", "--model", str(model_path), "--out", str(out), "--n", "5", "--algorithm", "matchrank-lazy")
            == 0
        )
        ranking, meta = read_ranking(out)
        assert len(ranking) == 30
        assert ranking.prefix_gain is not None
        assert meta["algorithm"] == "matchrank-lazy"
        assert meta["n_samples"] == 5

    def test_baseline_and_stop_at(self, tmp_path, model_path):
        out = tmp_path / "r.json"
        assert (
            run("rank", "--model", str(model_path), "--out", str(out), "--n", "5", "--algorithm", "tr", "--stop-at", "7")
            == 0
        )
        ranking, _ = read_ranking(out)
        assert len(ranking) == 7
        assert ranking.prefix_gain is None

    def test_model_without_slots_exits_2(self, tmp_path, capsys, monkeypatch):
        probs, model, ranking = (tmp_path / name for name in ("p.txt", "m.json", "r.json"))
        probs.write_text("3 0 0\n")
        assert run("ingest", "--probs", str(probs), "--out", str(model)) == 0

        def no_sampling(*args):
            raise AssertionError("sampled a model without slots")

        monkeypatch.setattr(cli, "sample_relevances", no_sampling)
        assert run("rank", "--model", str(model), "--out", str(ranking), "--n", "5") == 2
        assert "cannot rank a model without slots" in capsys.readouterr().err
        assert not ranking.exists()

    def test_unknown_algorithm_usage_error(self, tmp_path, model_path, capsys):
        code = run("rank", "--model", str(model_path), "--out", str(tmp_path / "r.json"), "--algorithm", "astar")
        assert code == 1
        err = capsys.readouterr().err
        assert "matchrank-lazy" in err  # valid names listed

    def test_reproducible_bytes(self, tmp_path, model_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("rank", "--model", str(model_path), "--out", str(out), "--n", "6") == 0
        assert a.read_bytes() == b.read_bytes()

    def test_use_model_marginals_changes_baseline(self, tmp_path, model_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("rank", "--model", str(model_path), "--out", str(a), "--n", "2", "--algorithm", "and") == 0
        assert (
            run(
                "rank", "--model", str(model_path), "--out", str(b), "--n", "2",
                "--algorithm", "and", "--use-model-marginals",
            )
            == 0
        )
        ra, _ = read_ranking(a)
        rb, _ = read_ranking(b)
        assert ra.order.tolist() != rb.order.tolist()

    @pytest.mark.parametrize("algorithm", ["matchrank-lazy", "random"])
    def test_use_model_marginals_builds_none_for_other_rankers(
        self, tmp_path, model_path, monkeypatch, algorithm
    ):
        def refuse(self):
            raise AssertionError("only the score rules read model marginals")

        monkeypatch.setattr(core.ProbabilityModel, "marginal_matrix", refuse)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["rank", "--model", str(model_path), "--n", "2", "--algorithm", algorithm]
        assert run(*argv, "--out", str(a)) == 0
        assert run(*argv, "--out", str(b), "--use-model-marginals") == 0
        assert a.read_bytes() == b.read_bytes()

    def test_nan_model_exits_2(self, tmp_path, model_path, capsys):
        obj = json.loads(model_path.read_text())
        obj["group_prob"][0][0] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(obj))
        assert "NaN" in bad.read_text()
        code = run("rank", "--model", str(bad), "--out", str(tmp_path / "r.json"), "--n", "2")
        assert code == 2
        assert "non-finite" in capsys.readouterr().err

    def test_validator_message_reaches_user(self, tmp_path, model_path, capsys):
        obj = json.loads(model_path.read_text())
        obj["group_prob"][0][0] = 1.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code = run("rank", "--model", str(bad), "--out", str(tmp_path / "r.json"), "--n", "2")
        assert code == 2
        err = capsys.readouterr().err
        assert "group probabilities must lie strictly inside (0, 1)" in err
        assert "malformed model" not in err

    @pytest.mark.parametrize(
        "field, value, fragment",
        [
            ("membership", [2**40, 1], "membership must lie in"),
            ("membership", [0.5, 1], "membership must be integers"),
            ("slots_per_group", [1.5, 2, 2], "'slots_per_group' must hold integers"),
            ("slots_per_group", [True, 2, 2], "'slots_per_group' must hold integers"),
            # NumPy would read the row as [1, 2].
            ("membership", [True, 2], "membership must be integers"),
        ],
    )
    def test_non_integer_model_fields_exit_2(self, tmp_path, model_path, capsys, field, value, fragment):
        obj = json.loads(model_path.read_text())
        if field == "membership":
            obj["membership"][0] = value
        else:
            obj[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code = run("rank", "--model", str(bad), "--out", str(tmp_path / "r.json"), "--n", "5")
        assert code == 2
        err = capsys.readouterr().err
        assert str(bad) in err and fragment in err

    def test_slot_counts_whose_int64_sum_wraps_exit_2(self, tmp_path, model_path, capsys):
        # 2**62 + 2**62 + 2**62 wraps to a negative int64 sum.
        obj = json.loads(model_path.read_text())
        obj["slots_per_group"] = [2**62] * len(obj["slots_per_group"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code = run("rank", "--model", str(bad), "--out", str(tmp_path / "r.json"), "--n", "2")
        assert code == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "slot counts must lie in [0, 2147483648)" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "field, value, fragment",
        [
            ("candidates", 3.9, "candidates must be an integer"),
            ("slots", True, "slots must be an integer"),
            ("entry", [True, 1, 0.5], "candidate id must be an integer"),
            ("entry", [2.7, 1, 0.5], "candidate id must be an integer"),
            ("entry", [1, 1.0, 0.5], "slot id must be an integer"),
            ("entry", [1, 1, True], "probability must be a number"),
        ],
    )
    def test_independent_model_fields_are_not_truncated(
        self, tmp_path, ingested_model_path, capsys, field, value, fragment
    ):
        obj = json.loads(ingested_model_path.read_text())
        if field == "entry":
            obj["entries"][1] = value
        else:
            obj[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code = run("rank", "--model", str(bad), "--out", str(tmp_path / "r.json"), "--n", "2")
        assert code == 2
        err = capsys.readouterr().err
        assert str(bad) in err and fragment in err

    def test_stats_out_leaves_ranking_bytes_alone(self, tmp_path, ingested_model_path):
        # An ingested model is independent: no group masks, so the batched
        # kernel ranks.
        model = ingested_model_path
        a, b, stats = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "stats.json"
        assert run("rank", "--model", str(model), "--out", str(a), "--n", "6") == 0
        assert run("rank", "--model", str(model), "--out", str(b), "--n", "6", "--stats-out", str(stats)) == 0
        assert a.read_bytes() == b.read_bytes()
        got = json.loads(stats.read_text())
        assert got["kernel"] == "batched"
        assert got["algorithm"] == "matchrank-lazy"
        assert got["rounds"] == 24
        assert got["gain_evals"] >= 24 and 0 <= got["zero_flushed"] <= 24
        assert got["rank_s"] >= 0 and got["peak_rss_mb"] > 0
        prefix_gain = read_ranking(a)[0].prefix_gain
        assert got["productive_rounds"] == np.count_nonzero(np.diff(prefix_gain, prepend=0)) > 0
        # (sample, round) pairs whose reach set moved: at most n per round.
        assert 0 <= got["moved_samples"] <= 6 * got["productive_rounds"]
        assert "moved_samples" not in a.read_text()


def _failing_chunk(model, order, eval_seed, lo, hi):
    """Stands in for the evaluation work unit; fails in every worker."""
    raise RuntimeError("worker lost")


class TestEval:
    @pytest.fixture
    def ranking_path(self, tmp_path, model_path):
        path = tmp_path / "ranking.json"
        assert run("rank", "--model", str(model_path), "--out", str(path), "--n", "5") == 0
        return path

    def test_report_written_and_deterministic(self, tmp_path, model_path, ranking_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert (
                run(
                    "eval", "--model", str(model_path), "--ranking", str(ranking_path),
                    "--out", str(out), "--draws", "6", "--eval-seed", "3",
                )
                == 0
            )
        assert a.read_bytes() == b.read_bytes()
        rep = read_report(a)
        assert rep.draws == 6
        assert rep.algorithm == "matchrank-lazy"
        assert rep.n_samples == 5  # carried over from the ranking file

    @pytest.mark.parametrize("ingested, method", [(False, "cut"), (True, "bisection")])
    def test_stats_out_leaves_report_bytes_alone(
        self, tmp_path, model_path, ingested_model_path, ingested, method
    ):
        model = ingested_model_path if ingested else model_path
        ranking = tmp_path / "ranking.json"
        assert run("rank", "--model", str(model), "--out", str(ranking), "--n", "5") == 0
        a, b, stats = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "stats.json"
        base = ["eval", "--model", str(model), "--ranking", str(ranking), "--draws", "7"]
        assert run(*base, "--out", str(a)) == 0
        assert run(*base, "--out", str(b), "--stats-out", str(stats)) == 0
        assert a.read_bytes() == b.read_bytes()
        got, rep = json.loads(stats.read_text()), read_report(a)
        assert got["kmin_method"] == method
        assert (got["draws"], got["unfillable"]) == (7, rep.unfillable_count)
        kmins = [k for k in rep.per_draw_kmin if k is not None]
        assert kmins, "every draw unfillable: no spread to check"
        assert (got["kmin_min"], got["kmin_max"]) == (min(kmins), max(kmins))
        assert got["kmin_min"] <= got["kmin_p50"] <= got["kmin_p90"] <= got["kmin_max"]
        assert got["eval_s"] >= 0 and got["peak_rss_mb"] > 0

    def test_threads_byte_identical(self, tmp_path, model_path, ranking_path):
        a, b = tmp_path / "t1.json", tmp_path / "t2.json"
        base = ["eval", "--model", str(model_path), "--ranking", str(ranking_path), "--draws", "6"]
        assert run(*base, "--out", str(a), "--threads", "1") == 0
        assert run(*base, "--out", str(b), "--threads", "2") == 0
        assert a.read_bytes() == b.read_bytes()

    def test_failing_worker_exits_3_and_names_its_draws(
        self, tmp_path, model_path, ranking_path, monkeypatch, capsys
    ):
        import matchrank.evaluation

        monkeypatch.setattr(matchrank.evaluation.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(matchrank.evaluation, "_kmin_chunk", _failing_chunk)
        code = run(
            "eval", "--model", str(model_path), "--ranking", str(ranking_path),
            "--out", str(tmp_path / "r.json"), "--draws", "6", "--threads", "2",
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "draws [0, 3)" in err and "worker lost" in err
        # The worker's own traceback is printed too.
        assert "Traceback" in err and "_failing_chunk" in err
        assert not (tmp_path / "r.json").exists()

    def test_ranking_model_mismatch_exits_2(self, tmp_path, model_path, ranking_path, capsys):
        other = tmp_path / "other.json"
        assert run("synth", "--out", str(other), "--groups", "3", "--slots-per-group", "2", "--candidates", "10") == 0
        code = run(
            "eval", "--model", str(other), "--ranking", str(ranking_path),
            "--out", str(tmp_path / "r.json"), "--draws", "2",
        )
        assert code == 2
        assert "dimensions" in capsys.readouterr().err

    def test_model_without_slots_exits_2(self, tmp_path, capsys):
        # rank refuses such a model, so its ranking is written directly.
        probs, model, ranking = (tmp_path / name for name in ("p.txt", "m.json", "r.json"))
        probs.write_text("3 0 0\n")
        assert run("ingest", "--probs", str(probs), "--out", str(model)) == 0
        write_ranking(
            Ranking(np.arange(3, dtype=np.int32)), ranking, algorithm="ntr",
            candidates=3, slots=0, n_samples=5, sample_seed=0, ranker_seed=0,
        )
        code = run(
            "eval", "--model", str(model), "--ranking", str(ranking),
            "--out", str(tmp_path / "rep.json"), "--draws", "3",
        )
        assert code == 2
        assert "without slots" in capsys.readouterr().err
        assert not (tmp_path / "rep.json").exists()

    def test_truncated_ranking_rejected(self, tmp_path, model_path, capsys):
        part = tmp_path / "part.json"
        assert run("rank", "--model", str(model_path), "--out", str(part), "--n", "4", "--stop-at", "3") == 0
        code = run(
            "eval", "--model", str(model_path), "--ranking", str(part),
            "--out", str(tmp_path / "r.json"), "--draws", "2",
        )
        assert code == 2
        assert "permutation" in capsys.readouterr().err

    def test_ranking_missing_metadata_exits_2(self, tmp_path, model_path, ranking_path, capsys):
        obj = json.loads(ranking_path.read_text())
        del obj["candidates"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code = run(
            "eval", "--model", str(model_path), "--ranking", str(bad),
            "--out", str(tmp_path / "r.json"), "--draws", "2",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.json" in err and "candidates" in err

    def test_config_threads_and_precedence(self, tmp_path, model_path, ranking_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"evaluation": {"draws": 5, "seed": 2}, "threads": 2})
        )
        out = tmp_path / "r.json"
        assert (
            run(
                "eval", "--model", str(model_path), "--ranking", str(ranking_path),
                "--out", str(out), "--config", str(cfg), "--eval-seed", "7",
            )
            == 0
        )
        rep = read_report(out)
        assert rep.eval_seed == 7  # CLI wins
        assert rep.draws == 5  # config wins


class TestReport:
    def test_table_and_csv(self, tmp_path, model_path, capsys):
        reports = []
        for algo in ("matchrank-lazy", "random"):
            rk = tmp_path / f"{algo}_ranking.json"
            out = tmp_path / f"{algo}.json"
            assert run("rank", "--model", str(model_path), "--out", str(rk), "--n", "4", "--algorithm", algo) == 0
            assert (
                run(
                    "eval", "--model", str(model_path), "--ranking", str(rk),
                    "--out", str(out), "--draws", "5",
                )
                == 0
            )
            reports.append(str(out))
        csv_out = tmp_path / "table.csv"
        assert run("report", *reports, "--out", str(csv_out)) == 0
        printed = capsys.readouterr().out
        assert "matchrank-lazy" in printed and "random" in printed
        lines = csv_out.read_text().strip().splitlines()
        assert lines[0].startswith("algorithm,")
        assert len(lines) == 3

    @pytest.mark.parametrize("field,value", [("per_draw_kmin", 5), ("draws", 7)])
    def test_malformed_report_exits_2_and_names_file(
        self, tmp_path, model_path, capsys, field, value
    ):
        rk, out = tmp_path / "ranking.json", tmp_path / "rep.json"
        assert run("rank", "--model", str(model_path), "--out", str(rk), "--n", "4") == 0
        assert run(
            "eval", "--model", str(model_path), "--ranking", str(rk),
            "--out", str(out), "--draws", "3",
        ) == 0
        obj = json.loads(out.read_text())
        obj[field] = value
        out.write_text(json.dumps(obj))
        capsys.readouterr()
        assert run("report", str(out)) == 2
        assert "rep.json" in capsys.readouterr().err

    @pytest.mark.parametrize("case", CONTRADICTORY_REPORTS)
    def test_a_report_that_contradicts_itself_exits_2(self, tmp_path, capsys, case):
        changes, fragment = CONTRADICTORY_REPORTS[case]
        path = report_file(tmp_path / "rep.json", **changes)
        assert run("report", str(path)) == 2
        captured = capsys.readouterr()
        assert f"{path}: " in captured.err and fragment in captured.err
        assert captured.out == ""

    def test_missing_report_exits_2(self, tmp_path):
        assert run("report", str(tmp_path / "none.json")) == 2


class TestOutputsRewrittenInPlace:
    """An existing ``--out`` file is rewritten in place, not truncated at open."""

    @pytest.fixture
    def report_path(self, tmp_path, model_path):
        rk, out = tmp_path / "ranking.json", tmp_path / "report.json"
        assert run("rank", "--model", str(model_path), "--out", str(rk), "--n", "4") == 0
        assert run("eval", "--model", str(model_path), "--ranking", str(rk),
                   "--out", str(out), "--draws", "3") == 0
        return out

    @pytest.mark.parametrize("before", ["longer", "shorter"])
    def test_report_csv_bytes_do_not_depend_on_the_file_overwritten(
        self, tmp_path, report_path, before
    ):
        fresh, target = tmp_path / "fresh.csv", tmp_path / "target.csv"
        assert run("report", str(report_path), "--out", str(fresh)) == 0
        want = fresh.read_bytes()
        assert want.endswith(b"\r\n")  # the csv module's line ends, untranslated
        target.write_bytes(want * 2 if before == "longer" else want[:5])
        assert run("report", str(report_path), "--out", str(target)) == 0
        assert target.read_bytes() == want

    def test_report_csv_is_not_opened_with_o_trunc(self, tmp_path, report_path, os_open_calls):
        out = tmp_path / "table.csv"
        out.write_bytes(b"an older and longer table\n" * 100)
        assert run("report", str(report_path), "--out", str(out)) == 0
        flags = [f for p, f in os_open_calls if p == str(out)]
        assert len(flags) == 1 and not flags[0] & os.O_TRUNC

    def test_symlinked_out_is_written_through(self, tmp_path, model_path):
        fresh, target, link = tmp_path / "fresh.json", tmp_path / "target.json", tmp_path / "link.json"
        assert run("rank", "--model", str(model_path), "--out", str(fresh), "--n", "4") == 0
        target.write_bytes(b"x" * 10000)
        link.symlink_to(target)
        assert run("rank", "--model", str(model_path), "--out", str(link), "--n", "4") == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == fresh.read_bytes()


class TestScipyImport:
    """Only the bisection path of evaluation solves a matching, so only it
    imports scipy.  Each command runs in a fresh interpreter."""

    PROBE = "import sys\nfrom matchrank.cli import main\nprint(main(sys.argv[1:]), 'scipy' in sys.modules)"

    def loads_scipy(self, *argv) -> bool:
        src = str(Path(matchrank.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c", self.PROBE, *argv], capture_output=True, text=True, env=env
        )
        code, loaded = out.stdout.splitlines()[-1].split()
        assert (out.returncode, code) == (0, "0"), out.stderr
        return loaded == "True"

    def test_only_a_bisection_eval_imports_scipy(self, tmp_path, ingested_model_path):
        model, ranking = str(tmp_path / "model.json"), str(tmp_path / "ranking.json")
        assert not self.loads_scipy("synth", "--out", model, "--groups", "3", "--slots-per-group", "2",
                                    "--candidates", "30", "--seed", "4")
        assert not self.loads_scipy("rank", "--model", model, "--out", ranking, "--n", "4")
        assert not self.loads_scipy("eval", "--model", model, "--ranking", ranking,
                                    "--out", str(tmp_path / "cut.json"), "--draws", "3")
        indep = str(tmp_path / "indep.json")
        assert not self.loads_scipy("rank", "--model", str(ingested_model_path), "--out", indep, "--n", "4")
        assert self.loads_scipy("eval", "--model", str(ingested_model_path), "--ranking", indep,
                                "--out", str(tmp_path / "bisection.json"), "--draws", "3")


class TestMemoryPreflight:
    def test_model_declaring_more_candidates_than_memory_exits_2(
        self, tmp_path, ingested_model_path, capsys, monkeypatch
    ):
        # 24 candidates need 400 bytes: row pointers and their counts.
        monkeypatch.setattr(core, "_physical_memory", lambda: 399)
        code = run("rank", "--model", str(ingested_model_path), "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert "24 candidates need more memory than this process may use" in capsys.readouterr().err

    def test_model_declaring_more_slots_than_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        # An independent model's bins are its slots: 2,000,000 one-slot bins
        # take a pointer, 8 bytes, each.
        probs = tmp_path / "p.txt"
        probs.write_text("1 2000000 1\n0 0 0.5\n")
        out = tmp_path / "m.json"
        monkeypatch.setattr(core, "_physical_memory", lambda: 15_999_999)
        assert run("ingest", "--probs", str(probs), "--out", str(out)) == 2
        assert "2000000 one-slot bins need more memory" in capsys.readouterr().err
        assert not out.exists()
        monkeypatch.setattr(core, "_physical_memory", lambda: 16_000_000)
        assert run("ingest", "--probs", str(probs), "--out", str(out)) == 0

    def test_samples_outgrowing_memory_exit_2_before_drawing(
        self, tmp_path, ingested_model_path, capsys, monkeypatch
    ):
        # The model reads in 400 bytes; 10 samples of its coins need more.
        coins = read_model(ingested_model_path)[0].coin_probs.size
        monkeypatch.setattr(core, "_physical_memory", lambda: 10 * coins - 1)
        out = tmp_path / "r.json"
        code = run("rank", "--model", str(ingested_model_path), "--out", str(out), "--n", "10")
        assert code == 2
        assert f"10 samples of {coins} coins need more memory" in capsys.readouterr().err
        assert not out.exists()
        # The samples fit, and so do the 16 bytes ntr's scores take per
        # entry (at most one per coin of one-slot bins); ntr, unlike a
        # greedy, builds no batched union.
        monkeypatch.setattr(core, "_physical_memory", lambda: 16 * coins)
        assert run("rank", "--model", str(ingested_model_path), "--out", str(out), "--n", "10",
                   "--algorithm", "ntr") == 0
        capsys.readouterr()
        assert run("rank", "--model", str(ingested_model_path), "--out", str(out), "--n", "10") == 2
        assert "batched union of 10 samples" in capsys.readouterr().err

    def test_batched_union_outgrowing_memory_exits_2(
        self, tmp_path, ingested_model_path, capsys, monkeypatch
    ):
        # The model's 16 slots rank through the batched kernel, whose union
        # of 10 samples needs more than the samples themselves.
        coins = read_model(ingested_model_path)[0].coin_probs.size
        monkeypatch.setattr(core, "_physical_memory", lambda: 10 * coins)
        out = tmp_path / "r.json"
        code = run("rank", "--model", str(ingested_model_path), "--out", str(out), "--n", "10")
        assert code == 2
        assert "batched union of 10 samples" in capsys.readouterr().err
        assert not out.exists()

    def test_ingest_expanding_beyond_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        # One entry read in a few bytes, expanded to 200,000 slots.
        probs, out = tmp_path / "p.txt", tmp_path / "m.json"
        probs.write_text("1 2 1\n0 0 0.5\n")
        monkeypatch.setattr(core, "_physical_memory", lambda: 2**20)
        code = run("ingest", "--probs", str(probs), "--out", str(out), "--slots-per-label", "200000")
        assert code == 2
        assert "200000 entries in 400000 one-slot bins need more memory" in capsys.readouterr().err
        assert not out.exists()


class TestUsage:
    def test_no_command(self, capsys):
        assert run() == 1

    def test_unknown_command(self, capsys):
        assert run("frobnicate") == 1

    def test_missing_required_flag(self, capsys):
        assert run("synth") == 1


def _command(kind: str, tmp_path, model_path) -> list[str]:
    """Arguments of one command of `kind` that reads a config file, with
    every input it needs written to `tmp_path`."""
    out = ["--out", str(tmp_path / "out")]
    if kind == "synth":
        return ["synth", *out]
    if kind == "ingest":
        probs = tmp_path / "p.txt"
        probs.write_text("2 2 2\n0 0 0.5\n1 1 0.75\n")
        return ["ingest", "--probs", str(probs), *out]
    if kind == "eval":
        ranking = tmp_path / "ranking.json"
        assert run("rank", "--model", str(model_path), "--out", str(ranking), "--n", "3") == 0
        return ["eval", "--model", str(model_path), "--ranking", str(ranking), *out]
    return [kind, "--model", str(model_path), *out]


class TestConfigValues:
    """A config value of the wrong type is a usage error: exit 1, naming the key."""

    @pytest.mark.parametrize(
        "command, section, key, value",
        [
            ("synth", "synth", "candidates", 30.5),
            ("synth", "synth", "seed", 1.5),
            ("synth", "synth", "groups", "3"),
            ("synth", "synth", "memberships", True),
            ("synth", "synth", "seed", -1),
            ("rank", "sampling", "seed", 1.5),
            ("rank", "sampling", "seed", "x"),
            ("rank", "sampling", "n", True),
            ("sample", "sampling", "seed", 1.5),
            ("sample", "sampling", "seed", "x"),
            ("sample", "sampling", "n", True),
            ("eval", "evaluation", "seed", 1.5),
            ("eval", "evaluation", "draws", True),
            ("ingest", "ingest", "max_clip", "0.5"),
            ("ingest", "ingest", "slots_per_label", True),
            ("rank", "ranker", "stop_at", 2.5),
            ("rank", "ranker", "seed", 2.5),
            ("rank", "ranker", "use_model_marginals", "no"),
        ],
    )
    def test_wrong_type_exits_1(self, tmp_path, model_path, capsys, command, section, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        argv = _command(command, tmp_path, model_path)
        assert run(*argv, "--config", str(cfg)) == 1
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_threads_true_exits_1(self, tmp_path, model_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threads": True}))
        assert run(*_command("eval", tmp_path, model_path), "--config", str(cfg)) == 1
        assert "threads" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--seed", "--sample-seed", "--ranker-seed", "--eval-seed"])
    def test_negative_seed_flag_exits_1(self, tmp_path, model_path, capsys, flag):
        kind = {"--seed": "synth", "--eval-seed": "eval"}.get(flag, "rank")
        assert run(*_command(kind, tmp_path, model_path), flag, "-1") == 1
        assert "non-negative" in capsys.readouterr().err

    def test_stop_at_beyond_the_model_exits_1(self, tmp_path, model_path, capsys):
        assert run(*_command("rank", tmp_path, model_path), "--stop-at", "31") == 1
        assert "exceeds 30 candidates" in capsys.readouterr().err
