import json

import pytest

from synchro import cli, core, harness


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_stdout_is_canonical_json(self, capsys):
        code, out, err = run(capsys, "gen", "cerny", "--n", "4")
        assert code == 0
        d = core.dfa_loads(out)
        assert d.n == 4 and d.letters == ("a", "b")
        meta = json.loads(err)
        assert meta["expected_rt"] == 9

    def test_file_output_with_sidecar(self, capsys, tmp_path):
        target = tmp_path / "d.json"
        code, out, _ = run(capsys, "gen", "dnk", "--n", "5", "--k", "4",
                           "-o", str(target))
        assert code == 0
        d = core.load_dfa(target)
        assert d.n == 5
        meta = json.loads((tmp_path / "d.meta.json").read_text())
        assert meta["family"] == "dnk" and meta["params"] == {"n": 5, "k": 4}

    def test_bad_params_usage_error(self, capsys):
        code, _, err = run(capsys, "gen", "dnk", "--n", "6", "--k", "3")
        assert code == 2 and "coprime" in err

    def test_output_directory_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "gen", "cerny", "--n", "4", "-o", str(tmp_path))
        assert code == 2 and out == ""
        assert str(tmp_path) in err and "Traceback" not in err


class TestSolveAndRt:
    @pytest.fixture
    def c4(self, tmp_path, capsys):
        path = tmp_path / "c4.json"
        run(capsys, "gen", "cerny", "--n", "4", "-o", str(path))
        return str(path)

    def test_rt(self, capsys, c4):
        code, out, _ = run(capsys, "rt", c4)
        assert code == 0
        assert json.loads(out) == {
            "rt": 9, "word": ["a", "b", "b", "b", "a", "b", "b", "b", "a"]}

    @pytest.mark.parametrize("method", ["bfs", "greedy", "extension",
                                        "eppstein", "a10"])
    def test_solvers_produce_reset_words(self, capsys, c4, method):
        code, out, _ = run(capsys, "solve", c4, "--method", method)
        assert code == 0
        res = json.loads(out)
        d = core.load_dfa(c4)
        word = tuple(d.letter_index(x) for x in res["word"])
        assert len(core.image(d, core.StateSet.full(4), word)) == 1
        assert res["length"] == len(word)

    def test_c7_rejected_on_cerny(self, capsys, c4):
        code, _, err = run(capsys, "solve", c4, "--method", "c7")
        assert code == 2 and "idempotent" in err

    def test_cap_exit_code(self, capsys, c4):
        code, _, err = run(capsys, "rt", c4, "--cap", "2")
        assert code == 3 and "cap" in err.lower()

    @pytest.mark.parametrize("argv", [
        ("rt", "--cap", "-1"),
        ("rt", "--cap", "0"),
        *(("solve", "--method", method, "--cap", "0")
          for method in ("bfs", "greedy", "extension", "eppstein")),
    ])
    def test_cap_below_one_exits_2(self, capsys, c4, argv):
        # no automaton fits such a cap, so it is a usage error, not a cap hit
        code, out, err = run(capsys, argv[0], c4, *argv[1:])
        assert code == 2 and out == ""
        assert "--cap" in err and "Traceback" not in err

    @pytest.mark.parametrize("method", ["bfs", "greedy", "extension"])
    def test_solve_cap_applies_to_subset_methods(self, capsys, c4, method):
        code, out, err = run(capsys, "solve", c4, "--method", method, "--cap", "2")
        assert code == 3 and out == "" and "cap" in err

    @pytest.mark.parametrize("method", ["eppstein", "a10", "c7"])
    @pytest.mark.parametrize("cap", ["2", "30"])
    def test_solve_cap_on_an_uncapped_method_exits_2(self, capsys, c4, method, cap):
        # the flag would be silently ignored, so it is a usage error
        code, out, err = run(capsys, "solve", c4, "--method", method, "--cap", cap)
        assert code == 2 and out == ""
        assert "--cap" in err and method in err and "Traceback" not in err

    def test_not_extensible_exits_2(self, capsys, tmp_path):
        # the extension method finds no word extending one 61-state subset
        path = tmp_path / "r64.json"
        core.save_dfa(harness.random_synchronizing(64, 2, 2), path)
        code, out, err = run(capsys, "solve", str(path), "--method", "extension",
                             "--cap", "64")
        assert code == 2 and out == ""
        assert "is not extensible" in err and "Traceback" not in err

    def test_a10_past_20_states(self, capsys, tmp_path):
        # a cyclic-case input: the solver composes kernels with no state cap
        path = tmp_path / "a10.json"
        core.save_dfa(harness.random_simple_idempotent_binary(24, 38), path)
        code, out, err = run(capsys, "solve", str(path), "--method", "a10")
        assert code == 0 and err == ""
        assert json.loads(out)["method"] == "a10"

    @pytest.mark.parametrize("argv", [
        ("rt",), *(("solve", "--method", method)
                   for method in ("bfs", "greedy", "extension", "a10"))])
    def test_not_synchronizing_exits_2(self, capsys, tmp_path, argv):
        # b is a 4-cycle and a merges only states 0 and 2, two steps apart
        path = tmp_path / "d.json"
        core.save_dfa(core.Dfa(4, ("a", "b"), ((2, 1, 2, 3), (1, 2, 3, 0))), path)
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out, err) == (2, "", "error: automaton is not synchronizing\n")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "rt", "/nonexistent.json")
        assert code == 2

    def test_undecodable_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe\x00")
        code, out, err = run(capsys, "rt", str(path))
        assert code == 2 and out == ""
        assert str(path) in err

    @pytest.mark.parametrize("text", [
        "not json", '{"n": 2, "letters": ["a"], "delta": [[1, 0]]}'])
    def test_bad_content_names_the_file(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "rt", str(path))
        assert code == 2 and out == ""
        assert str(path) in err and "Traceback" not in err

    def test_non_integer_order_exits_2(self, capsys, c4):
        code, out, err = run(capsys, "solve", c4, "--method", "eppstein",
                             "--order", "0,x,2,3")
        assert code == 2 and out == ""
        assert "'x'" in err

    @pytest.mark.parametrize("method", ["bfs", "greedy", "extension", "a10", "c7"])
    @pytest.mark.parametrize("order", ["0,1,2,3", "x"])
    def test_order_on_another_method_exits_2(self, capsys, c4, method, order):
        # only eppstein reads an order, so elsewhere it would be silently ignored
        code, out, err = run(capsys, "solve", c4, "--method", method, "--order", order)
        assert code == 2 and out == ""
        assert "--order" in err and method in err and "Traceback" not in err


class TestClassifyMonoidBound:
    def test_classify_selected(self, capsys, tmp_path):
        path = tmp_path / "c5.json"
        run(capsys, "gen", "cerny", "--n", "5", "-o", str(path))
        code, out, _ = run(capsys, "classify", str(path), "--classes", "a1,a6,d2")
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"a1", "a6", "d2"}
        assert report["a1"]["status"] == "in"

    def test_classify_with_delta_graph(self, capsys, tmp_path):
        path = tmp_path / "c4.json"
        run(capsys, "gen", "cerny", "--n", "4", "-o", str(path))
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(
            {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}))
        code, out, _ = run(capsys, "classify", str(path), "--classes", "a4",
                           "--delta-graph", str(gpath))
        assert code == 0
        assert json.loads(out)["a4"]["status"] == "in"

    def test_classify_delta_graph_without_a4_exits_2(self, capsys, tmp_path):
        path = tmp_path / "c4.json"
        run(capsys, "gen", "cerny", "--n", "4", "-o", str(path))
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}))
        code, out, err = run(capsys, "classify", str(path), "--classes", "a1,a6",
                             "--delta-graph", str(gpath))
        assert code == 2 and out == ""
        assert "--delta-graph" in err and "a4" in err and "Traceback" not in err
        # without --classes every class runs, a4 among them
        code, out, _ = run(capsys, "classify", str(path), "--delta-graph", str(gpath))
        assert code == 0 and json.loads(out)["a4"]["status"] == "in"

    @pytest.mark.parametrize("text", [None, "not json", '{"n": 4, "edges": [["x", 1]]}'])
    def test_classify_malformed_delta_graph_exits_2(self, capsys, tmp_path, text):
        path = tmp_path / "c4.json"
        run(capsys, "gen", "cerny", "--n", "4", "-o", str(path))
        gpath = tmp_path / "g.json"
        if text is not None:
            gpath.write_text(text)
        code, out, err = run(capsys, "classify", str(path), "--classes", "a4",
                             "--delta-graph", str(gpath))
        assert code == 2 and out == ""
        assert str(gpath) in err and "Traceback" not in err

    def test_monoid_summary(self, capsys, tmp_path):
        path = tmp_path / "m4.json"
        run(capsys, "gen", "chain", "--n", "4", "-o", str(path))
        code, out, _ = run(capsys, "monoid", str(path))
        assert code == 0
        summary = json.loads(out)
        assert summary["size"] == 4
        assert summary["aperiodic"]["status"] == "in"

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_monoid_max_size_below_one_exits_2(self, capsys, tmp_path, size):
        path = tmp_path / "m4.json"
        run(capsys, "gen", "chain", "--n", "4", "-o", str(path))
        code, out, err = run(capsys, "monoid", str(path), "--max-size", size)
        assert code == 2 and out == ""
        assert "--max-size" in err

    def test_monoid_max_size_too_small_exits_3(self, capsys, tmp_path):
        path = tmp_path / "m4.json"
        run(capsys, "gen", "chain", "--n", "4", "-o", str(path))
        code, out, err = run(capsys, "monoid", str(path), "--max-size", "2")
        assert code == 3 and out == ""
        assert "cap" in err

    def test_bound(self, capsys):
        code, out, _ = run(capsys, "bound", "--class", "kari_eulerian", "--n", "5")
        assert code == 0
        assert json.loads(out)["value"] == "13"

    def test_bound_unknown_class(self, capsys):
        code, _, err = run(capsys, "bound", "--class", "zz", "--n", "5")
        assert code == 2

    @pytest.mark.parametrize("cls,d", [("d3", "100"), ("d1q", "-1"), ("d3", "6")])
    def test_bound_degree_out_of_range_exits_2(self, capsys, cls, d):
        code, out, err = run(capsys, "bound", "--class", cls, "--n", "5", "--d", d)
        assert code == 2 and out == ""
        assert "degree" in err

    def test_bound_degree_n_is_valid(self, capsys):
        code, out, _ = run(capsys, "bound", "--class", "d1q", "--n", "5", "--d", "5")
        assert code == 0
        assert json.loads(out)["value"] == "96"   # 2^5 * 1 * 3


class TestVerifyAndEnum:
    def test_verify_quick_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "quick", "--max-n", "4")
        # every case at this size passes (the known-red case needs n >= 5)
        assert code == 0
        assert "cases passed" in out

    def test_verify_reports_failure_exit(self, capsys):
        # at max-n 5 the recorded closed form for the two-letter one-cluster
        # series is refuted by search, so the campaign reports a failure
        code, out, _ = run(capsys, "verify", "--suite", "quick", "--max-n", "5")
        assert code == 1
        assert "FAIL" in out

    def test_verify_out_directory_exits_2_before_any_case(self, capsys, monkeypatch, tmp_path):
        ran = []
        monkeypatch.setattr(harness, "run_case", lambda *a: ran.append(a))
        code, out, err = run(capsys, "verify", "--suite", "quick", "--max-n", "3",
                             "--out", str(tmp_path))
        assert code == 2 and ran == []
        assert "PASS" not in out and "FAIL" not in out
        assert str(tmp_path) in err and "Traceback" not in err

    @pytest.mark.parametrize("max_n", ["1", "0", "-2"])
    def test_verify_max_n_below_every_case_exits_2(self, capsys, max_n):
        code, out, err = run(capsys, "verify", "--suite", "quick", "--max-n", max_n)
        assert code == 2 and out == ""
        assert "--max-n" in err and "Traceback" not in err

    def test_verify_max_n_below_every_case_writes_no_out_file(self, capsys, tmp_path):
        path = tmp_path / "results.jsonl"
        code, out, _ = run(capsys, "verify", "--suite", "paper", "--max-n", "1",
                           "--out", str(path))
        assert code == 2 and out == ""
        assert not path.exists()

    def test_enum_count(self, capsys):
        code, out, _ = run(capsys, "enum", "--letters", "2", "--states", "2")
        assert code == 0
        assert json.loads(out)["classes"] == 7

    def test_enum_max_rt_with_filter(self, capsys):
        code, out, _ = run(capsys, "enum", "--letters", "2", "--states", "3",
                           "--filter", "eulerian,synchronizing", "--report", "max-rt")
        assert code == 0
        report = json.loads(out)
        assert report["max_rt"] >= 1

    @pytest.mark.parametrize("env,flags,culprit", [
        ("x", [], "SYNCHRO_WORKERS"),
        ("0", [], "SYNCHRO_WORKERS"),
        (None, ["--workers", "0"], "--workers"),
    ])
    def test_verify_rejects_bad_worker_count(self, capsys, monkeypatch, env, flags, culprit):
        if env is None:
            monkeypatch.delenv("SYNCHRO_WORKERS", raising=False)
        else:
            monkeypatch.setenv("SYNCHRO_WORKERS", env)
        code, out, err = run(capsys, "verify", "--suite", "quick", "--max-n", "2", *flags)
        assert code == 2
        assert culprit in err and out == ""

    def test_enum_checkpoint_of_another_filter_exits_2(self, capsys, tmp_path):
        ck = str(tmp_path / "census.jsonl")
        code, _, _ = run(capsys, "enum", "--letters", "2", "--states", "3", "--checkpoint", ck)
        assert code == 0
        code, out, err = run(capsys, "enum", "--letters", "2", "--states", "3",
                             "--filter", "synchronizing", "--checkpoint", ck)
        assert code == 2 and out == ""
        assert f"{ck}:1:" in err

    def test_enum_torn_checkpoint_line_exits_2(self, capsys, tmp_path):
        path = tmp_path / "census.jsonl"
        args = ["enum", "--letters", "2", "--states", "3", "--checkpoint", str(path)]
        code, _, _ = run(capsys, *args)
        assert code == 0
        text = path.read_text()
        path.write_text(text[:len(text) - 10])
        code, out, err = run(capsys, *args)
        assert code == 2 and out == ""
        assert f"{path}:3:" in err

    def test_enum_count_with_checkpoint_exits_2(self, capsys, tmp_path):
        # the count report never reads or writes a checkpoint
        ck = tmp_path / "no" / "such" / "ck.jsonl"
        code, out, err = run(capsys, "enum", "--letters", "2", "--states", "3",
                             "--report", "count", "--checkpoint", str(ck))
        assert code == 2 and out == ""
        assert "--checkpoint" in err and "count" in err and "Traceback" not in err

    def test_enum_checkpoint_directory_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "enum", "--letters", "2", "--states", "3",
                             "--checkpoint", str(tmp_path))
        assert code == 2 and out == ""
        assert str(tmp_path) in err and "Traceback" not in err

    def test_enum_budget_exit(self, capsys):
        code, _, err = run(capsys, "enum", "--letters", "2", "--states", "7")
        assert code == 3

    def test_enum_unknown_filter_exits_2(self, capsys):
        code, out, err = run(capsys, "enum", "--letters", "2", "--states", "3",
                             "--filter", "eulrian", "--report", "count")
        assert code == 2 and out == ""
        assert "eulrian" in err
        for name in ("eulerian", "strongly-connected", "synchronizing", "aperiodic"):
            assert name in err

    @pytest.mark.parametrize("flag", ["--letters", "--states"])
    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_enum_size_below_one_exits_2(self, capsys, flag, value):
        args = ["enum", "--letters", "2", "--states", "3"]
        args[args.index(flag) + 1] = value
        code, out, err = run(capsys, *args)
        assert code == 2 and out == ""
        assert flag[2:] in err and value in err and "Traceback" not in err

    def test_dot(self, capsys, tmp_path):
        path = tmp_path / "c3.json"
        run(capsys, "gen", "cerny", "--n", "3", "-o", str(path))
        code, out, _ = run(capsys, "dot", str(path))
        assert code == 0 and "digraph" in out and '0 -> 1 [label="a,b"];' in out
