import importlib.util
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(monkeypatch, name):
    # the tools put their own directories on sys.path when imported
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"tool_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("repeats", ["0", "-3"])
def test_rt_routes_repeats_below_one_exits_2(monkeypatch, capsys, repeats):
    rt_routes = load_tool(monkeypatch, "rt_routes")
    with pytest.raises(SystemExit) as exc:
        rt_routes.main(["--repeats", repeats])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--repeats" in err and "Traceback" not in err


def test_bench_pairs_records_name_the_tree(monkeypatch):
    bench_pairs = load_tool(monkeypatch, "bench_pairs")
    diff = b""

    def git(*args):
        if args[0] == "rev-parse":
            return b"abc1234\n"
        assert args == ("diff", "HEAD", "--binary")
        return diff

    monkeypatch.setattr(bench_pairs, "git", git)
    assert bench_pairs.describe_checkout() == "abc1234"
    records = set()
    for diff in (b"diff --git a/x b/x\n-1\n+2\n", b"diff --git a/x b/x\n-1\n+3\n"):
        record = bench_pairs.describe_checkout()
        assert record.startswith("abc1234 + uncommitted changes")
        records.add(record)
    assert len(records) == 2


def test_bench_pairs_host_names_the_bytecode_setting(monkeypatch):
    bench_pairs = load_tool(monkeypatch, "bench_pairs")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert bench_pairs.describe_host().endswith("PYTHONDONTWRITEBYTECODE set")
    # Python counts the variable as set only when it is not empty
    for value in ("", None):
        if value is None:
            monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
        else:
            monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
        assert bench_pairs.describe_host().endswith("PYTHONDONTWRITEBYTECODE unset")
