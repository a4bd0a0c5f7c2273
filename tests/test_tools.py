import importlib.util
import itertools
import subprocess
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


def test_bench_pairs_records_name_the_tree(monkeypatch, tmp_path):
    bench_pairs = load_tool(monkeypatch, "bench_pairs")
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        return subprocess.run(["git", "-C", str(repo), "-c", "user.name=t",
                               "-c", "user.email=t@example.org", "-c", "commit.gpgsign=false",
                               *args], check=True, capture_output=True, text=True).stdout

    git("init", "-q")
    (repo / ".gitignore").write_text("__pycache__/\n")
    (repo / "x.py").write_text("1\n")
    git("add", "-A")
    git("commit", "-q", "-m", "x")
    monkeypatch.setattr(bench_pairs, "ROOT", str(repo))
    head = bench_pairs.short("HEAD")
    scratch = itertools.count()

    def tree():
        tmp = tmp_path / f"index{next(scratch)}"
        tmp.mkdir()
        return bench_pairs.write_tree(str(tmp))

    (repo / "__pycache__").mkdir()
    (repo / "__pycache__" / "x.cpython.pyc").write_bytes(b"\0")
    assert bench_pairs.describe_checkout(tree()) == head
    records = set()
    for text in ("2\n", "3\n"):
        (repo / "x.py").write_text(text)
        record = bench_pairs.describe_checkout(tree())
        assert record.startswith(f"{head} + uncommitted changes")
        records.add(record)
    assert len(records) == 2
    (repo / "x.py").write_text("1\n")
    (repo / "y.py").write_text("new\n")
    untracked = tree()
    assert bench_pairs.describe_checkout(untracked) not in records | {head}
    into = tmp_path / "export"
    bench_pairs.export(untracked, str(into))
    assert sorted(p.name for p in into.iterdir()) == [".gitignore", "x.py", "y.py"]
    # the checkout's own index is left as it was
    assert git("status", "--porcelain") == "?? y.py\n"


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
