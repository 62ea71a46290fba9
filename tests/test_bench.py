"""``bench.py`` per-query timing: a child that exits 0 without a JSON
result line must not crash the whole bench."""

import importlib.util
import os
import subprocess

import pytest

_BENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench.py")


@pytest.fixture()
def bench():
    spec = importlib.util.spec_from_file_location("bench", _BENCH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize(
    "stdout, want",
    [
        ('log line\n{"queries": {"q1": 0.5}}\n', {"q1": 0.5}),
        ("", None),
        ("\n\n", None),
        ("Traceback: not json\n", None),
        ('{"no_queries": 1}\n', None),
        ("7\n", None),
    ],
)
def test_time_chunk_tolerates_malformed_child_stdout(bench, monkeypatch, stdout, want):
    def fake_run(argv, **kwargs):
        assert kwargs["env"]["GRAFT_BENCH_QUERIES"] == "q1"
        return subprocess.CompletedProcess(argv, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    assert bench.time_chunk(["q1"]) == want


def test_time_chunk_failed_child_is_none(bench, monkeypatch):
    monkeypatch.setattr(
        bench.subprocess, "run",
        lambda argv, **kw: subprocess.CompletedProcess(argv, 1, stdout="", stderr="boom"),
    )
    assert bench.time_chunk(["q1"]) is None
