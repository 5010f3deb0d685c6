"""scripts/bench_record.py on two tiny synthetic series."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(path, sha, rows):
    """rows: (workload, seed, units_per_s, peak_rss_mb), one series.py record each."""
    lines = []
    for workload, seed, rate, rss in rows:
        prov = {"git_sha": sha, "git_dirty": False, "python": "3.11.7", "numpy": "2.4.6",
                "nproc": 2, "blas_threads": "2", "workload": workload, "seed": seed,
                "seconds": 10}
        metrics = {"setup_s": {"value": 0.5, "unit": "s"},
                   "units_per_s": {"value": rate, "unit": "1/s"},
                   "peak_rss_mb": {"value": rss, "unit": "MB"},
                   "call_s.p50": {"value": 1.0, "unit": "s"}}
        lines.append(json.dumps({"provenance": prov, "metrics": metrics}))
    path.write_text("\n".join(lines) + "\n")


def test_bench_record_writes_each_metric_with_its_verdict(tmp_path):
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    seeds = range(1, 11)
    _write(parent, "aaa", [("wl", s, 100.0 + s, 40.0) for s in seeds] + [("other", 1, 5.0, 30.0)])
    _write(change, "bbb", [("wl", s, 200.0 + s, 40.0 + (s == 3)) for s in seeds])
    assert _load().main([str(parent), str(change), "--pr", "7", "--out-dir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert doc["pr"] == 7
    assert doc["parent"] == {"sha": "aaa", "dirty": False, "runs": 11}
    assert doc["change"] == {"sha": "bbb", "dirty": False, "runs": 10}
    assert doc["host"]["numpy"] == ["2.4.6"] and doc["host"]["nproc"] == ["2"]
    # only workloads both sides ran, only BENCHMARK.json's end-to-end metrics
    assert list(doc["workloads"]) == ["wl"]
    wl = doc["workloads"]["wl"]
    assert sorted(wl) == ["peak_rss_mb", "setup_s", "units_per_s"]
    rate = wl["units_per_s"]
    assert rate["better"] == "higher" and rate["bound"] == 0.25 and rate["unit"] == "1/s"
    assert rate["parent"] == {"median": 105.5, "q1": 102.75, "q3": 108.25}
    assert rate["change"]["median"] == 205.5
    assert rate["ratio"] == pytest.approx(205.5 / 105.5)
    assert (rate["pairs_won"], rate["pairs"], rate["verdict"]) == (10, 10, "improved")
    rss = wl["peak_rss_mb"]
    assert rss["better"] == "lower" and rss["bound"] == 0.05
    assert (rss["pairs_won"], rss["verdict"]) == (0, "within bound")
    assert wl["setup_s"]["verdict"] == "within bound"


def test_bench_record_refuses_records_of_two_commits(tmp_path):
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    _write(parent, "aaa", [("wl", 1, 1.0, 1.0)])
    lines = parent.read_text() + parent.read_text().replace("aaa", "ccc")
    parent.write_text(lines)
    _write(change, "bbb", [("wl", 1, 1.0, 1.0)])
    with pytest.raises(SystemExit, match="parent records come from 2 commits"):
        _load().main([str(parent), str(change), "--pr", "7", "--out-dir", str(tmp_path)])
