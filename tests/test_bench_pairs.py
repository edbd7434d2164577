import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _runs(values):
    return [{"values": {"wall_s": v}} for v in values]


BASE = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.02, 0.98, 1.0]  # median 1.0, IQR 0.03


@pytest.mark.parametrize(
    "change, verdict",
    [
        ([v - 0.2 for v in BASE], "gain"),                  # 10/10 wins, gap 0.2
        ([v - 0.2 for v in BASE[:9]] + [1.5], "gain"),      # 9/10 wins
        ([v - 0.2 for v in BASE[:8]] + [1.5, 1.5], "unchanged"),  # 8/10 wins
        ([v - 0.02 for v in BASE], "unchanged"),            # gap 0.02 inside the IQR
        ([v + 0.1 for v in BASE], "unchanged"),             # +10%, inside the 25% bound
        ([v + 0.3 for v in BASE], "worse"),                 # +30%
    ],
)
def test_compare_verdicts(change, verdict):
    got = bench_pairs.compare(_runs(BASE), _runs(change), {"wall_s": 0.25})["wall_s"]
    assert got["verdict"] == verdict
    assert got["base"]["median"] == 1.0
    assert got["base_iqr"] == pytest.approx(0.03)
    assert got["bound"] == 0.25


def test_wide_base_spread_is_unresolved():
    base = [1.0, 2.0, 1.0, 2.0, 1.5, 1.5, 1.0, 2.0, 1.5, 1.5]  # IQR 0.75 > 0.25 * 1.5
    change = [v * 1.1 for v in base]
    got = bench_pairs.compare(_runs(base), _runs(change), {"wall_s": 0.25})["wall_s"]
    assert got["verdict"] == "unresolved" and got["change_wins"] == 0
    worse = [v * 1.3 for v in base]
    assert bench_pairs.compare(_runs(base), _runs(worse), {"wall_s": 0.25})["wall_s"]["verdict"] == "worse"
    # Every change run below every base run, by less than the base IQR.
    below = [0.7 + 0.02 * i for i in range(10)]
    got = bench_pairs.compare(_runs(base), _runs(below), {"wall_s": 0.25})["wall_s"]
    assert got["change_wins"] == 10 and got["median_gap"] < got["base_iqr"]
    assert got["verdict"] == "unchanged"


def test_bounds_come_from_the_benchmark_file():
    assert bench_pairs.bounds() == {"wall_s": 0.25, "setup_s": 0.25, "peak_rss_mib": 0.1}


def _fake_runs(monkeypatch, out=None):
    """Replace the runs and the git lookups; returns the list of runs made,
    each noting whether the `out` directory existed when it started."""
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append(out is None or out.is_dir())
        values = {"wall_s": 1.0 + 0.01 * len(calls), "setup_s": 0.1, "peak_rss_mib": 50.0}
        return {"correct": True, "failed": 0, "attempted": 1, "values": values, "machine": {}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "revision", lambda checkout: "abc1234")
    return calls


def _argv(tmp_path, out, pairs):
    return ["--base", str(tmp_path), "--change", str(tmp_path), "--name", "t",
            "--seeds", "1", "--pairs", str(pairs), "--out", str(out)]


def test_missing_out_directory_is_made_before_the_runs(tmp_path, monkeypatch):
    out = tmp_path / "a" / "b"
    calls = _fake_runs(monkeypatch, out)
    assert bench_pairs.main(_argv(tmp_path, out, 2)) == 0
    assert calls == [True] * 4
    assert (out / "BENCH_t.json").exists()


@pytest.mark.parametrize("case", ["out-under-a-file", "one-pair"])
def test_bad_arguments_are_refused_before_any_run(tmp_path, monkeypatch, case):
    calls = _fake_runs(monkeypatch)
    (tmp_path / "file").write_text("")
    out, pairs = (tmp_path / "file" / "out", 2) if case == "out-under-a-file" else (tmp_path, 1)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(_argv(tmp_path, out, pairs))
    assert exc.value.code == 2 and calls == []
