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
