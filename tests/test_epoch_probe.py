"""scripts/epoch_probe.py at a tiny shape: it trains with its rows held in
memory, with them read from features.bin, and switching between the two
from epoch to epoch, and all write the same trace.csv and members.bin."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EPOCH_PROBE = ROOT / "scripts" / "epoch_probe.py"
TINY = ("--rows", "500", "--batch", "32", "--epochs", "3")


def _probe(*argv: str, check: bool = True) -> subprocess.CompletedProcess:
    """scripts/epoch_probe.py run with `argv`, its output captured."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(EPOCH_PROBE), *argv], env=env, check=check,
        capture_output=True, text=True, timeout=300,
    )


def _run(*argv: str) -> str:
    """Standard output of scripts/epoch_probe.py run with `argv`."""
    return _probe(*argv).stdout


def test_help_prints_the_script_usage():
    out = _run("--help")
    assert "--from-file" in out and "--alternate" in out and '"epoch_s"' in out


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_rows_from_the_file_train_to_the_same_bytes(tmp_path):
    """The memory mode, the file mode, the file mode with the file's pages
    evicted before every epoch, and the alternating mode (epochs 1 and 2
    from memory, 3 from the file) print the same sha256s."""
    runs = {
        name: json.loads(_run(*TINY, *flags, "--workdir", str(tmp_path / name)).splitlines()[-1])
        for name, flags in (
            ("memory", ()), ("file", ("--from-file",)), ("cold", ("--from-file", "--evict")),
            ("alternate", ("--alternate",)),
        )
    }
    assert [run["mode"] for run in runs.values()] == ["memory", "file", "file", "alternate"]
    assert [run["epoch_modes"] for run in runs.values()] == [
        ["memory"] * 3, ["file"] * 3, ["file"] * 3, ["memory", "memory", "file"],
    ]
    assert {len(run["epoch_s"]) for run in runs.values()} == {3}
    assert (tmp_path / "file/features.bin").stat().st_size == 500 * 728 * 8
    hashes = {(run["trace_sha256"], run["members_sha256"]) for run in runs.values()}
    assert len(hashes) == 1


@pytest.mark.parametrize("flag", ["--rows", "--batch", "--epochs"])
def test_non_positive_sizes_are_refused(flag):
    """0 is no size: argparse refuses it (exit 2) before anything is drawn."""
    run = _probe(flag, "0", check=False)
    assert run.returncode == 2
    assert f"{flag}: must be a positive integer, got 0" in run.stderr
    assert run.stdout == ""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_profile_steps_serially_to_the_same_bytes(tmp_path):
    """--profile prints cProfile's top entries to standard error, keeps the
    JSON line last on standard output, and trains to the same bytes as the
    threaded run at the tiny shape (one epoch)."""
    one = ("--rows", "500", "--batch", "32", "--epochs", "1")
    run = _probe(*one, "--profile", "--workdir", str(tmp_path / "p"))
    profiled = json.loads(run.stdout.splitlines()[-1])
    threaded = json.loads(_run(*one, "--workdir", str(tmp_path / "t")).splitlines()[-1])
    assert profiled["profile"] is True and threaded["profile"] is False
    assert "cumulative" in run.stderr and "critic_step" in run.stderr
    assert (profiled["trace_sha256"], profiled["members_sha256"]) == (
        threaded["trace_sha256"], threaded["members_sha256"]
    )
