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


def _run(*argv: str) -> str:
    """Standard output of scripts/epoch_probe.py run with `argv`."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(EPOCH_PROBE), *argv], env=env, check=True,
        capture_output=True, text=True, timeout=300,
    ).stdout


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
