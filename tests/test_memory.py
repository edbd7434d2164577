"""Peak resident memory of `prepare` and `train`, each measured in a fresh
child process by scripts/stage_memory.py, against an ingest-only child on
the same corpus: neither stage may hold the whole feature matrix."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from fraudsig.synthdata import SynthSpec, generate

ROOT = Path(__file__).resolve().parents[1]
STAGE_MEMORY = ROOT / "scripts" / "stage_memory.py"
# The reference corpus shape scaled to 2.6%: about 15,000 prefix samples, an
# 87 MB matrix at degree 4 (728 columns).
CORPUS_FRACTION = 0.026
MIN_MATRIX_BYTES = 40e6
# What `train` may hold besides its gathered rows: the reader's 3 MiB chunk,
# the networks, chain states and optimiser moments, BLAS buffers, condition
# codes and the split's index lists (about 17 MiB measured here).
TRAIN_ALLOWANCE = 24 * 2**20


def _spec() -> SynthSpec:
    full = SynthSpec()
    return SynthSpec(**{
        name: max(1, round(getattr(full, name) * CORPUS_FRACTION))
        for name in (
            "n_customers", "n_missing_gender", "n_rows", "excluded_rows",
            "n_fraud_customers", "sample_frauds", "early_frauds", "excluded_frauds",
        )
    })


def _run(*argv: str) -> str:
    """Standard output of scripts/stage_memory.py run with `argv`."""
    # One BLAS thread, so BLAS buffers do not grow with the core count.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(STAGE_MEMORY), *argv], env=env, check=True,
        capture_output=True, text=True, timeout=120,
    ).stdout


def _stage(*argv: str) -> dict:
    return json.loads(_run(*argv).strip().splitlines()[-1])


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_help_prints_the_script_usage(flag):
    """`--help` prints the script's own usage and exits 0, without running
    a stage or printing a measurement."""
    out = _run(flag)
    assert "scripts/stage_memory.py prepare --config" in out
    assert '"stage": ' not in out and "usage: fraudsig" not in out


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_stages_do_not_hold_the_feature_matrix(tmp_path):
    generate(tmp_path / "corpus.csv", _spec(), seed=0)
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump({
        "dataset_path": str(tmp_path / "corpus.csv"),
        "output_dir": str(tmp_path / "out"),
        "cache": str(tmp_path / "cache"),
        "seed": 0,
        "sig_degree": 4,
        "split": {"labeled_sizes": [100], "repetitions": 1},
        "train": {
            "epochs": 1, "burn_in": 0, "thinning": 1, "batch": 8, "chains_g": 1, "chains_d": 1,
        },
    }))
    config = ["--config", str(cfg)]
    ingest = _stage("ingest", *config)
    prepare = _stage("prepare", *config)
    train = _stage("train", *config, "--nl", "100", "--rep", "0")
    assert (ingest["exit"], prepare["exit"], train["exit"]) == (0, 0, 0)

    splits = json.loads((tmp_path / "out/prepared/splits.json").read_text())
    (bin_path,) = (tmp_path / "cache").rglob("features.bin")
    matrix_bytes = bin_path.stat().st_size
    train_bytes = matrix_bytes // splits["stats"]["n_samples"] * len(splits["train_idx"])
    assert matrix_bytes >= MIN_MATRIX_BYTES

    base = ingest["vm_hwm_bytes"]
    prepare_mib, train_mib = (
        (stage["vm_hwm_bytes"] - base) / 2**20 for stage in (prepare, train)
    )
    assert prepare["vm_hwm_bytes"] - base < 0.25 * matrix_bytes, (
        f"prepare peaks {prepare_mib:.1f} MiB above ingest; the matrix is "
        f"{matrix_bytes / 2**20:.1f} MiB"
    )
    assert train["vm_hwm_bytes"] - base < 1.1 * train_bytes + TRAIN_ALLOWANCE, (
        f"train peaks {train_mib:.1f} MiB above ingest; its rows are "
        f"{train_bytes / 2**20:.1f} MiB"
    )
