"""Peak resident memory of `prepare`, `train` and `evaluate`, each measured
in a fresh child process by scripts/stage_memory.py, against an ingest-only
child on the same corpus: no stage may hold the whole feature matrix,
`train` no row of its split but the labeled ones, and neither `train` nor
`evaluate` the posterior ensemble."""

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
# What a stage may hold besides its rows (`evaluate` its split's, `train` its
# labeled ones): the networks, one chain per side's states and optimiser
# moments, BLAS buffers, a minibatch's forward caches or a prediction batch's
# activations, condition codes and the split's index lists (about 20 MiB
# measured for `train`, 16 MiB for `evaluate`, here).
STAGE_ALLOWANCE = 24 * 2**20


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


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A prepared corpus of the reference shape scaled to 2.6%: (its
    directory, config(**train) writing a config of those train settings,
    the ingest and prepare measurements)."""
    root = tmp_path_factory.mktemp("memory")
    generate(root / "corpus.csv", _spec(), seed=0)

    def config(**train) -> list[str]:
        cfg = root / "config.yaml"
        cfg.write_text(yaml.safe_dump({
            "dataset_path": str(root / "corpus.csv"),
            "output_dir": str(root / "out"),
            "cache": str(root / "cache"),
            "seed": 0,
            "sig_degree": 4,
            "split": {"labeled_sizes": [100], "repetitions": 1},
            "train": train,
        }))
        return ["--config", str(cfg)]

    ingest = _stage("ingest", *config())
    prepare = _stage("prepare", *config())
    assert (ingest["exit"], prepare["exit"]) == (0, 0)
    return root, config, ingest, prepare


def _split_bytes(root: Path, split: str) -> int:
    """The bytes of the feature rows of `split` ("train_idx" or "test_idx"),
    or of the labeled rows of the first cell ("labeled")."""
    splits = json.loads((root / "out/prepared/splits.json").read_text())
    (bin_path,) = (root / "cache").rglob("features.bin")
    rows = splits["labeled"]["0:0"] if split == "labeled" else splits[split]
    return bin_path.stat().st_size // splits["stats"]["n_samples"] * len(rows)


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_help_prints_the_script_usage(flag):
    """`--help` prints the script's own usage and exits 0, without running
    a stage or printing a measurement."""
    out = _run(flag)
    assert "scripts/stage_memory.py prepare --config" in out
    assert '"stage": ' not in out and "usage: fraudsig" not in out


needs_proc = pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="needs /proc/self/status"
)


@needs_proc
def test_stages_do_not_hold_the_feature_matrix(corpus):
    root, config, ingest, prepare = corpus
    train = _stage(
        "train", *config(epochs=1, burn_in=0, thinning=1, batch=8, chains_g=1, chains_d=1),
        "--nl", "100", "--rep", "0",
    )
    assert train["exit"] == 0

    (bin_path,) = (root / "cache").rglob("features.bin")
    matrix_bytes = bin_path.stat().st_size
    train_bytes = _split_bytes(root, "train_idx")
    assert matrix_bytes >= MIN_MATRIX_BYTES

    base = ingest["vm_hwm_bytes"]
    prepare_mib, train_mib = (
        (stage["vm_hwm_bytes"] - base) / 2**20 for stage in (prepare, train)
    )
    assert prepare["vm_hwm_bytes"] - base < 0.25 * matrix_bytes, (
        f"prepare peaks {prepare_mib:.1f} MiB above ingest; the matrix is "
        f"{matrix_bytes / 2**20:.1f} MiB"
    )
    assert train["vm_hwm_bytes"] - base < 1.1 * train_bytes + STAGE_ALLOWANCE, (
        f"train peaks {train_mib:.1f} MiB above ingest; its rows are "
        f"{train_bytes / 2**20:.1f} MiB"
    )
    labeled_bytes = _split_bytes(root, "labeled")
    assert train["vm_hwm_bytes"] - base < 1.1 * labeled_bytes + STAGE_ALLOWANCE, (
        f"train peaks {train_mib:.1f} MiB above ingest; its labeled rows are "
        f"{labeled_bytes / 2**20:.1f} MiB and its split's {train_bytes / 2**20:.1f} MiB"
    )


@needs_proc
def test_stages_do_not_hold_the_ensemble(corpus):
    """`train` of a 160-member cell (178 MB of members) and `evaluate` of it
    stay within their rows and the allowance, plus, for `train`, the states
    of its chains beyond one per side."""
    root, config, ingest, _ = corpus
    config = config(epochs=40, burn_in=0, thinning=1, batch=8, chains_g=1, chains_d=4)
    train = _stage("train", *config, "--nl", "100", "--rep", "0")
    evaluate = _stage("evaluate", *config)
    assert (train["exit"], evaluate["exit"]) == (0, 0)

    members_bytes = (root / "out/runs/nl100_rep0/checkpoint/members.bin").stat().st_size
    assert members_bytes > 150e6
    # The allowance covers one chain per side; the three more critic chains
    # hold parameters, two moments and a gradient of a member's size each.
    extra_chains = 3 * 4 * members_bytes // 160

    base = ingest["vm_hwm_bytes"]
    for stage, rows, allowance in (
        (train, _split_bytes(root, "train_idx"), STAGE_ALLOWANCE + extra_chains),
        (evaluate, _split_bytes(root, "test_idx"), STAGE_ALLOWANCE),
    ):
        assert stage["vm_hwm_bytes"] - base < 1.1 * rows + allowance, (
            f"{stage['stage']} peaks {(stage['vm_hwm_bytes'] - base) / 2**20:.1f} MiB above "
            f"ingest; its rows are {rows / 2**20:.1f} MiB and the ensemble "
            f"{members_bytes / 2**20:.1f} MiB"
        )
