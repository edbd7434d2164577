#!/usr/bin/env python
"""Desk-scale end-to-end run: 10% of customers, shortened training.

Generates the demo corpus if needed, writes a config, then drives the four
pipeline stages through the CLI.  Finishes in well under half an hour on a
laptop-class machine.  The recipe is also acceptance criterion 9's.
"""

import argparse
import sys
from pathlib import Path

import yaml

from fraudsig.cli import main as fraudsig_main
from fraudsig.synthdata import SynthSpec, generate

DESK_SUBSAMPLE = 0.1  # fraction of customers `prepare --subsample` keeps
DESK_CONFIG = {
    "seed": 0,
    "sig_degree": 4,
    "min_prefix": 5,
    "split": {
        "test_fraction": 0.1,
        "labeled_sizes": [25946],
        "repetitions": 1,
    },
    "train": {
        "epochs": 100,
        "chains_g": 2,
        "chains_d": 2,
        "batch": 512,
        "n_critic": 5,
        "thinning": 10,
        # noise level suited to the shortened budget (see README: friction
        # 0.1 assumes the full 1000-epoch run)
        "friction": 0.001,
        "checkpoint_every": 50,
    },
}


def write_config(dataset, work: Path, **over) -> Path:
    """Write the desk recipe for `dataset`, outputs in `work/out`, to `work/desk.yaml`."""
    cfg = dict(DESK_CONFIG, dataset_path=str(dataset), output_dir=str(work / "out"), **over)
    path = work / "desk.yaml"
    path.write_text(yaml.safe_dump(cfg, sort_keys=True))
    return path


def run(argv) -> None:
    code = fraudsig_main(argv)
    if code != 0:
        sys.exit(code)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workdir", default="desk_run", help="output directory")
    ap.add_argument("--dataset", default=None, help="existing BankSim-style CSV")
    args = ap.parse_args()

    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    dataset = Path(args.dataset) if args.dataset else work / "demo.csv"
    if not dataset.exists():
        print(f"generating demo corpus at {dataset} ...")
        generate(dataset, SynthSpec(), seed=0)

    cfg_path = str(write_config(dataset, work))
    run(["prepare", "--config", cfg_path, "--subsample", str(DESK_SUBSAMPLE)])
    # `--nl` takes the configured size as well as the one --subsample made of it.
    (nl,) = DESK_CONFIG["split"]["labeled_sizes"]
    run(["train", "--config", cfg_path, "--nl", str(nl), "--rep", "0"])
    run(["evaluate", "--config", cfg_path])
    run(["report", "--config", cfg_path])


if __name__ == "__main__":
    main()
