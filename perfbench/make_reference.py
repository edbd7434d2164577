#!/usr/bin/env python3
"""Write perfbench/reference.json: the expected outputs of every input set.

    python3 perfbench/make_reference.py

Encoder rows come from the direct path
``signatures.encode(banksim.continuous_path(...))``, which shares no code
with the incremental encoder that fills the feature cache.  The train loss
trace and the evaluate PR-AUC and macro F1 are the outputs of the program
version that wrote the file; later versions must reproduce them within the
tolerances in workloads.py.  Run it again only when a change is meant to
alter those outputs, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run

MIN_PREFIX = 5  # the config default the benchmark keeps
DEGREE = 4


def encoder_reference(workdir: Path) -> dict:
    from fraudsig import banksim, signatures
    from fraudsig.lyndon import LyndonBasis

    splits = json.loads((workdir / "out" / "prepared" / "splits.json").read_text())
    customers, _ = banksim.group_customers(banksim.load_transactions(workdir / "corpus.csv"))
    by_id = {cs.customer: cs for cs in customers}
    kept = [by_id[c] for c in splits["customers"]]
    longest = max(kept, key=len)
    basis = LyndonBasis.build(7, DEGREE)
    rows = []
    for cs, j in ((kept[0], MIN_PREFIX), (longest, len(longest))):
        path = banksim.continuous_path(cs, j, splits["max_sd"], splits["max_amt"])
        coords = signatures.encode(path, DEGREE, basis)
        rows.append({"customer": cs.customer, "prefix_len": j,
                     "coords": [float(f"{v:.13g}") for v in coords]})
    return {"max_sd": splits["max_sd"], "max_amt": splits["max_amt"], "rows": rows}


def main() -> int:
    run.configure()
    import workloads

    workdir = run.OUT / "reference"
    reference = {}
    for s in range(workloads.INPUT_SETS):
        entry = {}
        for workload, read in (("train", workloads.read_trace), ("evaluate", workloads.read_ours)):
            workloads.set_up(workload, s, workdir)
            rc = workloads.run_cli(workloads.stage_argv(workload, workdir))
            if rc != 0:
                raise RuntimeError(f"input set {s}: {workload} exited with {rc}")
            entry[workload] = read(workdir)
        entry["encoder"] = encoder_reference(workdir)
        reference[str(s)] = entry
        print(f"input set {s}: {entry['evaluate']}", file=sys.stderr)
    shutil.rmtree(workdir, ignore_errors=True)
    out = Path(__file__).parent / "reference.json"
    out.write_text(json.dumps(reference, indent=None, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
