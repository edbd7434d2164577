#!/usr/bin/env python3
"""Wall time, exit code and peak resident memory of one fraudsig CLI stage.

    PYTHONPATH=src python3 scripts/stage_memory.py prepare --config exp.yaml
    PYTHONPATH=src python3 scripts/stage_memory.py train --config exp.yaml --nl 2595 --rep 0
    PYTHONPATH=src python3 scripts/stage_memory.py ingest --config exp.yaml

The arguments are those of the `fraudsig` command.  The stage runs in this
interpreter through `fraudsig.cli.main`, with its console output sent to
standard error, and the last line of standard output is one JSON object:
{"stage", "exit", "wall_s", "vm_hwm_bytes"}.

`vm_hwm_bytes` is VmHWM from /proc/self/status: the peak resident set of this
process since it was started, so run the script as a fresh process.  Unlike
`ru_maxrss`, it does not carry the peak of the process that launched it.

The stage `ingest` parses the dataset, groups the customers and makes the
prefix samples, as every stage does first, and stops: a stage's peak above
it is what the stage itself holds.  It takes only --config, and an error in
it is reported as exit 1 with its traceback.

`--help` or `-h` in place of a stage prints this text and runs nothing.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
import traceback

# Imported for every stage, ingest too, so all peaks include the same modules.
from fraudsig import banksim, cli
from fraudsig.config import ExperimentConfig


def vm_hwm_bytes() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("/proc/self/status has no VmHWM line")


def ingest(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] != "--config":
        raise SystemExit("usage: stage_memory.py ingest --config FILE")
    cfg = ExperimentConfig.from_yaml(argv[1])
    customers, _ = banksim.group_customers(banksim.load_transactions(cfg.dataset_path))
    banksim.make_samples(customers, cfg.min_prefix)
    return 0


def main(argv: list[str]) -> int:
    if not argv:
        raise SystemExit(__doc__)
    if argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sys.stderr):
            rc = ingest(argv[1:]) if argv[0] == "ingest" else cli.main(argv)
    except SystemExit as exc:  # the arguments were rejected
        if isinstance(exc.code, int):
            rc = exc.code
        else:
            print(exc.code, file=sys.stderr)
            rc = 2
    except Exception:  # an uncaught error is the CLI's exit 1
        traceback.print_exc()
        rc = 1
    wall_s = time.perf_counter() - t0
    print(json.dumps(
        {"stage": argv[0], "exit": rc, "wall_s": wall_s, "vm_hwm_bytes": vm_hwm_bytes()}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
