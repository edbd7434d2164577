#!/usr/bin/env python3
"""Stage benchmark for fraudsig: prepare, train and evaluate.

    python3 perfbench/run.py --workload {prepare,train,evaluate} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1.  A record of the run (machine, seed, input sizes, every call) is
written to .perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
# Set-up repeats at least this often and for at least this long, so a cheap
# set-up still gives a steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
# One BLAS thread: the stages run single-core (--workers 1), and a second
# thread on a shared two-core machine mostly adds run-to-run noise.
BLAS_THREADS = 1
# Counts that must repeat exactly between two traced calls of one workload.
EXACT_COUNTS = (
    "lyndon.LyndonBasis.flat_indices.calls",
    "losses.discriminator_loss.calls",
    "nnet.DiscriminatorNet.forward.rows",
    "nnet.Dense.gflop",
)
_DENSE = ("forward", "backward", "tangent", "second_backward")


def configure() -> None:
    """Point this process and its workers at the checkout's sources, with
    one BLAS thread; call before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("FRAUDSIG_CACHE", None)  # keep the feature cache in the work dir
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


def in_worker(**spec) -> dict:
    """Run workloads.measure in a fresh interpreter and wait for it to end."""
    path = OUT / "worker.json"
    path.write_text(json.dumps(spec, default=str))
    subprocess.run([sys.executable, str(HERE / "workloads.py"), str(path)], check=True, stdout=sys.stderr)
    return json.loads(path.read_text())


def blas_record() -> dict:
    import ctypes
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": blas.get("name"), "version": blas.get("version"), "threads": BLAS_THREADS}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["threads"] = fn()
                return record
    return record


def machine_record() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
    }


def derive(layers: dict) -> dict:
    """Ratios and unit conversions computed from one call's span totals."""
    out = dict(layers)
    prefixes = layers.get("features.encode_prefixes.prefixes")
    if prefixes:
        out["features.encode_prefixes.ms_per_prefix"] = 1e3 * layers["features.encode_prefixes.s"] / prefixes
    flop = layers.get("nnet.Dense.flop")
    if flop:
        busy = sum(layers.get(f"nnet.Dense.{m}.self_s", 0.0) for m in _DENSE)
        out["nnet.Dense.gflop"] = flop / 1e9
        out["nnet.Dense.gflop_per_s"] = flop / 1e9 / busy
    rows = layers.get("training.predict.member_rows")
    if rows:
        out["training.predict.member_rows_per_s"] = rows / layers["training.predict.s"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("prepare", "train", "evaluate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fraudsig").is_dir():
        sys.exit(f"fraudsig sources not found under {ROOT / 'src'}")
    configure()
    import workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    input_set = args.seed % workloads.INPUT_SETS
    ref = json.loads((HERE / "reference.json").read_text())[str(input_set)]
    workdir = OUT / "work" / args.workload
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    # The timed calls are split over the set-ups, one fresh worker after each,
    # so that a run samples the noisy host over its whole length.
    repeats = 1 if args.trace else SETUP_REPEATS
    spec = dict(workload=args.workload, workdir=workdir, seconds=args.seconds / repeats, ref=ref)
    setup_s, workers = [], []
    for _ in range(repeats):
        setup_s.append(workloads.set_up(args.workload, input_set, workdir))
        workers.append(in_worker(traced=False, min_calls=1, **spec))
    inputs = {**workloads.split_sizes(workdir), **workers[-1]["inputs"]}
    while not args.trace and sum(setup_s) < SETUP_MIN_S:
        setup_s.append(workloads.set_up(args.workload, input_set, workdir))
    calls = [c for w in workers for c in w["calls"]]
    record = {
        "workload": args.workload, "seed": args.seed, "input_set": input_set,
        "seconds": args.seconds, "machine": machine_record(), "inputs": inputs,
        "setup_s": setup_s, "untraced": workers,
    }
    walls = [c["wall_s"] for c in calls]
    epochs = [e for c in calls for e in c["epoch_s"]]

    if args.trace:
        traced = in_worker(traced=True, min_calls=2, spans_path=results / f"{tag}-spans.csv", **spec)
        record["traced"] = traced
        calls = calls + traced["calls"]
        per_call = [derive(c["layers"]) for c in traced["calls"]]
        first, second = per_call[:2]
        mismatched = [n for n in EXACT_COUNTS if first.get(n) != second.get(n)]
        record["exact_count_mismatch"] = mismatched
        traced_wall = statistics.median(c["wall_s"] for c in traced["calls"])
        values = {"bench.trace_overhead_frac": traced_wall / statistics.median(walls) - 1.0}
        if epochs:
            values["training.train.epoch_s"] = statistics.median(epochs)
        for name in set().union(*per_call):
            values[name] = statistics.median(c.get(name, 0.0) for c in per_call)
        wanted = bench["per_layer"]
        attempted_extra, failed_extra = 1, int(bool(mismatched))
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.median(walls),
            "peak_rss_mib": max(w["peak_rss_mib"] for w in workers),
        }
        wanted = bench["end_to_end"]
        attempted_extra = failed_extra = 0

    absent = sorted(m["name"] for m in wanted if m["name"] not in values)
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted
    }
    attempted = len(calls) + attempted_extra
    failed = sum(bool(c["failures"]) for c in calls) + failed_extra
    record.update(metrics=metrics, all_values=values, absent=absent,
                  attempted=attempted, failed=failed)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    shutil.rmtree(workdir, ignore_errors=True)

    for name, m in metrics.items():
        print(f"{name:<48} {m['value']:>14.6g} {m['unit']}{'  (absent)' if name in absent else ''}")
    print(f"{'failed_frac':<48} {failed / attempted:>14.6g} ratio  ({failed} of {attempted})")
    for failure in [f for c in calls for f in c["failures"]] + record.get("exact_count_mismatch", []):
        print(f"FAILED {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
