#!/usr/bin/env python3
"""Paired stage benchmark of two checkouts, written as BENCH_<name>.json.

    python3 scripts/bench_pairs.py --base DIR --change DIR --name 6 \\
        --workloads train --seeds 7 8 9 --pairs 10 [--seconds 10] [--note TEXT]

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` once in each checkout (a `git clone` of the parent commit and
the working tree, say), the base first in odd pairs and the change first in
even ones, so slow drift of the host falls on both sides alike.  Seeds are
used in turn, one per pair.  The file records, per workload and end-to-end
metric, both sides' values, medians and quartiles, how many pairs the change
won, the median gap and a verdict, together with every run's correctness, the
seeds, the command and the machine record perfbench/run.py wrote for the
change.

The verdict of a metric, whose relative bound BENCHMARK.json gives:
  worse       the change's median exceeds the base median by more than the bound;
  gain        the change wins at least 9 of 10 pairs and its median is below the
              base median by more than the base's interquartile range;
  unresolved  neither, and the base's interquartile range is wider than the
              bound times the base median, so the runs cannot tell, unless
              every run of the change is below every run of the base;
  unchanged   otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def bounds() -> dict[str, float]:
    """Relative bound of each end-to-end metric of BENCHMARK.json, all of
    which are better lower."""
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    if any(m["better"] != "lower" for m in metrics):
        raise ValueError(f"{BENCHMARK}: an end-to-end metric is not better lower")
    return {m["name"]: m["bound"] for m in metrics}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True, text=True).stdout
    last = json.loads(out.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in last["metrics"].items()}
    record = checkout / ".perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    machine = json.loads(record.read_text())["machine"]
    return {"correct": last["correct"], "failed": last["failed"],
            "attempted": last["attempted"], "values": values, "machine": machine}


def revision(checkout: Path) -> str:
    """Short commit of a checkout, marked when its tree has changes."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=checkout, check=True,
                              capture_output=True, text=True).stdout.strip()
    dirty = " with uncommitted changes" if git("status", "--porcelain") else ""
    return git("rev-parse", "--short", "HEAD") + dirty


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def verdict(wins: int, pairs: int, base: dict, change: dict, bound: float) -> str:
    iqr = base["q3"] - base["q1"]
    if change["median"] > base["median"] * (1 + bound):
        return "worse"
    if 10 * wins >= 9 * pairs and base["median"] - change["median"] > iqr:
        return "gain"
    if iqr > bound * base["median"] and max(change["values"]) >= min(base["values"]):
        return "unresolved"
    return "unchanged"


def compare(base: list[dict], change: list[dict], bounds: dict[str, float]) -> dict:
    out = {}
    for name, bound in bounds.items():
        b = [r["values"][name] for r in base]
        c = [r["values"][name] for r in change]
        sb, sc = summary(b), summary(c)
        wins = sum(y < x for x, y in zip(b, c))
        out[name] = {
            "base": sb, "change": sc, "change_wins": wins,
            "median_ratio": sc["median"] / sb["median"],
            "median_gap": sb["median"] - sc["median"],
            "base_iqr": sb["q3"] - sb["q1"],
            "bound": bound,
            "verdict": verdict(wins, len(b), sb, sc, bound),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout with the change")
    parser.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    parser.add_argument("--workloads", nargs="+", default=["train"],
                        choices=("prepare", "train", "evaluate"))
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="directory for the file, made if missing")
    parser.add_argument("--note", default="", help="what the change does to the runs, recorded as is")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error(f"--pairs must be at least 2 for quartiles, got {args.pairs}")
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"--out: {exc}")

    bench = {
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "started": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "base": revision(args.base), "change": revision(args.change),
        "note": args.note,
        "workloads": {},
    }
    machine = None
    for workload in args.workloads:
        base, change, seeds = [], [], []
        for i in range(args.pairs):
            seed = args.seeds[i % len(args.seeds)]
            seeds.append(seed)
            order = [(args.base, base), (args.change, change)]
            for checkout, runs in order if i % 2 == 0 else order[::-1]:
                runs.append(run_once(checkout, workload, seed, args.seconds))
            machine = change[-1]["machine"]
            print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: wall_s "
                  f"{base[-1]['values']['wall_s']:.3f} -> {change[-1]['values']['wall_s']:.3f}",
                  file=sys.stderr)
        bench["workloads"][workload] = {
            "pairs": args.pairs,
            "seeds": seeds,
            "all_correct": all(r["correct"] for r in base + change),
            "failed": {"base": sum(r["failed"] for r in base),
                       "change": sum(r["failed"] for r in change)},
            "metrics": compare(base, change, bounds()),
        }
        for name, m in bench["workloads"][workload]["metrics"].items():
            print(f"{workload} {name}: {m['verdict']} (median {m['base']['median']:.4g} -> "
                  f"{m['change']['median']:.4g}, {m['change_wins']}/{args.pairs} wins)",
                  file=sys.stderr)
    bench["machine"] = machine
    path = args.out / f"BENCH_{args.name}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
