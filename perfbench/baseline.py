"""Measure a baseline of every benchmark metric and write it to baseline.json.

Usage (from the repository root):

    python3 perfbench/baseline.py

Each workload runs ten times untraced, one seed per run (1..10), and once
traced at seed 1, each run measuring BENCHMARK.json's run_seconds. For every
end-to-end metric the file keeps the median, the quartiles
(statistics.quantiles, n=4) and their distance as a share of the median, both
for the reported values, which are scaled to a reference CPU speed, and for
the unscaled ones. It also records the shard imbalance of
`mine --n-max 6 --workers 2`: the enumerator splits the n=6 mask range into
two equal halves that hold different numbers of connected graphs.
"""

from __future__ import annotations

import io
import json
import statistics
import subprocess
import sys
import time

import run

OUT = run.BENCH / "baseline.json"
RUNS = 10


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict | None]:
    """The result line of one run, and its `raw: ` line (untraced runs only)."""
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} failed its gate: {proc.stderr}")
    raw = next((json.loads(line[len("raw: "):]) for line in lines if line.startswith("raw: ")),
               None)
    return result, raw


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "runs": values}


def shard_imbalance() -> dict:
    """Connected graphs per mask half at n=6, and the wall time of
    `mine --n-max 6` with one and with two workers."""
    sys.path.insert(0, str(run.SRC))
    import centaudit.cli
    from centaudit.graphs import enumerate_connected_range

    total = 1 << 15
    halves = [sum(1 for _ in enumerate_connected_range(6, lo, lo + total // 2))
              for lo in (0, total // 2)]
    walls = {}
    for workers in (1, 2):
        start = time.perf_counter()
        centaudit.cli.main(["mine", "--n-max", "6", "--format", "json",
                            "--workers", str(workers)], out=io.StringIO())
        walls[f"workers_{workers}_s"] = time.perf_counter() - start
    return {"command": "mine --n-max 6 --format json", "n6_mask_halves": halves, **walls}


def main() -> int:
    seconds = run.run_seconds()
    record = {"environment": run.environment(), "seconds": seconds,
              "seeds": list(range(1, RUNS + 1)), "workloads": {}}
    for workload in run.WORKLOADS:
        runs = [bench(workload, seed, seconds, 0) for seed in record["seeds"]]
        end_to_end = {
            name: {**summary([result["metrics"][name]["value"] for result, _ in runs]),
                   "raw": summary([raw[name] for _, raw in runs])}
            for name in runs[0][0]["metrics"]
        }
        traced, _ = bench(workload, 1, seconds, 1)
        record["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        for name, s in end_to_end.items():
            print(f"{workload} {name}: median {s['median']:.6g} spread {s['spread']:.4f} "
                  f"(raw {s['raw']['spread']:.4f})")
        sys.stdout.flush()
    record["shard_imbalance"] = shard_imbalance()
    OUT.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
