"""centaudit benchmark: four workloads through `centaudit.cli.main`, one process.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --record-reference     # rewrite reference.json

Workloads (closed loop: one client, the next call starts when the last ends):

  mine-exhaustive     `mine --n-max 5 --format json`, all relations, 1 worker:
                      771 tiny graphs per call, where per-call costs of the
                      relation evaluators and metrics dominate. The population
                      is exhaustive, so it is the same at every seed.
  check-smallworld    `check - --format json` (all relations) on seeded
                      Watts-Strogatz graphs, n=150 k=4 p=0.1: Fractions are
                      emitted, R6 runs on sampled subsets, ~1.8 MB of JSON.
  compute-smallworld  `compute - --format json` on seeded Watts-Strogatz graphs,
                      n=400 k=6 p=0.1: stress dominates; relations and the
                      enumerator are bypassed. A call takes ~2 s, so a run
                      holds only ~12 calls and its latency tail is a low
                      percentile (the output states which).
  mine-smallworld     `mine --model watts_strogatz --n 24 --k 4 --p 0.1
                      --trials 50 --seed <seed> --workers 2`: the generator,
                      the connectivity retry loop, R6's 512-subject budget and
                      the process pool with its shard merge.

Without --workload, all four run in turn, each in its own interpreter.

Inputs are made from --seed before timing starts; graphs reach the program on
standard input. Every document is checked (gate.py); the last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and `metrics`.

With --trace 0 the metrics are the end-to-end ones, measured untraced:
setup_s (a fresh interpreter importing centaudit.cli, median of 15 spread over
the run), graphs_per_s (graphs verified or profiled over the summed time of
all timed calls), call_latency_ms.p50 and .tail (one cli.main call; the tail
is the highest percentile with at least ten calls above it, printed with the
call count) and peak_rss_mb (this process, which runs the CLI; pool workers
are not counted). Times are scaled to a reference CPU speed (see SpeedScale);
the unscaled values are printed on a line of their own that starts with
`raw: `. The CPU model is read from /proc/cpuinfo when it exists.

With --trace 1 they are the per-layer ones: untraced and span-traced calls
alternate (spans.py; one worker, so every span is in this process), then one
call runs twice under cProfile for exact counts. Self times are seconds per
call; layers a workload never enters read 0. Traced runs also self-test the
benchmark: spans nest and their self times add up to the call, the two counted
runs agree, and a document with one value changed fails the gate.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"

DEFAULT_SEED = 0
SETUP_SAMPLES = 15
# typical SpeedScale.calibration_seconds() on the machine of baseline.json; any constant
# works, since only ratios between commits are compared
CALIBRATION_REFERENCE_S = 0.017
MIN_CALLS = 11  # the tail percentile needs at least ten samples beyond it
TRACED_SHARE = 0.7  # of --seconds, for the alternating untraced/traced calls
EXHAUSTIVE_N_MAX = 5
CHECK_GRAPH = (150, 4, 0.1)
COMPUTE_GRAPH = (400, 6, 0.1)
MINE_GRAPH = (24, 4, 0.1)
MINE_TRIALS = 50
MINE_WORKERS = 2
POOL = {"check-smallworld": 16, "compute-smallworld": 8}
WORKLOADS = ("mine-exhaustive", "check-smallworld", "compute-smallworld", "mine-smallworld")
SEED_INDEPENDENT = ("mine-exhaustive",)

SELF_TIME_LAYERS = (
    "graphs.enumerate", "graphs.generate", "graphs.parse",
    "metrics.apsp", "metrics.stress", "metrics.profile", "metrics.clustering",
    "metrics.blocks",
    "relations.R1", "relations.R2", "relations.R3", "relations.R4", "relations.R5",
    "relations.R6", "relations.R7", "relations.R8", "relations.R9", "relations.R10",
    "relations.R10b", "relations.R11", "relations.R11b", "relations.R12",
    "mining", "cli",
)


class Call:
    """One invocation of the CLI with its input and what the gate expects."""

    def __init__(self, argv, stdin, expected, graphs, serial_argv=None):
        self.argv = argv
        self.stdin = stdin
        self.expected = expected
        self.graphs = graphs
        self.serial_argv = serial_argv or argv  # one-worker form, for tracing


def run_seconds() -> float:
    """How long one run measures, as BENCHMARK.json states it."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": nproc(), "cpu": model}


def make_calls(workload: str, seed: int) -> list[Call]:
    if workload == "mine-exhaustive":
        argv = ["mine", "--n-max", str(EXHAUSTIVE_N_MAX), "--format", "json"]
        population = gate.population_exhaustive(EXHAUSTIVE_N_MAX)
        return [Call(argv, None, population, population["graphs"])]
    if workload == "mine-smallworld":
        n, k, p = MINE_GRAPH
        base = ["mine", "--model", "watts_strogatz", "--n", str(n), "--k", str(k),
                "--p", str(p), "--trials", str(MINE_TRIALS), "--seed", str(seed)]
        population = gate.population_random(n, MINE_TRIALS)
        return [Call(base + ["--workers", str(MINE_WORKERS), "--format", "json"], None,
                     population, MINE_TRIALS,
                     serial_argv=base + ["--workers", "1", "--format", "json"])]
    command = workload.split("-")[0]
    n, k, p = CHECK_GRAPH if command == "check" else COMPUTE_GRAPH
    calls = []
    for index in range(POOL[workload]):
        graph = gate.connected_watts_strogatz(n, k, p, workload, seed, index)
        calls.append(Call([command, "-", "--format", "json"], graph.text, graph, 1))
    return calls


def invoke(call: Call, argv: list[str], tracer=None) -> tuple[float, int | None, str]:
    """Run the CLI once in-process; returns (seconds, exit code, document)."""
    import centaudit.cli

    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    if call.stdin is not None:
        sys.stdin = io.StringIO(call.stdin)
    root = None
    try:
        start = time.perf_counter()
        if tracer is not None:
            root = tracer.open(tracer.ROOT)
        try:
            rc = centaudit.cli.main(argv, out=out, err=err)
        except Exception as exc:  # a crash is one failed operation, not the end of the run
            print(f"call {argv} raised {exc!r}", file=sys.stderr)
            rc = None
        finally:
            if root is not None:
                tracer.close(root)
        seconds = time.perf_counter() - start
    finally:
        sys.stdin = saved_stdin
    return seconds, rc, out.getvalue()


class Checker:
    """Checks every document of a run and keeps the attempted/failed tally."""

    def __init__(self, workload: str, seed: int, calls: list[Call]):
        self.attempted = 0
        self.failed = 0
        self.expected = [call.expected for call in calls]
        self.refs: list[str] | None = None
        refs = json.loads(REFERENCE.read_text(encoding="utf-8"))["documents"][workload]
        if seed == DEFAULT_SEED or workload in SEED_INDEPENDENT:
            if len(refs) != len(calls):
                raise SystemExit(f"reference.json holds {len(refs)} documents, run has {len(calls)}")
            self.refs = refs

    def check(self, index: int, argv: list[str], rc, text: str, reference: bool = True) -> None:
        call_ref = self.refs[index] if self.refs and reference else None
        command = argv[0]
        expected = self.expected[index]
        errors = gate.check_document(command, argv, text, rc, expected, call_ref)
        self.attempted += 1
        if errors:
            self.failed += 1
            print(f"FAILED {' '.join(argv)} [input {index}]: {'; '.join(errors[:5])}",
                  file=sys.stderr)

    def altered_is_caught(self, index: int, argv: list[str], text: str) -> bool:
        """Self-test: the same document with one value changed must fail the
        invariants alone, without help from the reference hash."""
        wrong = gate.check_document(
            argv[0], argv, gate.altered(text), 0, self.expected[index], None)
        return bool(wrong)


CALIBRATION_LOOP = """
import json, sys, time
from fractions import Fraction
DOCUMENT = [{"id": i, "value": f"{i}/{i + 1}", "approx": i / 3, "pair": [i, i + 1]}
            for i in range(800)]

def once():
    start = time.perf_counter()
    x = 0
    for i in range(100_000):
        x += i & 7
    total = Fraction(0)
    for i in range(1500):
        total += Fraction(i % 7, 3 + i % 5)
    json.dumps(DOCUMENT, indent=2)
    return time.perf_counter() - start

for _ in sys.stdin:
    print(once(), flush=True)
"""


class SpeedScale:
    """Rescales measured times to a fixed reference speed.

    On a shared host the speed of a virtual CPU drifts by tens of percent
    over tens of seconds, which no run length averages away. A calibration
    loop runs after every timed operation; the operation's time is multiplied
    by CALIBRATION_REFERENCE_S over the mean of the loops just before and just
    after it, so drift common to both cancels. Raw times are printed too.

    The loop (an integer loop, Fraction sums, indented JSON rendering: work
    like the program's own) runs in a separate isolated interpreter that
    imports no centaudit code, so nothing the program does to its own process
    (garbage-collector settings, patched classes) can change the divisor.
    Use it as a context manager; leaving it stops that interpreter.
    """

    def __init__(self):
        self.loop = subprocess.Popen(
            [sys.executable, "-I", "-c", CALIBRATION_LOOP],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.last = self.calibration_seconds()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.loop.stdin.close()
        self.loop.wait()

    def calibration_seconds(self) -> float:
        self.loop.stdin.write("\n")
        self.loop.stdin.flush()
        return float(self.loop.stdout.readline())

    def factor(self) -> float:
        """Scale factor for the operation that ended just now."""
        now = self.calibration_seconds()
        factor = CALIBRATION_REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        return factor

    def scaled(self, seconds: float) -> float:
        return seconds * self.factor()


class SetupTimer:
    """Wall time of a fresh interpreter importing centaudit.cli, sampled at
    even intervals across the run so that a short burst of load on the
    machine moves one sample, not the median."""

    def __init__(self, seconds: float, scale: SpeedScale):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        found = subprocess.run(
            [sys.executable, "-c", "import centaudit.cli as c; print(c.__file__)"],
            env=self.env, cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()
        if not Path(found).resolve().is_relative_to(SRC):
            raise SystemExit(f"fresh interpreter imported centaudit from {found}")
        self.scale = scale
        self.start = time.perf_counter()
        self.interval = seconds / SETUP_SAMPLES
        self.raw: list[float] = []
        self.samples: list[float] = []

    def sample_if_due(self) -> None:
        if time.perf_counter() - self.start >= len(self.samples) * self.interval:
            self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import centaudit.cli"],
                       env=self.env, cwd=ROOT, check=True)
        raw = time.perf_counter() - start
        self.raw.append(raw)
        self.samples.append(self.scale.scaled(raw))

    def complete(self) -> None:
        while len(self.samples) < SETUP_SAMPLES:
            self.sample()


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile that has at
    least ten samples beyond it."""
    ordered = sorted(samples)
    rank = len(ordered) - 11  # ten samples lie above ordered[rank]
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def _payload(text: str):
    try:
        return json.loads(text)["payload"]
    except (json.JSONDecodeError, KeyError, TypeError):
        return None


def end_to_end(graphs: int, per_call: list[float], setup: list[float], peak_mb: float) -> dict:
    """The end-to-end metrics from the seconds of each timed call and the
    set-up samples; `graphs` is the number of graphs those calls covered."""
    tail_s, _ = tail(per_call)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "graphs_per_s": (graphs / sum(per_call), "1/s"),
        "call_latency_ms.p50": (statistics.median(per_call) * 1000, "ms"),
        "call_latency_ms.tail": (tail_s * 1000, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def run_untraced(workload, calls, checker, seconds, scale) -> tuple[dict, list[str]]:
    # warm-up call: caches fill and lazy set-up finishes before timing
    _, rc, text = invoke(calls[0], calls[0].argv)
    checker.check(0, calls[0].argv, rc, text)
    setup = SetupTimer(seconds, scale)
    graphs, scaled, raw = 0, [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i < MIN_CALLS:
        setup.sample_if_due()
        index = i % len(calls)
        call = calls[index]
        dt, rc, text = invoke(call, call.argv)
        raw.append(dt)
        scaled.append(scale.scaled(dt))
        graphs += call.graphs
        checker.check(index, call.argv, rc, text)
        i += 1
    selftest = [] if checker.altered_is_caught(index, call.argv, text) else [
        "altered document passed the gate"]
    setup.complete()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = end_to_end(graphs, scaled, setup.samples, peak_mb)
    unscaled = end_to_end(graphs, raw, setup.raw, peak_mb)
    _, tail_pct = tail(scaled)
    print(f"calls: {len(scaled)}; tail is p{tail_pct:.1f} of {len(scaled)} samples; "
          f"times scaled to the reference speed")
    print("raw: " + json.dumps({name: value for name, (value, _) in unscaled.items()}))
    return metrics, selftest


def run_traced(workload, calls, checker, seconds, scale) -> tuple[dict, list[str]]:
    import spans

    selftest: list[str] = []
    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    untraced, traced_wall, parallel, ratios, output_bytes = [], [], [], [], []
    parallel_pool = workload == "mine-smallworld"
    deadline = time.perf_counter() + seconds * TRACED_SHARE

    def untraced_call(index, call):
        dt, rc, text = invoke(call, call.serial_argv)
        dt = scale.scaled(dt)
        checker.check(index, call.serial_argv, rc, text, reference=not parallel_pool)
        untraced.append(dt)
        return dt, rc, text

    def traced_call(index, call):
        tracer = spans.Tracer()
        with spans.traced(tracer):
            dt, rc, text = invoke(call, call.serial_argv, tracer)
        factor = scale.factor()
        checker.check(index, call.serial_argv, rc, text, reference=not parallel_pool)
        selftest.extend(spans.nesting_errors(tracer.spans))
        for name, ns in spans.self_times(tracer.spans).items():
            totals[name] = totals.get(name, 0) + ns * factor
        for name, c in tracer.counts.items():
            counts[name] = counts.get(name, 0) + c
        traced_wall.append(dt * factor)
        output_bytes.append(len(text.encode("utf-8")))
        return dt * factor, rc, text

    i = 0
    while time.perf_counter() < deadline or i < 2:
        index = i % len(calls)
        call = calls[index]
        if parallel_pool:
            dt, rc, text = invoke(call, call.argv)
            parallel.append(scale.scaled(dt))
            checker.check(index, call.argv, rc, text)
            parallel_payload = _payload(text)
        # alternate which of the pair runs first, so that neither side
        # systematically inherits the other's garbage or cache state
        order = (untraced_call, traced_call) if i % 2 == 0 else (traced_call, untraced_call)
        first_dt, _, _ = order[0](index, call)
        second_dt, rc, text = order[1](index, call)
        ratios.append(second_dt / first_dt if i % 2 == 0 else first_dt / second_dt)
        if parallel_pool and _payload(text) != parallel_payload:
            selftest.append("one-worker payload differs from the two-worker payload")
        i += 1
    calls_traced = len(traced_wall)

    first = calls[0]
    profiled = []
    for _ in range(2):
        counted, (_, rc, text) = spans.counted(lambda: invoke(first, first.serial_argv))
        checker.check(0, first.serial_argv, rc, text, reference=not parallel_pool)
        profiled.append(counted)
    if profiled[0] != profiled[1]:
        selftest.append(f"counted runs differ: {profiled[0]} vs {profiled[1]}")

    metrics = {}
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = (totals.get(layer, 0) / calls_traced / 1e9, "s")
    enumerated = counts.get("graphs.enumerate", 0) / calls_traced
    draws = counts.get("graphs.generate", 0) / calls_traced
    metrics["graphs.enumerate.graphs"] = (enumerated, "count")
    metrics["graphs.generate.calls"] = (draws, "count")
    metrics["graphs.generate.connected_ratio"] = (
        calls[0].graphs / draws if draws else 0.0, "ratio")
    metrics["relations.subjects"] = (counts.get("relations.subjects", 0) / calls_traced, "count")
    for name, value in profiled[0].items():
        metrics[name] = (value, "count")
    metrics["mining.parallel_efficiency"] = (
        statistics.median(untraced) / (MINE_WORKERS * statistics.median(parallel))
        if parallel else 0.0, "ratio")
    metrics["cli.output_bytes"] = (statistics.mean(output_bytes), "B")
    metrics["trace.wall_s"] = (statistics.mean(traced_wall), "s")
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    print(f"traced calls: {calls_traced}; counted calls: 2 on input 0")
    if not checker.altered_is_caught(0, first.serial_argv, text):
        selftest.append("altered document passed the gate")
    return metrics, selftest


def record_reference() -> None:
    """Write the SHA-256 of every document of the default seed (this commit's
    output is the reference: the formats are frozen byte for byte)."""
    documents = {}
    for workload in WORKLOADS:
        calls = make_calls(workload, DEFAULT_SEED)
        hashes = []
        for call in calls:
            _, rc, text = invoke(call, call.argv)
            errors = gate.check_document(call.argv[0], call.argv, text, rc, call.expected, None)
            if errors:
                raise SystemExit(f"{workload}: reference document fails the gate: {errors}")
            hashes.append(gate.sha256(text))
        documents[workload] = hashes
        print(f"{workload}: {len(hashes)} documents")
    REFERENCE.write_text(json.dumps({"seed": DEFAULT_SEED, "documents": documents},
                                    indent=2) + "\n", encoding="utf-8")


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Run every workload in its own interpreter, one after another."""
    correct = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        last = (proc.stdout.strip().splitlines() or ["{}"])[-1]
        correct = correct and proc.returncode == 0 and '"correct": true' in last
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload; without it, all four run in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measuring time of a run; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if not (SRC / "centaudit" / "cli.py").is_file():
        print(f"perfbench: no centaudit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_reference:
        record_reference()
        return 0
    seconds = args.seconds or run_seconds()
    if args.workload is None:
        return run_all(args.seed, seconds, args.trace)
    if args.workload == "mine-smallworld" and nproc() < MINE_WORKERS:
        print(f"perfbench: mine-smallworld needs {MINE_WORKERS} processors, "
              f"this machine allows {nproc()}; refusing to oversubscribe", file=sys.stderr)
        return 2

    env = environment()
    print(f"environment: python {env['python']}, nproc {env['nproc']}, cpu {env['cpu']}")
    print(f"workload: {args.workload}, seed {args.seed}, {seconds:g} s, trace {args.trace}")
    calls = make_calls(args.workload, args.seed)
    checker = Checker(args.workload, args.seed, calls)
    runner = run_traced if args.trace else run_untraced
    with SpeedScale() as scale:
        metrics, selftest = runner(args.workload, calls, checker, seconds, scale)

    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(f"fail_ratio: {checker.failed}/{checker.attempted} = {checker.failed / checker.attempted:g}")
    for problem in selftest:
        print(f"SELF-TEST FAILED: {problem}", file=sys.stderr)
    print(f"self-test: {'ok' if not selftest else 'FAILED'}; "
          f"hash reference: {'compared' if checker.refs else 'none for this seed'}")
    result = {
        "correct": checker.failed == 0 and not selftest,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
