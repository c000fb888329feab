"""Benchmark of adjstats: three workloads, each run closed-loop by one
client, one fresh child process per repetition.

    python3 perfbench/run.py --workload long-order --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Every engine and oracle function in adjstats is an unbounded
`lru_cache`, so a request list repeated inside one process would time
cache hits; hence one child per repetition.  With `--trace 0` the run
repeats the workload until `--seconds` have passed and reports medians
over repetitions of the end-to-end metrics.  Their times are rescaled to
reference host speed (see speed.py); the raw times are printed beside
them.  With `--trace 1` it runs the workload once untraced and once
traced (see tracer.py) and reports the per-layer metrics, in raw time,
and the tracing overhead at reference speed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 when
every output check passed, 1 when one failed, 2 when the checkout has no
adjstats sources to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
SPANS_DIR = ROOT / ".perfbench"

SETUP_PROBES = 7  # import-only children per run, for the set-up median
CHILD_TIMEOUT_S = 150  # no repetition may run longer; the run must end in 180 s
BUDGET_S = 165  # no repetition starts when the last one would cross this
MAX_LISTED = 20  # failed requests listed by name in the summary
TOP_FUNCTIONS = 12  # functions listed by self time in a traced summary

END_TO_END = {  # name -> unit
    "setup_s": "s", "wall_s": "s", "req_p50_ms": "ms", "req_p99_ms": "ms",
    "peak_rss_mib": "MiB",
}

# (metric, unit) for the traced run.  Names follow the layer: the module,
# then the group of functions in it, then the quantity.
PER_LAYER = [
    ("algebra.mul.calls", "count"), ("algebra.mul.self_s", "s"),
    ("algebra.add.calls", "count"), ("algebra.add.self_s", "s"),
    ("algebra.series.calls", "count"), ("algebra.series.terms", "count"),
    ("algebra.series.self_s", "s"), ("algebra.det.self_s", "s"), ("algebra.self_s", "s"),
    ("kary.table.calls", "count"), ("kary.table.rows_req", "count"),
    ("kary.table.self_s", "s"), ("kary.avoid.self_s", "s"), ("kary.closed.self_s", "s"),
    ("kary.self_s", "s"),
    ("absdiff.table.calls", "count"), ("absdiff.table.rows_req", "count"),
    ("absdiff.table.self_s", "s"), ("absdiff.closed.self_s", "s"), ("absdiff.self_s", "s"),
    ("fibwords.self_s", "s"),
    ("oracle.calls", "count"), ("oracle.words", "count"), ("oracle.self_s", "s"),
    ("oracle.dup_s", "s"), ("oracle.words_per_s", "1/s"), ("oracle.skipped", "count"),
    ("partitions.rgf.items", "count"), ("partitions.rgf.self_s", "s"),
    ("partitions.closed.self_s", "s"), ("partitions.self_s", "s"),
    ("bijections.family.items", "count"), ("bijections.family.scanned", "count"),
    ("bijections.family.self_s", "s"), ("bijections.map.self_s", "s"),
    ("bijections.self_s", "s"),
    ("oeis.term.calls", "count"), ("oeis.term.s", "s"), ("oeis.self_s", "s"),
    *[(f"verify.{suite}.{q}", unit) for suite in workloads.CROSS_CHECK_NMAX
      for q, unit in (("s", "s"), ("checks", "count"))],
    ("verify.self_s", "s"),
    ("cli.calls", "count"), ("cli.self_s", "s"), ("cli.bytes_out", "bytes"),
    ("trace.spans", "count"), ("trace.overhead_s", "s"), ("trace.overhead_frac", "ratio"),
]
MODULES = ["algebra", "kary", "absdiff", "fibwords", "oracle", "partitions", "bijections",
           "oeis", "verify", "cli"]


class BenchError(RuntimeError):
    """A child failed to run; the run has no result."""


def _spawn(args: list[str], stdin: bytes, deadline: float) -> tuple[float, dict]:
    """Run one child to completion; return its spawn time and report."""
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.perf_counter()))
    spawned = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-I", str(CHILD), str(ROOT), *args],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=ROOT)
    try:
        out, err = proc.communicate(stdin, timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child ran past {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {err.decode()[-2000:]}")
    return spawned, json.loads(out)


def _percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def _outputs_digest(results: list[dict]) -> str:
    blob = json.dumps([(r["code"], r["error"], r["out"]) for r in results])
    return hashlib.sha256(blob.encode()).hexdigest()


class Run:
    """Repetitions of one workload and the checks on their outputs."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.requests = workloads.requests(workload, seed)
        probes = workloads.KNOWN_DEFECTS if workload == "many-small" else []
        self.stdin = json.dumps({"requests": self.requests,
                                 "probes": [p["argv"] for p in probes]}).encode()
        self.probes = probes
        self.deadline = deadline
        self.setups: list[float] = []  # at reference speed
        self.raw_setups: list[float] = []
        self.reports: list[dict] = []
        self.problems: dict[int, list[str]] = {}  # request index -> problems
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []  # probe states and other findings, printed
        self.unexpected = False  # a finding that fails the run
        self._checked: dict[str, int] = {}  # outputs digest -> failures

    def _setup(self, spawned: float, report: dict) -> None:
        raw = report["ready"] - spawned
        self.raw_setups.append(raw)
        self.setups.append(raw * speed.KERNEL_REF_S / report["calibration"])

    def probe_setup(self) -> None:
        spawned, report = _spawn(["--probe"], b"", self.deadline)
        self._setup(spawned, report)

    def repeat(self, trace_path: str | None = None) -> dict:
        args = ["--trace", trace_path] if trace_path else []
        spawned, report = _spawn(args, self.stdin, self.deadline)
        if not trace_path:
            self._setup(spawned, report)
        report["ref_latencies_s"] = speed.normalize(
            report["latencies_s"], report["first"], report["speed_samples"],
            report["calibration"])
        self._check(report)
        self.reports.append(report)
        return report

    def _check(self, report: dict) -> None:
        results = report["results"]
        digest = _outputs_digest(results)
        if digest not in self._checked:
            failures = 0
            for index, (req, res) in enumerate(zip(self.requests, results)):
                found = checks.check(req, res)
                if found:
                    self.problems.setdefault(index, found)
                    failures += 1
            self._checked[digest] = failures
            self._check_probes(report["probes"])
        self.attempted += len(results)
        self.failed += self._checked[digest]

    def _check_probes(self, outcomes: list[dict]) -> None:
        self.notes = []
        for probe, res in zip(self.probes, outcomes):
            if res["error"] is not None:
                got = res["error"].split(":", 1)[0]
            else:
                got = f"exit {res['code']}"
            if got == "exit 2":
                state = "fixed (exit 2)"
            elif got == probe["seed_outcome"]:
                state = f"still fails as at the seed ({got})"
            else:
                state = f"UNEXPECTED: {got}, seed gave {probe['seed_outcome']}"
                self.unexpected = True
            self.notes.append(f"  {' '.join(probe['argv'])}: {state}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.unexpected

    def end_to_end(self, key: str = "ref_latencies_s") -> dict:
        """Medians over repetitions; times at reference speed, or raw
        with key="latencies_s".  A request's latency is its median over
        the repetitions, and the percentiles are taken over requests."""
        reps = self.reports
        latencies = [statistics.median(r[key][i] for r in reps)
                     for i in range(len(self.requests))]
        return {
            "setup_s": statistics.median(
                self.setups if key == "ref_latencies_s" else self.raw_setups),
            "wall_s": statistics.median(sum(r[key]) for r in reps),
            "req_p50_ms": 1e3 * _percentile(latencies, 50),
            "req_p99_ms": 1e3 * _percentile(latencies, 99),
            "peak_rss_mib": statistics.median(r["rss_kib"] / 1024 for r in reps),
        }

    def fail_frac(self) -> float:
        return self.failed / self.attempted


def per_layer(traced: dict, untraced: dict, requests: list[dict]) -> dict:
    trace = traced["trace"]
    calls, own, counts = trace["calls"], trace["self_s"], trace["counts"]

    def self_of(prefix):
        return sum(v for k, v in own.items() if k == prefix or k.startswith(prefix + "."))

    def calls_of(prefix):
        return sum(v for k, v in calls.items() if k == prefix or k.startswith(prefix + "."))

    m = {module + ".self_s": self_of(module) for module in MODULES}
    for group in ("algebra.mul", "algebra.add", "algebra.series", "kary.table",
                  "absdiff.table"):
        m[group + ".calls"] = calls_of(group)
    for group in ("algebra.mul", "algebra.add", "algebra.series", "algebra.det", "kary.table",
                  "kary.avoid", "kary.closed", "absdiff.table", "absdiff.closed",
                  "partitions.rgf", "partitions.closed", "bijections.family",
                  "bijections.map"):
        m[group + ".self_s"] = self_of(group)
    for name in ("algebra.series.terms", "kary.table.rows_req", "absdiff.table.rows_req",
                 "oracle.words", "oracle.dup_s", "oracle.skipped", "partitions.rgf.items",
                 "bijections.family.items", "bijections.family.scanned", "oeis.term.s"):
        m[name] = counts.get(name, 0)
    m["oracle.calls"] = calls_of("oracle")
    new_s = counts.get("oracle.new_s", 0.0)
    m["oracle.words_per_s"] = m["oracle.words"] / new_s if new_s else 0.0
    m["oeis.term.calls"] = calls_of("oeis.term")
    for suite in workloads.CROSS_CHECK_NMAX:
        m[f"verify.{suite}.s"] = counts.get(f"verify.{suite}.s", 0.0)
        m[f"verify.{suite}.checks"] = counts.get(f"verify.{suite}.checks", 0)
    m["cli.calls"] = calls_of("cli")
    m["cli.bytes_out"] = sum(len(res["out"].encode()) for req, res in
                             zip(requests, traced["results"]) if req["kind"] == "cli")
    m["trace.spans"] = trace["spans"]
    # at reference speed: raw times of two single repetitions differ by
    # more than the overhead on a host whose speed drifts
    untraced_s, traced_s = sum(untraced["ref_latencies_s"]), sum(traced["ref_latencies_s"])
    m["trace.overhead_s"] = traced_s - untraced_s
    m["trace.overhead_frac"] = m["trace.overhead_s"] / untraced_s
    return m


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Run, dict]:
    started = time.perf_counter()
    run = Run(workload, seed, started + BUDGET_S)
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
        untraced = run.repeat()
        traced = run.repeat(str(SPANS_DIR / f"{workload}.spans.tsv"))
        if _outputs_digest(traced["results"]) != _outputs_digest(untraced["results"]):
            run.unexpected = True
            run.notes.append("  traced outputs differ from untraced outputs")
        own = traced["trace"]["self_s"]
        run.notes.append(f"  self time by function, top {TOP_FUNCTIONS}:")
        run.notes.extend(f"    {name:<44} {own[name]:.4f} s" for name in
                         sorted(own, key=own.get, reverse=True)[:TOP_FUNCTIONS])
        units = dict(PER_LAYER)
        values = per_layer(traced, untraced, run.requests)
        return run, {name: {"value": values[name], "unit": units[name]} for name, _ in PER_LAYER}
    for _ in range(SETUP_PROBES):
        run.probe_setup()
    measure_until = time.perf_counter() + seconds
    last = 0.0
    while not run.reports or time.perf_counter() < measure_until:
        if run.reports and time.perf_counter() + last > started + BUDGET_S:
            break
        begin = time.perf_counter()
        run.repeat()
        last = time.perf_counter() - begin
    values = run.end_to_end()
    return run, {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def _summary(run: Run, metrics: dict, trace: bool) -> list[str]:
    lines = [f"== {run.workload}: {len(run.requests)} requests x {len(run.reports)} "
             f"repetition(s), closed loop, 1 client, request list "
             f"{workloads.digest(run.requests)[:16]}"]
    raw = {} if trace else run.end_to_end("latencies_s")
    for name, metric in metrics.items():
        line = f"  {name:<28} {metric['value']:.6g} {metric['unit']}"
        if name in raw and name != "peak_rss_mib":
            line += f"   (raw {raw[name]:.6g})"
        lines.append(line)
    if not trace:
        lines.append(f"  {'samples per percentile':<28} {len(run.requests)} requests, each "
                     f"the median of {len(run.reports)} repetitions")
    lines.append(f"  {'fail_frac':<28} {run.fail_frac():.6g} ({run.failed}/{run.attempted})")
    for index, found in sorted(run.problems.items())[:MAX_LISTED]:
        req = run.requests[index]
        what = " ".join(req["argv"]) if req["kind"] == "cli" else f"{req['name']}({req['n']})"
        lines.append(f"  FAILED #{index} {what}: {'; '.join(found)}")
    if len(run.problems) > MAX_LISTED:
        lines.append(f"  ... and {len(run.problems) - MAX_LISTED} more failed requests")
    if run.probes:
        lines.append("  known-defect probes (untimed, a correct program exits 2):")
    lines.extend(run.notes)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "adjstats" / "cli.py").is_file():
        print(f"no adjstats sources under {ROOT / 'src'}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    outcome = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            run, metrics = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
        print("\n".join(_summary(run, metrics, bool(args.trace))), flush=True)
        outcome["correct"] &= run.correct
        outcome["attempted"] += run.attempted
        outcome["failed"] += run.failed
        if args.workload == "all":
            metrics = {f"{name}.{key}": value for key, value in metrics.items()}
        outcome["metrics"].update(metrics)
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
