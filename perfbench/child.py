"""One benchmark child: import adjstats from the checkout, then run a
request list closed-loop on one thread and report timings and outputs.

Run as ``python3 -I child.py ROOT [--probe] [--trace SPANS_FILE]`` with
the request list as JSON on stdin.  The parent times set-up from its
spawn to the `ready` timestamp reported here; both are read from the
system-wide monotonic clock behind `time.perf_counter`.  Right after
`ready` the child reads the host speed (see speed.py), and it samples
the speed while the requests run.  With `--probe` the child only
imports and reports `ready` and the speed reading.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _load(root: Path):
    sys.path.insert(0, str(root / "src"))
    import adjstats
    import adjstats.cli  # noqa: F401  -- imported so set-up includes it

    src = (root / "src").resolve()
    if src not in Path(adjstats.__file__).resolve().parents:
        raise SystemExit(f"adjstats imported from {adjstats.__file__}, not {src}")
    return adjstats


def _peak_rss_kib() -> int:
    """High-water resident set size of this process image.  getrusage's
    ru_maxrss would also count the parent's resident set at the moment
    of exec, which Linux carries over into the child."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _call_cli(cli, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse reports usage errors this way
        code = exc.code
    except Exception as exc:  # noqa: BLE001 -- an escaped exception is a failed request
        code, error = None, f"{type(exc).__name__}: {exc}"
    return {"code": code, "error": error, "out": out.getvalue()}


def _call_oeis(oeis, name, n) -> dict:
    try:
        return {"code": 0, "error": None, "out": str(oeis.GENERATORS[name](n))}
    except Exception as exc:  # noqa: BLE001
        return {"code": None, "error": f"{type(exc).__name__}: {exc}", "out": ""}


def main(argv) -> None:
    root = Path(argv[1])
    adjstats = _load(root)
    ready = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import speed

    calibration = speed.calibrate()
    if "--probe" in argv:
        print(json.dumps({"ready": ready, "calibration": calibration}))
        return
    job = json.load(sys.stdin)
    tracer = None
    if "--trace" in argv:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(adjstats)
    sampler = speed.Sampler()
    cli, oeis = adjstats.cli, adjstats.oeis

    results, latencies = [], []
    clock = time.perf_counter
    sampler.start()
    first = clock()
    for index, req in enumerate(job["requests"]):
        if tracer is not None:
            tracer.request = index
        t0 = clock()
        if req["kind"] == "cli":
            res = _call_cli(cli, req["argv"])
        else:
            res = _call_oeis(oeis, req["name"], req["n"])
        latencies.append(clock() - t0)
        results.append(res)
    wall = clock() - first
    sampler.stop()
    rss_kib = _peak_rss_kib()

    report = {"ready": ready, "calibration": calibration, "first": first, "wall_s": wall,
              "latencies_s": latencies, "rss_kib": rss_kib, "results": results,
              "speed_samples": sampler.samples}
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.summary()
        tracer.write_spans(argv[argv.index("--trace") + 1])
    report["probes"] = [_call_cli(cli, argv_) for argv_ in job.get("probes", [])]
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main(sys.argv)
