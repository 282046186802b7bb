"""The modforms benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. Every engine process it starts runs
``perfbench/worker.py`` with ``PYTHONPATH=src``; nothing is installed.
The last line it prints is the result object, with the end-to-end
metrics when ``--trace 0`` and the per-layer metrics when ``--trace 1``;
the line before it carries the environment, and the whole record goes to
``.perfbench_out/``. Workloads, metrics and the seed baseline are
described in ``perfbench/README.md``; names and units come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import calib  # noqa: E402
import golden  # noqa: E402
import queries  # noqa: E402
import tracer as tracing  # noqa: E402

WORKLOADS = ("verify-all", "deep-identities", "query-mix")

# Layers each workload must reach; a traced run that records no span in
# one of them fails instead of reporting zeros.
EXPECTED_LAYERS = {
    "verify-all": set(tracing.LAYERS),
    "deep-identities": set(tracing.LAYERS) - {"brackets"},
    "query-mix": set(tracing.LAYERS) - {"verify"},
}

# Setup samples per run; set-up-only processes top up the ones the
# measured processes took.
SETUP_SAMPLES = 7
# Fixed work of a traced run: the suite once, or this many query rounds.
TRACE_ROUNDS = 5


class BenchError(RuntimeError):
    pass


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _spawn(args: list[str]) -> dict:
    """Run one worker to completion; returns its result with wall and peak RSS."""
    # A fixed hash seed keeps set and dict layouts, and so timings, alike across processes.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
    )
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB
    result["elapsed_s"] = elapsed - result["calibration"]["calibration_s"]
    return result


def _scale(runs: list[dict]) -> None:
    """Scale every time of each process to the reference speed, in place.

    See calib.py. The raw scalar times stay in the record under ``raw``.
    """
    for run in runs:
        factor = calib.KERNEL_REF_S / run["calibration"]["kernel_mean_s"]
        run["scale"] = factor
        run["raw"] = {k: run[k] for k in ("setup_s", "wall_s", "elapsed_s") if k in run}
        for key in run["raw"]:
            run[key] *= factor
        for key in ("round_s", "latencies_ms"):
            if key in run:
                run[key] = [x * factor for x in run[key]]
        for key, value in run.get("layers", {}).items():
            if key.endswith(("_s", ".s")):
                run["layers"][key] = value * factor


def _setup_runs(precs, taken: int) -> list[dict]:
    """Set-up-only processes that top the run's setup samples up to SETUP_SAMPLES."""
    args = ["setup", "--precs", ",".join(map(str, precs))]
    return [_spawn(args) for _ in range(max(0, SETUP_SAMPLES - taken))]


def _suite_runs(workload: str, seconds: float) -> dict:
    """Fresh suite processes, back to back, while another one fits in the time."""
    runs = []
    start = time.perf_counter()
    while not runs or (
        time.perf_counter() - start + statistics.median(r["elapsed_s"] for r in runs)
        <= seconds
    ):
        runs.append(_spawn(["suite", "--workload", workload]))
    setup_runs = _setup_runs([golden.SUITES[workload][1]], len(runs))
    _scale(runs + setup_runs)
    setups = [r["setup_s"] for r in runs + setup_runs]
    wall_s = statistics.median(r["wall_s"] for r in runs)
    latencies = [r["elapsed_s"] * 1000.0 for r in runs]
    metrics = {
        "wall_s": wall_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        "throughput_qps": runs[0]["attempted"] / wall_s,
        "latency_p50_ms": statistics.median(latencies),
        "latency_p95_ms": _percentile(latencies, 95),
    }
    return {"runs": runs, "metrics": metrics, "samples": len(runs), "setup_samples": setups}


def _query_mix(seed: int, seconds: float) -> dict:
    session = _spawn(["session", "--seed", str(seed), "--seconds", str(seconds)])
    setup_runs = _setup_runs(queries.PRECS, 1)
    _scale([session] + setup_runs)
    setups = [r["setup_s"] for r in [session] + setup_runs]
    lat = session.pop("latencies_ms")
    metrics = {
        "wall_s": statistics.median(session["round_s"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": session["peak_rss_mb"],
        "throughput_qps": len(lat) / session["wall_s"],
        "latency_p50_ms": statistics.median(lat),
        "latency_p95_ms": _percentile(lat, 95),
    }
    return {"runs": [session], "metrics": metrics, "samples": len(lat), "setup_samples": setups}


def _work_args(workload: str, seed: int) -> list[str]:
    if workload == "query-mix":
        return ["session", "--seed", str(seed), "--rounds", str(TRACE_ROUNDS)]
    return ["suite", "--workload", workload]


def _work_s(run: dict) -> float:
    return run["setup_s"] + run["wall_s"]


def _traced(workload: str, seed: int) -> dict:
    """One plain and two traced runs of the same fixed work."""
    OUT.mkdir(exist_ok=True)
    args = _work_args(workload, seed)
    plain = _spawn(args)
    traced = []
    for i in (1, 2):
        spans = OUT / f"spans-{workload}-seed{seed}-{i}.json"
        traced.append(_spawn(args + ["--spans", str(spans)]))
    _scale([plain, *traced])
    for run in traced:
        missing = EXPECTED_LAYERS[workload] - set(run["layers_seen"])
        if missing:
            raise BenchError(f"{workload}: no span recorded in layer(s) {sorted(missing)}")
    first, second = (run["layers"] for run in traced)
    drift = {k: (first[k], second[k]) for k in tracing.COUNT_METRICS if first[k] != second[k]}
    if drift:
        raise BenchError(f"{workload}: counts differ between traced runs: {drift}")
    metrics = {
        k: first[k] if k in tracing.COUNT_METRICS else statistics.median([first[k], second[k]])
        for k in first
    }
    traced_s = statistics.median(_work_s(r) for r in traced)
    metrics["trace.overhead_frac"] = (traced_s - _work_s(plain)) / _work_s(plain)
    for run in (plain, *traced):
        run.pop("latencies_ms", None)
    return {"runs": [plain, *traced], "metrics": metrics}


def _environment(seed: int, workload: str) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "modforms").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():  # a plain source checkout has no commit to name
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    precision = (
        list(queries.PRECS) if workload == "query-mix" else golden.SUITES[workload][1]
    )
    return {
        "python": platform.python_version(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "engine_commit": commit,
        "engine_src_sha256": src.hexdigest()[:16],
        "seed": seed,
        "precision": precision,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="modforms benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "modforms" / "__init__.py").is_file():
        print(f"error: no engine source at {ROOT / 'src' / 'modforms'}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        if args.trace:
            outcome = _traced(args.workload, args.seed)
        elif args.workload == "query-mix":
            outcome = _query_mix(args.seed, args.seconds)
        else:
            outcome = _suite_runs(args.workload, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    missing = [m["name"] for m in wanted if m["name"] not in outcome["metrics"]]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in outcome["runs"])
    failed = sum(r["failed"] for r in outcome["runs"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": outcome["metrics"][m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }
    env = _environment(args.seed, args.workload)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": env,
        "fail_frac": failed / attempted,
        "mismatches": [m for r in outcome["runs"] for m in r["mismatches"]],
        "outcome": outcome,
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"env": env, "fail_frac": failed / attempted}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
