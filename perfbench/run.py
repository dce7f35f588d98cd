"""The spjopt benchmark.

    python3 perfbench/run.py --workload corpus|width|keyed_cycles|all
        [--seed N] [--seconds S] [--trace 0|1]

Run from any directory of a source checkout; the library is imported from
the checkout's ``src``.  A run is one pass over the workload's fixed set of
ops, in a fresh interpreter (``worker.py``), so process-global caches of
the library are shared only by the ops of that pass, as they would be for
one library user.  The work of a run is fixed (a pass takes 10-80 s), so
``--seconds`` is accepted but changes nothing.  An untimed set-up first
creates the run's files; set-up is then timed ``SETUP_SAMPLES`` times (the
pass and set-up-only interpreters) and reported as a median.

Op and set-up times are scaled to a reference interpreter speed measured
in-process (``clock.py``); the unscaled wall times are printed beside them.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it makes one untraced and one traced pass and reports the
per-layer metrics of the traced pass, with the tracing overhead.  The last
line of standard output is one JSON object; the exit code is non-zero when
any answer is wrong.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

WORKLOADS = ("corpus", "width", "keyed_cycles")
DEFAULT_SEED = 74125
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("optimize_s", "s"),
    ("optimize_p50_ms", "ms"),
    ("degree_s", "s"),
    ("evaluate_s", "s"),
    ("plan_nodes", "count"),
    ("max_intermediate_rows", "rows"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MB"),
)

_EXTRA_UNITS = {"internal_peak_rows": "rows", "rows": "rows", "found_share": "share"}


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in tracing.function_names():
        out += [(f"{name}.calls", "count"), (f"{name}.s", "s"), (f"{name}.self_s", "s")]
        out += [(f"{name}.{x}", _EXTRA_UNITS.get(x, "count")) for x in tracing.EXTRA_METRICS.get(name, ())]
    out += [
        ("trace.untraced_s", "s"),
        ("trace.traced_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
    ]
    return out


class BenchError(Exception):
    """The run cannot produce a measurement."""


def run_worker(workload: str, seed: int, workdir: Path, tag: str, deadline: float, *extra: str) -> dict:
    """Start one fresh interpreter for one pass (or set-up) on the inputs
    under ``workdir``; returns its result with ``setup_s`` measured from
    the moment it was started."""
    workdir.mkdir(parents=True, exist_ok=True)
    result_path = workdir / f"{tag}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--workdir", os.path.relpath(workdir / "inputs", ROOT), "--result", str(result_path), *extra,
    ]
    # A fixed hash seed keeps set iteration order, and with it the search
    # order inside the library, the same in every pass.
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=str(ROOT), env=env, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} {tag} did not finish within the run limit")
    if code != 0:
        raise BenchError(f"{workload} {tag} worker exited with code {code}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    wall = result["ready"] - started - result["setup_calibration_s"]
    result["setup_s"] = wall * result["setup_scale"]
    return result


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; ``inf`` (a failed op) ranks slowest."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(q / 100.0 * len(ranked)) - 1)]


def pass_metrics(result: dict, key: str = "scaled_s") -> dict:
    """Sums and percentiles of one pass's op times (``key``: scaled or
    wall); a failed op is charged the limit."""
    limit = result["op_limit_s"]
    sums = {"optimize": 0.0, "degree": 0.0, "evaluate": 0.0}
    latencies = []
    for op in result["ops"]:
        sums[op["kind"]] += op[key] if op["ok"] else limit
        if op["kind"] == "optimize":
            latencies.append(op[key] if op["ok"] else math.inf)
    failed = sum(1 for op in result["ops"] if not op["ok"])
    attempted = len(result["ops"])

    def ms(v: float) -> float:
        return (limit if math.isinf(v) else v) * 1000.0

    return {
        "optimize_s": sums["optimize"],
        "optimize_p50_ms": ms(percentile(latencies, 50)),
        "optimize_p95_ms": ms(percentile(latencies, 95)),
        "optimize_ops": len(latencies),
        "degree_s": sums["degree"],
        "evaluate_s": sums["evaluate"],
        "plan_nodes": result["plan_nodes"],
        "max_intermediate_rows": result["max_intermediate_rows"],
        "ok_share": (attempted - failed) / attempted,
        "peak_rss_mb": result["peak_rss_mb"],
        "attempted": attempted,
        "failed": failed,
    }


def _check_distinct(results: list[dict]) -> None:
    pids = [r["pid"] for r in results]
    if len(set(pids)) != len(pids) or os.getpid() in pids:
        raise BenchError("two interpreters of a run shared a process")


def measure(workload: str, seed: int, workdir: Path) -> tuple[dict, dict]:
    """One untimed set-up, one untraced pass and the other set-up samples;
    returns (metrics, run facts)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    prepared = run_worker(workload, seed, workdir, "prepare", deadline, "--prepare")
    done = run_worker(workload, seed, workdir, "pass", deadline)
    samples = [
        run_worker(workload, seed, workdir, f"setup{k}", deadline, "--setup-only")
        for k in range(1, SETUP_SAMPLES)
    ]
    _check_distinct([prepared, done, *samples])
    m = pass_metrics(done)
    metrics = {"setup_s": statistics.median([done["setup_s"]] + [r["setup_s"] for r in samples])}
    metrics.update((name, m[name]) for name, _ in END_TO_END[1:])
    wall = pass_metrics(done, "seconds")
    facts = {
        "attempted": m["attempted"],
        "failed": m["failed"],
        "optimize_ops": m["optimize_ops"],
        "optimize_p95_ms": m["optimize_p95_ms"],
        "wall": {name: wall[name] for name in ("optimize_s", "degree_s", "evaluate_s")},
        "wrong": done["wrong"],
        "failures": [op for op in done["ops"] if not op["ok"]],
    }
    return metrics, facts


def measure_traced(workload: str, seed: int, workdir: Path, spans_path: Path) -> tuple[dict, dict]:
    """One untraced and one traced pass; per-layer metrics of the latter."""
    deadline = time.monotonic() + RUN_LIMIT_S
    prepared = run_worker(workload, seed, workdir, "prepare", deadline, "--prepare")
    plain = run_worker(workload, seed, workdir, "untraced", deadline)
    traced = run_worker(workload, seed, workdir, "traced", deadline, "--trace-spans", str(spans_path))
    _check_distinct([prepared, plain, traced])
    metrics = dict(traced["layers"])
    untraced_s = sum(op["seconds"] for op in plain["ops"])
    traced_s = sum(op["seconds"] for op in traced["ops"])
    metrics.update(
        {
            "trace.untraced_s": untraced_s,
            "trace.traced_s": traced_s,
            "trace.overhead_s": traced_s - untraced_s,
            "trace.spans": traced["spans"],
        }
    )
    plain_m = pass_metrics(plain)
    facts = {
        "attempted": plain_m["attempted"],
        "failed": plain_m["failed"],
        "wrong": plain["wrong"] + traced["wrong"],
        "failures": [op for op in plain["ops"] if not op["ok"]],
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, facts


def report(workload: str, seed: int, trace: bool, metrics: dict, facts: dict) -> dict:
    """Print the human-readable lines and return the JSON result."""
    units = dict(per_layer_metrics() if trace else END_TO_END)
    kind = "one untraced and one traced pass (per-layer)" if trace else "one untraced pass (end-to-end)"
    print(f"# {workload} seed={seed}: {kind}, each in a fresh interpreter")
    for name, value in metrics.items():
        print(f"{workload:<13} {name:<48} {value:>14.6g} {units[name]}")
    if not trace:
        if facts["optimize_ops"] >= 200:
            print(f"{workload:<13} {'optimize_p95_ms':<48} {facts['optimize_p95_ms']:>14.6g} ms")
        print(
            f"{workload:<13} {'fail_share':<48} {facts['failed'] / facts['attempted']:>14.6g} share"
            f"  ({facts['failed']} of {facts['attempted']} ops)"
        )
        wall = ", ".join(f"{name} {value:.4g} s" for name, value in facts["wall"].items())
        print(f"# unscaled wall time: {wall}")
    else:
        print(f"# spans written to {facts['spans_file']}")
    for op in facts["failures"]:
        print(f"# failed op: spjopt {' '.join(op['argv'])}: {op['error']}")
    for line in facts["wrong"]:
        print(f"# WRONG ANSWER: {line}")
    return {
        "correct": not facts["wrong"],
        "attempted": facts["attempted"],
        "failed": facts["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_one(workload: str, seed: int, trace: bool) -> bool:
    scratch = ROOT / ".perfbench"
    workdir = scratch / f"run-{os.getpid()}-{workload}"
    try:
        if trace:
            spans_path = scratch / f"spans-{workload}-seed{seed}.tsv"
            metrics, facts = measure_traced(workload, seed, workdir, spans_path)
        else:
            metrics, facts = measure(workload, seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = report(workload, seed, trace, metrics, facts)
    print(json.dumps(doc), flush=True)
    return doc["correct"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0, help="accepted; a run is always one pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "spjopt" / "cli.py").is_file():
        print(f"run.py: no spjopt sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    correct = True
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            correct = run_one(workload, args.seed, bool(args.trace)) and correct
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
