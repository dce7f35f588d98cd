"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload corpus --seed 1 --workdir DIR --result FILE
        [--trace-spans FILE] [--prepare | --setup-only] [--corpus-size N]

Set-up imports ``spjopt`` from the checkout's ``src``, generates the
workload's inputs, writes them under ``--workdir`` and loads each once.  The
pass then runs every op -- one in-process call to ``spjopt.cli.main`` with
the argv a user would type -- checks every answer against a reference that
is not the evaluator under test, and writes a JSON result.  ``run.py``
starts one worker per pass so that no two passes share the process-global
caches of the library.

``--prepare`` is the untimed first set-up of a run: it creates every input
file and every file the ops will write, so that the timed set-ups and ops
write over existing files.  Creating a thousand files on the shared ext4
disk this benchmark was built on took 0.03 s or 0.7 s depending on other
tenants' I/O; writing over them took about 0.1 s either way.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from clock import Clock  # noqa: E402

OP_LIMIT_S = 30.0
# Charged to plan_nodes for a failed optimize and to max_intermediate_rows
# for a failed evaluate of a counted item: more than any op of the
# workloads yields (the largest synthesized plan, C10's, has 18,838 nodes).
FAILURE_CHARGE = 100_000


class Pass:
    """Runs ops through ``cli.main`` and records their outcome."""

    def __init__(self, cli, clock: Clock, limit_s: float = OP_LIMIT_S):
        self.cli = cli
        self.clock = clock
        self.limit_s = limit_s
        self.ops: list[dict] = []
        self.tracer = None

    def run(self, kind: str, item: str, argv: list[str], upstream_ok: bool = True) -> dict:
        op = {"kind": kind, "item": item, "argv": argv, "ok": False, "error": None, "start": 0.0, "end": 0.0}
        self.ops.append(op)
        if not upstream_ok:
            op["error"] = "UpstreamFailed"
            return op
        if self.tracer is not None:
            self.tracer.op_id = len(self.ops) - 1
        op["start"] = time.perf_counter()
        try:
            try:
                self.clock.deadline = op["start"] + self.limit_s
                code = self.cli.main(argv)
            finally:
                self.clock.deadline = None
                op["end"] = time.perf_counter()
        except Exception as exc:  # the op's failure is the measurement
            op["error"] = type(exc).__name__
        else:
            if code == 0:
                op["ok"] = True
            else:
                op["error"] = f"exit {code}"
        if self.tracer is not None:
            self.tracer.op_id = -1
        return op

    def timed_ops(self) -> list[dict]:
        """The ops with ``seconds`` (wall, less calibration) and
        ``scaled_s`` (at the reference speed)."""
        out = []
        for op in self.ops:
            wall, scaled = self.clock.measure(op["start"], op["end"])
            out.append(
                {k: op[k] for k in ("kind", "item", "argv", "ok", "error")}
                | {"seconds": wall, "scaled_s": scaled}
            )
        return out


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def setup(workload: str, seed: int, workdir: Path, corpus_size: int):
    """Generate, write and load every input once; returns the items with
    their file paths and loaded objects."""
    from spjopt import cli, serialize

    if workload == "corpus":
        items = workloads.corpus(seed, corpus_size)
    else:
        items = workloads.GENERATORS[workload](seed)
    for item in items:
        d = workdir / item["name"]
        d.mkdir(parents=True, exist_ok=True)
        item["plan_path"] = _write(d / "input.plan", item["plan"])
        item["keys_path"] = _write(d / "input.keys", item["keys"]) if item["keys"] is not None else None
        item["db_paths"] = [_write(d / f"db{i}.json", text) for i, text in enumerate(item["dbs"])]
        if "witness_n" in item:
            prefix = str(d / "witness")
            argv = ["witness", "--plan", item["plan_path"], "--n", ",".join(map(str, item["witness_n"])), "--out", prefix]
            if cli.main(argv) != 0:
                raise SystemExit(f"set-up: spjopt {' '.join(argv)} failed")
            item["db_paths"] += [f"{prefix}_n{n}.json" for n in item["witness_n"]]
    for item in items:
        item["loaded_plan"] = serialize.load_plan(item["plan_path"])
        item["loaded_keys"] = serialize.load_keys(item["keys_path"]) if item["keys_path"] else None
        item["loaded_dbs"] = [serialize.load_structure(p) for p in item["db_paths"]]
    return items


def _common(item: dict) -> list[str]:
    argv = ["--keys", item["keys_path"]] if item["keys_path"] else []
    if item["cap"] is not None:
        argv += ["--cap-universe", str(item["cap"])]
    return argv


def output_paths(item: dict) -> dict[str, str]:
    """The files the item's ops write (and the synthesized plan the
    benchmark writes between them)."""
    d = Path(item["plan_path"]).parent
    out = {name: str(d / name) for name in ("optimized.json", "synthesized.plan", "degree.json")}
    out.update((f"eval{i}.json", str(d / f"eval{i}.json")) for i in range(len(item["db_paths"])))
    return out


def prepare_outputs(items: list[dict]) -> None:
    for item in items:
        for path in output_paths(item).values():
            Path(path).touch()


def run_ops(items: list[dict], runner: Pass) -> None:
    """optimize, then degree, then evaluate on each database, per item."""
    for item in items:
        out = output_paths(item)
        opt_out = out["optimized.json"]
        opt = runner.run("optimize", item["name"], ["optimize", "--plan", item["plan_path"], "--out", opt_out] + _common(item))
        synth_path = out["synthesized.plan"]
        if opt["ok"]:
            doc = json.loads(Path(opt_out).read_text(encoding="utf-8"))
            rel_lines = "".join(line + "\n" for line in item["plan"].splitlines() if line.startswith("rel "))
            _write(Path(synth_path), rel_lines + doc["plan"] + "\n")
            item["synth_text"] = doc["plan"]
            item["certified"] = doc["degree"]
        if item.get("degree", True):
            deg_out = out["degree.json"]
            argv = ["degree", "--plan", synth_path, "--out", deg_out] + _common(item)
            item["degree_op"] = (runner.run("degree", item["name"], argv, opt["ok"]), deg_out)
        item["eval_ops"] = []
        for i, db in enumerate(item["db_paths"]):
            ev_out = out[f"eval{i}.json"]
            argv = ["evaluate", "--plan", synth_path, "--data", db, "--out", ev_out]
            item["eval_ops"].append((runner.run("evaluate", item["name"], argv, opt["ok"]), ev_out))


def _names(rows, data) -> list[list[str]]:
    return sorted([data.names[e] for e in row] for row in rows)


def check(workload: str, items: list[dict]) -> tuple[list[str], int, int]:
    """Compare every successful op's answer with its reference; returns the
    mismatches, the synthesized plans' node total and the summed
    maxIntermediate.  The two counts skip ``workloads.UNCOUNTED`` and charge
    a failed op of any other item ``FAILURE_CHARGE``."""
    from spjopt.constraints import KeySet
    from spjopt.plans import evaluate_naive
    from spjopt.structures import Signature, Structure, homs_relation
    from spjopt.synthesis import output_degree

    wrong: list[str] = []
    plan_nodes = 0
    max_rows = 0
    for item in items:
        counted = item["name"] not in workloads.UNCOUNTED
        if "synth_text" not in item:
            if counted:
                plan_nodes += FAILURE_CHARGE
                max_rows += FAILURE_CHARGE * len(item["eval_ops"])
            continue
        if counted:
            plan_nodes += workloads.count_nodes(item["synth_text"])
        plan, sig = item["loaded_plan"]
        keys = item["loaded_keys"] or KeySet.empty()
        certified = Fraction(item["certified"])
        if "degree_op" in item and item["degree_op"][0]["ok"]:
            doc = json.loads(Path(item["degree_op"][1]).read_text(encoding="utf-8"))
            bound = Fraction(doc["intermediateDegreeBound"])
            if bound != certified:
                wrong.append(f"{item['name']}: intermediateDegreeBound {bound} != certified degree {certified}")
            if bound < output_degree(plan, keys, sig):
                wrong.append(f"{item['name']}: intermediateDegreeBound {bound} below the input's output degree")
        pattern = None
        if workload == "width":
            n = 1 + max(v for e in item["edges"] for v in e)
            pattern = Structure(Signature({"E": 2}), range(n), {"E": item["edges"]})
        for k, ((op, path), data) in enumerate(zip(item["eval_ops"], item["loaded_dbs"])):
            if not op["ok"]:
                max_rows += FAILURE_CHARGE if counted else 0
                continue
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
            max_rows += doc["maxIntermediate"] if counted else 0
            if workload == "corpus":
                expected = _names(evaluate_naive(plan, data).output, data)
            elif workload == "keyed_cycles":
                expected = [[x] for x in item["answer"]]
            else:
                expected = _names(homs_relation(pattern, item["out"], data), data)
            if doc["output"] != expected:
                wrong.append(f"{item['name']}: evaluate on {Path(op['argv'][4]).name} differs from the reference")
            if "witness_n" in item and k >= len(item["dbs"]):
                m = max(len(rows) for rows in data.relations.values())
                kk = len(item["edges"])
                p, q = certified.numerator, certified.denominator
                if doc["maxIntermediate"] ** q > kk**q * m**p:
                    wrong.append(f"{item['name']}: maxIntermediate {doc['maxIntermediate']} exceeds {kk}*M^{certified} (M={m})")
    return wrong, plan_nodes, max_rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace-spans")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--prepare", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    ap.add_argument("--corpus-size", type=int, default=workloads.CORPUS_SIZE)
    args = ap.parse_args(argv)

    clock = Clock(calibrate=not args.trace_spans)
    clock.start()
    clock.sample()  # set-up is short: make sure it has a sample of its own
    sys.path.insert(0, str(ROOT / "src"))
    import spjopt
    from spjopt import cli

    if Path(spjopt.__file__).resolve().parent != ROOT / "src" / "spjopt":
        raise SystemExit(f"imported spjopt from {spjopt.__file__}, not from this checkout")
    runner = Pass(cli, clock)
    if args.trace_spans:
        # Installed before set-up, so that the witness databases it makes
        # are traced too; spans outside an op carry op id -1.
        from tracing import Tracer

        runner.tracer = Tracer()
        runner.tracer.install()
    items = setup(args.workload, args.seed, Path(args.workdir), args.corpus_size)
    ready = time.perf_counter()
    result = {"pid": os.getpid(), "ready": time.monotonic()}
    if args.prepare:
        prepare_outputs(items)
    elif not args.setup_only:
        try:
            run_ops(items, runner)
        finally:
            # The reference checks below are no op's work: keep them out
            # of the spans.
            if runner.tracer is not None:
                runner.tracer.uninstall()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wrong, plan_nodes, max_rows = check(args.workload, items)
        result.update(
            op_limit_s=OP_LIMIT_S,
            wrong=wrong,
            plan_nodes=plan_nodes,
            max_intermediate_rows=max_rows,
            peak_rss_mb=rss_mb,
        )
        if runner.tracer is not None:
            runner.tracer.write_spans(args.trace_spans)
            result["layers"] = runner.tracer.metrics()
            result["spans"] = len(runner.tracer.spans)
    clock.sample()
    clock.stop()
    result["ops"] = runner.timed_ops()
    # Set-up runs from interpreter start, before the clock's first sample:
    # the parent times it and scales it by the speed measured during it.
    setup_wall, setup_scaled = clock.measure(0.0, ready)
    result["setup_scale"] = setup_scaled / setup_wall if setup_wall > 0 else 1.0
    result["setup_calibration_s"] = ready - setup_wall
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
