"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 input format error, 3 resource cap
exceeded.  Exit 3 also covers inputs nested deeper than the interpreter's
recursion limit (a plan of about a thousand nested operators): the
recursive traversals stop with a one-line ``spjopt: resource cap: ...``
message instead of a traceback, and so does running out of memory
(``spjopt: resource cap: out of memory``).  All outputs are byte-identical
across runs for identical inputs: wall-clock timings are deliberately left
out of the serialized reports.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

from . import serialize
from .colorwidth import optimal_cwidth
from .constraints import KeySet, chase
from .errors import (
    ArityError,
    DegenerateInputError,
    FormatError,
    KeyConstraintError,
    PlanSyntaxError,
    ResourceCapError,
    SignatureError,
    SpjError,
    WellBehavedError,
)
from .plans import (
    arity_of,
    evaluate_naive,
    evaluate_well_behaved,
    is_well_behaved,
    operator_count,
    print_plan,
)
from .represent import build_representation
from .structures import OpenStructure, Signature, Structure, compute_core
from .synthesis import (
    Caps,
    equivalence_witness,
    intermediate_degree_bound,
    optimize_full,
    output_degree,
)
from .witness import bag_witness

DEFAULT_CORE_CAP = 12
DEFAULT_WIDTH_CAP = 16


@dataclass
class JobConfig:
    """Validated invocation: paths, caps and flags for one subcommand."""

    command: str
    plan: Optional[str] = None
    plan2: Optional[str] = None
    keys: Optional[str] = None
    data: list[str] = field(default_factory=list)
    out: Optional[str] = None
    strict_theta: bool = False
    cap_universe: Optional[int] = None
    seed: Optional[int] = None  # reserved; every subcommand is deterministic
    trace: bool = False
    format: str = "json"
    force_multi_keys: bool = False
    witness_n: tuple[int, ...] = (1, 2, 3, 4)

    def caps(self) -> Caps:
        if self.cap_universe is not None:
            return Caps(core_universe=self.cap_universe, width_universe=self.cap_universe)
        return Caps(core_universe=DEFAULT_CORE_CAP, width_universe=DEFAULT_WIDTH_CAP)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spjopt",
        description="Rewrite select-project-join plans to minimize intermediate size growth.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "check": "parse and validate a plan, keys and data",
        "represent": "emit the plan's structure representation and decomposition",
        "chase": "apply the key chase to a structure or a plan's representation",
        "core": "compute the core (of a structure, or of a plan's chased representation)",
        "degree": "report output degree and intermediate degree bound",
        "optimize": "synthesize the minimum-intermediate-degree equivalent plan",
        "evaluate": "evaluate a plan on data, with per-subplan cardinalities",
        "equiv": "decide equivalence of two plans under the keys",
        "witness": "emit the lower-bound database family for a plan",
        "decompose": "compute the optimal-width tree decomposition of the chased core",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--plan", help="plan file (optional `rel NAME ARITY` header + s-expression)")
        p.add_argument("--plan2", help="second plan file (equiv)")
        p.add_argument("--keys", help="keys file: `key <RelName> <position>` lines")
        p.add_argument("--data", action="append", default=[], help="structure JSON file (repeatable)")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--strict-theta", action="store_true", help="read identification sets literally, without closure")
        p.add_argument("--cap-universe", type=int, help="override both universe caps (default: core 12, width 16)")
        p.add_argument("--seed", type=int, help="reserved for reproducibility; accepted and recorded only")
        p.add_argument("--trace", action="store_true", help="include per-subplan relations in evaluate output")
        p.add_argument("--format", choices=["json", "dot", "text"], default="json")
        p.add_argument("--force-multi-keys", action="store_true",
                       help="process multiple keys per relation naively instead of rejecting them")
        p.add_argument("--n", dest="witness_n", default="1,2,3,4",
                       help="comma-separated witness family indices (witness subcommand)")
    return parser


def _config(args: argparse.Namespace) -> JobConfig:
    try:
        witness_n = tuple(int(x) for x in str(args.witness_n).split(",") if x != "")
    except ValueError:
        raise FormatError(f"--n expects comma-separated integers, got {args.witness_n!r}")
    cap = args.cap_universe
    if cap is None and os.environ.get("SPJOPT_CAP_UNIVERSE"):
        try:
            cap = int(os.environ["SPJOPT_CAP_UNIVERSE"])
        except ValueError:
            raise FormatError("SPJOPT_CAP_UNIVERSE must be an integer")
    return JobConfig(
        command=args.command,
        plan=args.plan,
        plan2=args.plan2,
        keys=args.keys,
        data=list(args.data),
        out=args.out,
        strict_theta=args.strict_theta,
        cap_universe=cap,
        seed=args.seed,
        trace=args.trace,
        format=args.format,
        force_multi_keys=args.force_multi_keys,
        witness_n=witness_n,
    )


def _load_keys(cfg: JobConfig) -> KeySet:
    keys = serialize.load_keys(cfg.keys) if cfg.keys else KeySet.empty()
    if not keys.one_per_relation() and not cfg.force_multi_keys:
        raise KeyConstraintError(
            "multiple keys declared for one relation; the optimality guarantees "
            "cover a single unary key per relation (pass --force-multi-keys to "
            "process them naively)"
        )
    return keys


def _first_data(cfg: JobConfig):
    if not cfg.data:
        return None
    return serialize.load_structure(cfg.data[0])


def _load_plan(cfg: JobConfig, path: Optional[str] = None):
    data = _first_data(cfg)
    data_struct = data.structure if isinstance(data, OpenStructure) else data
    sig = data_struct.signature if data_struct is not None else None
    plan, sig = serialize.load_plan(path or cfg.plan, sig)
    return plan, sig, data_struct


def _emit(cfg: JobConfig, text: str) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require(cfg: JobConfig, **what) -> None:
    for label, value in what.items():
        if not value:
            raise FormatError(f"subcommand {cfg.command!r} requires --{label}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_check(cfg: JobConfig) -> None:
    _require(cfg, plan=cfg.plan)
    keys = _load_keys(cfg)
    plan, sig, data = _load_plan(cfg)
    keys.validate_for(sig)
    ok, offender = is_well_behaved(plan, sig, cfg.strict_theta)
    doc = {
        "ok": True,
        "arity": arity_of(plan, sig),
        "operators": operator_count(plan),
        "wellBehaved": ok,
        "keysUnary": keys.is_unary,
    }
    if not ok:
        doc["offendingSubplan"] = print_plan(offender)
    if data is not None:
        doc["dataSignatureMatches"] = data.signature == sig
    _emit(cfg, serialize.dumps(doc))


def _cmd_represent(cfg: JobConfig) -> None:
    _require(cfg, plan=cfg.plan)
    plan, sig, _ = _load_plan(cfg)
    rep, dec = build_representation(plan, sig)
    names = rep.open.structure.names
    if cfg.format == "dot":
        _emit(cfg, serialize.decomposition_to_dot(dec, names))
        return
    doc = {
        "representation": serialize.structure_to_json(rep.open),
        "decomposition": serialize.decomposition_to_json(dec, names),
    }
    _emit(cfg, serialize.dumps(doc))


def _cmd_chase(cfg: JobConfig) -> None:
    keys = _load_keys(cfg)
    if cfg.data:
        value = serialize.load_structure(cfg.data[0])
    else:
        _require(cfg, plan=cfg.plan)
        plan, sig, _ = _load_plan(cfg)
        rep, _ = build_representation(plan, sig)
        value = rep.open
    struct = value.structure if isinstance(value, OpenStructure) else value
    before_names = dict(struct.names)
    result = chase(value, keys)
    out_struct = result.result.structure if isinstance(result.result, OpenStructure) else result.result
    doc = {
        "structure": serialize.structure_to_json(result.result),
        "mergeMap": {
            before_names[src]: out_struct.names[dst]
            for src, dst in sorted(result.merge_map.items())
            if src != dst
        },
    }
    _emit(cfg, serialize.dumps(doc))


def _cmd_core(cfg: JobConfig) -> None:
    keys = _load_keys(cfg)
    if cfg.data:
        value = serialize.load_structure(cfg.data[0])
        if isinstance(value, Structure):
            value = OpenStructure(value, ())
    else:
        _require(cfg, plan=cfg.plan)
        plan, sig, _ = _load_plan(cfg)
        rep, _ = build_representation(plan, sig)
        value = chase(rep.open, keys).result
    core = compute_core(value, cap_universe=cfg.caps().core_universe)
    _emit(cfg, serialize.dumps({"core": serialize.structure_to_json(core)}))


def _cmd_degree(cfg: JobConfig) -> None:
    _require(cfg, plan=cfg.plan)
    keys = _load_keys(cfg)
    plan, sig, _ = _load_plan(cfg)
    keys.validate_for(sig)
    doc = {
        "outputDegree": serialize.fraction_str(output_degree(plan, keys, sig)),
        "intermediateDegreeBound": serialize.fraction_str(
            intermediate_degree_bound(plan, keys, sig)
        ),
    }
    _emit(cfg, serialize.dumps(doc))


def _cmd_optimize(cfg: JobConfig) -> None:
    _require(cfg, plan=cfg.plan)
    keys = _load_keys(cfg)
    plan, sig, _ = _load_plan(cfg)
    keys.validate_for(sig)
    outcome = optimize_full(plan, keys, sig, caps=cfg.caps())
    result = outcome.result
    if cfg.format == "text":
        _emit(cfg, print_plan(result.plan) + "\n")
        return
    names = result.elimination.structure.names
    _emit(cfg, serialize.dumps(serialize.synthesis_result_to_json(result, names)))


def _cmd_evaluate(cfg: JobConfig) -> None:
    _require(cfg, plan=cfg.plan, data=cfg.data)
    plan, sig, data = _load_plan(cfg)
    try:
        trace = evaluate_well_behaved(plan, data, cfg.strict_theta)
        evaluator = "well-behaved"
    except WellBehavedError:
        trace = evaluate_naive(plan, data)
        evaluator = "naive"
    doc = {
        "evaluator": evaluator,
        "cardinality": len(trace.output),
        "maxIntermediate": trace.max_intermediate,
        "output": sorted([data.names[e] for e in row] for row in trace.output),
    }
    if cfg.trace:
        doc = {**serialize.trace_to_json(trace, data.names), "evaluator": evaluator}
    if cfg.format == "text":
        lines = [f"evaluator: {evaluator}"]
        for entry in trace.entries:
            lines.append(f"{entry.cardinality:>8}  {entry.text}")
        lines.append(f"max intermediate: {trace.max_intermediate}")
        _emit(cfg, "\n".join(lines) + "\n")
        return
    _emit(cfg, serialize.dumps(doc))


def _cmd_equiv(cfg: JobConfig) -> None:
    _require(cfg, plan=cfg.plan, plan2=cfg.plan2)
    keys = _load_keys(cfg)
    data = _first_data(cfg)
    data_struct = data.structure if isinstance(data, OpenStructure) else data
    merged: dict[str, int] = {} if data_struct is None else data_struct.signature.as_dict()
    bodies = []
    for path in (cfg.plan, cfg.plan2):
        with open(path, "r", encoding="utf-8") as fh:
            header, body = serialize.plan_file_from_text(fh.read())
        if header is not None:
            for name in header.symbols():
                ar = header.arity(name)
                if merged.get(name, ar) != ar:
                    raise FormatError(f"{path}: conflicting arity for {name!r}")
                merged[name] = ar
        bodies.append(body)
    if not merged:
        raise FormatError("no signature available; add `rel` headers or pass --data")
    sig = Signature(merged)
    from .plans import parse_plan

    plan1 = parse_plan(bodies[0], sig)
    plan2 = parse_plan(bodies[1], sig)
    keys.validate_for(sig)
    try:
        witness = equivalence_witness(plan1, plan2, keys, sig)
    except ArityError:
        _emit(cfg, serialize.dumps({"equivalent": False, "reason": "different arities"}))
        return
    doc = {"equivalent": witness is not None}
    if witness is not None:
        left, right = witness.left.structure.names, witness.right.structure.names
        doc["witnesses"] = {
            "forward": {left[a]: right[b] for a, b in sorted(witness.forward.items())},
            "backward": {right[a]: left[b] for a, b in sorted(witness.backward.items())},
        }
    _emit(cfg, serialize.dumps(doc))


def _cmd_witness(cfg: JobConfig) -> None:
    _require(cfg, plan=cfg.plan)
    keys = _load_keys(cfg)
    plan, sig, _ = _load_plan(cfg)
    keys.validate_for(sig)
    caps = cfg.caps()
    rep, _ = build_representation(plan, sig)
    core = compute_core(chase(rep.open, keys).result, cap_universe=caps.core_universe)
    report = optimal_cwidth(core, keys, cap=caps.width_universe)
    node, family = bag_witness(core, keys, report.decomposition)
    names = core.structure.names
    meta = {
        "bagNode": node,
        "bag": [names[e] for e in sorted(family.target)],
        "colorsOnTarget": family.colors_on_target,
        "maxColorsPerTuple": family.max_colors_per_tuple,
        "ratio": serialize.fraction_str(family.ratio),
        "n": list(cfg.witness_n),
    }
    if cfg.out:
        files = []
        for n in cfg.witness_n:
            path = f"{cfg.out}_n{n}.json"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(serialize.dumps(serialize.structure_to_json(family.generate(n))))
            files.append(path)
        meta["files"] = files
        sys.stdout.write(serialize.dumps(meta))
    else:
        meta["instances"] = {
            str(n): serialize.structure_to_json(family.generate(n)) for n in cfg.witness_n
        }
        sys.stdout.write(serialize.dumps(meta))


def _cmd_decompose(cfg: JobConfig) -> None:
    keys = _load_keys(cfg)
    caps = cfg.caps()
    if cfg.data:
        value = serialize.load_structure(cfg.data[0])
        if isinstance(value, Structure):
            value = OpenStructure(value, ())
        core = value
    else:
        _require(cfg, plan=cfg.plan)
        plan, sig, _ = _load_plan(cfg)
        keys.validate_for(sig)
        rep, _ = build_representation(plan, sig)
        core = compute_core(chase(rep.open, keys).result, cap_universe=caps.core_universe)
    report = optimal_cwidth(core, keys, cap=caps.width_universe)
    names = core.structure.names
    if cfg.format == "dot":
        _emit(cfg, serialize.decomposition_to_dot(report.decomposition, names))
        return
    _emit(cfg, serialize.dumps(serialize.width_report_to_json(report, names)))


_COMMANDS = {
    "check": _cmd_check,
    "represent": _cmd_represent,
    "chase": _cmd_chase,
    "core": _cmd_core,
    "degree": _cmd_degree,
    "optimize": _cmd_optimize,
    "evaluate": _cmd_evaluate,
    "equiv": _cmd_equiv,
    "witness": _cmd_witness,
    "decompose": _cmd_decompose,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        cfg = _config(args)
        _COMMANDS[cfg.command](cfg)
    except ResourceCapError as exc:
        print(f"spjopt: resource cap: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        print("spjopt: resource cap: input nested too deeply (recursion limit reached)", file=sys.stderr)
        return 3
    except MemoryError:
        print("spjopt: resource cap: out of memory", file=sys.stderr)
        return 3
    except (
        FormatError,
        PlanSyntaxError,
        SignatureError,
        ArityError,
        KeyConstraintError,
        WellBehavedError,
        DegenerateInputError,
        FileNotFoundError,
        IsADirectoryError,
    ) as exc:
        print(f"spjopt: {exc}", file=sys.stderr)
        return 2
    except SpjError as exc:
        print(f"spjopt: internal error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
