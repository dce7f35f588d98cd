"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 input format error, 3 resource cap
exceeded.  Every subcommand takes ``--plan``, ``--keys``, ``--data``,
``--out`` and ``--cap-universe``; a mode option (``--plan2``, ``--trace``,
``--n``, ``--format`` with the formats its subcommand prints) is taken only
where ``_COMMANDS`` lists it.  Any other option is a usage error, but a
missing ``--plan`` exits 2.  Plans are walked with explicit stacks, so
nesting depth is not limited by the interpreter's recursion limit.  Running
out of memory exits 3 with a one-line ``spjopt: resource cap: out of
memory`` message instead of a traceback.  Exit 2 also covers files that
cannot be read (missing, a directory, no permission) or are not UTF-8 text,
and ``--data`` given more than once.
Universe caps default to :class:`Caps`; ``--cap-universe N`` sets both.  All
outputs are byte-identical across runs for identical inputs: wall-clock
timings are deliberately left out of the serialized reports.

``--plan`` is read on every call and loaded as a prepared plan (see
:func:`spjopt.plans.parse_prepared`).  A long-lived process that calls
:func:`main` many times keeps at most ``plans.PREPARED_PLANS_CACHED`` (8) of
them, keyed by the plan text and the signature, so an edited file is
parsed again; stdout stays byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Callable, NamedTuple, Optional, Union

from . import serialize
from .colorwidth import optimal_cwidth
from .constraints import KeySet, chase
from .errors import (
    ArityError,
    DegenerateInputError,
    FormatError,
    ResourceCapError,
    SpjError,
)
from .plans import (
    Basic,
    PreparedPlan,
    check_printed_subplans,
    evaluate_well_behaved,
    parse_prepared,
    print_plan,
)
from .represent import Caps, build_representation
from .structures import OpenStructure, Signature, Structure, compute_core
from .synthesis import (
    chased_core,
    equivalence_witness,
    optimize,
    subplan_degrees,
)
from .witness import bag_witness, check_family_size


class _Command(NamedTuple):
    """A subcommand: its handler, its help line and the mode options it
    takes besides the shared ones, as (flag, add_argument keywords)."""

    handler: Callable[[argparse.Namespace], None]
    help: str
    options: tuple[tuple[str, dict], ...] = ()


def _format(*choices: str) -> tuple[str, dict]:
    return "--format", {"choices": choices, "default": "json"}


# Built once per process: building the parser costs far more than parsing
# argv, and a long-lived process calls main many times.
@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spjopt",
        description="Rewrite select-project-join plans to minimize intermediate size growth.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    default_caps = Caps()
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--plan", help="plan file (optional `rel NAME ARITY` header + s-expression)")
        p.add_argument("--keys", help="keys file: `key <RelName> <position>` lines")
        p.add_argument("--data", action="append", default=[], help="structure JSON file")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--cap-universe", type=int, help="override both universe caps (default: core "
                       f"{default_caps.core_universe}, width {default_caps.width_universe})")
        for flag, spec in command.options:
            p.add_argument(flag, **spec)
    return parser


def _parse_witness_n(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x != "")
    except ValueError:
        raise FormatError(f"--n expects comma-separated integers, got {text!r}")


def _caps(args: argparse.Namespace) -> Caps:
    n = args.cap_universe
    return Caps() if n is None else Caps(core_universe=n, width_universe=n)


def _load_keys(args: argparse.Namespace) -> KeySet:
    return serialize.load_keys(args.keys) if args.keys else KeySet.empty()


def _load_data(args: argparse.Namespace) -> Union[Structure, OpenStructure, None]:
    """The ``--data`` file's structure or open structure, or None without
    one.  ``--data`` given more than once is an input error."""
    if len(args.data) > 1:
        raise FormatError(f"--data given {len(args.data)} times; pass one data file")
    return serialize.load_structure(args.data[0]) if args.data else None


def _data_structure(args: argparse.Namespace) -> Optional[Structure]:
    """The data file's structure (an open one's without its tuple)."""
    data = _load_data(args)
    return data.structure if isinstance(data, OpenStructure) else data


def _chased_data(args: argparse.Namespace, keys: KeySet) -> OpenStructure:
    """The data file as an open structure, chased under ``keys``, as the
    plan path chases a plan's representation.

    A closed structure loses its isolated elements, since each retracts
    onto any element of a tuple; it needs a tuple over some element.
    """
    value = _load_data(args)
    if isinstance(value, Structure):
        kept = set(value.universe) - set(value.isolated_elements())
        if value.universe and not kept:
            raise DegenerateInputError("data has no tuples over its elements")
        value = OpenStructure(value.restrict(kept), ())
    return chase(value, keys).result


def _load_plan(
    args: argparse.Namespace, keyed: bool = True
) -> tuple[PreparedPlan, KeySet, Optional[Structure]]:
    """The ``--plan`` file prepared under the data file's signature, else
    its own header's; the keys (empty unless ``keyed``), validated
    against that signature; and the data's structure, or None."""
    _require(args, plan=args.plan)
    keys = _load_keys(args) if keyed else KeySet.empty()
    data = _data_structure(args)
    prepared = serialize.load_prepared(args.plan, data.signature if data is not None else None)
    keys.validate_for(prepared.signature)
    return prepared, keys, data


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require(args: argparse.Namespace, **what) -> None:
    for label, value in what.items():
        if not value:
            raise FormatError(f"subcommand {args.command!r} requires --{label}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_check(args: argparse.Namespace) -> None:
    prepared, _, data = _load_plan(args)
    numbers, distinct = prepared.numbering
    offender = prepared.offender
    doc = {
        "ok": True,
        "arity": prepared.arities[-1],
        "operators": sum(not isinstance(distinct[n][0], Basic) for n in numbers),
        "wellBehaved": offender is None,
        "keysUnary": True,
    }
    if offender is not None:
        doc["offendingSubplan"] = print_plan(offender)
    if data is not None:
        doc["dataSignatureMatches"] = data.signature == prepared.signature
    _emit(args, serialize.dumps(doc))


def _cmd_represent(args: argparse.Namespace) -> None:
    prepared, _, _ = _load_plan(args, keyed=False)
    rep, dec = build_representation(prepared.plan, prepared.signature, prepared)
    check_printed_subplans(prepared.numbering)
    names = rep.open.structure.names
    if args.format == "dot":
        _emit(args, serialize.decomposition_to_dot(dec, names))
        return
    doc = {
        "representation": serialize.structure_to_json(rep.open),
        "decomposition": serialize.decomposition_to_json(dec, names),
    }
    _emit(args, serialize.dumps(doc))


def _cmd_chase(args: argparse.Namespace) -> None:
    if args.data:
        keys = _load_keys(args)
        value = _load_data(args)
    else:
        prepared, keys, _ = _load_plan(args)
        value = build_representation(prepared.plan, prepared.signature, prepared)[0].open
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
    _emit(args, serialize.dumps(doc))


def _cmd_core(args: argparse.Namespace) -> None:
    core_cap = _caps(args).core_universe
    if args.data:
        core = compute_core(_chased_data(args, _load_keys(args)), cap_universe=core_cap)
    else:
        prepared, keys, _ = _load_plan(args)
        core = chased_core(prepared, keys, core_cap)
    _emit(args, serialize.dumps({"core": serialize.structure_to_json(core)}))


def _cmd_degree(args: argparse.Namespace) -> None:
    prepared, keys, _ = _load_plan(args)
    degrees = subplan_degrees(prepared, keys)
    doc = {
        "outputDegree": serialize.fraction_str(degrees[-1]),
        "intermediateDegreeBound": serialize.fraction_str(max(degrees)),
    }
    _emit(args, serialize.dumps(doc))


def _cmd_optimize(args: argparse.Namespace) -> None:
    prepared, keys, _ = _load_plan(args)
    result = optimize(prepared, keys, _caps(args))
    if args.format == "text":
        _emit(args, result.plan_text + "\n")
        return
    names = result.elimination.structure.names
    _emit(args, serialize.dumps(serialize.synthesis_result_to_json(result, names)))


def _cmd_evaluate(args: argparse.Namespace) -> None:
    _require(args, plan=args.plan, data=args.data)
    prepared, _, data = _load_plan(args, keyed=False)
    if args.trace or args.format == "text":
        check_printed_subplans(prepared.numbering)
    trace = evaluate_well_behaved(prepared, data)
    # "naive" names a plan that is not well-behaved, not an algorithm.
    evaluator = "well-behaved" if prepared.offender is None else "naive"
    doc = {
        "evaluator": evaluator,
        "cardinality": len(trace.output),
        "maxIntermediate": trace.max_intermediate,
        "output": serialize.named_rows(trace.output, data.names),
    }
    if args.trace:
        doc = {**serialize.trace_to_json(trace, data.names), "evaluator": evaluator}
    if args.format == "text":
        lines = [f"evaluator: {evaluator}"]
        for entry, text in zip(trace.entries, trace.texts):
            lines.append(f"{entry.cardinality:>8}  {text}")
        lines.append(f"max intermediate: {trace.max_intermediate}")
        _emit(args, "\n".join(lines) + "\n")
        return
    _emit(args, serialize.dumps(doc))


def _cmd_equiv(args: argparse.Namespace) -> None:
    _require(args, plan=args.plan, plan2=args.plan2)
    keys = _load_keys(args)
    data = _data_structure(args)
    merged: dict[str, int] = {} if data is None else data.signature.as_dict()
    bodies = []
    for path in (args.plan, args.plan2):
        header, body = serialize.plan_file_from_text(serialize.read_text(path))
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
    plan1 = parse_prepared(bodies[0], sig)
    plan2 = parse_prepared(bodies[1], sig)
    keys.validate_for(sig)
    try:
        witness = equivalence_witness(plan1, plan2, keys)
    except ArityError:
        _emit(args, serialize.dumps({"equivalent": False, "reason": "different arities"}))
        return
    doc = {"equivalent": witness is not None}
    if witness is not None:
        left, right = witness.left.structure.names, witness.right.structure.names
        doc["witnesses"] = {
            "forward": {left[a]: right[b] for a, b in sorted(witness.forward.items())},
            "backward": {right[a]: left[b] for a, b in sorted(witness.backward.items())},
        }
    _emit(args, serialize.dumps(doc))


def _cmd_witness(args: argparse.Namespace) -> None:
    ns = _parse_witness_n(args.n)
    prepared, keys, _ = _load_plan(args)
    caps = _caps(args)
    core = chased_core(prepared, keys, caps.core_universe)
    report = optimal_cwidth(core, keys, cap=caps.width_universe)
    node, family = bag_witness(core, keys, report)
    for n in ns:
        check_family_size(family.source, family.solution, n)
    names = core.structure.names
    meta = {
        "bagNode": node,
        "bag": [names[e] for e in sorted(family.target)],
        "colorsOnTarget": family.colors_on_target,
        "maxColorsPerTuple": family.max_colors_per_tuple,
        "ratio": serialize.fraction_str(family.ratio),
        "n": list(ns),
    }
    if args.out:
        files = []
        for n in ns:
            path = f"{args.out}_n{n}.json"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(serialize.dumps(serialize.structure_to_json(family.generate(n))))
            files.append(path)
        meta["files"] = files
    else:
        meta["instances"] = {
            str(n): serialize.structure_to_json(family.generate(n)) for n in ns
        }
    sys.stdout.write(serialize.dumps(meta))


def _cmd_decompose(args: argparse.Namespace) -> None:
    caps = _caps(args)
    if args.data:
        keys = _load_keys(args)
        core = _chased_data(args, keys)
    else:
        prepared, keys, _ = _load_plan(args)
        core = chased_core(prepared, keys, caps.core_universe)
    report = optimal_cwidth(core, keys, cap=caps.width_universe)
    names = core.structure.names
    if args.format == "dot":
        _emit(args, serialize.decomposition_to_dot(report.decomposition, names))
        return
    _emit(args, serialize.dumps(serialize.width_report_to_json(report, names)))


# Subcommand name -> its handler, help line and mode options: this one table
# builds the parser and dispatches main.
_COMMANDS = {
    "check": _Command(_cmd_check, "parse and validate a plan, keys and data"),
    "represent": _Command(_cmd_represent, "emit the plan's structure representation and decomposition",
                         (_format("json", "dot"),)),
    "chase": _Command(_cmd_chase, "apply the key chase to a structure or a plan's representation"),
    "core": _Command(_cmd_core, "compute the core (of a structure, or of a plan's chased "
                    "representation)"),
    "degree": _Command(_cmd_degree, "report output degree and intermediate degree bound"),
    "optimize": _Command(_cmd_optimize, "synthesize the minimum-intermediate-degree equivalent plan",
                        (_format("json", "text"),)),
    "evaluate": _Command(_cmd_evaluate, "evaluate a plan on data, with per-subplan cardinalities",
                        (("--trace", {"action": "store_true", "help": "include per-subplan relations"}),
                         _format("json", "text"))),
    "equiv": _Command(_cmd_equiv, "decide equivalence of two plans under the keys",
                     (("--plan2", {"help": "second plan file"}),)),
    "witness": _Command(_cmd_witness, "emit the lower-bound database family for a plan",
                       (("--n", {"default": "1,2,3,4", "help": "comma-separated family indices"}),)),
    "decompose": _Command(_cmd_decompose, "compute the optimal-width tree decomposition of the chased "
                         "core (with --data: of the chased data itself, not its core)",
                         (_format("json", "dot"),)),
}


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        _COMMANDS[args.command].handler(args)
    except ResourceCapError as exc:
        print(f"spjopt: resource cap: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        print("spjopt: resource cap: input nested too deeply (recursion limit reached)", file=sys.stderr)
        return 3
    except MemoryError:
        print("spjopt: resource cap: out of memory", file=sys.stderr)
        return 3
    except (SpjError, OSError) as exc:
        # A bare SpjError is a failed internal check, not bad input.
        prefix = "internal error: " if type(exc) is SpjError else ""
        print(f"spjopt: {prefix}{exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
