"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 input format error, 3 resource cap
exceeded.  Every subcommand takes ``--plan``, ``--keys``, ``--data``,
``--out`` and ``--cap-universe``; a mode option (``--plan2``, ``--trace``,
``--n``, ``--format`` with the formats its subcommand prints) is taken only
where ``_COMMANDS`` lists it.  Any other option is a usage error, but a
missing ``--plan`` exits 2.  ``evaluate`` checks its data against
``--keys`` before it evaluates: a key the data breaks exits 2, naming the
relation, the position and two tuples that agree on it.  Plans are walked
with explicit stacks, so nesting depth is not limited by the
interpreter's recursion limit.  Running
out of memory exits 3 with a one-line ``spjopt: resource cap: out of
memory`` message instead of a traceback.  Exit 2 also covers files that
cannot be read (missing, a directory, no permission) or are not UTF-8 text,
and ``--data`` given more than once.
Every resource cap is defined in :mod:`spjopt.errors`; the universe caps
default to its :class:`Caps`, and ``--cap-universe N`` sets both.  All
outputs are byte-identical across runs for identical inputs: wall-clock
timings are deliberately left out of the serialized reports.

``--plan`` is read on every call and loaded as a prepared plan (see
:func:`spjopt.plans.parse_prepared`).  A long-lived process that calls
:func:`main` many times keeps at most ``plans.PREPARED_PLANS_CACHED`` (8) of
them, keyed by the plan text and the signature, so an edited file is
parsed again.  Printing fills the same cache (see
:func:`spjopt.plans.print_prepared`): the plan ``optimize`` prints is not
parsed when ``degree`` or ``evaluate`` reads it back under an equal
signature in the same process.  Stdout stays byte-identical.

argv is read from the ``_COMMANDS`` table itself when it has the canonical
shape: a subcommand, then its flags spelled in full, each followed by a
value that does not start with ``-`` (``--trace`` takes none).  Any other
argv -- an abbreviation, ``--flag=value``, a value such as ``-1``, a bad
value, ``--help`` -- goes to the argparse parser, which is built on the
first such call and writes every usage, help and error text.  ``--out``
is written in place: an existing file is overwritten from its start and
cut to the new length (see :func:`spjopt.serialize.write_text`).
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Callable, NamedTuple, Optional, Union

from . import serialize
from .colorwidth import optimal_cwidth
from .constraints import KeySet, chase, key_violation
from .errors import (
    ArityError,
    Caps,
    DegenerateInputError,
    FormatError,
    KeyConstraintError,
    ResourceCapError,
    SpjError,
)
from .plans import Basic, PreparedPlan, evaluate_well_behaved, print_plan, subplan_texts
from .represent import build_representation
from .structures import OpenStructure, Structure, compute_core
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


# Built only for an argv that _read_argv leaves to argparse, at most once per
# process: building the parser costs far more than parsing argv, and a
# long-lived process calls main many times.
@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spjopt",
        description="Rewrite select-project-join plans to minimize intermediate size growth.",
    )
    shared = argparse.ArgumentParser(add_help=False)
    for flag, spec in _SHARED_OPTIONS:
        shared.add_argument(flag, **spec)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, parents=[shared])
        for flag, spec in command.options:
            p.add_argument(flag, **spec)
    return parser


def _universe_cap(text: str) -> int:
    """``--cap-universe``'s value, an int of at least 0."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"a universe cap is at least 0, got {n}")
    return n


def _family_indices(text: str) -> tuple[int, ...]:
    """``--n``'s value, comma-separated ints of at least 1, each kept at its
    first occurrence; an empty value names no member."""
    try:
        ns = tuple(int(x) for x in text.split(",") if x != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}") from None
    if min(ns, default=1) < 1:
        raise argparse.ArgumentTypeError(f"a family index is at least 1, got {min(ns)}")
    return tuple(dict.fromkeys(ns))


# The options every subcommand takes, as (flag, add_argument keywords).
_SHARED_OPTIONS = (
    ("--plan", {"help": "plan file (optional `rel NAME ARITY` header + s-expression)"}),
    ("--keys", {"help": "keys file: `key <RelName> <position>` lines"}),
    ("--data", {"action": "append", "default": [], "help": "structure JSON file"}),
    ("--out", {"help": "output path (default: stdout)"}),
    ("--cap-universe", {"type": _universe_cap, "help": "override both universe caps (default: core "
                        f"{Caps().core_universe}, width {Caps().width_universe})"}),
)


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
        serialize.write_text(args.out, text)
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
        # Always true, the plan being prepared under it; kept so that the output does not change.
        doc["dataSignatureMatches"] = True
    _emit(args, serialize.dumps(doc))


def _cmd_represent(args: argparse.Namespace) -> None:
    prepared, _, _ = _load_plan(args, keyed=False)
    rep, dec = build_representation(prepared)
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
        value = build_representation(prepared)[0].open
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
        core = compute_core(_chased_data(args, _load_keys(args)), core_cap)
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
    prepared, keys, data = _load_plan(args)
    # A plan optimized under the keys answers as its input only on data that satisfies them.
    violation = key_violation(data, keys)
    if violation is not None:
        name, pos, row, other = violation
        a, b = (f"{name}({', '.join(data.names[e] for e in t)})" for t in (row, other))
        raise KeyConstraintError(f"data violates key {name} {pos}: {a} and {b} agree on position {pos}")
    # Built before evaluating, so a plan past the printed-subplans cap fails fast.
    texts = subplan_texts(prepared.numbering) if args.trace or args.format == "text" else None
    trace = evaluate_well_behaved(prepared, data)
    # "naive" names a plan that is not well-behaved, not an algorithm.
    evaluator = "well-behaved" if prepared.offender is None else "naive"
    if args.format == "text":
        lines = [f"evaluator: {evaluator}"]
        cardinalities = trace.cardinalities
        for number, text in zip(prepared.numbering[0], texts):
            lines.append(f"{cardinalities[number]:>8}  {text}")
        lines.append(f"max intermediate: {trace.max_intermediate}")
        _emit(args, "\n".join(lines) + "\n")
        return
    if args.trace:
        doc = {**serialize.trace_to_json(trace, texts, data.names), "evaluator": evaluator}
    else:
        doc = {
            "evaluator": evaluator,
            "cardinality": len(trace.output),
            "maxIntermediate": trace.max_intermediate,
            "output": serialize.named_rows(trace.output, data.names),
        }
    _emit(args, serialize.dumps(doc))


def _cmd_equiv(args: argparse.Namespace) -> None:
    _require(args, plan=args.plan, plan2=args.plan2)
    keys = _load_keys(args)
    data = _data_structure(args)
    signature = data.signature if data is not None else None
    plan1, plan2 = serialize.load_prepared_plans((args.plan, args.plan2), signature)
    keys.validate_for(plan1.signature)
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
    prepared, keys, _ = _load_plan(args)
    caps = _caps(args)
    core = chased_core(prepared, keys, caps.core_universe)
    report = optimal_cwidth(core, keys, cap=caps.width_universe)
    node, family = bag_witness(core, keys, report)
    for n in args.n:
        check_family_size(family.source, family.solution, n)
    names = core.structure.names
    meta = {
        "bagNode": node,
        "bag": [names[e] for e in sorted(family.target)],
        "colorsOnTarget": family.colors_on_target,
        "maxColorsPerTuple": family.max_colors_per_tuple,
        "ratio": serialize.fraction_str(family.ratio),
        "n": list(args.n),
    }
    if args.out:
        files = []
        for n in args.n:
            path = f"{args.out}_n{n}.json"
            serialize.write_text(path, serialize.dumps(serialize.structure_to_json(family.generate(n))))
            files.append(path)
        meta["files"] = files
    else:
        meta["instances"] = {
            str(n): serialize.structure_to_json(family.generate(n)) for n in args.n
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
# builds the argv reader and the parser, and dispatches main.
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
                       (("--n", {"type": _family_indices, "default": "1,2,3,4",
                                  "help": "comma-separated family indices"}),)),
    "decompose": _Command(_cmd_decompose, "compute the optimal-width tree decomposition of the chased "
                         "core (with --data: of the chased data itself, not its core)",
                         (_format("json", "dot"),)),
}


def _argv_reader(name: str, command: _Command) -> tuple[dict, dict]:
    """A subcommand's flags, each mapped to its namespace field, action,
    ``type`` and ``choices``, and the namespace argparse starts it from:
    every field at its default, a string default passed through its
    ``type``, as argparse does for an option not given."""
    flags, defaults = {}, {"command": name}
    for flag, spec in _SHARED_OPTIONS + command.options:
        field = flag[2:].replace("-", "_")
        action = spec.get("action", "store")
        convert = spec.get("type")
        default = spec.get("default", False if action == "store_true" else None)
        if convert is not None and isinstance(default, str):
            default = convert(default)
        flags[flag] = (field, action, convert, spec.get("choices"))
        defaults[field] = default
    return flags, defaults


_ARGV_READERS = {name: _argv_reader(name, command) for name, command in _COMMANDS.items()}


def _read_argv(argv: list[str]) -> Optional[argparse.Namespace]:
    """The namespace argparse gives ``argv`` if ``argv`` has the canonical
    shape, else None.

    Canonical: a subcommand, then flags of that subcommand spelled in full,
    each but a bare ``--trace`` followed by its value, a string that does
    not start with ``-`` and that the flag's ``type`` and ``choices``
    accept.  A flag given again overrides, and ``--data`` appends.  argparse
    reads every other argv and writes every usage, help and error text."""
    reader = _ARGV_READERS.get(argv[0]) if argv else None
    if reader is None:
        return None
    flags, defaults = reader
    values = dict(defaults)
    i, n = 1, len(argv)
    while i < n:
        option = flags.get(argv[i])
        if option is None:
            return None
        field, action, convert, choices = option
        if action == "store_true":
            values[field] = True
            i += 1
            continue
        value = argv[i + 1] if i + 1 < n else None
        if type(value) is not str or value[:1] == "-":
            return None
        if convert is not None:
            try:
                value = convert(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if choices is not None and value not in choices:
            return None
        # A new list, as argparse's append makes: the default is never changed.
        values[field] = values[field] + [value] if action == "append" else value
        i += 2
    return argparse.Namespace(**values)


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
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
