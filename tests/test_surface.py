"""Every public name of the library has a user outside the tests.

A public module-level function or class of ``src/spjopt``, or a public
method of one of its classes, must be referenced somewhere in ``src/``
other than its own definition and ``__init__.py``, or by an identifier or
a string constant of ``perfbench/``.  A name that only tests use belongs
in ``tests/oracles.py``.  References are counted by name, so a method
shares them with every identifier of the same spelling.

Every public class is a read-only value, an ``errors.Record``, or an
error, except the evaluators' ``EvalTrace``; records copy and pickle.
"""

from __future__ import annotations

import ast
import copy
import importlib
import pickle
import re
from pathlib import Path

import pytest

from spjopt import (
    Caps,
    KeySet,
    ResourceCapError,
    Signature,
    bag_witness,
    build_representation,
    chased_core,
    errors,
    optimal_cwidth,
    optimize,
    parse_prepared,
    subplan_degrees,
)
from spjopt.represent import check_representation_size
from spjopt.serialize import NamedRows, named_rows
from spjopt.witness import check_family_size

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "spjopt").glob("*.py"))


def public_definitions() -> dict[str, list[str]]:
    """Public name -> where it is defined, as ``module.name`` or
    ``module.Class.name``."""
    found: dict[str, list[str]] = {}
    for path in LIBRARY:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            found.setdefault(node.name, []).append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found.setdefault(item.name, []).append(
                            f"{path.stem}.{node.name}.{item.name}"
                        )
    return found


def library_references() -> set[str]:
    """Identifiers used, attributes read and names imported in ``src/``,
    leaving out ``__init__.py``; definitions themselves are not uses."""
    names: set[str] = set()
    for path in LIBRARY:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def benchmark_references() -> set[str]:
    """The identifiers of ``perfbench/`` and the words of its string
    constants, which name the functions it traces.  Comments and
    docstrings are not uses."""
    words: set[str] = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        tree = ast.parse(path.read_text())
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                words.add(node.id)
            elif isinstance(node, ast.Attribute):
                words.add(node.attr)
            elif isinstance(node, ast.alias):
                words.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and type(node.value) is str and id(node) not in docstrings:
                words.update(re.findall(r"\w+", node.value))
    return words


def test_every_public_name_has_a_user_outside_tests():
    used = library_references() | benchmark_references()
    unused = sorted(
        where for name, places in public_definitions().items() if name not in used
        for where in places
    )
    assert not unused, f"only tests use {unused}; move them to tests/oracles.py"


def test_no_module_reaches_into_another_modules_private_names():
    """A name that starts with an underscore belongs to its own module: no
    module of ``src/spjopt`` imports one from another, nor reads one off a
    module it imported.  A helper two modules share gets a public name."""
    reached = []
    for path in LIBRARY:
        tree = ast.parse(path.read_text())
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("spjopt")):
                for alias in node.names:
                    if alias.name.startswith("_"):
                        reached.append(f"{path.stem} imports {node.module or '.'}.{alias.name}")
                    if node.module in (None, "spjopt"):
                        modules.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and node.attr.startswith("_")
            ):
                reached.append(f"{path.stem} reads {node.value.id}.{node.attr}")
    assert not reached, reached


def test_subplan_text_has_one_capped_builder():
    """Every occurrence's whole subplan text grows with the square of a
    plan's depth, so one function builds it, ``plans.subplan_texts``, which
    checks ``PRINTED_SUBPLANS_CAP`` first.  The only other reader of
    ``plans._node_text`` is ``print_numbered``, which prints one plan in
    memory linear in its output."""
    readers = set()
    for path in LIBRARY:

        def visit(node, where):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(child, f"{where}.{child.name}")
                    continue
                if (isinstance(child, ast.Name) and child.id == "_node_text") or (
                    isinstance(child, ast.Attribute) and child.attr == "_node_text"
                ):
                    readers.add(where)
                visit(child, where)

        visit(ast.parse(path.read_text()), path.stem)
    assert readers == {"plans.print_numbered", "plans.subplan_texts"}


CAP_BOUNDS = {
    "core_universe": 12,
    "width_universe": 16,
    "REPRESENTATION_ELEMENTS_CAP": 1_000_000,
    "JOIN_STEP_WORDS_CAP": 40_000_000,
    "PRINTED_SUBPLANS_CAP": 50_000_000,
}


def test_every_resource_cap_is_defined_once_and_read_at_check_time(monkeypatch):
    """Each of the five bounds is assigned, or given as a parameter's
    default, once in the library, in ``errors``, and no module imports one
    by name, so patching ``errors`` moves every check that reads it: the
    representation size, the degree fold and the witness family all refuse
    under a patched ``REPRESENTATION_ELEMENTS_CAP``.  No parameter named for a cap has a
    default other than ``Caps()``, or an annotation other than ``int`` or
    ``Caps``."""
    assigned, imported, parameters = [], [], []
    for path in LIBRARY:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    if isinstance(target, ast.Name) and target.id in CAP_BOUNDS:
                        assigned.append((path.stem, target.id, ast.literal_eval(node.value)))
            elif isinstance(node, ast.ImportFrom):
                imported += [f"{path.stem}: {a.name}" for a in node.names if a.name in CAP_BOUNDS]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                defaults = [None] * (len(node.args.posonlyargs + node.args.args) - len(node.args.defaults))
                defaults += node.args.defaults + node.args.kw_defaults
                for arg, default in zip(args, defaults):
                    if arg.arg in CAP_BOUNDS and default is not None:
                        assigned.append((path.stem, arg.arg, ast.literal_eval(default)))
                    if "cap" in arg.arg:
                        parameters.append(
                            (arg.annotation and ast.unparse(arg.annotation), default and ast.unparse(default))
                        )
    assert sorted(assigned) == sorted(("errors", name, value) for name, value in CAP_BOUNDS.items())
    assert not imported, imported
    assert parameters and set(parameters) <= {("int", None), ("Caps", None), ("Caps", "Caps()")}

    sig, keys = Signature({"E": 2}), KeySet.empty()
    prepared = parse_prepared("(project (cols 1 2 4) (join (theta (2 3) (4 5) (6 1)) E E E))", sig)
    core = chased_core(prepared, keys, Caps().core_universe)
    family = bag_witness(core, keys, optimal_cwidth(core, keys, Caps().width_universe))[1]
    # The triangle's three atoms hold 6 positions, its degree fold builds
    # 2 + 6 elements, and its witness member D_1 holds 3 elements and 3 rows.
    monkeypatch.setattr(errors, "REPRESENTATION_ELEMENTS_CAP", 5)
    with pytest.raises(ResourceCapError, match="^representation capped at 5 elements"):
        check_representation_size(prepared)
    with pytest.raises(ResourceCapError, match="^witness family capped at 5 elements"):
        check_family_size(family.source, family.solution, 1)
    monkeypatch.setattr(errors, "REPRESENTATION_ELEMENTS_CAP", 6)
    check_representation_size(prepared)
    check_family_size(family.source, family.solution, 1)
    with pytest.raises(ResourceCapError, match="^degree analysis capped at 6 elements, .* at least 8$"):
        subplan_degrees(prepared, keys)


def test_every_public_class_is_a_record_or_an_error():
    """A public class of ``src/spjopt`` subclasses ``errors.Record``, so its
    fields are read-only, or ``SpjError``.  ``EvalTrace`` is the one
    mutable class: the evaluators fill it as they run."""
    loose = []
    for path in LIBRARY:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                cls = getattr(importlib.import_module(f"spjopt.{path.stem}"), node.name)
                if not issubclass(cls, (errors.Record, errors.SpjError)):
                    loose.append(f"{path.stem}.{node.name}")
    assert loose == ["plans.EvalTrace"]


TRIANGLE = "(project (cols 1 2 4) (join (theta (2 3) (4 5) (6 1)) E E E))"


def test_records_copy_and_pickle_to_equal_values():
    """``copy.copy``, ``copy.deepcopy`` and a pickle round trip of a record
    each give an equal record of its class, a decomposition's fields
    derived on first access included, and a synthesized plan survives a
    pickle of its result."""
    sig = Signature({"E": 2})
    prepared = parse_prepared(TRIANGLE, sig)
    rep, dec = build_representation(prepared)
    struct = rep.open.structure
    values = [
        prepared.plan, prepared.plan.child, Caps(8, 10), dec, KeySet([("E", 1)]), sig, struct,
        rep.open, named_rows(struct.relations["E"], struct.names),
    ]
    for value in values:
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value
    for twin in (copy.deepcopy(dec), pickle.loads(pickle.dumps(dec))):
        assert (twin.beta, twin.node_text, twin.numbers) == (dec.beta, dec.node_text, dec.numbers)
    assert isinstance(values[-1], NamedRows)
    result = optimize(prepared, KeySet.empty(), Caps())
    unpickled = pickle.loads(pickle.dumps(result))
    assert (unpickled.plan, unpickled.plan_text, unpickled.degree) == (result.plan, result.plan_text, result.degree)
