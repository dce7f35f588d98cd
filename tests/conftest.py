"""Shared random generators.  Everything is seeded; no test depends on
wall-clock or iteration order: each test that takes ``rng`` gets a fresh
generator, so its data are the same whichever tests ran before it, and
every test starts with no prepared plans kept."""

from __future__ import annotations

import random

import pytest

from spjopt import (
    Basic,
    Join,
    KeySet,
    OpenStructure,
    Project,
    Select,
    Signature,
    Structure,
    chase,
    theta_of,
)
from spjopt import plans

REL_NAMES = ("R", "S", "T")


def rand_signature(rng: random.Random, max_relations: int = 3, max_arity: int = 3) -> Signature:
    count = rng.randint(1, max_relations)
    return Signature({REL_NAMES[i]: rng.randint(1, max_arity) for i in range(count)})


def rand_structure(
    rng: random.Random,
    signature: Signature,
    max_domain: int = 5,
    max_rows: int = 5,
) -> Structure:
    dom = list(range(rng.randint(1, max_domain)))
    relations = {}
    for name in signature.symbols():
        ar = signature.arity(name)
        rows = {
            tuple(rng.choice(dom) for _ in range(ar))
            for _ in range(rng.randint(0, max_rows))
        }
        relations[name] = rows
    return Structure(signature, dom, relations)


def rand_open_structure(
    rng: random.Random, signature: Signature, max_domain: int = 5, max_rows: int = 5
) -> OpenStructure:
    struct = rand_structure(rng, signature, max_domain, max_rows)
    used = sorted({e for _, row in struct.atoms() for e in row})
    struct = struct.restrict(used)
    arity = rng.randint(0, 3)
    out = tuple(rng.choice(used) for _ in range(arity)) if used else ()
    return OpenStructure(struct, out)


def rand_keys(rng: random.Random, signature: Signature, prob: float = 0.5) -> KeySet:
    mapping = {}
    for name in signature.symbols():
        ar = signature.arity(name)
        if ar >= 1 and rng.random() < prob:
            mapping[name] = rng.randint(1, ar)
    return KeySet(mapping.items())


def rand_multi_keys(rng: random.Random, signature: Signature) -> KeySet:
    """Random unary keys, sometimes two per relation."""
    keys = []
    for name in signature.symbols():
        ar = signature.arity(name)
        for _ in range(rng.randint(0, 2)):
            keys.append((name, rng.randint(1, ar)))
    return KeySet(keys)


def several_keys(keys: KeySet, signature: Signature) -> bool:
    """Whether some relation of ``signature`` carries two or more keys."""
    return any(len(keys.for_relation(name)) > 1 for name in signature.symbols())


def rand_satisfying_structure(
    rng: random.Random, signature: Signature, keys: KeySet, max_domain: int = 5, max_rows: int = 5
) -> Structure:
    """A random structure made key-satisfying by chasing it."""
    return chase(rand_structure(rng, signature, max_domain, max_rows), keys).result


def rand_plan(rng: random.Random, signature: Signature, max_operators: int = 6):
    """A random well-formed plan with at most ``max_operators`` non-basic
    nodes.  Sizes are kept small so downstream searches stay desk-scale."""
    symbols = signature.symbols()

    def basic():
        name = rng.choice(symbols)
        return Basic(name), signature.arity(name)

    def gen(budget: int):
        if budget <= 0 or rng.random() < 0.35:
            plan, m = basic()
            return plan, m, 0
        op = rng.choice(("select", "project", "join", "join"))
        if op == "select":
            child, m, used = gen(budget - 1)
            pairs = [
                (rng.randint(1, m), rng.randint(1, m))
                for _ in range(rng.randint(0, min(2, m)))
            ] if m else []
            return Select(theta_of(pairs), child), m, used + 1
        if op == "project":
            child, m, used = gen(budget - 1)
            n = rng.randint(0, min(3, m))
            cols = tuple(rng.randint(1, m) for _ in range(n)) if m else ()
            return Project(cols, child), len(cols), used + 1
        count = rng.randint(2, 3)
        children = []
        arities = []
        used = 1
        for _ in range(count):
            child, m, u = gen(budget - used - (count - len(children) - 1))
            children.append(child)
            arities.append(m)
            used += u
        s = sum(arities)
        pairs = [
            (rng.randint(1, s), rng.randint(1, s))
            for _ in range(rng.randint(0, min(3, s)))
        ] if s else []
        return Join(theta_of(pairs), tuple(children)), s, used

    plan, _, _ = gen(max_operators)
    return plan


def mobius_ladder(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)] + [(i, i + n // 2) for i in range(n // 2)]


def squared_cycle(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)] + [(i, (i + 2) % n) for i in range(n)]


# Unkeyed graph patterns of the width workload: the Mobius ladder on 10
# vertices and the squared 12-cycle.
PATTERN_EDGES = {"mobius10": mobius_ladder(10), "squared12": squared_cycle(12)}


def pattern_plan(edges, out):
    """The join of one E atom per edge, identified on shared vertices and
    projected to the vertices in ``out``."""
    first, pairs = {}, []
    for pos, v in enumerate((v for edge in edges for v in edge), 1):
        if v in first:
            pairs.append((first[v], pos))
        else:
            first[v] = pos
    return Project(tuple(first[v] for v in out), Join(theta_of(pairs), (Basic("E"),) * len(edges)))


def keyed_walk_plan(length: int):
    """The directed walk of ``length`` E edges as a well-behaved chain,
    built without synthesis: each step joins the walk so far with one E
    atom on its last vertex and keeps the new vertex, so under ``key E 1``
    every subplan has degree 1.  Each call builds new objects."""
    plan = Basic("E")
    for m in range(2, length + 1):
        plan = Project(tuple(range(1, m + 1)) + (m + 2,), Join(theta_of([(m, m + 1)]), (plan, Basic("E"))))
    return plan


@pytest.fixture
def rng():
    return random.Random(20260810)


def count_parses(monkeypatch) -> list:
    """Patch the parser behind ``plans.parse_prepared``; returns the list
    the patched parser appends each parsed text to."""
    parsed, parse = [], plans._parse
    monkeypatch.setattr(plans, "_parse", lambda text: parsed.append(text) or parse(text))
    return parsed


@pytest.fixture(autouse=True)
def no_prepared_plans():
    """Every test starts with no prepared plans kept (see
    ``plans.parse_prepared`` and ``plans.print_prepared``), so none
    depends on which tests ran before."""
    plans._prepared_plans.clear()
