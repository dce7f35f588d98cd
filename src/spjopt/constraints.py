"""Unary key constraints and the chase.

A key is a relation name and one 1-based position of that relation; a
relation may carry several keys.  Every key position is an int of at least
1, checked when the key set is built, so no later stage re-checks the shape.
The chase is one quotient, by the least key-closed equivalence that contains
the pairs it is asked to identify, found with the union-find of
:mod:`spjopt.structures`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .errors import KeyConstraintError
from .structures import OpenStructure, Signature, Structure, find, flatten, link


class KeySet:
    """A set of unary keys: (relation name, key position) pairs.

    Positions are 1-based ints, matching the plan syntax; anything else,
    a bool or a float included, is rejected rather than truncated.
    """

    __slots__ = ("_keys",)

    def __init__(self, keys: Iterable[tuple[str, int]] = ()):
        cleaned = set()
        for name, pos in keys:
            if type(pos) is not int:
                raise KeyConstraintError(f"key position for {name!r} must be an int, got {pos!r}")
            if pos < 1:
                raise KeyConstraintError(f"key positions for {name!r} must be 1-based")
            cleaned.add((name, pos))
        self._keys = frozenset(cleaned)

    @classmethod
    def empty(cls) -> "KeySet":
        return cls(())

    @property
    def keys(self) -> frozenset:
        return self._keys

    def for_relation(self, name: str) -> tuple[int, ...]:
        """The key positions of ``name``, ascending."""
        return tuple(sorted(pos for n, pos in self._keys if n == name))

    def validate_for(self, signature: Signature) -> None:
        for name, pos in sorted(self._keys):
            if name not in signature:
                raise KeyConstraintError(f"key declared for unknown relation {name!r}")
            ar = signature.arity(name)
            if pos > ar:
                raise KeyConstraintError(f"key position(s) [{pos}] out of range for {name}/{ar}")

    def __bool__(self) -> bool:
        return bool(self._keys)

    def __eq__(self, other) -> bool:
        return isinstance(other, KeySet) and self._keys == other._keys

    def __hash__(self) -> int:
        return hash(self._keys)

    def __repr__(self) -> str:
        return f"KeySet({', '.join(f'key({n})={p}' for n, p in sorted(self._keys))})"


def satisfies_keys(data: Structure, keys: KeySet) -> bool:
    """True iff every relation of ``data`` satisfies every applicable key."""
    keys.validate_for(data.signature)
    for name, pos in keys.keys:
        seen: dict[int, tuple] = {}
        for row in data.relations[name]:
            if seen.setdefault(row[pos - 1], row) != row:
                return False
    return True


@dataclass(frozen=True)
class ChaseResult:
    """Chase fixpoint together with the global merge map (original id ->
    representative id, idempotent)."""

    result: Union[OpenStructure, Structure]
    merge_map: Mapping[int, int]


def _key_closure(
    struct: Structure, keys: KeySet, identified: Iterable[tuple[int, int]]
) -> dict[int, int]:
    """The least key-closed equivalence on ``struct.universe`` that contains
    the ``identified`` pairs, as a map from each element to the smallest
    element of its class.

    The union-find runs over positions in the sorted universe, so a class's
    smallest position is its smallest element, whatever ids the universe
    skips.  Each pass scans every key, in relation and position order, with
    the relation's rows grouped by the root of their key element, and unites
    the dependent positions of rows in one group; passes repeat until one
    merges nothing.  A pass without merges sees fixed roots throughout, so
    at that point every key holds on the quotient.
    """
    universe = struct.universe
    position = {e: i for i, e in enumerate(universe)}.__getitem__
    parent = list(range(len(universe)))
    for a, b in identified:
        link(parent, position(a), position(b))
    keyed = []
    for name in struct.signature.symbols():
        for pos in keys.for_relation(name):
            rest = [i for i in range(struct.signature.arity(name)) if i != pos - 1]
            rows = sorted(tuple(map(position, row)) for row in struct.relations[name])
            keyed.append((rows, pos - 1, rest))
    merged = bool(keyed)
    while merged:
        merged = False
        for rows, k, rest in keyed:
            groups: dict[int, tuple] = {}
            for row in rows:
                first = groups.setdefault(find(parent, row[k]), row)
                if first is not row:
                    for i in rest:
                        merged |= link(parent, first[i], row[i])
    flatten(parent)
    return {e: universe[r] for e, r in zip(universe, parent)}


def chase(
    value: Union[OpenStructure, Structure],
    keys: KeySet,
    identified: Iterable[tuple[int, int]] = (),
) -> ChaseResult:
    """The chase fixpoint of ``value`` with the ``identified`` pairs of its
    elements made equal, computed as one quotient by the least key-closed
    equivalence that contains them.

    Every class is represented by its smallest element id, which keeps its
    display name.  The fixpoint is unique up to isomorphism regardless of
    step order, and with this choice of representatives it is unique.
    """
    is_open = isinstance(value, OpenStructure)
    struct = value.structure if is_open else value
    keys.validate_for(struct.signature)
    merge = _key_closure(struct, keys, identified)
    changed = any(k != v for k, v in merge.items())
    current = struct.apply_map(merge) if changed else struct
    if is_open:
        out_tuple = tuple(merge[e] for e in value.tuple)
        return ChaseResult(OpenStructure(current, out_tuple), merge)
    return ChaseResult(current, merge)

