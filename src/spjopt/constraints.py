"""Unary key constraints and the chase.

A key is a relation name and one 1-based position of that relation; a
relation may carry several keys.  Every key position is an int of at least
1, checked when the key set is built, so no later stage re-checks the shape.
The chase is one quotient, by the least key-closed equivalence that contains
the pairs it is asked to identify, found with the union-find of
:mod:`spjopt.structures`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import KeyConstraintError, Record, set_field
from .structures import OpenStructure, Signature, Structure, find, flatten, link


class KeySet(Record):
    """A set of unary keys: (relation name, key position) pairs.

    Positions are 1-based ints, matching the plan syntax; anything else,
    a bool or a float included, is rejected rather than truncated.
    """

    __slots__ = ("keys",)

    def __init__(self, keys: Iterable[tuple[str, int]] = ()):
        cleaned = set()
        for name, pos in keys:
            if type(pos) is not int:
                raise KeyConstraintError(f"key position for {name!r} must be an int, got {pos!r}")
            if pos < 1:
                raise KeyConstraintError(f"key positions for {name!r} must be 1-based")
            cleaned.add((name, pos))
        set_field(self, "keys", frozenset(cleaned))

    @classmethod
    def empty(cls) -> "KeySet":
        return cls(())

    def for_relation(self, name: str) -> tuple[int, ...]:
        """The key positions of ``name``, ascending."""
        return tuple(sorted(pos for n, pos in self.keys if n == name))

    def validate_for(self, signature: Signature) -> None:
        for name, pos in sorted(self.keys):
            if name not in signature:
                raise KeyConstraintError(f"key declared for unknown relation {name!r}")
            ar = signature.arity(name)
            if pos > ar:
                raise KeyConstraintError(f"key position(s) [{pos}] out of range for {name}/{ar}")

    def __bool__(self) -> bool:
        return bool(self.keys)

    def __repr__(self) -> str:
        return f"KeySet({', '.join(f'key({n})={p}' for n, p in sorted(self.keys))})"


def key_violation(
    data: Structure, keys: KeySet
) -> Optional[tuple[str, int, tuple[int, ...], tuple[int, ...]]]:
    """The first key that ``data`` breaks, as (relation, position, row,
    other row) with the two rows agreeing at the 1-based position, or None.
    Keys are scanned in sorted order and each relation's rows in sorted
    order, so the pair reported is the same on every run."""
    keys.validate_for(data.signature)
    for name, pos in sorted(keys.keys):
        seen: dict[int, tuple] = {}
        for row in sorted(data.relations[name]):
            first = seen.setdefault(row[pos - 1], row)
            if first is not row:
                return name, pos, first, row
    return None


def satisfies_keys(data: Structure, keys: KeySet) -> bool:
    """True iff every relation of ``data`` satisfies every applicable key."""
    return key_violation(data, keys) is None


class ChaseResult(Record):
    """Chase fixpoint together with the global merge map (original id ->
    representative id, idempotent)."""

    __slots__ = ("result", "merge_map")

    def __init__(self, result: Union[OpenStructure, Structure], merge_map: Mapping[int, int]):
        set_field(self, "result", result)
        set_field(self, "merge_map", merge_map)


def key_closure(
    size: int,
    relations: Mapping[str, Sequence[tuple[int, ...]]],
    keys: KeySet,
    identified: Iterable[tuple[int, int]],
) -> list[int]:
    """The least key-closed equivalence on the positions ``0..size-1`` of
    ``relations``' rows that contains the ``identified`` pairs, as a list
    from each position to the smallest position of its class.

    The union-find links under the smaller root, so a class's root is its
    smallest position.  Each pass scans every key, in relation and position
    order, with the relation's rows, sorted, grouped by the root of their
    key element, and unites the dependent positions of rows in one group;
    passes repeat until one merges nothing.  A pass without merges sees
    fixed roots throughout, so at that point every key holds on the
    quotient.
    """
    parent = list(range(size))
    for a, b in identified:
        link(parent, a, b)
    keyed = []
    for name, rows in relations.items():
        for pos in keys.for_relation(name) if rows else ():
            rest = [i for i in range(len(rows[0])) if i != pos - 1]
            keyed.append((sorted(rows), pos - 1, rest))
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
    return parent


def chase(value: Union[OpenStructure, Structure], keys: KeySet) -> ChaseResult:
    """The chase fixpoint of ``value``, computed as one quotient by the
    least key-closed equivalence: :func:`key_closure` over the positions of
    the sorted universe, so a class's smallest position is its smallest
    element, whatever ids the universe skips.

    Every class is represented by its smallest element id, which keeps its
    display name.  The fixpoint is unique up to isomorphism regardless of
    step order, and with this choice of representatives it is unique.
    """
    is_open = isinstance(value, OpenStructure)
    struct = value.structure if is_open else value
    keys.validate_for(struct.signature)
    universe = struct.universe
    position = {e: i for i, e in enumerate(universe)}.__getitem__
    rows = {
        name: [tuple(map(position, row)) for row in rel]
        for name, rel in struct.relations.items()
        if keys.for_relation(name)
    }
    parent = key_closure(len(universe), rows, keys, ())
    merge = {e: universe[r] for e, r in zip(universe, parent)}
    changed = any(k != v for k, v in merge.items())
    current = struct.apply_map(merge) if changed else struct
    if is_open:
        out_tuple = tuple(merge[e] for e in value.tuple)
        return ChaseResult(OpenStructure(current, out_tuple), merge)
    return ChaseResult(current, merge)

