"""Key constraints and the chase.

Only unary keys are supported by the optimization pipeline; the chase and the
satisfaction check accept arbitrary key position sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .errors import KeyConstraintError
from .structures import OpenStructure, Signature, Structure, UnionFind


class KeySet:
    """A set of key constraints: (relation name, set of key positions).

    Positions are 1-based, matching the plan syntax.  ``is_unary`` holds when
    every position set is a singleton; the pipeline entry points require it.
    """

    __slots__ = ("_keys",)

    def __init__(self, keys: Iterable[tuple[str, Iterable[int]]] = ()):
        cleaned = set()
        for name, positions in keys:
            pos = frozenset(int(p) for p in positions)
            if not pos:
                raise KeyConstraintError(f"key for {name!r} has no positions")
            if any(p < 1 for p in pos):
                raise KeyConstraintError(f"key positions for {name!r} must be 1-based")
            cleaned.add((name, pos))
        self._keys = frozenset(cleaned)

    @classmethod
    def empty(cls) -> "KeySet":
        return cls(())

    @classmethod
    def unary(cls, mapping: Mapping[str, int]) -> "KeySet":
        """One single-position key per relation, from {name: position}."""
        return cls((name, (pos,)) for name, pos in mapping.items())

    @property
    def keys(self) -> frozenset:
        return self._keys

    @property
    def is_unary(self) -> bool:
        return all(len(pos) == 1 for _, pos in self._keys)

    def one_per_relation(self) -> bool:
        names = [name for name, _ in self._keys]
        return len(names) == len(set(names))

    def for_relation(self, name: str) -> tuple[frozenset, ...]:
        return tuple(sorted((pos for n, pos in self._keys if n == name), key=sorted))

    def validate_for(self, signature: Signature) -> None:
        for name, pos in self._keys:
            if name not in signature:
                raise KeyConstraintError(f"key declared for unknown relation {name!r}")
            ar = signature.arity(name)
            bad = [p for p in pos if p > ar]
            if bad:
                raise KeyConstraintError(
                    f"key position(s) {sorted(bad)} out of range for {name}/{ar}"
                )

    def __bool__(self) -> bool:
        return bool(self._keys)

    def __eq__(self, other) -> bool:
        return isinstance(other, KeySet) and self._keys == other._keys

    def __hash__(self) -> int:
        return hash(self._keys)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"key({n})={{{','.join(map(str, sorted(p)))}}}" for n, p in sorted(self._keys, key=lambda k: (k[0], sorted(k[1])))
        )
        return f"KeySet({inner})"


def satisfies_keys(data: Structure, keys: KeySet) -> bool:
    """True iff every relation of ``data`` satisfies every applicable key."""
    keys.validate_for(data.signature)
    for name, pos in keys.keys:
        idx = sorted(p - 1 for p in pos)
        seen: dict[tuple, tuple] = {}
        for row in sorted(data.relations[name]):
            k = tuple(row[i] for i in idx)
            if k in seen and seen[k] != row:
                return False
            seen[k] = row
    return True


@dataclass(frozen=True)
class ChaseResult:
    """Chase fixpoint together with the global merge map (original id ->
    representative id, idempotent)."""

    result: Union[OpenStructure, Structure]
    merge_map: Mapping[int, int]


def _key_closure(struct: Structure, keys: KeySet) -> dict[int, int]:
    """The least key-closed equivalence on ``struct.universe``, as a map from
    each element to the smallest element of its class.

    Each pass scans every keyed relation with its rows grouped by the
    union-find roots of their key values, and unites the dependent
    positions of rows in one group; passes repeat until one merges nothing.
    A pass without merges sees fixed roots throughout, so at that point
    every key holds on the quotient.
    """
    keyed = []
    for name in struct.signature.symbols():
        for pos in keys.for_relation(name):
            idx = sorted(p - 1 for p in pos)
            rest = [i for i in range(struct.signature.arity(name)) if i + 1 not in pos]
            keyed.append((sorted(struct.relations[name]), idx, rest))
    uf = UnionFind(struct.universe)
    find = uf.find
    merged = bool(keyed)
    while merged:
        merged = False
        for rows, idx, rest in keyed:
            groups: dict[tuple, tuple] = {}
            for row in rows:
                first = groups.setdefault(tuple(find(row[i]) for i in idx), row)
                if first is not row:
                    for i in rest:
                        merged |= uf.union(first[i], row[i])
    return {e: find(e) for e in struct.universe}


def chase(value: Union[OpenStructure, Structure], keys: KeySet) -> ChaseResult:
    """The chase fixpoint, computed as one quotient by the least key-closed
    equivalence.

    Every class is represented by its smallest element id, which keeps its
    display name.  The fixpoint is unique up to isomorphism regardless of
    step order, and with this choice of representatives it is unique.
    """
    is_open = isinstance(value, OpenStructure)
    struct = value.structure if is_open else value
    keys.validate_for(struct.signature)
    merge = _key_closure(struct, keys)
    changed = any(k != v for k, v in merge.items())
    current = struct.apply_map(merge) if changed else struct
    if is_open:
        out_tuple = tuple(merge[e] for e in value.tuple)
        return ChaseResult(OpenStructure(current, out_tuple), merge)
    return ChaseResult(current, merge)

