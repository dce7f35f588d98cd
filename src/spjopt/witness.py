"""Lower-bound witness families.

Given a chased structure, a target element set, and a maximizing scaled
coloring with N colors on the target and at most D* colors on any tuple,
``product_witness`` builds databases D_n with at most |tuples| * n^(D*) rows
per relation and at least n^N homomorphism images on the target, all while
satisfying the keys.  N/D* equals the color number, so the family realizes
the M^d growth rate exactly up to a constant.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .colorwidth import ColorSolution, WidthReport, color_number
from .constraints import KeySet, satisfies_keys
from . import errors
from .errors import DegenerateInputError, Record, ResourceCapError, SpjError, set_field
from .structures import OpenStructure, Structure


class WitnessFamily(Record):
    """Generator for the database family (D_n) of ``solution.target``."""

    __slots__ = ("source", "keys", "solution")

    def __init__(self, source: Structure, keys: KeySet, solution: ColorSolution):
        set_field(self, "source", source)
        set_field(self, "keys", keys)
        set_field(self, "solution", solution)

    @property
    def target(self) -> frozenset:
        return self.solution.target

    @property
    def colors_on_target(self) -> int:
        """N: total colors assigned to the target set."""
        return self.solution.colors_on(self.target)

    @property
    def max_colors_per_tuple(self) -> int:
        """D*: the largest color count on a single tuple's element set."""
        return max(
            (self.solution.colors_on(set(row)) for _, row in self.source.atoms()),
            default=0,
        )

    @property
    def ratio(self) -> Fraction:
        dstar = self.max_colors_per_tuple
        if dstar == 0:
            return Fraction(0)
        return Fraction(self.colors_on_target, dstar)

    def generate(self, n: int) -> Structure:
        return product_witness(self.source, self.keys, self.solution, n)


def check_family_size(source: Structure, solution: ColorSolution, n: int) -> None:
    """Raise before :func:`product_witness` allocates D_n when n < 1, or
    when D_n's elements and rows together exceed
    ``errors.REPRESENTATION_ELEMENTS_CAP``.

    D_n has exactly n^|colors(x)| elements per source element x and
    n^|colors(row)| rows per source atom: distinct color assignments give
    distinct elements and rows.
    """
    if n < 1:
        raise DegenerateInputError("witness index n must be at least 1")
    exponents = [solution.colors_on((x,)) for x in source.universe]
    exponents += [solution.colors_on(row) for _, row in source.atoms()]
    size = sum(n**k for k in exponents)
    if size > errors.REPRESENTATION_ELEMENTS_CAP:
        raise ResourceCapError(
            f"witness family capped at {errors.REPRESENTATION_ELEMENTS_CAP} elements and rows, "
            f"member n={n} holds {size}"
        )


def product_witness(
    source: Structure, keys: KeySet, solution: ColorSolution, n: int
) -> Structure:
    """The n-th member of the product family for ``solution.target``.

    Domain elements are pairs (x, f) with f a map from x's colors to [n];
    each source tuple contributes one database tuple per map from its color
    set to [n].  Key positions of distinct source tuples carry distinct
    element tags (the source satisfies the keys), and a dependent's colors
    are a subset of its key's, so the output satisfies the keys as well.
    Two keys on one relation are each the other's dependent, so their
    elements carry the same colors.
    """
    check_family_size(source, solution, n)
    if not satisfies_keys(source, keys):
        raise DegenerateInputError("witness construction requires a chase fixpoint")
    if solution.degenerate:
        raise DegenerateInputError("no coloring available: structure has no tuples")

    col_of = solution.color_sets()
    color_ids: dict[tuple[int, int], int] = {}
    for idx, mult in enumerate(solution.multiplicities):
        for copy in range(mult):
            color_ids[(idx, copy)] = len(color_ids)

    def colors(e: int) -> tuple[int, ...]:
        return tuple(color_ids[c] for c in col_of.get(e, ()))

    element_ids: dict[tuple[int, tuple[int, ...]], int] = {}
    names: dict[int, str] = {}
    for x in source.universe:
        cols = colors(x)
        for values in itertools.product(range(1, n + 1), repeat=len(cols)):
            eid = len(element_ids)
            element_ids[(x, values)] = eid
            spec = ",".join(f"c{c}={v}" for c, v in zip(cols, values))
            names[eid] = f"{source.names[x]}#{spec}"

    relations: dict[str, set] = {name: set() for name in source.signature.symbols()}
    for rel, row in source.atoms():
        row_colors = sorted(set(itertools.chain.from_iterable(colors(e) for e in row)))
        for assignment in itertools.product(range(1, n + 1), repeat=len(row_colors)):
            g = dict(zip(row_colors, assignment))
            out_row = tuple(
                element_ids[(e, tuple(g[c] for c in colors(e)))] for e in row
            )
            relations[rel].add(out_row)

    result = Structure(source.signature, range(len(element_ids)), relations, names)
    if not satisfies_keys(result, keys):  # pragma: no cover - construction invariant
        raise SpjError("witness family violated the keys")
    return result


def bag_witness(
    core: OpenStructure, keys: KeySet, report: WidthReport
) -> tuple[int, WitnessFamily]:
    """The widest bag of ``report``'s decomposition of the core under
    ``keys``, with the family of an optimal packing of that bag.

    The packing is the one LP solution that the pipeline needs: the widths
    of every bag come presolved.  Evaluating the core on the family
    restricted to that bag produces at least n^N images, where N/D* equals
    the decomposition's width, so every equivalent plan has an intermediate
    relation of that order.
    """
    if core.structure.total_tuple_count() == 0:
        raise DegenerateInputError("no witness family for a structure without tuples")
    t0 = report.widest_node()
    _, solution = color_number(core.structure, keys, report.decomposition.chi[t0])
    return t0, WitnessFamily(core.structure, keys, solution)
