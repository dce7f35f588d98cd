"""Color numbers and widths, cross-checked against brute-force oracles."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from spjopt import (
    DegenerateInputError,
    KeySet,
    OpenStructure,
    ResourceCapError,
    Signature,
    Structure,
    color_number,
    cwidth_of_decomposition,
    hypergraph_of,
    optimal_cwidth,
    valid_color_classes,
)
from spjopt.colorwidth import ColorSolution, _constraint_sets
from spjopt.represent import TreeDecomposition

from conftest import rand_keys, rand_open_structure, rand_signature, rand_structure
from oracles import (
    coloring_is_valid,
    coloring_ratio,
    exhaustive_min_cwidth,
    fractional_edge_cover,
    packing_lp_by_basic_enumeration,
    two_phase_solve_lp,
)

SIG_E = Signature({"E": 2})
SIG_R = Signature({"R": 2})
NO_KEYS = KeySet.empty()
KEY_R1 = KeySet.unary({"R": 1})


def triangle():
    return Structure(SIG_E, [0, 1, 2], {"E": [(0, 1), (1, 2), (2, 0)]}, {0: "x", 1: "y", 2: "z"})


def test_valid_classes_respect_keys():
    a = Structure(SIG_R, [0, 1], {"R": [(0, 1)]}, {0: "x", 1: "y"})
    classes = valid_color_classes(a, KEY_R1)
    assert [set(c.members) for c in classes] == [{0}, {0, 1}]
    assert [set(c.members) for c in valid_color_classes(a, NO_KEYS)] == [{0}, {1}, {0, 1}]


def test_valid_classes_after_chase():
    a = Structure(SIG_R, [0, 1], {"R": [(0, 1)]})  # post-chase form of R(a,b),R(a,c)
    classes = valid_color_classes(a, KEY_R1)
    assert [set(c.members) for c in classes] == [{0}, {0, 1}]


def test_valid_classes_cap():
    big = Structure(Signature({"U": 1}), range(20), {"U": [(i,) for i in range(20)]})
    with pytest.raises(ResourceCapError):
        valid_color_classes(big, NO_KEYS, cap=16)


def test_color_number_triangle():
    val, sol = color_number(triangle(), NO_KEYS, {0, 1, 2})
    assert val == Fraction(3, 2)
    # the scaled form is a valid coloring attaining exactly the ratio
    col = {e: set(cs) for e, cs in sol.color_sets().items()}
    assert coloring_is_valid(triangle(), NO_KEYS, col)
    assert coloring_ratio(triangle(), col) == Fraction(3, 2)


def test_color_number_single_keyed_atom():
    a = Structure(SIG_R, [0, 1], {"R": [(0, 1)]})
    val, _ = color_number(a, KEY_R1, {0, 1})
    assert val == 1


def test_color_number_empty_target():
    assert color_number(triangle(), NO_KEYS, set())[0] == 0


def test_color_number_degenerate_no_tuples():
    # Nonempty target over a tupleless structure: the defining ratio divides
    # by a max over an empty set; reported as a flagged 0.
    s = Structure(SIG_R, [0, 1], {"R": []})
    val, sol = color_number(s, NO_KEYS, {0})
    assert val == 0 and sol.degenerate
    # empty target over a tupleless structure is a plain 0
    v2, s2 = color_number(Structure(SIG_R, [], {}), NO_KEYS, frozenset())
    assert v2 == 0 and not s2.degenerate


def test_color_number_unbounded_isolated_element():
    # An element outside every tuple makes the packing unbounded.
    half = Structure(Signature({"R": 2, "U": 1}), [0, 1, 2], {"R": [(0, 1)], "U": []})
    with pytest.raises(DegenerateInputError):
        color_number(half, NO_KEYS, {2})
    # but the same element covered by a unary tuple is fine
    full = Structure(Signature({"R": 2, "U": 1}), [0, 1, 2], {"R": [(0, 1)], "U": [(2,)]})
    assert color_number(full, NO_KEYS, {2})[0] == 1


def test_color_number_monotone_in_target(rng):
    for _ in range(25):
        sig = rand_signature(rng, max_relations=2, max_arity=3)
        keys = rand_keys(rng, sig)
        open_s = rand_open_structure(rng, sig, max_domain=5, max_rows=4)
        struct = open_s.structure
        if struct.total_tuple_count() == 0:
            continue
        elems = list(struct.universe)
        small = set(elems[: len(elems) // 2])
        big = set(elems)
        assert color_number(struct, keys, small)[0] <= color_number(struct, keys, big)[0]


def test_lp_equals_basic_solution_enumeration(rng):
    """Simplex optimum over all valid classes == brute-force vertex scan,
    == simplex over the reduced generating classes."""
    checked = 0
    for _ in range(80):
        sig = rand_signature(rng, max_relations=2, max_arity=3)
        keys = rand_keys(rng, sig)
        open_s = rand_open_structure(rng, sig, max_domain=4, max_rows=3)
        struct = open_s.structure
        if struct.total_tuple_count() == 0 or not struct.universe:
            continue
        classes = valid_color_classes(struct, keys)
        constraint_sets = _constraint_sets(struct)
        target = frozenset(struct.universe)
        usable = [c for c in classes if c.members & target]
        if len(usable) > 10 or len(constraint_sets) > 6:
            continue
        rows = [
            [1 if c.members & s else 0 for c in usable] for s in constraint_sets
        ]
        brute = packing_lp_by_basic_enumeration(len(usable), rows)
        via_full = color_number(struct, keys, target, classes=usable)[0]
        via_reduced = color_number(struct, keys, target)[0]
        assert via_full == brute
        assert via_reduced == brute
        checked += 1
    assert checked >= 25


def test_pruned_rows_give_the_lp_over_all_constraint_sets(rng):
    """color_number leaves out tuples that meet no class; its value and
    witness equal those of the oracle LP over every constraint set."""
    checked = pruned = 0
    for _ in range(150):
        sig = rand_signature(rng, max_relations=2, max_arity=3)
        keys = rand_keys(rng, sig)
        struct = rand_open_structure(rng, sig, max_domain=6, max_rows=5).structure
        if struct.total_tuple_count() == 0:
            continue
        elems = list(struct.universe)
        target = frozenset(rng.sample(elems, rng.randint(1, len(elems))))
        val, sol = color_number(struct, keys, target)
        rows = [
            ([1 if c.members & s else 0 for c in sol.classes], "<=", 1)
            for s in _constraint_sets(struct)
        ]
        ref = two_phase_solve_lp([1] * len(sol.classes), rows)
        weights = tuple(ref.solution)
        scale = lcm(*(w.denominator for w in weights))
        expected = ColorSolution(
            sol.classes, weights, ref.value, target, scale, tuple(int(w * scale) for w in weights)
        )
        assert (val, sol) == (ref.value, expected)
        checked += 1
        pruned += any(not any(coeffs) for coeffs, _, _ in rows)
    assert checked >= 60 and pruned >= 20


def test_color_number_equals_fractional_edge_cover_without_keys(rng):
    for _ in range(40):
        sig = rand_signature(rng, max_relations=2, max_arity=3)
        open_s = rand_open_structure(rng, sig, max_domain=5, max_rows=4)
        struct = open_s.structure
        if struct.total_tuple_count() == 0 or not struct.universe:
            continue
        target = frozenset(struct.universe)
        edges = [frozenset(row) for _, row in struct.atoms()]
        assert color_number(struct, NO_KEYS, target)[0] == fractional_edge_cover(
            edges, target
        )


def test_witness_coloring_always_valid(rng):
    for _ in range(40):
        sig = rand_signature(rng, max_relations=2, max_arity=3)
        keys = rand_keys(rng, sig)
        open_s = rand_open_structure(rng, sig, max_domain=5, max_rows=4)
        struct = open_s.structure
        if struct.total_tuple_count() == 0 or not struct.universe:
            continue
        target = frozenset(open_s.tuple) or frozenset(struct.universe)
        val, sol = color_number(struct, keys, target)
        if val == 0:
            continue
        col = {e: set(cs) for e, cs in sol.color_sets().items()}
        assert coloring_is_valid(struct, keys, col)
        assert coloring_ratio(struct, col) == val


def test_cwidth_of_example_decomposition():
    sig = Signature({"R": 2, "S": 2})
    s = Structure(sig, [0, 1, 3], {"R": [(0, 1)], "S": [(0, 3)]})
    open_s = OpenStructure(s, (0, 1, 0))
    dec = TreeDecomposition(
        {0: None, 1: 0, 2: 0, 3: 2},
        0,
        {0: frozenset({0, 1}), 1: frozenset({0, 1}), 2: frozenset({0}), 3: frozenset({0, 3})},
    )
    report = cwidth_of_decomposition(open_s, NO_KEYS, dec)
    assert report.width == 1
    assert set(report.bag_colors.values()) == {Fraction(1)}


def test_cwidth_rejects_invalid_decomposition():
    open_s = OpenStructure(triangle(), (0, 1, 2))
    bad = TreeDecomposition({0: None}, 0, {0: frozenset({0, 1})})
    with pytest.raises(Exception):
        cwidth_of_decomposition(open_s, NO_KEYS, bad)


def test_optimal_cwidth_triangle():
    report = optimal_cwidth(OpenStructure(triangle(), (0, 1, 2)), NO_KEYS)
    assert report.width == Fraction(3, 2)
    root_bag = report.decomposition.chi[report.decomposition.root]
    assert {0, 1, 2} <= root_bag


def test_optimal_cwidth_single_atom():
    s = Structure(SIG_R, [0, 1], {"R": [(0, 1)]})
    report = optimal_cwidth(OpenStructure(s, (0, 1)), NO_KEYS)
    assert report.width == 1


def test_optimal_cwidth_key_path():
    s = Structure(SIG_R, [0, 1, 2], {"R": [(0, 1), (1, 2)]})
    report = optimal_cwidth(OpenStructure(s, (0, 2)), KEY_R1)
    assert report.width == 1
    # without the key the tuple edge forces width 2
    report2 = optimal_cwidth(OpenStructure(s, (0, 2)), NO_KEYS)
    assert report2.width == 2


def test_optimal_cwidth_cap():
    big = Structure(Signature({"U": 1}), range(20), {"U": [(i,) for i in range(20)]})
    with pytest.raises(ResourceCapError):
        optimal_cwidth(OpenStructure(big, ()), NO_KEYS, cap=16)


def test_optimal_cwidth_empty_universe():
    s = Structure(SIG_R, [], {})
    report = optimal_cwidth(OpenStructure(s, ()), NO_KEYS)
    assert report.width == 0


def test_elimination_search_matches_exhaustive_enumeration(rng):
    checked = 0
    for _ in range(60):
        sig = rand_signature(rng, max_relations=2, max_arity=3)
        keys = rand_keys(rng, sig)
        open_s = rand_open_structure(rng, sig, max_domain=4, max_rows=3)
        if len(open_s.structure.universe) > 4 or open_s.structure.total_tuple_count() == 0:
            continue
        ours = optimal_cwidth(open_s, keys).width
        brute = exhaustive_min_cwidth(open_s, keys)
        assert ours == brute
        checked += 1
    assert checked >= 20


def test_returned_decomposition_is_valid_and_attains_width(rng):
    for _ in range(30):
        sig = rand_signature(rng, max_relations=2, max_arity=3)
        keys = rand_keys(rng, sig)
        open_s = rand_open_structure(rng, sig, max_domain=5, max_rows=4)
        if open_s.structure.total_tuple_count() == 0:
            continue
        report = optimal_cwidth(open_s, keys)
        again = cwidth_of_decomposition(open_s, keys, report.decomposition)
        assert again.width == report.width


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5))
def test_cycle_color_number_is_half_length(n):
    """The color number of all vertices of an n-cycle is n/2 (no keys)."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    s = Structure(SIG_E, range(n), {"E": edges})
    val, _ = color_number(s, NO_KEYS, set(range(n)))
    assert val == Fraction(n, 2)
