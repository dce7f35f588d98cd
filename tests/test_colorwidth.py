"""Color numbers and widths, cross-checked against brute-force oracles."""

import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from spjopt import (
    DegenerateInputError,
    KeyConstraintError,
    KeySet,
    OpenStructure,
    ResourceCapError,
    Signature,
    SignatureError,
    Structure,
    chased_core,
    color_number,
    color_value,
    cwidth_of_decomposition,
    eliminate_fds,
    hypergraph_of,
    optimal_cwidth,
)
from spjopt import colorwidth
from spjopt.colorwidth import ColorSolution, _constraint_sets
from spjopt.represent import TreeDecomposition

from conftest import (
    PATTERN_EDGES,
    pattern_plan,
    rand_keys,
    rand_open_structure,
    rand_plan,
    rand_signature,
    rand_structure,
)
from oracles import (
    UNCAPPED,
    coloring_is_valid,
    coloring_ratio,
    exhaustive_min_cwidth,
    fractional_edge_cover,
    packing_lp_by_basic_enumeration,
    two_phase_solve_lp,
    valid_color_classes,
)

SIG_E = Signature({"E": 2})
SIG_R = Signature({"R": 2})
NO_KEYS = KeySet.empty()
WIDTH_CAP = UNCAPPED.width_universe
KEY_R1 = KeySet.unary({"R": 1})


def triangle():
    return Structure(SIG_E, [0, 1, 2], {"E": [(0, 1), (1, 2), (2, 0)]}, {0: "x", 1: "y", 2: "z"})


def test_valid_classes_respect_keys():
    a = Structure(SIG_R, [0, 1], {"R": [(0, 1)]}, {0: "x", 1: "y"})
    classes = valid_color_classes(a, KEY_R1)
    assert classes == [{0}, {0, 1}]
    assert valid_color_classes(a, NO_KEYS) == [{0}, {1}, {0, 1}]


def test_valid_classes_after_chase():
    a = Structure(SIG_R, [0, 1], {"R": [(0, 1)]})  # post-chase form of R(a,b),R(a,c)
    assert valid_color_classes(a, KEY_R1) == [{0}, {0, 1}]


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
    """Simplex optimum over the reduced generating classes == brute-force
    vertex scan of the LP over all valid classes."""
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
        usable = [c for c in classes if c & target]
        if len(usable) > 10 or len(constraint_sets) > 6:
            continue
        rows = [
            [1 if c & s else 0 for c in usable] for s in constraint_sets
        ]
        brute = packing_lp_by_basic_enumeration(len(usable), rows)
        assert color_number(struct, keys, target)[0] == brute
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
            ([1 if c & s else 0 for c in sol.classes], "<=", 1)
            for s in _constraint_sets(struct)
        ]
        ref = two_phase_solve_lp([1] * len(sol.classes), rows)
        scale = lcm(*(w.denominator for w in ref.solution))
        expected = ColorSolution(
            sol.classes, ref.value, target, tuple(int(w * scale) for w in ref.solution)
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
    report = optimal_cwidth(OpenStructure(triangle(), (0, 1, 2)), NO_KEYS, cap=WIDTH_CAP)
    assert report.width == Fraction(3, 2)
    root_bag = report.decomposition.chi[report.decomposition.root]
    assert {0, 1, 2} <= root_bag


def test_optimal_cwidth_single_atom():
    s = Structure(SIG_R, [0, 1], {"R": [(0, 1)]})
    report = optimal_cwidth(OpenStructure(s, (0, 1)), NO_KEYS, cap=WIDTH_CAP)
    assert report.width == 1


def test_optimal_cwidth_key_path():
    s = Structure(SIG_R, [0, 1, 2], {"R": [(0, 1), (1, 2)]})
    report = optimal_cwidth(OpenStructure(s, (0, 2)), KEY_R1, cap=WIDTH_CAP)
    assert report.width == 1
    # without the key the tuple edge forces width 2
    report2 = optimal_cwidth(OpenStructure(s, (0, 2)), NO_KEYS, cap=WIDTH_CAP)
    assert report2.width == 2


def test_optimal_cwidth_cap():
    big = Structure(Signature({"U": 1}), range(20), {"U": [(i,) for i in range(20)]})
    with pytest.raises(ResourceCapError):
        optimal_cwidth(OpenStructure(big, ()), NO_KEYS, cap=16)


def test_optimal_cwidth_empty_universe():
    s = Structure(SIG_R, [], {})
    report = optimal_cwidth(OpenStructure(s, ()), NO_KEYS, cap=WIDTH_CAP)
    assert report.width == 0


def test_elimination_search_matches_exhaustive_enumeration(rng):
    checked = 0
    for _ in range(60):
        sig = rand_signature(rng, max_relations=2, max_arity=3)
        keys = rand_keys(rng, sig)
        open_s = rand_open_structure(rng, sig, max_domain=4, max_rows=3)
        if len(open_s.structure.universe) > 4 or open_s.structure.total_tuple_count() == 0:
            continue
        ours = optimal_cwidth(open_s, keys, cap=WIDTH_CAP).width
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
        report = optimal_cwidth(open_s, keys, cap=WIDTH_CAP)
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


# ---------------------------------------------------------------------------
# color_value: the presolved value against the full LP of color_number
# ---------------------------------------------------------------------------


def _assert_same_value(struct, keys, target):
    """color_value equals color_number's value as an exact Fraction, or
    raises the same DegenerateInputError; returns whether it raised."""
    try:
        expected = color_number(struct, keys, target)[0]
    except DegenerateInputError as exc:
        with pytest.raises(DegenerateInputError, match=f"^{re.escape(str(exc))}$"):
            color_value(struct, keys, target)
        return True
    got = color_value(struct, keys, target)
    assert type(got) is Fraction and got == expected
    return False


def _counting_lp(monkeypatch):
    """Row counts of the LPs colorwidth hands to solve_lp from now on."""
    rows = []
    solve = colorwidth.solve_lp

    def counting(objective, constraints):
        rows.append(len(constraints))
        return solve(objective, constraints)

    monkeypatch.setattr(colorwidth, "solve_lp", counting)
    return rows


def test_color_value_matches_color_number_on_random_structures(rng, monkeypatch):
    lp_rows = _counting_lp(monkeypatch)
    keyed = raised = solved = 0
    for _ in range(400):
        sig = rand_signature(rng, max_relations=3, max_arity=3)
        keys = rand_keys(rng, sig) if rng.random() < 0.6 else NO_KEYS
        struct = rand_structure(rng, sig, max_domain=6, max_rows=6)
        elems = list(struct.universe)
        target = frozenset(rng.sample(elems, rng.randint(0, len(elems))))
        keyed += bool(keys)
        if _assert_same_value(struct, keys, target):
            raised += 1
            continue
        before = len(lp_rows)
        color_value(struct, keys, target)
        solved += len(lp_rows) > before
    assert keyed >= 150 and raised >= 40 and solved >= 40


def _recording_values(monkeypatch):
    """(structure, keys, target, value) of every value the width search reads."""
    seen = []
    make = colorwidth._color_values

    def recording(structure, keys):
        value = make(structure, keys)

        def recorded(target):
            out = value(target)
            seen.append((structure, keys, target, out))
            return out

        return recorded

    monkeypatch.setattr(colorwidth, "_color_values", recording)
    return seen


def _assert_search_values_are_color_numbers(seen):
    for struct, keys, target, value in seen:
        assert type(value) is Fraction
        assert value == color_number(struct, keys, target)[0]


@pytest.mark.parametrize("name", PATTERN_EDGES)
def test_width_search_reads_color_numbers_on_pattern_plans(name, monkeypatch):
    seen = _recording_values(monkeypatch)
    core = chased_core(pattern_plan(PATTERN_EDGES[name], (0, 1)), NO_KEYS, SIG_E, None)
    optimal_cwidth(core, NO_KEYS, cap=WIDTH_CAP)
    assert len({target for _, _, target, _ in seen}) == len(seen) >= 30
    _assert_search_values_are_color_numbers(seen)


def test_width_search_reads_color_numbers_on_random_plans(rng, monkeypatch):
    seen = _recording_values(monkeypatch)
    searched = 0
    for _ in range(60):
        sig = rand_signature(rng, max_relations=2, max_arity=3)
        keys = rand_keys(rng, sig, prob=0.7)
        core = chased_core(rand_plan(rng, sig), keys, sig, None)
        eliminated = eliminate_fds(core, keys).open
        if core.structure.total_tuple_count() == 0 or len(eliminated.structure.universe) > 10:
            continue
        optimal_cwidth(core, keys, cap=WIDTH_CAP)
        optimal_cwidth(eliminated, NO_KEYS, cap=WIDTH_CAP)
        searched += 1
    assert searched >= 40 and len(seen) >= 300
    assert sum(1 for _, keys, _, _ in seen if keys) >= 100
    _assert_search_values_are_color_numbers(seen)


def test_color_value_triangle_needs_the_lp(monkeypatch):
    # Every edge misses a vertex: no support covers all three classes.
    lp_rows = _counting_lp(monkeypatch)
    assert color_value(triangle(), NO_KEYS, {0, 1, 2}) == Fraction(3, 2)
    assert lp_rows == [3]


def test_color_value_drops_duplicate_and_dominated_supports(monkeypatch):
    # E(1, 0) repeats the support of E(0, 1); U(0) meets only {0}, which
    # the E rows through 0 contain.
    sig = Signature({"E": 2, "U": 1})
    s = Structure(sig, [0, 1, 2], {"E": [(0, 1), (1, 0), (1, 2), (2, 0)], "U": [(0,)]})
    assert len(_constraint_sets(s)) == 4
    lp_rows = _counting_lp(monkeypatch)
    assert color_value(s, NO_KEYS, {0, 1, 2}) == Fraction(3, 2)
    assert lp_rows == [3]
    assert color_number(s, NO_KEYS, {0, 1, 2})[0] == Fraction(3, 2)


def test_color_value_edge_cases(monkeypatch):
    lp_rows = _counting_lp(monkeypatch)
    assert color_value(triangle(), NO_KEYS, set()) == 0
    assert color_value(Structure(SIG_R, [0, 1], {"R": []}), NO_KEYS, {0}) == 0
    assert color_value(Structure(SIG_R, [], {}), NO_KEYS, frozenset()) == 0
    assert color_value(Structure(SIG_R, [0, 1], {"R": [(0, 1)]}), KEY_R1, {0, 1}) == 1
    assert lp_rows == []
    with pytest.raises(SignatureError):
        color_value(triangle(), NO_KEYS, {3})


def test_color_value_errors_match_color_number():
    half = Structure(Signature({"R": 2, "U": 1}), [0, 1, 2, 3], {"R": [(0, 1)], "U": []})
    for target in ({2}, {0, 2}, {3, 2, 1}):
        assert _assert_same_value(half, NO_KEYS, target)
    keyed = Structure(SIG_R, [0, 1, 2, 3], {"R": [(0, 1)]})
    assert _assert_same_value(keyed, KEY_R1, {1, 3})
    pair_key = KeySet([("R", (1, 2))])
    for value_of in (color_number, color_value):
        with pytest.raises(KeyConstraintError, match="unary keys only"):
            value_of(triangle(), pair_key, {0})
