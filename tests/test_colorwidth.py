"""Color numbers and widths, cross-checked against brute-force oracles."""

import re
from fractions import Fraction
from itertools import count
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from spjopt import (
    DegenerateInputError,
    KeySet,
    OpenStructure,
    ResourceCapError,
    Signature,
    SignatureError,
    SpjError,
    Structure,
    build_representation,
    chased_core,
    color_number,
    color_values,
    cwidth_of_decomposition,
    eliminate_fds,
    hypergraph_of,
    optimal_cwidth,
    prepare,
)
from spjopt import colorwidth
from spjopt.colorwidth import ColorSolution, _constraint_sets
from spjopt.represent import TreeDecomposition

from conftest import (
    PATTERN_EDGES,
    mobius_ladder,
    pattern_plan,
    rand_keys,
    rand_multi_keys,
    rand_open_structure,
    rand_plan,
    rand_signature,
    rand_structure,
    several_keys,
    squared_cycle,
)
from oracles import (
    UNCAPPED,
    coloring_is_valid,
    coloring_ratio,
    exhaustive_min_cwidth,
    fractional_edge_cover,
    frozenset_optimal_cwidth,
    packing_lp_by_basic_enumeration,
    recursive_optimal_cwidth,
    two_phase_solve_lp,
    unbounded_optimal_cwidth,
    valid_color_classes,
)

SIG_E = Signature({"E": 2})
SIG_R = Signature({"R": 2})
NO_KEYS = KeySet.empty()
CORE_CAP = UNCAPPED.core_universe
WIDTH_CAP = UNCAPPED.width_universe
KEY_R1 = KeySet({"R": 1}.items())


def triangle():
    return Structure(SIG_E, [0, 1, 2], {"E": [(0, 1), (1, 2), (2, 0)]}, {0: "x", 1: "y", 2: "z"})


def ternary_triangle():
    """Three ternary tuples, each sharing one element with each other."""
    return Structure(Signature({"T": 3}), range(6), {"T": [(0, 1, 2), (2, 3, 4), (4, 5, 0)]})


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
    vertex scan of the LP over all valid classes, with one key per relation
    and, from the 81st draw on, several keys on some relation."""
    checked = [0, 0]
    for trial in range(320):
        sig = rand_signature(rng, max_relations=2, max_arity=3)
        several = trial >= 80
        keys = rand_multi_keys(rng, sig) if several else rand_keys(rng, sig)
        if several and not several_keys(keys, sig):
            continue
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
        checked[several] += 1
    assert checked[0] >= 25 and checked[1] >= 25, checked


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
    """One key per relation, and from the 41st draw on several keys on some
    relation."""
    checked = [0, 0]
    for trial in range(200):
        sig = rand_signature(rng, max_relations=2, max_arity=3)
        several = trial >= 40
        keys = rand_multi_keys(rng, sig) if several else rand_keys(rng, sig)
        if several and not several_keys(keys, sig):
            continue
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
        checked[several] += 1
    assert checked[0] >= 30 and checked[1] >= 20, checked


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


def _assert_same_report(open_s, keys):
    ours = optimal_cwidth(open_s, keys, cap=WIDTH_CAP)
    want = unbounded_optimal_cwidth(open_s, keys)
    assert ours == want
    dec, want_dec = ours.decomposition, want.decomposition
    assert list(dec.parent.items()) == list(want_dec.parent.items())
    assert list(dec.chi.items()) == list(want_dec.chi.items())


def test_bounded_search_matches_unbounded_search(rng):
    """The bound only cuts states that cannot win, so the search keeps the
    unbounded search's first argmin everywhere: the same width, bag colors
    and decomposition."""
    keyed = large = 0
    for _ in range(400):
        sig = rand_signature(rng, max_relations=3, max_arity=3)
        keys = rand_keys(rng, sig) if rng.random() < 0.5 else NO_KEYS
        open_s = rand_open_structure(rng, sig, max_domain=11, max_rows=9)
        _assert_same_report(open_s, keys)
        keyed += bool(keys)
        large += len(open_s.structure.universe) >= 8
    assert keyed >= 120 and large >= 60
    for edges in (mobius_ladder(10), mobius_ladder(12), squared_cycle(12)):
        _assert_same_report(chased_core(prepare(pattern_plan(edges, (0, 1)), SIG_E), NO_KEYS, CORE_CAP), NO_KEYS)
    # A state cut under the bound 9/4 is asked again under 5/2, so its lower
    # bound must not be reused; random search met such a state in 4 of
    # 20,000 hypergraphs of up to 10 elements.
    again = Structure(
        Signature({"E": 2, "T": 3, "Q": 4}),
        range(10),
        {
            "E": [(1, 4), (1, 9), (6, 5)],
            "T": [
                (0, 3, 9), (1, 7, 2), (2, 3, 5), (2, 6, 5), (3, 4, 1), (3, 6, 8), (4, 3, 7),
                (4, 8, 5), (4, 9, 7), (6, 1, 2), (7, 4, 1), (9, 1, 2), (9, 5, 3), (9, 5, 6),
            ],
            "Q": [(0, 6, 3, 2), (7, 0, 1, 4), (9, 3, 5, 2)],
        },
    )
    _assert_same_report(OpenStructure(again, (7, 0)), NO_KEYS)


def test_bitmask_search_matches_the_frozenset_search(rng):
    """The search over bitmask states reports what the search over
    frozensets (``oracles.frozenset_optimal_cwidth``) reports: the width,
    bag colors, parent map, root and bags, in the same order, on random
    structures of up to 12 vertices, with one key or two per relation and
    without keys."""
    keyed = large = 0
    for trial in range(300):
        sig = rand_signature(rng, max_relations=3, max_arity=3)
        keys = (NO_KEYS, rand_keys(rng, sig), rand_multi_keys(rng, sig))[trial % 3]
        open_s = rand_open_structure(rng, sig, max_domain=12, max_rows=14)
        ours = optimal_cwidth(open_s, keys, cap=WIDTH_CAP)
        want = frozenset_optimal_cwidth(open_s, keys, cap=WIDTH_CAP)
        assert ours == want
        assert list(ours.bag_colors.items()) == list(want.bag_colors.items())
        dec, want_dec = ours.decomposition, want.decomposition
        assert dec.root == want_dec.root
        assert list(dec.parent.items()) == list(want_dec.parent.items())
        assert list(dec.chi.items()) == list(want_dec.chi.items())
        keyed += bool(keys)
        large += len(open_s.structure.universe) >= 9
    assert keyed >= 150 and large >= 60


def test_stacked_search_matches_the_recursive_search(rng):
    """The search that runs on an explicit stack and reads each chosen bag
    from its memo reports what the recursive search that re-derives the
    remaining vertices' bags (``oracles.recursive_optimal_cwidth``)
    reports, on random structures of up to 12 vertices, with one key or
    two per relation and without keys, and on the Mobius ladders on 10 to
    14 vertices and the squared 12- and 14-cycles."""
    large = 0
    for trial in range(300):
        sig = rand_signature(rng, max_relations=3, max_arity=3)
        keys = (NO_KEYS, rand_keys(rng, sig), rand_multi_keys(rng, sig))[trial % 3]
        open_s = rand_open_structure(rng, sig, max_domain=12, max_rows=14)
        assert optimal_cwidth(open_s, keys, WIDTH_CAP) == recursive_optimal_cwidth(open_s, keys, WIDTH_CAP)
        large += len(open_s.structure.universe) >= 9
    assert large >= 60
    for edges in (mobius_ladder(10), mobius_ladder(12), mobius_ladder(14), squared_cycle(12), squared_cycle(14)):
        core = chased_core(prepare(pattern_plan(edges, (0, 1)), SIG_E), NO_KEYS, CORE_CAP)
        assert optimal_cwidth(core, NO_KEYS, WIDTH_CAP) == recursive_optimal_cwidth(core, NO_KEYS, WIDTH_CAP)


def test_bounded_search_solves_few_lps_on_mobius16(monkeypatch):
    """Past the shortcuts for one covering support and for disjoint
    supports, the unbounded search (``oracles.unbounded_optimal_cwidth``)
    reads 981 bags of the Mobius 16 core, its report's 12 included, and the
    bounded one 357, whose report reads the search's values.  Every support
    of an unkeyed graph meets at most two columns, so the matching rule
    reads all 357 and no LP is solved."""
    core = chased_core(prepare(pattern_plan(mobius_ladder(16), (0, 1)), SIG_E), NO_KEYS, CORE_CAP)
    lp_rows = _counting_lp(monkeypatch)
    matchings = _counting_matchings(monkeypatch)
    assert optimal_cwidth(core, NO_KEYS, cap=WIDTH_CAP).width == 3
    assert lp_rows == [] and len(matchings) == 357


def test_decomposition_bag_colors_are_color_numbers(rng):
    """Each bag of a plan's own decomposition, which is often wider than
    optimal, reads its color number, with and without keys."""
    keyed = wider = 0
    for _ in range(100):
        sig = rand_signature(rng, max_relations=2, max_arity=3)
        keys = rand_keys(rng, sig) if rng.random() < 0.6 else NO_KEYS
        rep, dec = build_representation(prepare(rand_plan(rng, sig), sig))
        struct = rep.open.structure
        report = cwidth_of_decomposition(rep.open, keys, dec)
        assert report.bag_colors == {n: color_number(struct, keys, dec.chi[n])[0] for n in dec.nodes}
        keyed += bool(keys)
        if len(struct.universe) <= 12:
            wider += report.width > optimal_cwidth(rep.open, keys, cap=WIDTH_CAP).width
    assert keyed >= 40 and wider >= 5
    empty = OpenStructure(Structure(SIG_R, [], {}), ())
    one_bag = TreeDecomposition({0: None}, 0, {0: frozenset()})
    report = cwidth_of_decomposition(empty, NO_KEYS, one_bag)
    assert report.bag_colors == {0: color_number(empty.structure, NO_KEYS, frozenset())[0]}


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5))
def test_cycle_color_number_is_half_length(n):
    """The color number of all vertices of an n-cycle is n/2 (no keys)."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    s = Structure(SIG_E, range(n), {"E": edges})
    val, _ = color_number(s, NO_KEYS, set(range(n)))
    assert val == Fraction(n, 2)


# ---------------------------------------------------------------------------
# color_values: the presolved value against the full LP of color_number
# ---------------------------------------------------------------------------


def _assert_same_value(struct, keys, target):
    """color_values gives color_number's value as an exact Fraction, or
    raises the same DegenerateInputError; returns whether it raised.
    color_number raises SpjError where its full LP disagrees."""
    try:
        expected = color_number(struct, keys, target)[0]
    except DegenerateInputError as exc:
        with pytest.raises(DegenerateInputError, match=f"^{re.escape(str(exc))}$"):
            color_values(struct, keys)(target)
        return True
    got = color_values(struct, keys)(target)
    assert type(got) is Fraction and got == expected
    return False


def _counting_lp(monkeypatch):
    """Row counts of the LPs colorwidth hands to solve_lp from now on."""
    rows = []
    solve = colorwidth.solve_lp

    def counting(objective, lp_rows):
        rows.append(len(lp_rows))
        return solve(objective, lp_rows)

    monkeypatch.setattr(colorwidth, "solve_lp", counting)
    return rows


def _counting_matchings(monkeypatch):
    """Column counts of the graphs colorwidth hands to the matching rule
    from now on."""
    columns = []
    match = colorwidth._double_cover_matching

    def counting(n, edges):
        columns.append(n)
        return match(n, edges)

    monkeypatch.setattr(colorwidth, "_double_cover_matching", counting)
    return columns


def test_color_value_matches_color_number_on_random_structures(rng, monkeypatch):
    """The presolved value equals the full LP's: where an LP over the
    maximal supports is solved, where every support meets at most two
    columns and the matching rule gives the value, and where the supports
    are disjoint and their count is the value.  Half the draws allow arity
    4, since wide tuples are what still reaches the LP."""
    lp_rows = _counting_lp(monkeypatch)
    matchings = _counting_matchings(monkeypatch)
    keyed = raised = solved = matched = disjoint = 0
    for i in range(1600):
        sig = rand_signature(rng, max_relations=3, max_arity=3 if i % 2 else 4)
        keys = rand_keys(rng, sig) if rng.random() < 0.6 else NO_KEYS
        struct = rand_structure(rng, sig, max_domain=6, max_rows=6)
        elems = list(struct.universe)
        target = frozenset(rng.sample(elems, rng.randint(0, len(elems))))
        keyed += bool(keys)
        if _assert_same_value(struct, keys, target):
            raised += 1
            continue
        before, graphs = len(lp_rows), len(matchings)
        value = color_values(struct, keys)(target)
        solved += len(lp_rows) > before
        matched += len(matchings) > graphs
        # Neither and a value of 2 or more: the disjoint supports' count.
        disjoint += len(lp_rows) == before and len(matchings) == graphs and value >= 2
    assert keyed >= 150 and raised >= 40 and solved >= 40 and matched >= 40 and disjoint >= 40


def _recording_values(monkeypatch):
    """(closure, structure, keys, target, value) of every value read through
    colorwidth.color_values; closure numbers the color_values call."""
    seen = []
    make = colorwidth.color_values
    closures = count()

    def recording(structure, keys):
        value, closure = make(structure, keys), next(closures)

        def recorded(target):
            out = value(target)
            seen.append((closure, structure, keys, target, out))
            return out

        return recorded

    monkeypatch.setattr(colorwidth, "color_values", recording)
    return seen


def _assert_search_values_are_color_numbers(seen):
    # A snapshot: color_number reads through the recorded color_values too.
    for _, struct, keys, target, value in list(seen):
        assert type(value) is Fraction
        assert value == color_number(struct, keys, target)[0]


@pytest.mark.parametrize("name", PATTERN_EDGES)
def test_width_search_reads_color_numbers_on_pattern_plans(name, monkeypatch):
    seen = _recording_values(monkeypatch)
    core = chased_core(prepare(pattern_plan(PATTERN_EDGES[name], (0, 1)), SIG_E), NO_KEYS, CORE_CAP)
    optimal_cwidth(core, NO_KEYS, cap=WIDTH_CAP)
    # One closure: the report reads the search's values.
    targets: dict[int, list] = {}
    for closure, _, _, target, _ in seen:
        targets.setdefault(closure, []).append(target)
    assert len(targets) == 1 and len(seen) >= 30
    assert all(len(set(read)) == len(read) for read in targets.values())
    _assert_search_values_are_color_numbers(seen)


def test_width_search_reads_color_numbers_on_random_plans(rng, monkeypatch):
    seen = _recording_values(monkeypatch)
    searched = 0
    for _ in range(60):
        sig = rand_signature(rng, max_relations=2, max_arity=3)
        keys = rand_keys(rng, sig, prob=0.7)
        core = chased_core(prepare(rand_plan(rng, sig), sig), keys, CORE_CAP)
        eliminated = eliminate_fds(core, keys).open
        if core.structure.total_tuple_count() == 0 or len(eliminated.structure.universe) > 10:
            continue
        optimal_cwidth(core, keys, cap=WIDTH_CAP)
        optimal_cwidth(eliminated, NO_KEYS, cap=WIDTH_CAP)
        searched += 1
    assert searched >= 40 and len(seen) >= 300
    assert sum(1 for _, _, keys, _, _ in seen if keys) >= 100
    _assert_search_values_are_color_numbers(seen)


def test_color_number_rejects_an_lp_that_disagrees_with_the_presolve(monkeypatch):
    monkeypatch.setattr(colorwidth, "color_values", lambda structure, keys: lambda target: 1)
    with pytest.raises(SpjError, match="^packing LP gave 3/2, its presolve 1$"):
        color_number(triangle(), NO_KEYS, {0, 1, 2})


def test_color_value_triangle_needs_the_lp(monkeypatch):
    # Every edge misses a vertex: no support covers all three classes.  The
    # supports are edges, so the matching rule gives 3 - 3/2 without an LP.
    lp_rows = _counting_lp(monkeypatch)
    assert color_values(triangle(), NO_KEYS)({0, 1, 2}) == Fraction(3, 2)
    assert lp_rows == []
    # A triangle of overlapping three-column supports does need the LP.
    assert color_values(ternary_triangle(), NO_KEYS)(range(6)) == 3
    assert lp_rows == [3]


def test_color_value_drops_duplicate_and_dominated_supports(monkeypatch):
    # E(1, 0) repeats the support of E(0, 1); U(0) meets only {0}, which
    # the E rows through 0 contain.
    sig = Signature({"E": 2, "U": 1})
    s = Structure(sig, [0, 1, 2], {"E": [(0, 1), (1, 0), (1, 2), (2, 0)], "U": [(0,)]})
    assert len(_constraint_sets(s)) == 4
    lp_rows = _counting_lp(monkeypatch)
    assert color_values(s, NO_KEYS)({0, 1, 2}) == Fraction(3, 2)
    assert lp_rows == []
    assert color_number(s, NO_KEYS, {0, 1, 2})[0] == Fraction(3, 2)
    lp_rows.clear()  # color_number solved the full LP
    # The same with three-column supports: T(1, 0, 2) repeats T(0, 1, 2)'s,
    # and U(0)'s lies in it; the LP keeps the three others.
    sig = Signature({"T": 3, "U": 1})
    t = ternary_triangle()
    s = Structure(sig, t.universe, {"T": [*t.relations["T"], (1, 0, 2)], "U": [(0,)]})
    assert len(_constraint_sets(s)) == 4
    assert color_values(s, NO_KEYS)(range(6)) == 3
    assert lp_rows == [3]
    assert color_number(s, NO_KEYS, range(6))[0] == 3


def test_color_value_edge_cases(monkeypatch):
    lp_rows = _counting_lp(monkeypatch)
    assert color_values(triangle(), NO_KEYS)(set()) == 0
    assert color_values(Structure(SIG_R, [0, 1], {"R": []}), NO_KEYS)({0}) == 0
    assert color_values(Structure(SIG_R, [], {}), NO_KEYS)(frozenset()) == 0
    assert color_values(Structure(SIG_R, [0, 1], {"R": [(0, 1)]}), KEY_R1)({0, 1}) == 1
    # Disjoint maximal supports: one row per edge, each column in one row.
    assert color_values(Structure(SIG_R, range(4), {"R": [(0, 1), (2, 3)]}), NO_KEYS)(range(4)) == 2
    assert lp_rows == []
    with pytest.raises(SignatureError):
        color_values(triangle(), NO_KEYS)({3})


def test_color_value_errors_match_color_number():
    half = Structure(Signature({"R": 2, "U": 1}), [0, 1, 2, 3], {"R": [(0, 1)], "U": []})
    for target in ({2}, {0, 2}, {3, 2, 1}):
        assert _assert_same_value(half, NO_KEYS, target)
    keyed = Structure(SIG_R, [0, 1, 2, 3], {"R": [(0, 1)]})
    assert _assert_same_value(keyed, KEY_R1, {1, 3})


# ---------------------------------------------------------------------------
# The matching rule against the oracle LPs
# ---------------------------------------------------------------------------


def _graph(n, edges, unary=(), signature=Signature({"E": 2, "U": 1})):
    return Structure(signature, range(n), {"E": edges, "U": [(v,) for v in unary]})


def _cycle(k):
    return [(i, (i + 1) % k) for i in range(k)]


def _pendant_keyed(edges, n):
    """E over x_0..x_{n-1} plus K(x_i, y_i) keyed on x_i: each y_i's class
    holds x_i and meets exactly x_i's tuples, so the two classes merge."""
    sig = Signature({"E": 2, "K": 2})
    struct = Structure(sig, range(2 * n), {"E": edges, "K": [(i, n + i) for i in range(n)]})
    return struct, KeySet({"K": 1}.items())


def _matching_cases():
    """(name, structure, keys, target, value); every maximal support of each
    meets at most two columns, and a value of None is left to the oracles."""
    for k in range(3, 10):
        yield f"C{k}", _graph(k, _cycle(k)), NO_KEYS, range(k), Fraction(k, 2)
    for k in range(3, 8):
        path = [(i, i + 1) for i in range(k - 1)]
        yield f"P{k}", _graph(k, path), NO_KEYS, range(k), Fraction((k + 1) // 2)
        star = [(0, i) for i in range(1, k)]
        yield f"star{k}", _graph(k, star), NO_KEYS, range(k), Fraction(k - 1)
    # Columns whose only support is their own, beside a triangle and a C5.
    yield "C3+2", _graph(5, _cycle(3), (3, 4)), NO_KEYS, range(5), Fraction(7, 2)
    yield "C5+1", _graph(6, _cycle(5), (5, 0)), NO_KEYS, range(6), Fraction(7, 2)
    yield "P4+1", _graph(5, [(0, 1), (1, 2), (2, 3)], (4,)), NO_KEYS, {0, 1, 2, 4}, Fraction(3)
    # Each Q tuple holds v_i, w_i, v_{i+1} and w_{i+1}: v_i and w_i meet the
    # same tuples, so their classes merge into one column.
    for k in (3, 5, 6):
        quads = [(i, k + i, (i + 1) % k, k + (i + 1) % k) for i in range(k)]
        struct = Structure(Signature({"Q": 4}), range(2 * k), {"Q": quads})
        yield f"Q{k}", struct, NO_KEYS, range(2 * k), Fraction(k, 2)
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    for name, edges, n in (("C5", _cycle(5), 5), ("C7", _cycle(7), 7), ("K4", k4, 4)):
        struct, keys = _pendant_keyed(edges, n)
        yield f"keyed-{name}", struct, keys, range(2 * n), None
        yield f"keyed-{name}-half", struct, keys, range(n // 2, n + n // 2 + 1), None


def _oracle_values(struct, keys, target):
    """The packing LP over the target's generating classes and every
    constraint set, by the two-phase simplex and, while it has at most 12
    columns and rows, by enumerating its basic solutions."""
    forces = colorwidth._closure_edges(struct, keys)
    cols = list({colorwidth._close({v}, forces) for v in target})
    rows = [[0 if c.isdisjoint(s) else 1 for c in cols] for s in _constraint_sets(struct)]
    rows = [row for row in rows if any(row)]
    values = [two_phase_solve_lp([1] * len(cols), [(row, "<=", 1) for row in rows]).value]
    if len(cols) + len(rows) <= 12:
        values.append(packing_lp_by_basic_enumeration(len(cols), rows))
    return values


def test_matching_rule_matches_the_oracle_lps(monkeypatch):
    """Odd cycles, paths, stars, columns of their own, classes merged by
    equal masks and keyed pendants: each value comes from the matching
    rule, not the LP, and equals both oracles' optimum."""
    lp_rows = _counting_lp(monkeypatch)
    matchings = _counting_matchings(monkeypatch)
    cases = enumerated = 0
    for name, struct, keys, target, want in _matching_cases():
        got = color_values(struct, keys)(target)
        oracles = _oracle_values(struct, keys, target)
        assert set(oracles) == {got} and want in (None, got), (name, got, oracles)
        cases += 1
        enumerated += len(oracles) == 2
        assert len(matchings) == cases, name
    assert lp_rows == [] and cases == 29 and enumerated >= 10, enumerated


def test_matching_rule_needs_no_recursion():
    """Augmenting paths are searched with a queue: a 6,000-vertex cycle's
    double cover has a perfect matching, and so has a path's."""
    n = 6000
    cycle = [1 << i | 1 << (i + 1) % n for i in range(n)]
    assert colorwidth._double_cover_matching(n, cycle) == n
    assert colorwidth._double_cover_matching(n, cycle[:-1]) == n
