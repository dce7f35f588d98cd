"""Witness families: key satisfaction, growth counts, retraction counting."""

from fractions import Fraction

import pytest

from spjopt import (
    DegenerateInputError,
    KeySet,
    OpenStructure,
    Signature,
    Structure,
    bag_witness,
    chase,
    color_number,
    compute_core,
    cwidth_of_decomposition,
    homs_relation,
    optimal_cwidth,
    product_witness,
    satisfies_keys,
)
from spjopt.represent import TreeDecomposition
from spjopt.witness import WitnessFamily

from conftest import rand_keys, rand_open_structure, rand_signature, rand_structure
from oracles import UNCAPPED, brute_homs_relation, max_relation_size

SIG_E = Signature({"E": 2})
SIG_R = Signature({"R": 2})
NO_KEYS = KeySet.empty()
WIDTH_CAP = UNCAPPED.width_universe
KEY_R1 = KeySet.unary({"R": 1})


def triangle():
    return Structure(SIG_E, [0, 1, 2], {"E": [(0, 1), (1, 2), (2, 0)]}, {0: "x", 1: "y", 2: "z"})


def test_single_atom_family():
    b = Structure(SIG_R, [0, 1], {"R": [(0, 1)]})
    d3 = product_witness(b, NO_KEYS, color_number(b, NO_KEYS, {0, 1})[1], 3)
    assert len(d3.relations["R"]) == 3
    assert len(homs_relation(b, (0, 1), d3)) == 3


def test_n_equals_one_is_a_point():
    b = triangle()
    d1 = product_witness(b, NO_KEYS, color_number(b, NO_KEYS, {0, 1, 2})[1], 1)
    assert len(d1.universe) == 3
    assert len(homs_relation(b, (0, 1, 2), d1)) >= 1


def test_rejects_bad_n_and_violating_source():
    b = triangle()
    with pytest.raises(DegenerateInputError):
        product_witness(b, NO_KEYS, color_number(b, NO_KEYS, {0})[1], 0)
    bad = Structure(SIG_R, [0, 1, 2], {"R": [(0, 1), (0, 2)]})
    with pytest.raises(DegenerateInputError):
        product_witness(bad, KEY_R1, color_number(bad, KEY_R1, {0})[1], 2)


def test_triangle_counts_meet_the_bounds():
    b = triangle()
    report = optimal_cwidth(OpenStructure(b, (0, 1, 2)), NO_KEYS, cap=WIDTH_CAP)
    t0, family = bag_witness(OpenStructure(b, (0, 1, 2)), NO_KEYS, report)
    assert family.ratio == Fraction(3, 2)
    n_colors, dstar = family.colors_on_target, family.max_colors_per_tuple
    for n in (1, 2, 3, 4):
        d = family.generate(n)
        homs = homs_relation(b, tuple(sorted(family.target)), d)
        assert len(homs) >= n**n_colors
        assert max_relation_size(d) <= b.total_tuple_count() * n**dstar


def test_family_satisfies_keys_always(rng):
    checked = 0
    for _ in range(30):
        sig = rand_signature(rng, max_relations=2, max_arity=3)
        keys = rand_keys(rng, sig, prob=0.7)
        raw = rand_open_structure(rng, sig, max_domain=4, max_rows=4)
        chased = chase(raw, keys).result
        struct = chased.structure
        if struct.total_tuple_count() == 0 or not struct.universe:
            continue
        target = frozenset(chased.tuple) or frozenset([struct.universe[0]])
        _, sol = color_number(struct, keys, target)
        family = WitnessFamily(struct, keys, sol)
        for n in (1, 2, 3):
            d = family.generate(n)
            assert satisfies_keys(d, keys)
            assert max_relation_size(d) <= struct.total_tuple_count() * n ** family.max_colors_per_tuple
        checked += 1
    assert checked >= 15


def test_exact_count_checks_small_cores(rng):
    """Brute-force homomorphism counts against the declared growth."""
    checked = 0
    for _ in range(20):
        sig = rand_signature(rng, max_relations=2, max_arity=2)
        keys = rand_keys(rng, sig, prob=0.6)
        raw = rand_open_structure(rng, sig, max_domain=4, max_rows=3)
        chased = chase(raw, keys).result
        core = compute_core(chased)
        struct = core.structure
        if struct.total_tuple_count() == 0 or len(struct.universe) > 4:
            continue
        target = frozenset(struct.universe)
        _, sol = color_number(struct, keys, target)
        family = WitnessFamily(struct, keys, sol)
        n_colors = family.colors_on_target
        for n in (1, 2):
            d = family.generate(n)
            brute = brute_homs_relation(struct, tuple(sorted(target)), d)
            assert len(brute) >= n**n_colors
        checked += 1
    assert checked >= 8


def test_bag_witness_picks_widest_bag():
    b = triangle()
    open_b = OpenStructure(b, (0, 1, 2))
    report = optimal_cwidth(open_b, NO_KEYS, cap=WIDTH_CAP)
    t0, family = bag_witness(open_b, NO_KEYS, report)
    assert report.bag_colors[t0] == report.width
    assert family.target == report.decomposition.chi[t0]


def test_bag_witness_packs_the_widest_bag_not_the_root():
    b = triangle()
    open_b = OpenStructure(b, (0,))
    dec = TreeDecomposition({0: None, 1: 0}, 0, {0: frozenset({0}), 1: frozenset({0, 1, 2})})
    report = cwidth_of_decomposition(open_b, NO_KEYS, dec)
    t0, family = bag_witness(open_b, NO_KEYS, report)
    assert (t0, family.target, family.ratio) == (1, frozenset({0, 1, 2}), Fraction(3, 2))


def test_bag_witness_rejects_tupleless():
    s = OpenStructure(Structure(SIG_R, [], {}), ())
    report = optimal_cwidth(s, NO_KEYS, cap=WIDTH_CAP)
    with pytest.raises(DegenerateInputError):
        bag_witness(s, NO_KEYS, report)


def test_retraction_counting(rng):
    """If B retracts to C then homs(B, S, D) is at least homs(C, S&C, D)."""
    checked = 0
    for _ in range(25):
        sig = rand_signature(rng, max_relations=2, max_arity=2)
        raw = rand_open_structure(rng, sig, max_domain=4, max_rows=3)
        core = compute_core(raw)  # raw retracts onto its core
        b, c = raw.structure, core.structure
        if not set(c.universe) <= set(b.universe):
            continue  # compute_core keeps original ids, so this holds
        for _ in range(3):
            data = rand_structure(rng, sig, max_domain=3, max_rows=4)
            s = frozenset(b.universe[: 2])
            lhs = brute_homs_relation(b, tuple(sorted(s)), data)
            rhs = brute_homs_relation(c, tuple(sorted(s & set(c.universe))), data)
            assert len(lhs) >= len(rhs)
            checked += 1
    assert checked >= 30


def test_witness_element_names_are_readable():
    b = Structure(SIG_R, [0, 1], {"R": [(0, 1)]}, {0: "x", 1: "y"})
    d2 = product_witness(b, NO_KEYS, color_number(b, NO_KEYS, {0, 1})[1], 2)
    names = sorted(d2.names.values())
    assert any(name.startswith("x#") for name in names)
