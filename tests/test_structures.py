"""Relational core: homomorphisms, cores, hypergraphs."""

import itertools
import random

import pytest

from spjopt import (
    ArityError,
    KeySet,
    OpenStructure,
    Signature,
    SignatureError,
    Structure,
    chase,
    check_isomorphic,
    compute_core,
    find_homomorphism,
    homs_relation,
    hypergraph_of,
)
from spjopt.structures import _HomSearch, _idempotent_power, split_augmented

from conftest import rand_open_structure, rand_signature, rand_structure
from oracles import (
    RecursiveHomSearch,
    brute_homs,
    brute_homs_relation,
    brute_open_hom_exists,
    has_proper_retraction,
    recursive_homs_relation,
)

SIG_E = Signature({"E": 2})


def digraph(edges, names=None):
    elems = sorted({e for t in edges for e in t})
    return Structure(SIG_E, elems, {"E": edges}, names)


@pytest.fixture
def a0():
    # Two edges out of a common source.
    return digraph([(0, 1), (0, 2)], {0: "u", 1: "v1", 2: "v2"})


def test_signature_rejects_reserved_names():
    with pytest.raises(SignatureError):
        Signature({"R0": 1})
    Signature({"R": 2, "Rx": 1})  # fine: not of the reserved shape


def test_signature_rejects_bad_arity():
    with pytest.raises(SignatureError):
        Signature({"R": -1})


def test_structure_validates_tuples():
    with pytest.raises(ArityError):
        Structure(SIG_E, [0, 1], {"E": [(0, 1, 1)]})
    with pytest.raises(SignatureError):
        Structure(SIG_E, [0], {"E": [(0, 5)]})
    with pytest.raises(SignatureError):
        Structure(SIG_E, [0], {"F": []})


def test_open_structure_rejects_isolated_elements(a0):
    with_isolated = Structure(SIG_E, [0, 1, 2, 9], {"E": [(0, 1), (0, 2)]})
    with pytest.raises(SignatureError):
        OpenStructure(with_isolated, (0,))
    # The degenerate all-empty open structure is admitted.
    empty = OpenStructure(Structure(SIG_E, [], {}), ())
    assert empty.arity == 0


def test_augmented_roundtrip(a0):
    open_a = OpenStructure(a0, (0, 1))
    aug = open_a.augmented()
    assert aug.relations["R2"] == frozenset({(0, 1)})
    assert split_augmented(aug) == open_a


def test_find_homomorphism_stated_retraction(a0):
    # Folding v2 onto v1 while fixing the distinguished source.
    a1 = digraph([(0, 1)], {0: "u", 1: "v1"})
    h = find_homomorphism(OpenStructure(a0, (0,)), OpenStructure(a1, (0,)))
    assert h == {0: 0, 1: 1, 2: 1}


def test_find_homomorphism_identity(a0):
    open_a = OpenStructure(a0, (0,))
    h = find_homomorphism(open_a, open_a)
    assert h is not None
    assert tuple(h[e] for e in open_a.tuple) == open_a.tuple


def test_find_homomorphism_cycle_to_loop():
    cycle = digraph([(0, 1), (1, 2), (2, 0)])
    loop = digraph([(5, 5)])
    h = find_homomorphism(OpenStructure(cycle, ()), OpenStructure(loop, ()))
    assert h == {0: 5, 1: 5, 2: 5}


def test_find_homomorphism_errors(a0):
    other = Structure(Signature({"F": 2}), [0], {"F": [(0, 0)]})
    with pytest.raises(SignatureError):
        find_homomorphism(OpenStructure(a0, (0,)), OpenStructure(other, (0,)))
    with pytest.raises(ArityError):
        find_homomorphism(OpenStructure(a0, (0,)), OpenStructure(a0, (0, 1)))


def test_homs_relation_outgoing_edges(a0):
    d = digraph([(7, 8), (8, 9)])
    assert homs_relation(a0, (0,), d) == frozenset({(7,), (8,)})


def test_homs_relation_common_source_pair(a0):
    d = digraph([(3, 4)])
    assert homs_relation(a0, (1, 2), d) == frozenset({(4, 4)})


def test_homs_relation_contains_identity_image(a0):
    assert (0, 1) in homs_relation(a0, (0, 1), a0)


def test_homs_relation_set_form(a0):
    d = digraph([(3, 4)])
    maps = homs_relation(a0, {1, 2}, d)
    assert maps == frozenset({((1, 4), (2, 4))})


def test_homs_relation_matches_enumeration_oracle(rng):
    for _ in range(60):
        sig = rand_signature(rng, max_relations=2, max_arity=2)
        src = rand_open_structure(rng, sig, max_domain=4, max_rows=3)
        data = rand_structure(rng, sig, max_domain=4, max_rows=4)
        got = homs_relation(src.structure, src.tuple, data)
        want = brute_homs_relation(src.structure, src.tuple, data)
        assert got == want


def test_chandra_merlin_equivalence(rng):
    """Hom existence coincides with containment of evaluations on every small
    database (checked over all digraphs with at most 3 vertices)."""
    all_d = []
    for n in range(0, 4):
        pairs = list(itertools.product(range(n), repeat=2))
        for bits in range(2 ** len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            used = {e for t in edges for e in t}
            if used != set(range(n)):
                continue
            all_d.append(digraph(edges) if edges else Structure(SIG_E, [], {}))
    checked_both_ways = 0
    attempts = 0
    while checked_both_ways < 15 and attempts < 200:
        attempts += 1
        a = rand_open_structure(rng, SIG_E, max_domain=3, max_rows=3)
        b = rand_open_structure(rng, SIG_E, max_domain=3, max_rows=3)
        if a.arity != b.arity:
            continue
        hom = find_homomorphism(b, a) is not None
        contained = all(
            homs_relation(a.structure, a.tuple, d) <= homs_relation(b.structure, b.tuple, d)
            for d in all_d
        )
        assert hom == contained
        checked_both_ways += 1
    assert checked_both_ways >= 15


def test_check_isomorphic_cases(a0):
    a1 = digraph([(0, 1)])
    a2 = digraph([(0, 2)])
    assert check_isomorphic(OpenStructure(a1, ()), OpenStructure(a2, ()))
    assert check_isomorphic(OpenStructure(a0, (0,)), OpenStructure(a0, (0,)))
    loop = digraph([(0, 0)])
    edge = digraph([(0, 1)])
    assert not check_isomorphic(OpenStructure(edge, ()), OpenStructure(loop, ()))


def test_check_isomorphic_respects_tuple():
    edge = digraph([(0, 1)])
    assert not check_isomorphic(OpenStructure(edge, (0,)), OpenStructure(edge, (1,)))


def test_core_of_fan_is_single_edge(a0):
    core = compute_core(OpenStructure(a0, ()))
    want = OpenStructure(digraph([(0, 1)]), ())
    assert check_isomorphic(core, want)


def test_core_idempotent_and_equivalent(rng):
    for _ in range(25):
        sig = rand_signature(rng, max_relations=2, max_arity=2)
        a = rand_open_structure(rng, sig, max_domain=4, max_rows=4)
        core = compute_core(a)
        again = compute_core(core)
        assert check_isomorphic(core, again)
        # homomorphic equivalence with the input
        assert find_homomorphism(a, core) is not None
        assert find_homomorphism(core, a) is not None


def test_core_admits_no_proper_retraction(rng):
    for _ in range(20):
        sig = rand_signature(rng, max_relations=2, max_arity=2)
        a = rand_open_structure(rng, sig, max_domain=3, max_rows=3)
        core = compute_core(a)
        assert not has_proper_retraction(core.augmented())


def test_core_cycle_with_pendant_path():
    # A 3-cycle with a 2-step tail retracts onto the cycle.
    g = digraph([(0, 1), (1, 2), (2, 0), (3, 4), (4, 0)])
    core = compute_core(OpenStructure(g, ()))
    assert check_isomorphic(core, OpenStructure(digraph([(0, 1), (1, 2), (2, 0)]), ()))


def test_core_preserves_output_tuple():
    g = digraph([(0, 1), (0, 2)])
    core = compute_core(OpenStructure(g, (0, 1)))
    assert core.tuple == (0, 1)


def test_hom_search_agrees_with_oracle_on_open_structures(rng):
    for _ in range(40):
        sig = rand_signature(rng, max_relations=2, max_arity=2)
        a = rand_open_structure(rng, sig, max_domain=3, max_rows=3)
        b = rand_open_structure(rng, sig, max_domain=3, max_rows=3)
        if a.arity != b.arity:
            continue
        assert (find_homomorphism(a, b) is not None) == brute_open_hom_exists(a, b)


def test_hypergraph_of_dedupes_edges():
    sig = Signature({"R": 2, "S": 2})
    s = Structure(sig, [0, 1, 3], {"R": [(0, 1)], "S": [(0, 3)]})
    h = hypergraph_of(OpenStructure(s, (0, 1, 0)))
    assert h.edges == frozenset({frozenset({0, 1}), frozenset({0, 3})})


def test_hypergraph_of_degenerate():
    h = hypergraph_of(OpenStructure(Structure(SIG_E, [], {}), ()))
    assert h.vertices == frozenset()
    assert h.edges == frozenset({frozenset()})


def test_hypergraph_of_triangle_with_tuple_edge():
    tri = digraph([(0, 1), (1, 2), (2, 0)])
    h = hypergraph_of(OpenStructure(tri, (0, 1, 2)))
    assert frozenset({0, 1, 2}) in h.edges
    assert len(h.edges) == 4


def test_homs_with_brute_on_all_maps_small(rng):
    """The search engine equals filtering all |dom(D)|^|dom(A)| maps."""
    for _ in range(30):
        sig = rand_signature(rng, max_relations=2, max_arity=3)
        a = rand_structure(rng, sig, max_domain=3, max_rows=3)
        d = rand_structure(rng, sig, max_domain=3, max_rows=4)
        got = homs_relation(a, tuple(a.universe), d)
        want = brute_homs_relation(a, tuple(a.universe), d)
        assert got == want


def test_hom_search_matches_recursive_oracle(rng):
    """first(), first(injective=True) and homs_relation return exactly what
    the recursive copy-per-level search returns."""
    found = 0
    for _ in range(300):
        sig = rand_signature(rng, max_relations=2, max_arity=3)
        a = rand_open_structure(rng, sig, max_domain=6, max_rows=6)
        b = rand_open_structure(rng, sig, max_domain=5, max_rows=8)
        pinned = {}
        for x, y in zip(a.tuple, b.tuple):
            pinned.setdefault(x, y)
        for src, dst, pins in (
            (a.structure, b.structure, pinned),
            (a.structure, a.structure, {}),
            (b.structure, b.structure, {}),
        ):
            ours = _HomSearch(src, dst, pins)
            oracle = RecursiveHomSearch(src, dst, pins)
            got = ours.first()
            assert got == oracle.first()
            assert ours.first(injective=True) == oracle.first(injective=True)
            found += got is not None
        outs = a.tuple
        assert homs_relation(a.structure, outs, b.structure) == recursive_homs_relation(
            a.structure, outs, b.structure
        )
        universe = tuple(a.structure.universe)
        assert homs_relation(a.structure, universe, a.structure) == recursive_homs_relation(
            a.structure, universe, a.structure
        )
    assert found >= 300


def test_find_homomorphism_deep_under_default_recursion_limit():
    """Sources with more universe elements than the default recursion limit
    (1,000) are searched without a RecursionError."""
    n = 1600
    path = digraph([(i, i + 1) for i in range(n)])
    h = find_homomorphism(OpenStructure(path, (0,)), OpenStructure(path, (0,)))
    assert h == {i: i for i in range(n + 1)}
    assert check_isomorphic(OpenStructure(path, (0,)), OpenStructure(path, (0,)))
    # Two 800-edge paths from one source; key E 1 collapses them into one.
    m = 800
    fan = OpenStructure(
        digraph([(0, 1)] + [(i, i + 1) for i in range(1, m)]
                + [(0, m + 1)] + [(m + i, m + i + 1) for i in range(1, m)]),
        (0,),
    )
    chased = chase(fan, KeySet.unary({"E": 1}))
    assert chased.result.structure == digraph([(i, i + 1) for i in range(m)])
    assert chased.result.structure.names == {i: f"v{i}" for i in range(m + 1)}
    assert find_homomorphism(fan, chased.result) == chased.merge_map
    assert find_homomorphism(chased.result, fan) == {i: i for i in range(m + 1)}


def _smallest_idempotent_power(h):
    f = dict(h)
    while any(f[f[x]] != f[x] for x in f):
        f = {x: h[f[x]] for x in f}
    return f


def test_idempotent_power_with_large_cycle_lcm():
    """Cycles of length 5, 7, 8, 9 and 11 (lcm 27,720) plus one tail
    element: the power is h^27720."""
    h = {}
    start = 0
    for length in (5, 7, 8, 9, 11):
        for i in range(length):
            h[start + i] = start + (i + 1) % length
        start += length
    h[start] = 0
    assert len(h) == 41
    f = _idempotent_power(h)
    assert all(f[f[x]] == f[x] for x in f)
    slow = {x: x for x in h}
    for _ in range(27720):
        slow = {x: h[slow[x]] for x in slow}
    assert f == slow
    assert f[40] == (27720 - 1) % 5 and all(f[x] == x for x in range(40))


def test_idempotent_power_is_smallest(rng):
    for _ in range(200):
        n = rng.randint(1, 9)
        h = {x: rng.randrange(n) for x in range(n)}
        assert _idempotent_power(h) == _smallest_idempotent_power(h)
