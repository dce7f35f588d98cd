"""Relational core: homomorphisms, cores, hypergraphs."""

import itertools
import random

import pytest

from spjopt import (
    ArityError,
    Hypergraph,
    KeySet,
    OpenStructure,
    Signature,
    SignatureError,
    Structure,
    build_representation,
    chase,
    compute_core,
    find_homomorphism,
    homs_relation,
    hypergraph_of,
    prepare,
)
from spjopt import structures
from spjopt.serialize import named_rows, structure_to_json
from spjopt.structures import (
    _certified_core,
    _HomSearch,
    _noninjective_endomorphism,
    _periodic_points,
)

from conftest import (
    mobius_ladder,
    pattern_plan,
    rand_keys,
    rand_open_structure,
    rand_plan,
    rand_signature,
    rand_structure,
    squared_cycle,
)
from oracles import (
    RecursiveHomSearch,
    UNCAPPED,
    augmented_core,
    brute_homs,
    brute_homs_relation,
    brute_isomorphic,
    brute_open_hom_exists,
    check_isomorphic,
    has_proper_retraction,
    pair_noninjective_endomorphism,
    recursive_homs_relation,
    smallest_idempotent_power,
)

SIG_E = Signature({"E": 2})
CORE_CAP = UNCAPPED.core_universe


def digraph(edges, names=None):
    elems = sorted({e for t in edges for e in t})
    return Structure(SIG_E, elems, {"E": edges}, names)


@pytest.fixture
def a0():
    # Two edges out of a common source.
    return digraph([(0, 1), (0, 2)], {0: "u", 1: "v1", 2: "v2"})


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


def test_values_compare_and_hash_by_content():
    """Structures that differ only in names, or in how they were built,
    are equal and hash alike, whatever the column index holds; so do equal
    open structures, key sets and signatures.  Named rows equal their list
    of name lists and are unhashable."""
    sig = Signature({"E": 2, "Z": 0})
    struct = Structure(sig, [0, 1], {"E": [(0, 1)], "Z": [()]}, {0: "a", 1: "b"})
    renamed = Structure(Signature({"Z": 0, "E": 2}), [1, 0], {"E": [[0, 1]], "Z": [()]})
    assert struct.tuples_with("E", 0, 0) == ((0, 1),)
    assert struct == renamed and hash(struct) == hash(renamed) and struct.names != renamed.names
    assert struct != Structure(sig, [0, 1], {"E": [(0, 1)]}) != Structure(sig, [0, 1, 2], {"E": [(0, 1)]})
    opened, twin = OpenStructure(struct, (1, 0)), OpenStructure(renamed, [1, 0])
    assert opened == twin and hash(opened) == hash(twin) and opened != OpenStructure(struct, (0, 1))
    keys, same = KeySet([("E", 1), ("E", 2)]), KeySet([("E", 2), ("E", 1), ("E", 1)])
    assert keys == same and hash(keys) == hash(same) and keys.keys == {("E", 1), ("E", 2)}
    assert keys != KeySet([("E", 1)]) and KeySet.empty() == KeySet()
    assert sig == Signature({"Z": 0, "E": 2}) and hash(sig) == hash(Signature({"Z": 0, "E": 2}))
    rows = named_rows({(1, 0), (0, 1)}, struct.names)
    assert rows == [["a", "b"], ["b", "a"]] == rows and rows != [["a", "b"]]
    with pytest.raises(TypeError, match="unhashable"):
        hash(rows)


def test_open_structure_rejects_isolated_elements(a0):
    with_isolated = Structure(SIG_E, [0, 1, 2, 9], {"E": [(0, 1), (0, 2)]})
    with pytest.raises(SignatureError):
        OpenStructure(with_isolated, (0,))
    # The degenerate all-empty open structure is admitted.
    empty = OpenStructure(Structure(SIG_E, [], {}), ())
    assert empty.arity == 0


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


def test_a_nullary_fact_maps_only_onto_that_fact():
    """A source fact of an arity-0 relation has an image only where the
    target holds that fact: without it no homomorphism exists, however well
    the other relations match, and with it the identity is one."""
    sig = Signature({"E": 2, "Z": 0})
    with_fact = Structure(sig, [0, 1], {"E": [(0, 1)], "Z": [()]})
    without = Structure(sig, [0, 1], {"E": [(0, 1)]})
    assert find_homomorphism(OpenStructure(with_fact, (0,)), OpenStructure(without, (0,))) is None
    assert homs_relation(with_fact, (0, 1), without) == frozenset()
    assert find_homomorphism(OpenStructure(without, (0,)), OpenStructure(with_fact, (0,))) == {0: 0, 1: 1}
    assert homs_relation(with_fact, (0, 1), with_fact) == frozenset({(0, 1)})


def test_homs_relation_outgoing_edges(a0):
    d = digraph([(7, 8), (8, 9)])
    assert homs_relation(a0, (0,), d) == frozenset({(7,), (8,)})


def test_homs_relation_common_source_pair(a0):
    d = digraph([(3, 4)])
    assert homs_relation(a0, (1, 2), d) == frozenset({(4, 4)})


def test_homs_relation_contains_identity_image(a0):
    assert (0, 1) in homs_relation(a0, (0, 1), a0)


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


def _relabeled(rng, value):
    """``value`` under a random injective renaming of its elements."""
    s = value.structure
    ids = rng.sample(range(2 * len(s.universe) + 1), len(s.universe))
    h = dict(zip(s.universe, ids))
    rows = {name: [tuple(h[e] for e in t) for t in rel] for name, rel in s.relations.items()}
    return OpenStructure(Structure(s.signature, ids, rows), tuple(h[e] for e in value.tuple))


def _moved_tuple(rng, value):
    """``value`` with one entry of one tuple moved to another element, or
    None when that changes a relation's size or isolates an element."""
    s = value.structure
    name = rng.choice([n for n in s.signature if s.relations[n] and s.signature.arity(n)])
    old = rng.choice(sorted(s.relations[name]))
    pos = rng.randrange(len(old))
    new = old[:pos] + (rng.choice(s.universe),) + old[pos + 1:]
    rows = dict(s.relations)
    rows[name] = (s.relations[name] - {old}) | {new}
    moved = Structure(s.signature, s.universe, rows)
    if new in s.relations[name] or moved.isolated_elements():
        return None
    return OpenStructure(moved, value.tuple)


def test_check_isomorphic_matches_permutation_oracle(rng):
    """The oracle's injective-homomorphism test agrees with trying every
    bijection, on renamed copies and on copies with one tuple moved."""
    verdicts = {True: 0, False: 0}
    draws = 0
    while min(verdicts.values()) < 150 and draws < 2000:
        draws += 1
        sig = rand_signature(rng, max_relations=2, max_arity=2)
        a = rand_open_structure(rng, sig, max_domain=5, max_rows=5)
        if not a.structure.total_tuple_count():
            continue
        b = _relabeled(rng, a)
        if rng.random() < 0.7:
            b = _moved_tuple(rng, b)
            if b is None:
                continue
        want = brute_isomorphic(a, b)
        assert check_isomorphic(a, b) == want
        verdicts[want] += 1
    assert min(verdicts.values()) >= 150, (verdicts, draws)


def test_core_of_fan_is_single_edge(a0):
    core = compute_core(OpenStructure(a0, ()), CORE_CAP)
    want = OpenStructure(digraph([(0, 1)]), ())
    assert check_isomorphic(core, want)


def test_core_idempotent_and_equivalent(rng):
    for _ in range(25):
        sig = rand_signature(rng, max_relations=2, max_arity=2)
        a = rand_open_structure(rng, sig, max_domain=4, max_rows=4)
        core = compute_core(a, CORE_CAP)
        again = compute_core(core, CORE_CAP)
        assert check_isomorphic(core, again)
        # homomorphic equivalence with the input
        assert find_homomorphism(a, core) is not None
        assert find_homomorphism(core, a) is not None


def test_core_admits_no_proper_retraction(rng):
    for _ in range(20):
        sig = rand_signature(rng, max_relations=2, max_arity=2)
        a = rand_open_structure(rng, sig, max_domain=3, max_rows=3)
        core = compute_core(a, CORE_CAP)
        assert not has_proper_retraction(core)


def test_core_cycle_with_pendant_path():
    # A 3-cycle with a 2-step tail retracts onto the cycle.
    g = digraph([(0, 1), (1, 2), (2, 0), (3, 4), (4, 0)])
    core = compute_core(OpenStructure(g, ()), CORE_CAP)
    assert check_isomorphic(core, OpenStructure(digraph([(0, 1), (1, 2), (2, 0)]), ()))


def test_core_preserves_output_tuple():
    g = digraph([(0, 1), (0, 2)])
    core = compute_core(OpenStructure(g, (0, 1)), CORE_CAP)
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
    """first() and homs_relation return exactly what the recursive
    copy-per-level search returns."""
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
    # Two 800-edge paths from one source; key E 1 collapses them into one.
    m = 800
    fan = OpenStructure(
        digraph([(0, 1)] + [(i, i + 1) for i in range(1, m)]
                + [(0, m + 1)] + [(m + i, m + i + 1) for i in range(1, m)]),
        (0,),
    )
    chased = chase(fan, KeySet({"E": 1}.items()))
    assert chased.result.structure == digraph([(i, i + 1) for i in range(m)])
    assert chased.result.structure.names == {i: f"v{i}" for i in range(m + 1)}
    assert find_homomorphism(fan, chased.result) == chased.merge_map
    assert find_homomorphism(chased.result, fan) == {i: i for i in range(m + 1)}


def test_periodic_points_with_large_cycle_lcm():
    """Cycles of length 5, 7, 8, 9 and 11 (lcm 27,720) plus one tail
    element: the cycles are kept, and they are the image of h^27720."""
    h = {}
    start = 0
    for length in (5, 7, 8, 9, 11):
        for i in range(length):
            h[start + i] = start + (i + 1) % length
        start += length
    h[start] = 0
    assert len(h) == 41
    assert _periodic_points(h) == set(range(40))
    assert _periodic_points(h) == set(smallest_idempotent_power(h).values())


def test_periodic_points_are_the_idempotent_image(rng):
    for _ in range(200):
        n = rng.randint(1, 9)
        h = {x: rng.randrange(n) for x in range(n)}
        assert _periodic_points(h) == set(smallest_idempotent_power(h).values())


def _core_inputs(rng):
    """Open structures, some with a nullary relation, and chased plan
    representations, keyed and unkeyed."""
    for _ in range(150):
        sig = rand_signature(rng, max_relations=2, max_arity=3)
        if rng.random() < 0.3:
            sig = sig.extend({"Z": 0})
        a = rand_open_structure(rng, sig, max_domain=5, max_rows=5)
        yield a
        yield chase(a, rand_keys(rng, sig)).result
    for _ in range(80):
        sig = rand_signature(rng, max_relations=2, max_arity=3)
        rep, _ = build_representation(prepare(rand_plan(rng, sig, max_operators=5), sig))
        for keys in (KeySet.empty(), rand_keys(rng, sig)):
            chased = chase(rep.open, keys).result
            if len(chased.structure.universe) <= 12:
                yield chased


def test_core_matches_augmented_reference(rng):
    """The pinned core equals, byte for byte, the core of the structure that
    carries the tuple as an extra relation."""
    seen = {"inputs": 0, "empty tuple": 0, "repeated entry": 0, "nullary": 0}
    for a in _core_inputs(rng):
        assert structure_to_json(compute_core(a, CORE_CAP)) == structure_to_json(augmented_core(a))
        seen["inputs"] += 1
        seen["empty tuple"] += not a.tuple
        seen["repeated entry"] += len(set(a.tuple)) < len(a.tuple)
        seen["nullary"] += any(a.structure.signature.arity(n) == 0 for n in a.structure.signature)
    assert seen["inputs"] >= 300 and min(seen.values()) > 0, seen


def _pattern_cores():
    """The chased representations of the width workload's patterns, with
    the first edge as output: Mobius ladders on 10 to 16 vertices and
    squared cycles on 12 to 16, all cores."""
    for edges in [mobius_ladder(n) for n in (10, 12, 14, 16)] + [
        squared_cycle(n) for n in (12, 14, 16)
    ]:
        rep, _ = build_representation(prepare(pattern_plan(edges, (0, 1)), SIG_E))
        yield chase(rep.open, KeySet.empty()).result


def test_core_certificate_agrees_with_the_pair_search(rng):
    """The certificate proves a core exactly when the pair search alone
    finds no non-injective endomorphism, and the search with the
    certificate returns the pair search's witness, on random open
    structures (cores and non-cores) and on the width patterns."""
    verdicts = {True: 0, False: 0}
    for a in itertools.chain(_core_inputs(rng), _pattern_cores()):
        expected = pair_noninjective_endomorphism(a)
        assert _certified_core(a) == (expected is None)
        assert _noninjective_endomorphism(a) == expected
        verdicts[expected is None] += 1
    assert verdicts[True] >= 300 and verdicts[False] >= 50, verdicts


def test_core_proof_searches_once_per_element(monkeypatch):
    """The core of the 16-vertex Mobius ladder's chased representation is
    proved with one homomorphism search per element outside the tuple: 14,
    where the pair search alone makes 119."""
    searches = []

    class Counting(_HomSearch):
        def __init__(self, *args):
            searches.append(args)
            super().__init__(*args)

    rep, _ = build_representation(prepare(pattern_plan(mobius_ladder(16), (0, 1)), SIG_E))
    chased = chase(rep.open, KeySet.empty()).result
    monkeypatch.setattr(structures, "_HomSearch", Counting)
    assert compute_core(chased, CORE_CAP) == chased
    assert len(searches) <= 14


def test_public_constructors_and_homs_relation_refuse_bad_input():
    """The input checks of ``Signature``, ``Signature.extend``,
    ``OpenStructure``, ``Hypergraph`` and ``homs_relation``, each reached
    through the public API, raise ``SignatureError`` with their message."""
    sig = Signature({"E": 2})
    struct = Structure(sig, [0, 1], {"E": [(0, 1)]})
    other = Structure(Signature({"F": 2}), [0, 1], {"F": [(0, 1)]})
    cases = [
        (lambda: Signature({"": 1}), "relation name must be a nonempty string, got ''"),
        (lambda: sig.extend({"E": 3}), "conflicting arity for 'E'"),
        (lambda: OpenStructure(struct, (0, 2)), "output tuple entry 2 not in universe"),
        (lambda: Hypergraph(frozenset({0, 1}), frozenset({frozenset({1, 2})})),
         r"edge \[1, 2\] not within vertex set"),
        (lambda: homs_relation(struct, (0,), other), "source and data must be similar"),
        (lambda: homs_relation(struct, (0, 5), struct), "output element 5 not in source universe"),
    ]
    for build, message in cases:
        with pytest.raises(SignatureError, match=f"^{message}$"):
            build()
