"""Keys and the chase: satisfaction, confluence, idempotence, semantics."""

import random

import pytest

from spjopt import (
    KeyConstraintError,
    KeySet,
    OpenStructure,
    Signature,
    Structure,
    chase,
    check_isomorphic,
    homs_relation,
    satisfies_keys,
)

from conftest import rand_keys, rand_open_structure, rand_signature, rand_structure
from oracles import random_chase, stepwise_chase

SIG_R = Signature({"R": 2})
KEY_R1 = KeySet.unary({"R": 1})


def test_keyset_validation():
    with pytest.raises(KeyConstraintError):
        KeySet([("R", ())])
    with pytest.raises(KeyConstraintError):
        KeySet([("R", (0,))])
    ks = KeySet([("R", (1, 2)), ("S", (1,))])
    assert not ks.is_unary
    assert KEY_R1.is_unary
    with pytest.raises(KeyConstraintError):
        KEY_R1.validate_for(Signature({"S": 1}))
    with pytest.raises(KeyConstraintError):
        KeySet.unary({"R": 3}).validate_for(SIG_R)


def test_satisfies_keys_basic():
    bad = Structure(SIG_R, [0, 1, 2], {"R": [(0, 1), (0, 2)]})
    good = Structure(SIG_R, [0, 1, 2], {"R": [(0, 1), (2, 1)]})
    assert not satisfies_keys(bad, KEY_R1)
    assert satisfies_keys(good, KEY_R1)
    assert satisfies_keys(Structure(SIG_R, [], {}), KEY_R1)


def test_satisfies_non_unary_key():
    sig = Signature({"R": 3})
    ks = KeySet([("R", (1, 2))])
    ok = Structure(sig, [0, 1, 2], {"R": [(0, 1, 2), (0, 2, 1)]})
    bad = Structure(sig, [0, 1, 2], {"R": [(0, 1, 2), (0, 1, 1)]})
    assert satisfies_keys(ok, ks)
    assert not satisfies_keys(bad, ks)


def test_chase_merges_dependents():
    s = Structure(SIG_R, [0, 1, 2], {"R": [(0, 1), (0, 2)]}, {0: "a", 1: "b", 2: "c"})
    res = chase(OpenStructure(s, (1,)), KEY_R1)
    assert res.result.tuple == (1,)
    assert res.result.structure.relations["R"] == frozenset({(0, 1)})
    assert res.merge_map == {0: 0, 1: 1, 2: 1}
    assert satisfies_keys(res.result.structure, KEY_R1)


def test_chase_fixpoint_is_identity():
    s = Structure(SIG_R, [0, 1], {"R": [(0, 1)]})
    res = chase(OpenStructure(s, (0,)), KEY_R1)
    assert not res.changed
    assert res.result.structure == s


def test_chase_two_rounds():
    sig = Signature({"R": 2, "S": 2})
    ks = KeySet.unary({"R": 1, "S": 1})
    s = Structure(sig, range(5), {"R": [(0, 1), (0, 2)], "S": [(1, 3), (2, 4)]})
    res = chase(OpenStructure(s, ()), ks)
    out = res.result.structure
    assert len(out.universe) == 3
    assert len(out.relations["R"]) == 1 and len(out.relations["S"]) == 1
    assert satisfies_keys(out, ks)


def test_chase_accepts_plain_structures():
    s = Structure(SIG_R, [0, 1, 2], {"R": [(0, 1), (0, 2)]})
    res = chase(s, KEY_R1)
    assert isinstance(res.result, Structure)
    assert satisfies_keys(res.result, KEY_R1)


def test_chase_with_non_unary_keys():
    sig = Signature({"R": 3})
    ks = KeySet([("R", (1, 2))])
    s = Structure(sig, range(4), {"R": [(0, 1, 2), (0, 1, 3)]})
    res = chase(s, ks)
    assert satisfies_keys(res.result, ks)
    assert len(res.result.universe) == 3


def test_chase_satisfies_keys_randomized(rng):
    for _ in range(60):
        sig = rand_signature(rng)
        keys = rand_keys(rng, sig)
        s = rand_structure(rng, sig, max_domain=6, max_rows=6)
        res = chase(s, keys)
        assert satisfies_keys(res.result, keys)
        # merge map is idempotent and lands in the result universe
        out_universe = set(res.result.universe)
        for src, dst in res.merge_map.items():
            assert res.merge_map[dst] == dst
            assert dst in out_universe


def test_chase_confluence_random_orders(rng):
    for trial in range(30):
        sig = rand_signature(rng)
        keys = rand_keys(rng, sig)
        open_s = rand_open_structure(rng, sig, max_domain=6, max_rows=6)
        ours = chase(open_s, keys).result
        for seed in range(5):
            other = random_chase(open_s, keys, random.Random(1000 * trial + seed))
            assert check_isomorphic(ours, other)


def test_chase_idempotence(rng):
    for _ in range(30):
        sig = rand_signature(rng)
        keys = rand_keys(rng, sig)
        open_s = rand_open_structure(rng, sig, max_domain=6, max_rows=6)
        first = chase(open_s, keys)
        second = chase(first.result, keys)
        assert not second.changed
        assert second.result == first.result


def test_chase_preserves_semantics_on_satisfying_data(rng):
    """On key-satisfying data, the chased structure evaluates identically."""
    checked = 0
    for _ in range(40):
        sig = rand_signature(rng, max_relations=2, max_arity=2)
        keys = rand_keys(rng, sig, prob=0.8)
        open_s = rand_open_structure(rng, sig, max_domain=4, max_rows=4)
        chased = chase(open_s, keys).result
        for _ in range(3):
            data = chase(rand_structure(rng, sig, max_domain=4, max_rows=5), keys).result
            before = homs_relation(open_s.structure, open_s.tuple, data)
            after = homs_relation(chased.structure, chased.tuple, data)
            assert before == after
            checked += 1
    assert checked > 50


def rand_multi_keys(rng, signature):
    """Random keys of one or two positions, sometimes two per relation."""
    keys = []
    for name in signature.symbols():
        ar = signature.arity(name)
        for _ in range(rng.randint(0, 2)):
            size = rng.randint(1, min(2, ar))
            keys.append((name, rng.sample(range(1, ar + 1), size)))
    return KeySet(keys)


def test_chase_matches_stepwise_oracle(rng):
    """Same merge map (in order), structure and names as merging one
    violation at a time, with unary and two-position keys."""
    merged = 0
    for trial in range(300):
        sig = rand_signature(rng, max_relations=3, max_arity=3)
        keys = rand_keys(rng, sig, prob=0.7) if trial % 2 else rand_multi_keys(rng, sig)
        if trial % 3:
            value = rand_open_structure(rng, sig, max_domain=7, max_rows=8)
        else:
            value = rand_structure(rng, sig, max_domain=7, max_rows=8)
        res = chase(value, keys)
        want, want_map = stepwise_chase(value, keys)
        assert list(res.merge_map.items()) == list(want_map.items())
        assert res.result == want
        got_s = res.result.structure if isinstance(value, OpenStructure) else res.result
        want_s = want.structure if isinstance(value, OpenStructure) else want
        assert got_s.names == want_s.names
        merged += res.changed
    assert merged >= 100
