"""File formats and the command-line front end."""

import argparse
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from spjopt import (
    KeySet,
    OpenStructure,
    Signature,
    Structure,
    homs_relation,
    is_well_behaved,
    parse_plan,
    print_plan,
)
from spjopt import cli, plans, represent, serialize, synthesis
from spjopt.cli import main
from spjopt.errors import FormatError
from spjopt.plans import JOIN_STEP_CELLS_CAP, PRINTED_SUBPLANS_CAP
from spjopt.represent import REPRESENTATION_ELEMENTS_CAP
from spjopt.serialize import (
    keys_from_text,
    plan_file_from_text,
    structure_from_json,
    structure_to_json,
)

from conftest import count_parses, mobius_ladder, pattern_plan, squared_cycle
from oracles import keys_to_text

SIG = Signature({"E": 2})

TRI_PLAN = """\
rel E 2
(project (cols 1 2 4)
  (join (theta (2 3) (4 5) (6 1)) E E E))
"""

DATA = {
    "signature": {"E": 2},
    "universe": ["a", "b", "c", "d"],
    "relations": {"E": [["a", "b"], ["b", "c"], ["c", "a"], ["a", "d"]]},
}


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "tri.plan").write_text(TRI_PLAN)
    (tmp_path / "empty.keys").write_text("")
    (tmp_path / "r1.keys").write_text("# comment\nkey E 1\n")
    (tmp_path / "d.json").write_text(json.dumps(DATA))
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Formats
# ---------------------------------------------------------------------------


def test_structure_json_roundtrip():
    open_s = OpenStructure(
        Structure(SIG, [0, 1], {"E": [(0, 1)]}, {0: "a", 1: "b"}), (0, 1)
    )
    doc = structure_to_json(open_s)
    assert doc["tuple"] == ["a", "b"]
    back = structure_from_json(doc)
    assert back == open_s
    closed = structure_from_json({k: v for k, v in doc.items() if k != "tuple"})
    assert isinstance(closed, Structure)


def test_structure_json_rejects_garbage():
    with pytest.raises(FormatError):
        structure_from_json({"universe": []})
    with pytest.raises(FormatError):
        structure_from_json({"signature": {"E": 2}, "universe": ["a", "a"], "relations": {}})
    with pytest.raises(FormatError):
        structure_from_json(
            {"signature": {"E": 2}, "universe": ["a"], "relations": {"E": [["a", "zzz"]]}}
        )
    with pytest.raises(FormatError):
        structure_from_json(
            {"signature": {"E": 2}, "universe": ["a"], "relations": {"F": []}}
        )


def test_named_rows_match_sorted_name_rows(rng):
    """Naming rows after sorting their ids gives the rows of sorting the
    name lists, on loaded structures whose names sort differently as
    strings and as numbers ("10" before "9")."""
    pool = [str(i) for i in range(40)] + ["a", "B", "x_1", "x_10", "x_9", "é"]
    for _ in range(200):
        universe = rng.sample(pool, rng.randint(1, 25))
        rows = [[rng.choice(universe) for _ in range(3)] for _ in range(rng.randint(0, 30))]
        data = structure_from_json({"signature": {"R": 3}, "universe": universe, "relations": {"R": rows}})
        ids = data.relations["R"]
        assert serialize.named_rows(ids, data.names) == sorted([data.names[e] for e in row] for row in ids)
    assert serialize.named_rows({(1,), (0,)}, {0: "10", 1: "9"}) == [["10"], ["9"]]


def test_keys_file_roundtrip():
    ks = keys_from_text("key E 1\n# note\n\nkey R 2\n")
    assert ks == KeySet.unary({"E": 1, "R": 2})
    assert keys_from_text(keys_to_text(ks)) == ks
    with pytest.raises(FormatError):
        keys_from_text("key E\n")
    with pytest.raises(FormatError):
        keys_from_text("key E one\n")


def test_plan_file_header():
    sig, body = plan_file_from_text(TRI_PLAN)
    assert sig == Signature({"E": 2})
    parse_plan(body, sig)
    none_sig, body2 = plan_file_from_text("(project (cols) R)")
    assert none_sig is None
    with pytest.raises(FormatError):
        plan_file_from_text("rel E two\n(project (cols) E)")


# Names with the characters JSON escapes: quotes, backslashes, control
# characters and non-ASCII, astral ones included.
_JSON_NAMES = st.one_of(
    st.text(max_size=4), st.text(st.sampled_from('a"\\\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600'), max_size=4)
)
_JSON_SCALARS = st.one_of(_JSON_NAMES, st.integers(), st.booleans(), st.none())
# Lists of equal-length rows of strings, of ints, or of both.
_JSON_ROWS = st.tuples(
    st.integers(0, 3), st.sampled_from([_JSON_NAMES, st.integers(), _JSON_NAMES | st.integers(-5, 5)])
).flatmap(lambda row: st.lists(st.lists(row[1], min_size=row[0], max_size=row[0]), max_size=5))
_JSON_DOCS = st.recursive(
    _JSON_SCALARS | _JSON_ROWS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_JSON_NAMES, kids, max_size=4),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(_JSON_DOCS)
def test_writer_matches_the_stdlib_hypothesis(doc):
    assert serialize.dumps(doc) == json.dumps(doc, indent=2) + "\n"


def test_writer_leaves_other_values_to_the_stdlib():
    """Any other type, and a cycle, take the stdlib's path: its bytes and
    its errors."""
    for doc in ({"a": 1.5, "b": (1, "x")}, {1: [None]}, {"a": [float("nan")]}):
        assert serialize.dumps(doc) == json.dumps(doc, indent=2) + "\n"
    cycle: list = []
    cycle.append(cycle)
    for doc in ({"a": cycle}, {"a": [["x"], {1, 2}]}, {("k",): 1}, {"a": 10 ** 5000}):
        with pytest.raises((ValueError, TypeError)) as stdlib:
            json.dumps(doc, indent=2)
        with pytest.raises(stdlib.type, match=re.escape(str(stdlib.value))):
            serialize.dumps(doc)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def test_cli_optimize_triangle(workdir, capsys):
    code, out, err = run(
        capsys, "optimize", "--plan", workdir / "tri.plan", "--keys", workdir / "empty.keys"
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["degree"] == "3/2"
    assert doc["newRelations"] == []
    assert "plan" in doc and doc["plan"].startswith("(")


def test_cli_optimize_text_format(workdir, capsys):
    code, out, _ = run(
        capsys, "optimize", "--plan", workdir / "tri.plan", "--format", "text"
    )
    assert code == 0
    parse_plan(out.strip(), SIG)


def test_cli_check_and_degree(workdir, capsys, monkeypatch):
    code, out, _ = run(capsys, "check", "--plan", workdir / "tri.plan")
    assert code == 0
    assert json.loads(out)["wellBehaved"] is True
    real, folds = cli.subplan_degrees, []
    monkeypatch.setattr(cli, "subplan_degrees", lambda *args: folds.append(args) or real(*args))
    code, out, _ = run(capsys, "degree", "--plan", workdir / "tri.plan")
    assert code == 0
    doc = json.loads(out)
    assert doc["outputDegree"] == "3/2"
    assert doc["intermediateDegreeBound"] == "3/2"
    assert len(folds) == 1  # both degrees come from one fold


def test_cli_evaluate(workdir, capsys):
    code, out, _ = run(
        capsys, "evaluate", "--plan", workdir / "tri.plan", "--data", workdir / "d.json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["cardinality"] == 3  # the rotations of the a,b,c triangle
    assert doc["evaluator"] == "well-behaved"
    code, out, _ = run(
        capsys,
        "evaluate", "--plan", workdir / "tri.plan", "--data", workdir / "d.json", "--trace",
    )
    doc = json.loads(out)
    assert any(entry["plan"] == "E" for entry in doc["subplans"])
    assert doc["maxIntermediate"] >= 3
    (workdir / "cross.plan").write_text("rel E 2\n(join (theta) E E)\n")
    code, out, _ = run(
        capsys, "evaluate", "--plan", workdir / "cross.plan", "--data", workdir / "d.json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["evaluator"] == "naive"
    assert doc["cardinality"] == 16


def test_cli_evaluate_numbers_once_and_builds_no_occurrence_trace(workdir, capsys, monkeypatch):
    """A plain evaluate numbers its plan once, as the parser reads it:
    ``number_subplans`` is never called, whether or not the plan is
    well-behaved, and the evaluator runs once.  Only --trace and --format
    text build the per-occurrence entries."""
    traces = []
    numberings = _count_numberings(monkeypatch)
    evaluate = cli.evaluate_well_behaved

    def counted(*args):
        traces.append(evaluate(*args))
        return traces[-1]

    monkeypatch.setattr(cli, "evaluate_well_behaved", counted)
    argv = ("evaluate", "--plan", workdir / "tri.plan", "--data", workdir / "d.json")
    assert run(capsys, *argv)[0] == 0
    assert numberings == []
    assert "entries" not in traces[-1].__dict__
    for extra in (("--trace",), ("--format", "text")):
        assert run(capsys, *argv, *extra)[0] == 0
        assert "entries" in traces[-1].__dict__
    (workdir / "cross.plan").write_text("rel E 2\n(project (cols 4 3 2 1) (join (theta) E E))\n")
    traces.clear()
    code, out, _ = run(capsys, "evaluate", "--plan", workdir / "cross.plan", "--data", workdir / "d.json")
    assert (code, json.loads(out)["evaluator"]) == (0, "naive")
    assert len(traces) == 1 and numberings == []


def _count_numberings(monkeypatch) -> list:
    """Patch every binding of ``number_subplans`` in the library; returns
    the list the patched function appends each numbered plan to."""
    numbered, number = [], plans.number_subplans
    for module in (plans, represent, synthesis, cli):
        if getattr(module, "number_subplans", None) is number:
            monkeypatch.setattr(module, "number_subplans", lambda plan: numbered.append(plan) or number(plan))
    return numbered


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_cli_optimize_numbers_the_synthesized_plan_once(workdir, capsys, monkeypatch, fmt):
    """One optimize op numbers its synthesized plan once: the well-behavedness
    check, the verification's representation and the printed plan share
    that numbering."""
    numbered = _count_numberings(monkeypatch)
    results, optimize = [], cli.optimize
    monkeypatch.setattr(cli, "optimize", lambda *args: results.append(optimize(*args)) or results[-1])
    cycle = workdir / "cycle6.plan"
    cycle.write_text("rel E 2\n" + print_plan(pattern_plan([(i, (i + 1) % 6) for i in range(6)], (0,))) + "\n")
    code, out, err = run(capsys, "optimize", "--plan", cycle, "--keys", workdir / "r1.keys", "--format", fmt)
    assert (code, err) == (0, "")
    (result,) = results
    assert sum(plan is result.plan for plan in numbered) == 1
    assert print_plan(result.plan) in out


def test_cli_check_numbers_its_plan_once(workdir, capsys, monkeypatch):
    """check reads arity, operator count and well-behavedness off one
    numbering of its plan."""
    numbered = _count_numberings(monkeypatch)
    code, out, err = run(capsys, "check", "--plan", workdir / "tri.plan")
    assert (code, err) == (0, "")
    assert numbered == []  # the parser's numbering
    assert json.loads(out)["operators"] == 2


def test_cli_equiv_numbers_no_plan_again(workdir, capsys, monkeypatch):
    """equiv builds both representations on the parser's numberings."""
    numbered = _count_numberings(monkeypatch)
    other = workdir / "tri2.plan"
    other.write_text("rel E 2\n(project (cols 1 2 4) (join (theta (4 5) (6 1)) (join (theta (2 3)) E E) E))\n")
    code, out, err = run(capsys, "equiv", "--plan", workdir / "tri.plan", "--plan2", other)
    assert (code, err) == (0, "")
    assert json.loads(out)["equivalent"] is True
    assert numbered == []


def test_cli_prepares_a_plan_file_once(workdir, capsys, monkeypatch):
    """Repeated ops on one plan file and signature parse it once, get the
    same prepared plan and print the same bytes as the first."""
    parsed = count_parses(monkeypatch)
    argv = ("evaluate", "--plan", workdir / "tri.plan", "--data", workdir / "d.json")
    outputs = [run(capsys, *argv, *extra) for extra in ((), ("--trace",), (), ("--trace",))]
    assert outputs[0][0] == 0 and outputs[:2] == outputs[2:]
    assert run(capsys, "degree", "--plan", workdir / "tri.plan")[0] == 0  # the header's signature
    assert len(parsed) == 1
    prepared = serialize.load_prepared(workdir / "tri.plan")
    assert serialize.load_prepared(workdir / "tri.plan", SIG) is prepared
    assert serialize.load_plan(workdir / "tri.plan") == (prepared.plan, SIG)
    assert len(parsed) == 1


def test_edited_plan_file_is_parsed_again(workdir):
    path = workdir / "tri.plan"
    before = serialize.load_prepared(path)
    path.write_text(TRI_PLAN.replace("(cols 1 2 4)", "(cols 1 2)"))
    after = serialize.load_prepared(path)
    assert (before.arities[-1], after.arities[-1]) == (3, 2)
    path.write_text(TRI_PLAN)
    assert serialize.load_prepared(path) is before


def test_cli_equiv(workdir, capsys):
    code, out, _ = run(
        capsys,
        "equiv",
        "--plan", workdir / "tri.plan",
        "--plan2", workdir / "tri.plan",
        "--keys", workdir / "empty.keys",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["equivalent"] is True
    assert doc["witnesses"]["forward"]


def test_cli_represent_chase_core_decompose(workdir, capsys):
    code, out, _ = run(capsys, "represent", "--plan", workdir / "tri.plan")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["decomposition"]["nodes"]) == 5
    assert doc["representation"]["tuple"]

    code, out, _ = run(capsys, "chase", "--data", workdir / "d.json", "--keys", workdir / "r1.keys")
    assert code == 0
    chased = json.loads(out)
    assert chased["mergeMap"]  # a has two outgoing edges, so something merged

    code, out, _ = run(capsys, "core", "--plan", workdir / "tri.plan")
    assert code == 0
    core = json.loads(out)["core"]
    assert len(core["universe"]) == 3

    code, out, _ = run(capsys, "decompose", "--plan", workdir / "tri.plan")
    assert code == 0
    rep = json.loads(out)
    assert rep["width"] == "3/2"
    assert all("colorNumber" in bag for bag in rep["bags"])


def test_cli_core_and_decompose_chase_data_under_keys(workdir, capsys):
    """With --data, core and decompose first chase the data under --keys:
    under key E 1 the transitive triangle's b and c merge, and its core is
    one loop."""
    (workdir / "t.json").write_text(json.dumps({
        "signature": {"E": 2},
        "universe": ["a", "b", "c"],
        "relations": {"E": [["a", "b"], ["a", "c"], ["b", "c"]]},
    }))
    data = ["--data", workdir / "t.json"]
    code, out, _ = run(capsys, "core", *data, "--keys", workdir / "r1.keys")
    assert code == 0
    core = json.loads(out)["core"]
    assert core["universe"] == ["b"]
    assert core["relations"] == {"E": [["b", "b"]]}
    code, out, _ = run(capsys, "core", *data, "--keys", workdir / "empty.keys")
    assert code == 0
    assert len(json.loads(out)["core"]["universe"]) == 3

    # decompose chases but takes no core: b and c merge, a stays
    for keys, elements in (("r1.keys", {"a", "b"}), ("empty.keys", {"a", "b", "c"})):
        code, out, _ = run(capsys, "decompose", *data, "--keys", workdir / keys)
        assert code == 0
        assert {e for bag in json.loads(out)["bags"] for e in bag["bag"]} == elements


def test_cli_core_and_decompose_drop_isolated_data_elements(workdir, capsys):
    """An element of closed data in no tuple retracts onto any other, so
    core and decompose drop it; data with no tuples at all exits 2."""
    edge = {"signature": {"E": 2}, "universe": ["a", "b", "c"], "relations": {"E": [["a", "b"]]}}
    (workdir / "edge.json").write_text(json.dumps(edge))
    code, out, _ = run(capsys, "core", "--data", workdir / "edge.json")
    assert code == 0
    assert json.loads(out)["core"] == {**edge, "universe": ["a", "b"], "tuple": []}
    code, out, _ = run(capsys, "decompose", "--data", workdir / "edge.json")
    assert code == 0
    assert {e for bag in json.loads(out)["bags"] for e in bag["bag"]} == {"a", "b"}

    (workdir / "none.json").write_text(json.dumps({**edge, "relations": {"E": []}}))
    for command in ("core", "decompose"):
        code, out, err = run(capsys, command, "--data", workdir / "none.json")
        assert (code, out) == (2, "")
        assert "no tuples" in err


def test_cli_represent_dot(workdir, capsys):
    code, out, _ = run(capsys, "represent", "--plan", workdir / "tri.plan", "--format", "dot")
    assert code == 0
    assert out.startswith("graph decomposition {")


def test_cli_witness(workdir, capsys, tmp_path):
    code, out, _ = run(
        capsys, "witness", "--plan", workdir / "tri.plan", "--n", "1,2",
        "--out", tmp_path / "fam",
    )
    assert code == 0
    meta = json.loads(out)
    assert meta["ratio"] == "3/2"
    inst = json.loads((tmp_path / "fam_n2.json").read_text())
    assert max(len(rows) for rows in inst["relations"].values()) == 12


def test_cli_determinism(workdir, capsys):
    outputs = set()
    for _ in range(2):
        code, out, _ = run(
            capsys, "optimize", "--plan", workdir / "tri.plan", "--keys", workdir / "empty.keys"
        )
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_cli_exit_codes(workdir, capsys, tmp_path):
    assert run(capsys, "degree", "--plan", tmp_path / "nope.plan")[0] == 2
    assert run(capsys, "degree")[0] == 2  # missing --plan
    (tmp_path / "noheader.plan").write_text("(project (cols) R)")
    assert run(capsys, "degree", "--plan", tmp_path / "noheader.plan")[0] == 2
    (tmp_path / "broken.json").write_text("{")
    assert run(capsys, "evaluate", "--plan", workdir / "tri.plan", "--data", tmp_path / "broken.json")[0] == 2
    # resource cap: a 17-element universe is over the default width cap of
    # 16, and --cap-universe 17 lifts it
    big = {
        "signature": {"E": 2},
        "universe": [f"v{i}" for i in range(17)],
        "relations": {"E": [[f"v{i}", f"v{(i + 1) % 17}"] for i in range(17)]},
        "tuple": [],
    }
    (tmp_path / "big.json").write_text(json.dumps(big))
    assert run(capsys, "decompose", "--data", tmp_path / "big.json")[0] == 3
    assert run(
        capsys, "decompose", "--data", tmp_path / "big.json", "--cap-universe", "17"
    )[0] != 3


@pytest.mark.parametrize(
    "change",
    [
        {"relations": [1]},
        {"relations": {"E": 5}},
        {"relations": {"E": [5]}},
        {"signature": {"E": "x"}},
        {"signature": {"E": float("inf")}},
        {"tuple": 5},
    ],
    ids=["relations-list", "rows-int", "row-int", "arity-text", "arity-infinite", "tuple-int"],
)
def test_cli_malformed_structure_exits_2(change, tmp_path, capsys):
    (tmp_path / "bad.json").write_text(json.dumps({**DATA, **change}))
    code, out, err = run(capsys, "chase", "--data", tmp_path / "bad.json")
    assert (code, out) == (2, "")
    assert err.startswith("spjopt: bad structure document: ") and "Traceback" not in err


@pytest.mark.parametrize("arity", [2.5, True, "2"], ids=["fraction", "bool", "string"])
def test_cli_non_integer_arity_exits_2(arity, tmp_path, capsys):
    (tmp_path / "bad.json").write_text(json.dumps({**DATA, "signature": {"E": arity}}))
    code, out, err = run(capsys, "chase", "--data", tmp_path / "bad.json")
    assert (code, out) == (2, "")
    assert err.startswith("spjopt: bad structure document: ") and "Traceback" not in err


def test_cli_relation_names_of_the_form_r_digits_are_ordinary(workdir, tmp_path, capsys):
    """Names such as ``R3`` were once reserved; they now behave like any
    other name, byte for byte."""
    (tmp_path / "r3.plan").write_text(re.sub(r"\bE\b", "R3", TRI_PLAN))
    for argv in (["optimize"], ["core"], ["degree"], ["witness", "--n", "1,2"]):
        code_e, out_e, _ = run(capsys, *argv, "--plan", workdir / "tri.plan")
        code_r3, out_r3, _ = run(capsys, *argv, "--plan", tmp_path / "r3.plan")
        assert code_e == code_r3 == 0, argv
        assert out_r3 == re.sub(r"\bE\b", "R3", out_e), argv
    doc = {"signature": {"R0": 2}, "universe": ["a", "b"], "relations": {"R0": [["a", "b"]]}}
    (tmp_path / "r0.json").write_text(json.dumps(doc))
    assert run(capsys, "chase", "--data", tmp_path / "r0.json")[0] == 0


@pytest.mark.parametrize("switch", [["--seed", "1"], ["--strict-theta"]])
def test_cli_removed_switches_are_unknown_options(switch, workdir, capsys):
    assert run(capsys, "check", "--plan", workdir / "tri.plan", *switch)[0] == 1


def test_cli_deep_plans_need_no_recursion(tmp_path, capsys):
    """1,200 nested selects, the same selects over a join that is not
    well-behaved, and a 600-level project/join chain are nested far past
    the interpreter's recursion limit, and every subcommand runs on them;
    ``evaluate`` reports the second as ``naive``, not well-behaved.  The chain joins
    a fresh R atom per level at one shared element; ``key R 1`` folds them
    in the chase, so its core fits the default core cap."""
    bodies = {
        "selects": "(select (theta (1 2)) " * 1200 + "R" + ")" * 1200,
        "naive": "(select (theta (1 2)) " * 1200 + "(join (theta) R R)" + ")" * 1200,
        "chain": "(project (cols 1 2) (join (theta (2 3)) " * 600 + "R" + " R))" * 600,
        "one": "(select (theta (1 2)) R)",
        "naive_one": "(select (theta (1 2)) (join (theta) R R))",
    }
    for name, body in bodies.items():
        (tmp_path / f"{name}.plan").write_text("rel R 2\n" + body + "\n")
    keys = tmp_path / "r.keys"
    keys.write_text("key R 1\n")
    data = tmp_path / "r.json"
    data.write_text(json.dumps({
        "signature": {"R": 2},
        "universe": ["a", "b", "c"],
        "relations": {"R": [["a", "a"], ["a", "b"], ["b", "b"], ["c", "a"]]},
    }))
    outputs = {}
    for name in bodies:
        plan = tmp_path / f"{name}.plan"
        for argv in (
            ["check"], ["represent"], ["chase"], ["core"], ["decompose"],
            ["witness", "--n", "1"], ["equiv", "--plan2", plan],
            ["optimize"], ["optimize", "--format", "text"], ["degree"],
            ["evaluate", "--data", data], ["evaluate", "--data", data, "--trace"],
        ):
            code, out, err = run(capsys, argv[0], "--plan", plan, "--keys", keys, *argv[1:])
            assert (code, err) == (0, ""), (name, argv)
            outputs[name, " ".join(map(str, argv))] = out
    for argv in ("optimize --format text", "degree", f"evaluate --data {data}"):
        assert outputs["selects", argv] == outputs["one", argv]
        assert outputs["naive", argv] == outputs["naive_one", argv]
    assert json.loads(outputs["naive", f"evaluate --data {data}"])["evaluator"] == "naive"


def test_cli_out_of_memory_is_a_resource_cap(workdir, capsys, monkeypatch):
    def exhausted(cfg):
        raise MemoryError()

    monkeypatch.setitem(cli._COMMANDS, "evaluate", cli._COMMANDS["evaluate"]._replace(handler=exhausted))
    code, out, err = run(
        capsys, "evaluate", "--plan", workdir / "tri.plan", "--data", workdir / "d.json"
    )
    assert code == 3
    assert out == ""
    assert err == "spjopt: resource cap: out of memory\n"


# Runs the CLI with its address space limited to 1 GB, so a representation
# that is allocated after all fails on that limit, not on the machine.
LIMITED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from spjopt.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_limited(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", LIMITED_CLI, *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=10,
    )


@pytest.mark.parametrize("command", ["optimize", "degree"])
def test_cli_huge_arity_hits_the_representation_cap(command, tmp_path):
    """A header arity of 99,999,999 exits 3 on the representation cap,
    before the representation (optimize) or the degree analysis's atoms
    (degree) are allocated, in a child process that could not allocate
    them."""
    plan = tmp_path / "huge.plan"
    plan.write_text("rel E 99999999\n(project (cols 1) E)\n")
    done = run_limited(command, "--plan", plan)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == (
        f"spjopt: resource cap: representation capped at {REPRESENTATION_ELEMENTS_CAP} "
        "elements, the plan's basic occurrences hold 99999999\n"
    )


def test_cli_degree_fold_hits_the_cap_before_allocating(tmp_path):
    """99 copies of a 100-atom cross product of ``W/100``: the basic
    occurrences hold 990,000 positions, under the cap, but the degree fold
    builds the shared subplan's structure and then the root's copy of it per
    occurrence, 1,000,100 elements in all.  It exits 3 before the root's
    structure is allocated, in a child process that could not allocate it."""
    shared = "(project (cols 1) (join (theta) " + " W" * 100 + "))"
    plan = tmp_path / "fan.plan"
    plan.write_text(f"rel W 100\n(join (theta){f' {shared}' * 99})\n")
    start = time.perf_counter()
    done = run_limited("degree", "--plan", plan)
    assert time.perf_counter() - start < 5
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == (
        f"spjopt: resource cap: degree analysis capped at {REPRESENTATION_ELEMENTS_CAP} "
        "elements, its structures need at least 1000100\n"
    )


@pytest.mark.parametrize("to_files", [False, True])
def test_cli_witness_family_hits_the_cap_before_allocating(workdir, to_files):
    """The triangle's D_1000 holds 3,000 elements and 3,000,000 rows: it
    exits 3 on the cap, checked for every requested n before any member is
    generated or written, in a child process that could not allocate it."""
    out = workdir / "fam"
    argv = ["witness", "--plan", workdir / "tri.plan", "--n", "2,1000"]
    start = time.perf_counter()
    done = run_limited(*argv, *(["--out", out] if to_files else []))
    assert time.perf_counter() - start < 5
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == (
        f"spjopt: resource cap: witness family capped at {REPRESENTATION_ELEMENTS_CAP} "
        "elements and rows, member n=1000 holds 3003000\n"
    )
    assert not list(workdir.glob("fam*"))


def test_cli_wide_join_check_is_linear(tmp_path):
    """The well-behavedness check of a join of two 20,000-ary atoms counts
    classes once, in a child process with a limited address space."""
    plan = tmp_path / "wide.plan"
    plan.write_text("rel E 20000\n(join (theta) E E)\n")
    done = run_limited("check", "--plan", plan)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["wellBehaved"] is False


def test_cli_deep_identifications_on_the_oldest_column_stay_linear(tmp_path):
    """Each of 40,000 levels identifies a fresh atom's first column with the
    column that has carried the innermost atom's element since the first
    level.  Every link puts the class's root under a newer, smaller id, so
    without path halving each identification would walk all the links
    before it.  ``chase`` with no keys prints the representation itself; the
    ``represent`` subcommand would also print every node's subplan, whose
    text is quadratic in the depth."""
    levels = 40_000
    plan = tmp_path / "deep.plan"
    plan.write_text(
        "rel E 2\n" + "(project (cols 2 4) (join (theta (1 4)) E " * levels + "E" + "))" * levels + "\n"
    )
    done = run_limited("chase", "--plan", plan)
    assert (done.returncode, done.stderr) == (0, "")
    doc = json.loads(done.stdout)
    assert doc["mergeMap"] == {}
    structure = doc["structure"]
    assert len(structure["universe"]) == levels + 2
    assert len(structure["relations"]["E"]) == levels + 1
    assert structure["tuple"] == ["x1", "x0"]


@pytest.mark.parametrize("argv", [
    ["represent"], ["represent", "--format", "dot"], ["evaluate", "--trace"], ["evaluate", "--format", "text"],
], ids=["represent", "represent-dot", "evaluate-trace", "evaluate-text"])
def test_cli_quadratic_subplan_text_hits_the_cap(tmp_path, argv):
    """Printing every occurrence's subplan of the 4,000-level chain would
    take 706 MB: it exits 3 before any subplan text is built, in a child
    process with a limited address space."""
    levels = 4_000
    plan = tmp_path / "deep.plan"
    plan.write_text(
        "rel E 2\n" + "(project (cols 2 4) (join (theta (1 4)) E " * levels + "E" + "))" * levels + "\n"
    )
    data = tmp_path / "d.json"
    data.write_text(json.dumps(DATA))
    start = time.perf_counter()
    done = run_limited(argv[0], "--plan", plan, *(["--data", data] if argv[0] == "evaluate" else []), *argv[1:])
    assert time.perf_counter() - start < 5
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.startswith(
        f"spjopt: resource cap: printed subplans capped at {PRINTED_SUBPLANS_CAP} characters, "
        "the plan's occurrences print "
    )


def test_cli_check_prints_a_deep_offender_in_linear_memory(tmp_path):
    """check of a join of the 4,000-level chain with an atom prints the
    whole plan as its offending subplan, 176 KB, without building the text
    of every subplan, in a child process with a limited address space."""
    levels = 4_000
    chain = "(project (cols 2 4) (join (theta (1 4)) E " * levels + "E" + "))" * levels
    plan = tmp_path / "deep.plan"
    plan.write_text(f"rel E 2\n(join (theta) {chain} E)\n")
    done = run_limited("check", "--plan", plan)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == serialize.dumps({
        "ok": True,
        "arity": 4,
        "operators": 2 * levels + 1,
        "wellBehaved": False,
        "keysUnary": True,
        "offendingSubplan": f"(join (theta) {chain} E)",
    })


def test_cli_evaluates_a_plan_that_is_not_well_behaved_by_hash_joins(tmp_path):
    """The unkeyed 10-vertex Mobius ladder is one join of 15 E atoms and not
    well-behaved; on an 18-row E its cross product has 18^15 combinations,
    but its hash-join chain evaluates it at once, in a child process with a
    limited address space.  The ladder has no homomorphism into this graph,
    so the answer is empty."""
    edges = mobius_ladder(10)
    plan = tmp_path / "mobius10.plan"
    plan.write_text("rel E 2\n" + print_plan(pattern_plan(edges, (0, 1))) + "\n")
    arcs = [[f"v{a}", f"v{(a + step) % 9}"] for a in range(9) for step in (1, 2)]
    data = tmp_path / "d.json"
    doc = {"signature": {"E": 2}, "universe": [f"v{i}" for i in range(9)], "relations": {"E": arcs}}
    data.write_text(json.dumps(doc))
    start = time.perf_counter()
    done = run_limited("evaluate", "--plan", plan, "--data", data)
    assert time.perf_counter() - start < 1
    assert (done.returncode, done.stderr) == (0, "")
    loaded = structure_from_json(doc)
    answer = homs_relation(Structure(SIG, range(10), {"E": edges}), (0, 1), loaded)
    out = json.loads(done.stdout)
    assert out["evaluator"] == "naive"
    assert out["output"] == serialize.named_rows(answer, loaded.names)


def test_cli_join_chain_is_capped_before_it_builds_a_step(tmp_path):
    """The cross product of five copies of a 60-row E builds 60^3 chain
    rows of 6 slots; its next step would hold 60^4 rows of 8 slots, past
    the cap, and it exits 3 before building it."""
    plan = tmp_path / "cross.plan"
    plan.write_text("rel E 2\n(join (theta) E E E E E)\n")
    arcs = [[f"v{a:02}", f"v{b:02}"] for a in range(10) for b in range(6)]
    data = tmp_path / "d.json"
    data.write_text(json.dumps({
        "signature": {"E": 2}, "universe": [f"v{i:02}" for i in range(10)], "relations": {"E": arcs},
    }))
    start = time.perf_counter()
    done = run_limited("evaluate", "--plan", plan, "--data", data)
    assert time.perf_counter() - start < 1
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == (
        f"spjopt: resource cap: join chain capped at {JOIN_STEP_CELLS_CAP} cells per step, "
        f"a step needs {60 ** 4 * 8} ({60 ** 4} rows of 8 slots)\n"
    )


@pytest.mark.parametrize("edges", [mobius_ladder(14), mobius_ladder(16), squared_cycle(14), squared_cycle(16)],
                         ids=["mobius14", "mobius16", "squared14", "squared16"])
def test_cli_join_chain_cap_bounds_unkeyed_pattern_inputs(tmp_path, edges):
    """The width workload's larger unkeyed inputs on a 6-vertex graph of
    out-degree 3: their chains walk the pattern's cycle, one row per walk.
    The walks of 11 arcs, 6 x 3^11 rows of 12 slots, are built; those of
    12 arcs, 6 x 3^12 rows of 13 slots, would pass the cells cap, and the
    plan exits 3 on it before building them, in a child process with a
    limited address space."""
    plan = tmp_path / "pattern.plan"
    plan.write_text("rel E 2\n" + print_plan(pattern_plan(edges, (0, 1))) + "\n")
    arcs = [[f"v{a}", f"v{(a + step) % 6}"] for a in range(6) for step in (1, 2, 3)]
    data = tmp_path / "d.json"
    data.write_text(json.dumps({
        "signature": {"E": 2}, "universe": [f"v{i}" for i in range(6)], "relations": {"E": arcs},
    }))
    start = time.perf_counter()
    done = run_limited("evaluate", "--plan", plan, "--data", data)
    assert time.perf_counter() - start < 5
    assert (done.returncode, done.stdout) == (3, "")
    rows = 6 * 3 ** 12
    assert done.stderr == (
        f"spjopt: resource cap: join chain capped at {JOIN_STEP_CELLS_CAP} cells per step, "
        f"a step needs {rows * 13} ({rows} rows of 13 slots)\n"
    )


def test_cli_evaluates_the_keyed_4_cycle_input_at_once(tmp_path, capsys):
    """The directed 4-cycle pattern is not well-behaved; on a 60-row
    functional graph (``key E 1`` holds) its chain stays within the graph's
    rows, so it evaluates in well under a second, to the vertices on a
    closed walk of length 4."""
    rng = random.Random(4)
    f = [rng.randrange(60) for _ in range(60)]
    f[0] = 0
    plan = tmp_path / "cycle4.plan"
    plan.write_text("rel E 2\n" + print_plan(pattern_plan([(i, (i + 1) % 4) for i in range(4)], (0,))) + "\n")
    data = tmp_path / "d.json"
    data.write_text(json.dumps({
        "signature": {"E": 2},
        "universe": [f"v{i:02}" for i in range(60)],
        "relations": {"E": [[f"v{a:02}", f"v{b:02}"] for a, b in enumerate(f)]},
    }))
    start = time.perf_counter()
    code, out, err = run(capsys, "evaluate", "--plan", plan, "--data", data)
    assert time.perf_counter() - start < 0.5
    assert (code, err) == (0, "")
    answer = [[f"v{x:02}"] for x in range(60) if f[f[f[f[x]]]] == x]
    assert json.loads(out)["output"] == answer and answer


def test_cli_optimizes_mobius20_under_a_raised_cap(tmp_path, capsys):
    """The exact width search decides the 20-vertex Mobius ladder once the
    cap admits it; optimize verifies the equivalence of its output."""
    plan = tmp_path / "mobius20.plan"
    plan.write_text("rel E 2\n" + print_plan(pattern_plan(mobius_ladder(20), (0, 1))) + "\n")
    code, out, err = run(capsys, "optimize", "--plan", plan, "--cap-universe", "20")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["degree"] == "3"
    assert is_well_behaved(parse_plan(doc["plan"], SIG), SIG)[0]


def test_cli_multi_key_diagnostic(workdir, capsys):
    """Two keys on one relation are accepted like any set of unary keys; the
    option that once admitted them is gone."""
    (workdir / "multi.keys").write_text("key E 1\nkey E 2\n")
    argv = ("degree", "--plan", workdir / "tri.plan", "--keys", workdir / "multi.keys")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"outputDegree": "1", "intermediateDegreeBound": "1"}
    assert run(capsys, *argv, "--force-multi-keys")[0] == 1


def test_cli_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys)[0] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--plan", "{bad}"],
        ["degree", "--plan", "{tri}", "--keys", "{bad}"],
        ["evaluate", "--plan", "{tri}", "--data", "{bad}"],
        ["equiv", "--plan", "{tri}", "--plan2", "{bad}"],
    ],
    ids=["plan", "keys", "data", "equiv-plan2"],
)
def test_cli_non_utf8_file_is_a_format_error(workdir, capsys, argv):
    bad = workdir / "latin1.txt"
    bad.write_bytes("rel E 2\n(project (cols 1) E) # caf\xe9\n".encode("latin-1"))
    paths = {"bad": bad, "tri": workdir / "tri.plan"}
    code, out, err = run(capsys, *[a.format(**paths) for a in argv])
    assert code == 2
    assert out == ""
    assert err == f"spjopt: {bad}: not UTF-8 text\n"


def test_cli_path_through_a_file_is_an_input_error(workdir, capsys):
    tri = workdir / "tri.plan"
    code, out, err = run(capsys, "check", "--plan", tri / "x")
    assert (code, out) == (2, "")
    assert err.startswith("spjopt: ") and err.count("\n") == 1
    code, out, err = run(capsys, "degree", "--plan", tri, "--out", tri / "x")
    assert (code, out) == (2, "")
    assert err.startswith("spjopt: ") and err.count("\n") == 1


def test_cli_unreadable_file_is_an_input_error(workdir, capsys, monkeypatch):
    def denied(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(serialize, "open", denied, raising=False)
    code, out, err = run(capsys, "check", "--plan", workdir / "tri.plan")
    assert (code, out) == (2, "")
    assert err == f"spjopt: [Errno 13] Permission denied: '{workdir / 'tri.plan'}'\n"


def test_cli_data_lists_do_not_leak_between_calls(workdir, capsys, monkeypatch):
    seen = []
    check = cli._COMMANDS["check"]._replace(handler=lambda args: seen.append(args.data))
    monkeypatch.setitem(cli._COMMANDS, "check", check)
    assert run(capsys, "check", "--data", "a.json")[0] == 0
    assert run(capsys, "check", "--data", "b.json", "--data", "c.json")[0] == 0
    assert run(capsys, "check")[0] == 0
    assert seen == [["a.json"], ["b.json", "c.json"], []]
    # and on real files: each evaluate sees only its own database
    (workdir / "e.json").write_text(json.dumps({**DATA, "relations": {"E": [["a", "b"]]}}))
    for db, expected in (("d.json", 3), ("e.json", 0), ("d.json", 3)):
        code, out, _ = run(capsys, "evaluate", "--plan", workdir / "tri.plan", "--data", workdir / db)
        assert code == 0
        assert json.loads(out)["cardinality"] == expected


def test_cli_repeated_data_is_an_input_error(workdir, capsys):
    """Every subcommand reads one data file: a second ``--data``, once
    ignored, exits 2 with a message that gives the count."""
    (workdir / "e.json").write_text(json.dumps({**DATA, "relations": {"E": [["a", "b"]]}}))
    data = ["--data", workdir / "d.json", "--data", workdir / "e.json"]
    plan = ["--plan", workdir / "tri.plan"]
    for argv in (
        ["check", *plan], ["represent", *plan], ["chase"], ["core"], ["degree", *plan],
        ["optimize", *plan], ["evaluate", *plan], ["equiv", *plan, "--plan2", workdir / "tri.plan"],
        ["witness", *plan], ["decompose"],
    ):
        assert run(capsys, *argv, *data) == (2, "", "spjopt: --data given 2 times; pass one data file\n"), argv
    code, _, err = run(capsys, "evaluate", *plan, *data, "--data", workdir / "d.json")
    assert (code, err) == (2, "spjopt: --data given 3 times; pass one data file\n")


def test_cli_parser_is_built_once(workdir, capsys):
    cli._build_parser.cache_clear()
    for argv in (["check", "--plan", workdir / "tri.plan"], ["degree"], ["frobnicate"]):
        run(capsys, *argv)
    assert cli._build_parser.cache_info().misses == 1


SHARED_OPTIONS = {"--plan", "--keys", "--data", "--out", "--cap-universe"}
MODE_OPTIONS = {
    "check": {},
    "represent": {"--format": ("json", "dot")},
    "chase": {},
    "core": {},
    "degree": {},
    "optimize": {"--format": ("json", "text")},
    "evaluate": {"--trace": None, "--format": ("json", "text")},
    "equiv": {"--plan2": None},
    "witness": {"--n": None},
    "decompose": {"--format": ("json", "dot")},
}


def test_cli_each_subcommand_takes_only_the_options_it_reads():
    """Each subcommand accepts the five shared options and its own mode
    options, 57 option slots and 8 ``--format`` values in all, and the
    argv shapes the benchmark passes still parse."""
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) == set(MODE_OPTIONS)
    slots = formats = 0
    for name, sub in subparsers.choices.items():
        options = {
            flag: action.choices for action in sub._actions
            for flag in action.option_strings if flag != "--help" and flag.startswith("--")
        }
        assert options == {**dict.fromkeys(SHARED_OPTIONS), **MODE_OPTIONS[name]}, name
        slots += len(options)
        formats += len(options.get("--format") or ())
    assert (slots, formats) == (57, 8)
    common = ["--plan", "p.plan", "--out", "o.json", "--keys", "k.keys", "--cap-universe", "16"]
    for argv in (
        ["optimize", *common],
        ["degree", *common],
        ["evaluate", "--plan", "p.plan", "--data", "d.json", "--out", "o.json"],
        ["witness", "--plan", "p.plan", "--n", "1,2", "--out", "fam"],
    ):
        assert parser.parse_args(argv).command == argv[0]


@pytest.mark.parametrize("value", ["x", "3", "17"])
def test_cli_ignores_cap_environment_variable(workdir, capsys, monkeypatch, tmp_path, value):
    big = {
        "signature": {"E": 2},
        "universe": [f"v{i}" for i in range(17)],
        "relations": {"E": [[f"v{i}", f"v{(i + 1) % 17}"] for i in range(17)]},
        "tuple": [],
    }
    (tmp_path / "big.json").write_text(json.dumps(big))
    cases = [
        (["optimize", "--plan", workdir / "tri.plan"], 0),
        (["decompose", "--data", tmp_path / "big.json"], 3),
        (["decompose", "--data", tmp_path / "big.json", "--cap-universe", "17"], 0),
        (["degree"], 2),
    ]
    monkeypatch.setenv("SPJOPT_CAP_UNIVERSE", value)
    assert [run(capsys, *argv)[0] for argv, _ in cases] == [code for _, code in cases]
