"""File formats and the command-line front end."""

import json

import pytest

from spjopt import KeySet, OpenStructure, Signature, Structure, parse_plan
from spjopt import cli, serialize
from spjopt.cli import main
from spjopt.errors import FormatError
from spjopt.serialize import (
    keys_from_text,
    plan_file_from_text,
    structure_from_json,
    structure_to_json,
)

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


def test_cli_deep_plans_need_no_recursion(tmp_path, capsys):
    """1,200 nested selects, the same selects over a join that is not
    well-behaved, and a 600-level project/join chain are nested far past
    the interpreter's recursion limit, and every subcommand runs on them;
    ``evaluate`` runs the second with the naive evaluator.  The chain joins
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

    monkeypatch.setitem(cli._COMMANDS, "evaluate", exhausted)
    code, out, err = run(
        capsys, "evaluate", "--plan", workdir / "tri.plan", "--data", workdir / "d.json"
    )
    assert code == 3
    assert out == ""
    assert err == "spjopt: resource cap: out of memory\n"


def test_cli_multi_key_diagnostic(workdir, capsys):
    (workdir / "multi.keys").write_text("key E 1\nkey E 2\n")
    code, _, err = run(
        capsys, "degree", "--plan", workdir / "tri.plan", "--keys", workdir / "multi.keys"
    )
    assert code == 2
    assert "multiple keys" in err
    code, out, _ = run(
        capsys,
        "degree", "--plan", workdir / "tri.plan", "--keys", workdir / "multi.keys",
        "--force-multi-keys",
    )
    assert code == 0


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
    monkeypatch.setitem(cli._COMMANDS, "check", lambda args: seen.append(args.data))
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


def test_cli_parser_is_built_once(workdir, capsys):
    cli._build_parser.cache_clear()
    for argv in (["check", "--plan", workdir / "tri.plan"], ["degree"], ["frobnicate"]):
        run(capsys, *argv)
    assert cli._build_parser.cache_info().misses == 1


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
