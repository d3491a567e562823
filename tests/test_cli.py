"""The command line: worked examples per subcommand, the three exit
statuses with their distinct messages, and byte-identical reruns."""

import json

import pytest

from hgpoly import InvariantError, RealizationError, cli, corpus
from hgpoly.operadic import parse_tree

PENTAGON_HREP = """\
x >= 3
y >= 3
z >= 3
x + y >= 9
y + z >= 9
x + y + z == 27
"""

SQUARE_HT1 = {
    "format": 1,
    "carrier": ["x", "y", "z", "u"],
    "hyperedges": [["x"], ["y"], ["z"], ["u"], ["x", "y"], ["x", "y", "z", "u"]],
}

SQUARE_HT2 = {
    "format": 1,
    "carrier": ["x", "y", "z", "u", "x+y"],
    "hyperedges": [["u"], ["x"], ["y"], ["z"], ["x+y"], ["x", "x+y"],
                   ["u", "x", "y", "z", "x+y"]],
}


def run(capsys, *argv):
    status = cli.main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


@pytest.fixture()
def pentagon_file(tmp_path):
    path = tmp_path / "pentagon.json"
    path.write_text(json.dumps(corpus.path_graph(3).to_json_dict()))
    return str(path)


@pytest.fixture()
def t4_file(tmp_path):
    path = tmp_path / "t4.json"
    path.write_text(json.dumps(parse_tree("a(b(d),c)").to_json_dict()))
    return str(path)


def test_fvector(capsys, pentagon_file):
    assert run(capsys, "hg", "fvector", pentagon_file) == (0, "5 5 1\n", "")


def test_hrep(capsys, pentagon_file):
    status, out, _ = run(capsys, "hg", "realize", "--hrep", pentagon_file)
    assert status == 0 and out == PENTAGON_HREP


def test_vertices_json(capsys, pentagon_file):
    status, out, _ = run(capsys, "hg", "realize", "--vertices", pentagon_file)
    blob = json.loads(out)
    assert status == 0
    assert blob["format"] == 1
    assert blob["vertices"]["x(y(z))"] == ["18", "6", "3"]


def test_verify_single_hypergraph(capsys, pentagon_file):
    status, out, _ = run(capsys, "hg", "realize", "--verify", pentagon_file)
    assert status == 0
    assert out.startswith("carrier 3 atoms: PASS")


def test_faces_and_constructions(capsys, pentagon_file):
    status, out, _ = run(capsys, "hg", "faces", pentagon_file)
    lines = out.splitlines()
    assert status == 0 and len(lines) == 11
    assert lines[0] == "0\tx(y(z))"
    assert lines[-1] == "2\t{x,y,z}"
    status, out, _ = run(capsys, "hg", "constructions", pentagon_file)
    assert status == 0
    assert out.splitlines() == ["x(y(z))", "x(z(y))", "y(x,z)", "z(x(y))", "z(y(x))"]


def test_hasse_dot(capsys, pentagon_file):
    status, first, _ = run(capsys, "hg", "hasse", pentagon_file)
    assert status == 0
    assert first.startswith("digraph hasse {")
    assert '  "x(y(z))" -> "{x,y}(z)";' in first
    status, second, _ = run(capsys, "hg", "hasse", pentagon_file)
    assert first == second  # byte-identical rerun


def test_classify_diagram(capsys, t4_file):
    status, out, _ = run(capsys, "op", "classify", "--tree", t4_file)
    assert status == 0
    assert out.count('[label="beta"]') == 2
    assert out.count('[label="theta"') == 3


def test_op_graph_and_words(capsys, t4_file):
    status, out, _ = run(capsys, "op", "graph", "--tree", t4_file,
                         "--names", "b=x,c=y,d=z")
    assert status == 0
    assert '"x" -- "z" [style=solid];' in out
    assert '"x" -- "y" [style=dashed];' in out
    status, out, _ = run(capsys, "op", "words", "--tree", t4_file)
    assert status == 0 and len(out.splitlines()) == 5


def test_trunc_rounds(capsys, tmp_path):
    ht1 = tmp_path / "ht1.json"
    ht1.write_text(json.dumps(SQUARE_HT1))
    status, out, _ = run(capsys, "trunc", "init", "--truncations", str(ht1))
    assert status == 0
    state1 = tmp_path / "s1.json"
    state1.write_text(out)

    status, out, _ = run(capsys, "trunc", "round", "--state", str(state1))
    preview = json.loads(out)
    assert status == 0
    assert preview["facet_names"] == ["x", "y", "z", "u", "x+y"]
    assert len(preview["vertex_hypergraph"]) == 6

    ht2 = tmp_path / "ht2.json"
    ht2.write_text(json.dumps(SQUARE_HT2))
    status, out, _ = run(capsys, "trunc", "round", "--state", str(state1),
                         "--truncations", str(ht2))
    blob = json.loads(out)
    assert status == 0
    assert blob["state"]["round"] == 2
    assert blob["tamed"] == {"constructs": 27, "constructions": 8, "constrs": 6}


def test_trunc_round_takes_the_state_of_pba_setup(capsys, tmp_path):
    status, out, _ = run(capsys, "pba", "setup", "4")
    assert status == 0
    state = tmp_path / "state.json"
    state.write_text(json.dumps(json.loads(out)["state"]))
    status, out, _ = run(capsys, "trunc", "round", "--state", str(state))
    assert status == 0
    assert json.loads(out)["round"] == 3


def test_pba_round_trip(capsys):
    face = "{x2,x3,x4,x2+x3,x2+x4,x3+x4,x1+x2,x1+x3,x1+x4," \
           "x1+x2+x3,x1+x2+x4,x1+x3+x4,x2+x3+x4}(x1)"
    status, out, _ = run(capsys, "pba", "encode", "3", face)
    assert status == 0 and out == "(x₁·₁)·₁·₁; ·₁={x₂,x₃,x₄}\n"
    status, out, _ = run(capsys, "pba", "encode", "3", face, "--ascii")
    assert status == 0 and out == "(x1.1).1.1; .1={x2,x3,x4}\n"
    status, out, _ = run(capsys, "pba", "decode", "3", "(x1.1).1.1; .1={x2,x3,x4}")
    assert status == 0
    status2, out2, _ = run(capsys, "pba", "encode", "3", out.strip())
    assert status2 == 0 and out2 == "(x₁·₁)·₁·₁; ·₁={x₂,x₃,x₄}\n"


def test_pba_setup_and_census(capsys):
    status, out, _ = run(capsys, "pba", "setup", "2")
    blob = json.loads(out)
    assert status == 0
    assert blob["letters"] == ["x1", "x2", "x3"]
    assert blob["state"]["round"] == 2
    status, out, _ = run(capsys, "pba", "census", "3")
    assert status == 0
    assert "vertices 120" in out and "profile 1,1,1,1 24" in out


def test_verify_wiring(capsys, monkeypatch):
    def fine():
        pass

    def broken():
        raise cli.VerificationFailure("frozen value drifted")

    monkeypatch.setattr(cli, "CHECKS", (("fine", fine), ("broken", broken)))
    status, out, _ = run(capsys, "corpus", "verify")
    assert status == 1
    assert out.splitlines() == [
        "ok   fine",
        "FAIL broken: frozen value drifted",
        "1 of 2 checks failed",
    ]


@pytest.mark.parametrize("error", [InvariantError, RealizationError])
def test_invariant_break_exits_1_with_one_line(capsys, monkeypatch, pentagon_file, error):
    def broken(h, **_):
        raise error("normal form is neither type I nor type II")

    monkeypatch.setattr(cli, "f_vector", broken)
    status, out, err = run(capsys, "hg", "fvector", pentagon_file)
    assert (status, out) == (1, "")
    assert err == "error: invariant broken: normal form is neither type I nor type II\n"


def test_other_runtime_errors_are_not_swallowed(capsys, monkeypatch, pentagon_file):
    def deep(h, **_):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "f_vector", deep)
    with pytest.raises(RecursionError):
        cli.main(["hg", "fvector", pentagon_file])


def test_exit_2_messages(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    status, _, err = run(capsys, "hg", "fvector", str(bad))
    assert status == 2 and "malformed JSON" in err

    status, _, err = run(capsys, "hg", "fvector", str(tmp_path / "missing.json"))
    assert status == 2 and "cannot read" in err

    invalid = tmp_path / "invalid.json"
    invalid.write_text('{"carrier": ["x"], "hyperedges": [["x"], ["y"]]}')
    status, _, err = run(capsys, "hg", "fvector", str(invalid))
    assert status == 2 and "not in carrier" in err

    status, _, err = run(capsys, "pba", "census", "9")
    assert status == 2 and "guard" in err

    big = tmp_path / "big.json"
    big.write_text(json.dumps(corpus.simplex(6).to_json_dict()))
    status, _, err = run(capsys, "hg", "faces", str(big), "--max-carrier", "5")
    assert status == 2 and "guard exceeded" in err

    status, _, err = run(capsys, "op", "graph", "--tree", str(bad))
    assert status == 2 and "malformed JSON" in err


def test_bad_flags_exit_2(capsys, pentagon_file):
    with pytest.raises(SystemExit) as exc:
        cli.main(["hg", "faces", pentagon_file, "--max-carrier", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["hg", "realize", pentagon_file])  # a mode flag is required
    assert exc.value.code == 2
    capsys.readouterr()


def test_atomize_flag(capsys, tmp_path):
    sparse = tmp_path / "sparse.json"
    sparse.write_text(json.dumps({
        "format": 1,
        "carrier": ["x", "y", "z"],
        "hyperedges": [["x", "y"], ["y", "z"], ["x", "y", "z"]],
    }))
    status, _, err = run(capsys, "hg", "fvector", str(sparse))
    assert status == 2 and "singleton" in err
    status, out, _ = run(capsys, "hg", "fvector", str(sparse), "--atomize")
    assert status == 0 and out == "5 5 1\n"


def test_vertices_honour_max_carrier(capsys, tmp_path):
    atoms = [f"a{i}" for i in range(9)]
    simplex = tmp_path / "simplex9.json"
    simplex.write_text(json.dumps({
        "format": 1, "carrier": atoms, "hyperedges": [[a] for a in atoms] + [atoms],
    }))
    status, out, _ = run(capsys, "hg", "realize", "--vertices", str(simplex),
                         "--max-carrier", "12")
    assert status == 0 and len(json.loads(out)["vertices"]) == 9
    status, _, err = run(capsys, "hg", "realize", "--vertices", str(simplex))
    assert status == 2 and "guard exceeded" in err


@pytest.mark.parametrize("data", [
    {"carrier": ["x"], "hyperedges": [1]},
    {"carrier": ["x"], "hyperedges": ["x"]},
    {"carrier": ["x"], "hyperedges": 1},
    {"carrier": 5, "hyperedges": [["x"]]},
    {"carrier": [["x"]], "hyperedges": [["x"]]},
])
def test_malformed_hypergraph_json_exits_2(capsys, tmp_path, data):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    status, out, err = run(capsys, "hg", "fvector", str(path))
    assert status == 2 and out == ""
    assert "must be a list" in err
