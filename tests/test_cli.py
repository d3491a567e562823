"""The command line: worked examples per subcommand, the three exit
statuses with their distinct messages, and byte-identical reruns."""

import argparse
import gc
import io
import json
import re
import sys

import pytest
from hypothesis import given, strategies as st

from hgpoly import Hypergraph, InvariantError, RealizationError, cli, constructs, corpus, pba, verification
from hgpoly.constructs import covers, enumerate_constructs, print_construct
from hgpoly.operadic import build_edge_graph, decomposition_words, parse_tree, tree_from_json_dict
from hgpoly.realization import f_vector
from hgpoly.truncation import RoundState, round_state_from_json_dict, tamed_constructions, tamed_constructs

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


def test_fvector_keeps_the_8_atom_guard(capsys, tmp_path):
    atoms = list("abcdefghi")
    path = tmp_path / "simplex9.json"
    path.write_text(json.dumps({
        "format": 1, "carrier": atoms, "hyperedges": [[a] for a in atoms] + [atoms],
    }))
    status, out, err = run(capsys, "hg", "fvector", str(path))
    assert (status, out) == (2, "")
    assert "guard exceeded: carrier has 9 atoms, guard is 8" in err
    status, out, _ = run(capsys, "hg", "fvector", str(path), "--max-carrier", "9")
    assert (status, out) == (0, "9 36 84 126 126 84 36 9 1\n")


def test_hrep(capsys, pentagon_file):
    status, out, _ = run(capsys, "hg", "realize", "--hrep", pentagon_file)
    assert status == 0 and out == PENTAGON_HREP


def test_hrep_refuses_a_disconnected_input(capsys, tmp_path):
    path = tmp_path / "two-points.json"
    path.write_text(json.dumps({"format": 1, "carrier": ["x", "y"], "hyperedges": [["x"], ["y"]]}))
    assert run(capsys, "hg", "realize", "--hrep", str(path)) == (
        2, "", "error: half-spaces require a connected hypergraph\n"
    )


def test_hrep_guard_defaults_to_16_atoms(capsys, tmp_path):
    atoms = [f"a{i}" for i in range(17)]
    path = tmp_path / "path17.json"
    path.write_text(json.dumps({
        "format": 1, "carrier": atoms,
        "hyperedges": [[a] for a in atoms] + [list(p) for p in zip(atoms, atoms[1:])],
    }))
    assert run(capsys, "hg", "realize", "--hrep", str(path)) == (
        2, "",
        "error: guard exceeded: carrier has 17 atoms, guard is 16; "
        "raise the guard explicitly to enumerate\n",
    )
    status, out, err = run(capsys, "hg", "realize", "--hrep", str(path), "--max-carrier", "17")
    assert (status, err) == (0, "")
    assert len(out.splitlines()) == 17 * 18 // 2  # a path's connected subsets are its intervals


@pytest.mark.parametrize("command", ["faces", "hasse"])
def test_labels_holding_construct_syntax_are_refused(capsys, tmp_path, command):
    # `(` over `(((` and `(((` over `(` would both print as `((((()`
    path = tmp_path / "parens.json"
    path.write_text(json.dumps({
        "format": 1, "carrier": ["(", "((("], "hyperedges": [["("], ["((("], ["(", "((("]],
    }))
    assert run(capsys, "hg", command, str(path)) == (
        2, "", "error: atom label '(' is not a non-empty string free of { } ( ) ,\n"
    )


@pytest.mark.parametrize("label", [" a", "a ", "a\nb", "a\tb"])
def test_labels_that_do_not_read_back_are_refused(capsys, tmp_path, label):
    # `a\nb` over `c` would print the face `a\nb(c)` over two rows
    path = tmp_path / "padded.json"
    path.write_text(json.dumps({
        "format": 1, "carrier": [label, "c"], "hyperedges": [[label], ["c"], [label, "c"]],
    }))
    assert run(capsys, "hg", "faces", str(path)) == (
        2, "", f"error: atom label {label!r} is padded or holds an unprintable character\n"
    )


def test_hypergraph_format_2_is_refused(capsys, tmp_path):
    # true and 1.0 equal 1 in Python but are not format 1
    path = tmp_path / "format2.json"
    for version in (2, True, 1.0):
        path.write_text(json.dumps({**corpus.path_graph(3).to_json_dict(), "format": version}))
        assert run(capsys, "hg", "faces", str(path)) == (2, "", "error: unsupported format version\n")


def test_operadic_tree_format_2_is_refused(capsys, tmp_path):
    path = tmp_path / "tree.json"
    for version in (2, True, 1.0):
        path.write_text(json.dumps({"format": version, "label": "a", "children": [{"label": "b"}]}))
        assert run(capsys, "op", "words", "--tree", str(path)) == (
            2, "", "error: unsupported format version\n"
        )


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


def test_kernel_runs_per_command(monkeypatch, capsys, pentagon_file):
    # each hg command enumerates with as few runs of the tree kernel as it
    # needs: --verify reads the vertices and their coordinates off the one
    # run below the top face, and fvector and --hrep build no face
    runs, real = [], constructs._trees

    def counting(h, ambient, *rest):
        runs.append(ambient)
        return real(h, ambient, *rest)

    monkeypatch.setattr(constructs, "_trees", counting)
    expected = {
        ("faces",): 1, ("hasse",): 1, ("constructions",): 1, ("realize", "--vertices"): 1,
        ("realize", "--verify"): 2, ("fvector",): 0, ("realize", "--hrep"): 0,
    }
    for argv, count in expected.items():
        runs.clear()
        status, out, _ = run(capsys, "hg", *argv, pentagon_file)
        assert (status, len(runs)) == (0, count), argv
        assert out


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


def test_op_names_refuse_a_repeated_label(capsys, tmp_path):
    # b=x was once dropped for b=z, and the graph printed vertices y and z
    path = tmp_path / "t3.json"
    path.write_text(json.dumps(parse_tree("a(b,c)").to_json_dict()))
    for names in ("b=x,c=y,b=z", "b=x,c=y,b=x"):
        assert run(capsys, "op", "graph", "--tree", str(path), "--names", names) == (
            2, "", "error: label 'b' is named twice in --names\n"
        )


def test_word_commands_refuse_labels_that_are_not_letters(capsys, tmp_path):
    # `ab` over `cd` and `e` once printed `(abcd)e` and `(abe)cd`, words
    # that spell a five-node tree
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"format": 1, "label": "ab", "children": [{"label": "cd"}, {"label": "e"}]}))
    for command in ("words", "classify"):
        assert run(capsys, "op", command, "--tree", str(path)) == (
            2, "", "error: tree label 'ab' is not a word letter (one letter or digit)\n"
        )
    assert run(capsys, "op", "graph", "--tree", str(path))[0] == 0


def test_word_commands_name_their_fixed_guard(capsys, tmp_path):
    # op has no --max-carrier, so its refusal names no flag to raise
    path = tmp_path / "star10.json"
    path.write_text(json.dumps(parse_tree("a(b,c,d,e,f,g,h,i,j)").to_json_dict()))
    for command in ("words", "classify"):
        assert run(capsys, "op", command, "--tree", str(path)) == (
            2, "", "error: guard exceeded: carrier has 9 atoms, guard is 8; this guard is fixed\n"
        )


# a DOT ID as hgpoly prints it: double-quoted, `\` and `"` escaped by `\`
_ID = r'"((?:[^"\\]|\\.)*)"'
_NODE = re.compile(rf"  {_ID}(?: \[label={_ID}\])?;")
_EDGE = re.compile(rf"  {_ID} (?:->|--) {_ID}(?: \[.*\])?;")


def _unescape(text: str) -> str:
    return re.sub(r"\\(.)", r"\1", text)


def _read_dot(out: str, header: str) -> tuple[dict, set]:
    """Read back the DOT hgpoly prints: its nodes as ID -> label (None if it
    has none) and its edges as ID pairs, escapes undone. A line that is not
    a node or an edge statement fails the test."""
    lines = out.splitlines()
    assert lines[0] == header + " {" and lines[-1] == "}", out
    nodes, edges = {}, set()
    for line in lines[1:-1]:
        if m := _EDGE.fullmatch(line):
            edges.add((_unescape(m[1]), _unescape(m[2])))
        else:
            m = _NODE.fullmatch(line)
            assert m, line
            nodes[_unescape(m[1])] = m[2] and _unescape(m[2])
    return nodes, edges


def test_dot_outputs_read_back(capsys, tmp_path):
    # labels holding `"`, `\` and a space: every DOT ID and label escapes
    # them, so a reader gives back the face texts, tree labels and words
    path = tmp_path / "h.json"
    labels = ['a"', "b\\", "c d"]
    h = Hypergraph(labels, [[a] for a in labels] + [labels[:2], labels[1:]])
    path.write_text(json.dumps(h.to_json_dict()))
    status, out, _ = run(capsys, "hg", "hasse", str(path))
    faces = enumerate_constructs(h)
    text = {t: print_construct(h, t) for t in faces}
    assert status == 0
    assert _read_dot(out, "digraph hasse") == (
        dict.fromkeys(text.values()), {(text[s], print_construct(h, c)) for s in faces for c in covers(h, s)}
    )

    tree = {"format": 1, "label": 'r"', "children": [
        {"label": "b\\", "children": [{"label": "c d"}, {"label": '"'}]}, {"label": "e f"}]}
    path.write_text(json.dumps(tree))
    g = build_edge_graph(tree_from_json_dict(tree))
    status, out, _ = run(capsys, "op", "graph", "--tree", str(path))
    assert status == 0
    assert _read_dot(out, "graph edges") == (
        {v: f"{v} (level {g.level[v]})" for v in g.vertex_names},
        {tuple(sorted(pair)) for pair in (*g.solid, *g.dashed)},
    )

    # words need one letter or digit per label, so they hold nothing to escape
    g = build_edge_graph(parse_tree("a(b(c,d),e)"))
    path.write_text(json.dumps(g.tree.to_json_dict()))
    status, out, _ = run(capsys, "op", "classify", "--tree", str(path))
    nodes, edges = _read_dot(out, "digraph skeleton")
    assert status == 0 and nodes == dict.fromkeys(decomposition_words(g))
    assert {u for e in edges for u in e} <= nodes.keys() and len(edges) == f_vector(g.hypergraph)[1]


TRACED = ("enumerate_constructs", "enumerate_constructions", "tamed_constructs")


def _count_calls(monkeypatch, names=TRACED) -> dict[str, int]:
    """Wrap each named function wherever an hgpoly module binds it, the way
    the benchmark's tracer installs its layers, and count its calls."""
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for key, module in list(sys.modules.items()):
        if key == "hgpoly" or key.startswith("hgpoly."):
            for name in names:
                if name in vars(module):
                    monkeypatch.setattr(module, name, counting(name, vars(module)[name]))
    return calls


def test_commands_reach_the_traced_enumerators(capsys, monkeypatch, tmp_path,
                                               pentagon_file, t4_file):
    # the benchmark traces the public enumerators by name: a command that
    # reaches its faces another way would read zero calls on that layer;
    # pba census and trunc round --truncations count their faces from the
    # face polynomial and build none, so they reach no layer
    ht1, ht2, state1 = (tmp_path / name for name in ("ht1.json", "ht2.json", "s1.json"))
    ht1.write_text(json.dumps(SQUARE_HT1))
    ht2.write_text(json.dumps(SQUARE_HT2))
    state1.write_text(run(capsys, "trunc", "init", "--truncations", str(ht1))[1])
    calls = _count_calls(monkeypatch)
    for argv, enumerator in [
        (["hg", "faces", pentagon_file], "enumerate_constructs"),
        (["hg", "hasse", pentagon_file], "enumerate_constructs"),
        (["hg", "constructions", pentagon_file], "enumerate_constructions"),
        (["op", "words", "--tree", t4_file], "enumerate_constructions"),
        (["op", "classify", "--tree", t4_file], "enumerate_constructions"),
        (["hg", "realize", "--vertices", pentagon_file], "enumerate_constructions"),
        (["hg", "realize", "--verify", pentagon_file], "enumerate_constructs"),
        (["trunc", "round", "--state", str(state1), "--truncations", str(ht2)], None),
        (["pba", "census", "3"], None),
    ]:
        calls.update(dict.fromkeys(TRACED, 0))
        assert run(capsys, *argv)[0] == 0, argv
        if enumerator is None:
            assert not any(calls.values()), (argv, calls)
        else:
            assert calls[enumerator] == 1, (argv, calls)


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


def test_trunc_round_runs_the_kernel_once(capsys, monkeypatch, tmp_path):
    # advancing grows the old round's tamed constructions once, in
    # next_round; the new round's tamed faces are counted, not built
    ht1, ht2, state1 = (tmp_path / name for name in ("ht1.json", "ht2.json", "s1.json"))
    ht1.write_text(json.dumps(SQUARE_HT1))
    ht2.write_text(json.dumps(SQUARE_HT2))
    state1.write_text(run(capsys, "trunc", "init", "--truncations", str(ht1))[1])
    calls = _count_calls(monkeypatch, ("_trees", "next_round"))
    status, out, _ = run(capsys, "trunc", "round", "--state", str(state1), "--truncations", str(ht2))
    assert status == 0
    assert calls == {"_trees": 1, "next_round": 1}


def test_trunc_round_counts_the_tamed_faces_of_an_advanced_pba_state(capsys, tmp_path):
    # pba setup 3 previews 62 facets; advance along a path through them
    status, out, _ = run(capsys, "pba", "setup", "3")
    assert status == 0
    state = tmp_path / "state.json"
    state.write_text(json.dumps(json.loads(out)["state"]))
    names = json.loads(run(capsys, "trunc", "round", "--state", str(state))[1])["facet_names"]
    assert len(names) == 62
    path = tmp_path / "path.json"
    path.write_text(json.dumps({
        "format": 1, "carrier": names,
        "hyperedges": [[n] for n in names] + [list(p) for p in zip(names, names[1:])],
    }))
    status, out, err = run(capsys, "trunc", "round", "--state", str(state), "--truncations", str(path))
    assert (status, err) == (0, "")
    blob = json.loads(out)
    assert blob["tamed"] == {"constructs": 363, "constructions": 120, "constrs": 62}
    new = round_state_from_json_dict(blob["state"])
    assert (blob["tamed"]["constructs"], blob["tamed"]["constructions"]) == (
        len(tamed_constructs(new)), len(tamed_constructions(new)))


def test_trunc_round_refuses_state_format_2(capsys, tmp_path):
    ht1 = tmp_path / "ht1.json"
    ht1.write_text(json.dumps(SQUARE_HT1))
    state = json.loads(run(capsys, "trunc", "init", "--truncations", str(ht1))[1])
    path = tmp_path / "state.json"
    for version in (2, True, 1.0):
        path.write_text(json.dumps({**state, "format": version}))
        assert run(capsys, "trunc", "round", "--state", str(path)) == (
            2, "", "error: unsupported format version\n"
        )


def test_trunc_round_takes_the_state_of_pba_setup(capsys, tmp_path):
    status, out, _ = run(capsys, "pba", "setup", "4")
    assert status == 0
    state = tmp_path / "state.json"
    state.write_text(json.dumps(json.loads(out)["state"]))
    status, out, _ = run(capsys, "trunc", "round", "--state", str(state))
    assert status == 0
    assert json.loads(out)["round"] == 3


@pytest.mark.parametrize("wrapped_by", ["pba setup", "trunc round --truncations"])
def test_trunc_round_takes_wrapped_state(capsys, tmp_path, wrapped_by):
    if wrapped_by == "pba setup":
        status, out, _ = run(capsys, "pba", "setup", "2")
    else:
        ht1, ht2 = tmp_path / "ht1.json", tmp_path / "ht2.json"
        ht1.write_text(json.dumps(SQUARE_HT1))
        ht2.write_text(json.dumps(SQUARE_HT2))
        state1 = tmp_path / "s1.json"
        state1.write_text(run(capsys, "trunc", "init", "--truncations", str(ht1))[1])
        status, out, _ = run(capsys, "trunc", "round", "--state", str(state1),
                             "--truncations", str(ht2))
    assert status == 0
    wrapped, unwrapped = tmp_path / "wrapped.json", tmp_path / "unwrapped.json"
    wrapped.write_text(out)
    unwrapped.write_text(json.dumps(json.loads(out)["state"]))
    direct = run(capsys, "trunc", "round", "--state", str(wrapped))
    assert direct[0] == 0 and direct[1]
    assert direct == run(capsys, "trunc", "round", "--state", str(unwrapped))


def test_trunc_round_counts_tamed_faces_past_8_facets(capsys, tmp_path):
    # pba setup 2 previews 12 facets; advancing along the bare truncation
    # (singletons plus the full set) yields a 12-atom truncation hypergraph
    status, out, _ = run(capsys, "pba", "setup", "2")
    assert status == 0
    state = tmp_path / "state.json"
    state.write_text(json.dumps(json.loads(out)["state"]))
    status, out, _ = run(capsys, "trunc", "round", "--state", str(state))
    names = json.loads(out)["facet_names"]
    assert status == 0 and len(names) == 12
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({
        "format": 1, "carrier": names, "hyperedges": [[n] for n in names] + [names],
    }))
    status, out, err = run(capsys, "trunc", "round", "--state", str(state),
                           "--truncations", str(bare))
    assert (status, err) == (0, "")
    assert json.loads(out)["tamed"]["constructs"] == 25


def test_trunc_round_guard_names_the_vertex_decoration(capsys, tmp_path):
    # a 10-atom path gives vertex decorations of 9 facets; no trunc flag
    # raises that guard, and the message names what it counts
    atoms = [f"a{i}" for i in range(10)]
    path = tmp_path / "path10.json"
    path.write_text(json.dumps({
        "format": 1, "carrier": atoms,
        "hyperedges": [[a] for a in atoms] + [list(p) for p in zip(atoms, atoms[1:])],
    }))
    status, out, _ = run(capsys, "trunc", "init", "--truncations", str(path))
    assert status == 0
    state = tmp_path / "s1.json"
    state.write_text(out)
    status, out, err = run(capsys, "trunc", "round", "--state", str(state))
    assert (status, out) == (2, "")
    assert err == (
        "error: guard exceeded: vertex decoration has 9 facets, guard is 8; "
        "this guard is fixed\n"
    )


def _break(key, value):
    def patch(state):
        state[key] = value
    return patch


def _fuse_first_decoration(state):
    # ["y", "z", "u"] as the string "yzu"
    state["vertex_hypergraph"][0] = "".join(state["vertex_hypergraph"][0])


def _true_count(state):
    state["facets"][0] = {"x": True}


@pytest.mark.parametrize("patch, message", [
    (_break("round", "x"), "'round' must be a positive integer"),
    (_break("round", True), "'round' must be a positive integer"),
    (_break("round", 0), "'round' must be a positive integer"),
    (_break("trace", [{"round": 1}]), "trace entry lacks"),
    (_break("trace", 5), "'trace' must be a list of objects"),
    (_break("vertex_hypergraph", 5), "'vertex_hypergraph' must be a list of lists"),
    (_break("base", "xyzu"), "'base' must be a list of atom labels"),
    (_fuse_first_decoration, "'vertex_hypergraph' must be a list of lists"),
    (_true_count, "facet counts must be positive integers"),
], ids=["round-str", "round-bool", "round-zero", "trace-entry", "trace-int",
        "vertex-int", "base-str", "decoration-str", "count-true"])
def test_malformed_round_json_exits_2(capsys, tmp_path, patch, message):
    ht1 = tmp_path / "ht1.json"
    ht1.write_text(json.dumps(SQUARE_HT1))
    state = json.loads(run(capsys, "trunc", "init", "--truncations", str(ht1))[1])
    patch(state)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    status, out, err = run(capsys, "trunc", "round", "--state", str(path))
    assert (status, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_pba_setup_self_check_failure_is_an_invariant_break(capsys, monkeypatch, fresh_pba_setups):
    real = pba.constrs
    monkeypatch.setattr(pba, "constrs", lambda s: real(s)[1:])
    status, out, err = run(capsys, "pba", "setup", "2")
    assert (status, out) == (1, "")
    assert err == (
        "error: invariant broken: round-one constrs are not the proper non-empty subsets\n"
    )


def test_pba_setup_dropped_decoration_is_an_invariant_break(capsys, monkeypatch, fresh_pba_setups):
    # an advance that loses one vertex decoration no longer counts the
    # (n+1)! letter orderings
    real = pba.advance

    def lossy(s, edges):
        state = real(s, edges)
        return RoundState(state.base, state.facets, state.vertex_sets[1:], state.truncations,
                          state.round_index, state.trace)

    monkeypatch.setattr(pba, "advance", lossy)
    with pytest.raises(InvariantError, match="do not count the orderings"):
        pba.pba_setup(2)
    status, out, err = run(capsys, "pba", "setup", "2")
    assert (status, out) == (1, "")
    assert err == (
        "error: invariant broken: round-one constructions do not count the orderings\n"
    )


def test_main_calls_share_one_parser(capsys, monkeypatch, pentagon_file):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run(capsys, "hg", "fvector", pentagon_file)[0] == 0
    first = len(built)
    assert run(capsys, "pba", "census", "2")[0] == 0
    assert len(built) == first


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
        raise verification.VerificationFailure("frozen value drifted")

    monkeypatch.setattr(verification, "CHECKS", (("fine", fine), ("broken", broken)))
    status, out, _ = run(capsys, "corpus", "verify")
    assert status == 1
    assert out.splitlines() == [
        "ok   fine",
        "FAIL broken: frozen value drifted",
        "1 of 2 checks failed",
    ]


def test_verify_prints_nothing_when_a_check_breaks_an_invariant(capsys, monkeypatch):
    def fine():
        pass

    def broken():
        raise InvariantError("normal form is neither type I nor type II")

    monkeypatch.setattr(verification, "CHECKS", (("fine", fine), ("broken", broken)))
    assert run(capsys, "corpus", "verify") == (
        1, "", "error: invariant broken: normal form is neither type I nor type II\n"
    )


@pytest.mark.parametrize("error", [InvariantError, RealizationError])
def test_invariant_break_exits_1_with_one_line(capsys, monkeypatch, pentagon_file, error):
    def broken(h, **_):
        raise error("normal form is neither type I nor type II")

    monkeypatch.setattr(cli, "f_vector", broken)
    status, out, err = run(capsys, "hg", "fvector", pentagon_file)
    assert (status, out) == (1, "")
    assert err == "error: invariant broken: normal form is neither type I nor type II\n"


def test_an_unencodable_row_exits_2_with_one_line(capsys, monkeypatch, tmp_path):
    path = tmp_path / "accent.json"
    path.write_text(json.dumps({"format": 1, "carrier": ["é", "b"],
                                "hyperedges": [["é"], ["b"], ["é", "b"]]}))
    raw = io.BytesIO()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="ascii"))
    assert cli.main(["hg", "faces", str(path)]) == 2
    assert raw.getvalue() == b""
    assert capsys.readouterr().err.startswith("error: 'ascii' codec can't encode character")


def test_rows_are_written_past_empty_ones():
    out = io.StringIO()
    cli._write_rows(out, ["a\n", *[""] * 3000, "b\n"])
    assert out.getvalue() == "a\nb\n"


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("raised, status", [(None, 0), (InvariantError, 1), (ValueError, 2), (RuntimeError, None)])
def test_handlers_run_with_the_collector_paused(capsys, monkeypatch, pentagon_file, collecting, raised, status):
    # the collector is off inside a handler, and main hands the caller back
    # its own collector state on every exit status and on a raise
    inside = []

    def f_vector(h, **_):
        inside.append(gc.isenabled())
        if raised:
            raise raised("planted")
        return [5, 5, 1]

    monkeypatch.setattr(cli, "f_vector", f_vector)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if status is None:
            with pytest.raises(RuntimeError, match="planted"):
                cli.main(["hg", "fvector", pentagon_file])
        else:
            assert cli.main(["hg", "fvector", pentagon_file]) == status
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert (inside, after) == ([False], collecting)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=-10**60, max_value=10**60)
    | st.text() | st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é", "\u2028", "\U0001f600", ""]),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=30,
)


@given(_JSON_VALUES)
def test_json_writer_spells_what_the_json_module_does(data):
    out = io.StringIO()
    cli._dump_json(out, data)
    assert out.getvalue() == json.dumps(data, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("data", [1.5, [1, 2.0], {"a": float("nan")}, ("a", 1), {"a": {1, 2}}, {1: "a"}, {"a": b"x"}])
def test_json_writer_refuses_what_no_handler_writes(data):
    with pytest.raises(TypeError):
        cli._dump_json(io.StringIO(), data)


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


def _chain_tree_text(n: int) -> str:
    """The JSON text of an n-node chain tree, written out by hand: json.dumps
    recurses as deep as the text nests."""
    opened = "".join(f'"label": "n{i}", "children": [{{' for i in range(n - 1))
    return '{"format": 1, ' + opened + f'"label": "n{n - 1}"' + "}]" * (n - 1) + "}"


@pytest.mark.parametrize("argv", [
    ["op", "graph", "--tree"], ["op", "words", "--tree"], ["hg", "faces"], ["trunc", "round", "--state"],
], ids=" ".join)
def test_json_nested_past_the_decoder_exits_2(capsys, tmp_path, argv):
    # a 600-node chain nests 1,200 levels; the other inputs are 100,000 `[`
    path = tmp_path / "deep.json"
    path.write_text(_chain_tree_text(600) if argv[0] == "op" else "[" * 100_000)
    status, out, err = run(capsys, *argv, str(path))
    assert (status, out) == (2, "")
    assert err.startswith(f"error: malformed JSON in {path}: maximum recursion depth exceeded")
    assert err.count("\n") == 1


def test_a_face_nested_past_the_carrier_exits_2(capsys):
    # a construct has at most one node per atom: 1,200 levels over the 14
    # atoms of pba 3 are refused as the text is read, short of the
    # interpreter's recursion limit
    face = "x1(" * 1199 + "x2" + ")" * 1199
    status, out, err = run(capsys, "pba", "encode", "3", face)
    assert (status, out) == (2, "")
    assert err.startswith("error: nesting deeper than the 14 atoms of the carrier in 'x1(x1(")
    assert err.count("\n") == 1


def test_undecodable_json_names_its_file(capsys, tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    assert run(capsys, "hg", "faces", str(path)) == (
        2, "", f"error: malformed JSON in {path}: 'utf-8' codec can't decode byte 0xff "
        "in position 0: invalid start byte\n"
    )


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
