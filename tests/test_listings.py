"""`hg faces`, `hg constructions` and `hg hasse` read the faces off psi
keys and build no Construct. The Construct enumerators, `covers` and
`print_construct` stay their oracle: every listing must equal the one
rebuilt from them, row for row."""

import json
import random

import pytest

from hgpoly import Hypergraph, cli, constructs
from hgpoly.constructs import (
    covers,
    enumerate_constructions,
    enumerate_constructs,
    parse_construct,
    print_construct,
)

LISTINGS = ("faces", "constructions", "hasse")


def _seeded_six_atoms(seed: int) -> Hypergraph:
    """A connected 6-atom hypergraph: a random spanning tree of pairs and a
    few random larger edges. Atom labels are free text: two extend others
    by a space and a `!`, which sort below every character of the syntax."""
    rng = random.Random(seed)
    atoms = ["a", "a b", "c", "c!", "d", "e"]
    rng.shuffle(atoms)
    edges = [[a] for a in atoms]
    edges += [[atoms[i], atoms[rng.randrange(i)]] for i in range(1, 6)]
    edges += [rng.sample(atoms, rng.randint(2, 4)) for _ in range(rng.randint(0, 4))]
    return Hypergraph(atoms, edges)


# labels holding `"`, a space and `!`: each sorts below every character of
# the syntax, and `"` also closes a text inside a hasse row
QUOTED = Hypergraph(
    ["a", "a b", "a!", 'a"', 'b"c'],
    [["a"], ["a b"], ["a!"], ['a"'], ['b"c'], ["a", "a b"], ["a b", "a!"], ["a!", 'a"'],
     ['a"', 'b"c'], ["a", "a!", 'b"c']],
)

# labels whose code-point order differs from their case or accent order
# (`B` < `Z` < `a` < `a b` < `a\b` < `é`), in a carrier order that is
# neither: every listing sorts its rows as Python `str`s
CODE_POINTS = Hypergraph(
    ["é", "a\\b", "Z", "a b", "B", "a"],
    [["é"], ["a\\b"], ["Z"], ["a b"], ["B"], ["a"], ["é", "a\\b"], ["a\\b", "Z"], ["Z", "a b"],
     ["a b", "B"], ["B", "a"], ["é", "Z", "a"], ["a\\b", "a b", "B", "a"]],
)


def _oracle(h: Hypergraph, command: str) -> str:
    """The listing rebuilt from Construct trees: faces by dimension and
    text, constructions in text order, and the hasse rows from `covers`, its
    DOT IDs escaped."""
    if command == "constructions":
        return "".join(sorted(print_construct(h, c) + "\n" for c in enumerate_constructions(h)))
    faces = enumerate_constructs(h)
    text = {c: print_construct(h, c) for c in faces}
    n = len(h.carrier)
    if command == "faces":
        return "".join(f"{dim}\t{t}\n" for dim, t in sorted((n - c.node_count, text[c]) for c in faces))
    # DOT IDs are double-quoted with `\` and `"` escaped, and sort as printed
    dot = {c: '"' + text[c].replace("\\", "\\\\").replace('"', '\\"') + '"' for c in faces}
    rows = sorted((n - c.node_count, dot[c]) for c in faces)
    edges = sorted(f"  {dot[s]} -> {dot[t]};\n" for s in faces for t in covers(h, s))
    return "digraph hasse {\n" + "".join(f"  {t};\n" for _, t in rows) + "".join(edges) + "}\n"


def _run(capsys, tmp_path, h: Hypergraph, command: str) -> tuple[int, str, str]:
    path = tmp_path / "h.json"
    path.write_text(json.dumps(h.to_json_dict()))
    status = cli.main(["hg", command, str(path)])
    captured = capsys.readouterr()
    return status, captured.out, captured.err


@pytest.mark.parametrize("command", LISTINGS)
def test_listings_equal_their_construct_oracle(capsys, tmp_path, small_corpus, named, command):
    for h in [*small_corpus, *named.values(), *map(_seeded_six_atoms, range(4)), QUOTED, CODE_POINTS]:
        assert _run(capsys, tmp_path, h, command) == (0, _oracle(h, command), ""), h


SPACED = Hypergraph(["a b", "c"], [["a b"], ["c"], ["a b", "c"]])


@pytest.mark.parametrize("h", [SPACED, QUOTED], ids=["spaced", "quoted"])
def test_printed_faces_parse_back(h):
    # a space inside a label belongs to it, not to the construct syntax
    for c in enumerate_constructs(h):
        assert parse_construct(h, print_construct(h, c)) == c


def test_listings_build_no_construct(capsys, tmp_path, monkeypatch, small_corpus, named):
    hypergraphs = [*small_corpus[-20:], *named.values(), _seeded_six_atoms(0)]
    want = {(h, c): _run(capsys, tmp_path, h, c) for h in hypergraphs for c in LISTINGS}

    def refuse(*args, **kwargs):
        raise AssertionError("a listing command built a Construct")

    monkeypatch.setattr(constructs, "Construct", refuse)
    with pytest.raises(AssertionError):
        enumerate_constructs(named["2-simplex"])  # the stand-in is live
    for (h, command), got in want.items():
        assert _run(capsys, tmp_path, h, command) == got


DISCONNECTED = Hypergraph(["x", "y"], [["x"], ["y"]])
NINE = [f"a{i}" for i in range(9)]
NINE_ATOMS = Hypergraph(NINE, [[a] for a in NINE] + [NINE])


@pytest.mark.parametrize("command,noun", [
    ("faces", "constructs"), ("hasse", "constructs"), ("constructions", "constructions"),
])
def test_listings_refuse_a_disconnected_input(capsys, tmp_path, command, noun):
    assert _run(capsys, tmp_path, DISCONNECTED, command) == (
        2, "", f"error: {noun} require a connected hypergraph\n"
    )


@pytest.mark.parametrize("command", LISTINGS)
def test_listings_keep_the_carrier_guard(capsys, tmp_path, command):
    assert _run(capsys, tmp_path, NINE_ATOMS, command) == (
        2, "",
        "error: guard exceeded: carrier has 9 atoms, guard is 8; "
        "raise the guard explicitly to enumerate\n",
    )
