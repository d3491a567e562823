"""The library's records: value records are tuples that print, compare and
hash by value, identity objects compare by identity, and the validated
records refuse bad input with their messages."""

from fractions import Fraction

import pytest

from hgpoly import Hypergraph, pba_setup
from hgpoly.constructs import Omega, parse_construct
from hgpoly.operadic import (
    EdgeRemovalCensus, MinPath, OperadicTree, OperadicTreeError, build_edge_graph, classify_edge,
    parse_tree,
)
from hgpoly.pba import HoleWord, PbaCensus, PbaSetup, census
from hgpoly.realization import HalfSpaceSystem, LinearConstraint, RationalPoint, hrep
from hgpoly.truncation import (
    Multiset, RoundState, RoundTransition, TraceEntry, TruncationError, simplex_round,
)

PATH3 = [["x"], ["y"], ["z"], ["x", "y"], ["y", "z"]]


def _path3() -> Hypergraph:
    return Hypergraph(["x", "y", "z"], PATH3)


# Each maker builds a fresh record of one value; the text is its repr as
# the records printed when they were dataclasses.
VALUE_RECORDS = [
    (lambda: Omega(frozenset({"a"})), "Omega(carried=frozenset({'a'}))"),
    (lambda: MinPath(("c", "b", "e"), "II"), "MinPath(vertices=('c', 'b', 'e'), path_type='II')"),
    (lambda: EdgeRemovalCensus((frozenset({"a"}), frozenset({"b"})), ((frozenset({"b"}), frozenset({"e"})),)),
     "EdgeRemovalCensus(subtrees=(frozenset({'a'}), frozenset({'b'})), "
     "pairs=((frozenset({'b'}), frozenset({'e'})),))"),
    (lambda: HoleWord(("x1", 1), frozenset({(0, 1)}), (frozenset({"x2"}),)),
     "HoleWord(tokens=('x1', 1), parens=frozenset({(0, 1)}), hole_map=(frozenset({'x2'}),))"),
    (lambda: census(pba_setup(2)),
     "PbaCensus(vertices=12, edges=12, facets=12, faces=25, facet_profiles=(((1, 1, 1), 6), ((1, 2), 6)))"),
    (lambda: LinearConstraint(frozenset({"x"}), 3, "at-least"),
     "LinearConstraint(support=frozenset({'x'}), rhs=3, kind='at-least')"),
    (lambda: hrep(_path3()),
     "HalfSpaceSystem(ambient=Hypergraph({x,y,z}; {x}, {y}, {z}, {x,y}, {y,z}), masks=(1, 2, 4, 3, 6, 7))"),
    (lambda: TraceEntry(1, (("a", "b"),), (("a",),)),
     "TraceEntry(round_index=1, vertex_sets=(('a', 'b'),), truncation_edges=(('a',),))"),
    (lambda: RoundTransition((Multiset(("x", "y"), (2, 1)),), (frozenset({"2x+y"}),)),
     "RoundTransition(facets=(Multiset(base=('x', 'y'), counts=(2, 1)),), vertex_sets=(frozenset({'2x+y'}),))"),
    (lambda: Multiset(("x", "y"), (2, 1)), "Multiset(base=('x', 'y'), counts=(2, 1))"),
    (lambda: parse_tree("a(c,b(d))"),
     "OperadicTree(label='a', children=(OperadicTree(label='b', children=(OperadicTree(label='d', "
     "children=()),)), OperadicTree(label='c', children=())))"),
    (lambda: RationalPoint(("x", "y"), (Fraction(6), Fraction(3))),
     "RationalPoint(atoms=('x', 'y'), coords=(Fraction(6, 1), Fraction(3, 1)))"),
]


@pytest.mark.parametrize("make, text", VALUE_RECORDS, ids=[t.partition("(")[0] for _, t in VALUE_RECORDS])
def test_value_records_print_compare_and_hash_by_value(make, text):
    a, b = make(), make()
    assert repr(a) == text
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls", [Omega, MinPath, EdgeRemovalCensus, HoleWord, PbaCensus, LinearConstraint,
                                 HalfSpaceSystem, TraceEntry, RoundTransition, Multiset, OperadicTree])
def test_records_are_tuples(cls):
    assert issubclass(cls, tuple)


def test_value_records_differ_on_a_different_value():
    assert MinPath(("a", "b"), "I") != MinPath(("a", "b"), "II")
    assert Multiset(("x", "y"), (2, 1)) != Multiset(("x", "y"), (1, 2))
    assert RationalPoint(("x",), (Fraction(1),)) != RationalPoint(("x",), (Fraction(2),))
    assert parse_tree("a(b)") != parse_tree("a(c)")


def test_identity_objects_compare_by_identity():
    h = _path3()
    tree = parse_tree("a(b(c),d)")
    g, g2 = build_edge_graph(tree), build_edge_graph(tree)
    edge = parse_construct(g.hypergraph, "{b,c}(d)")
    s, s2 = simplex_round(h.carrier, h), simplex_round(h.carrier, h)
    setup = pba_setup(2)
    pairs = [
        (g, g2),
        (classify_edge(g, edge), classify_edge(g, edge)),
        (s, s2),
        (setup, PbaSetup(setup.n, setup.letters, setup.round1, setup.state)),
    ]
    for a, b in pairs:
        assert a == a and a != b
        assert len({a, b}) == 2


def test_identity_objects_keep_their_fields():
    setup = pba_setup(2)
    copy = PbaSetup(setup.n, setup.letters, setup.round1, setup.state)
    assert (copy.n, copy.letters, copy.round1, copy.state) == (2, ("x1", "x2", "x3"), setup.round1, setup.state)
    assert copy._memo == {} and copy._memo is not setup._memo
    s = setup.state
    again = RoundState(s.base, s.facets, s.vertex_sets, s.truncations, s.round_index, s.trace)
    assert (again.base, again.facets, again.vertex_sets, again.truncations, again.round_index, again.trace) == (
        s.base, s.facets, s.vertex_sets, s.truncations, 2, s.trace)
    assert RoundState(s.base, s.facets, s.vertex_sets, s.truncations).round_index == 1


@pytest.mark.parametrize("make, message", [
    (lambda: Multiset(("x", "y"), (1,)), "counts must run parallel to the base"),
    (lambda: Multiset(("x", "y"), (0, 0)), "a formal sum needs positive counts"),
    (lambda: Multiset(("x", "y"), (2, -1)), "a formal sum needs positive counts"),
    (lambda: OperadicTree(""), "node labels must be non-empty strings"),
    (lambda: OperadicTree("a", (OperadicTree(3),)), "node labels must be non-empty strings"),
    (lambda: OperadicTree("a", (OperadicTree("b", (OperadicTree("a"),)),)), "duplicate node label 'a'"),
])
def test_validated_records_refuse_bad_input(make, message):
    with pytest.raises((TruncationError, OperadicTreeError), match=f"^{message}$"):
        make()


def test_building_a_chain_walks_no_subtree(monkeypatch):
    # the duplicate-label check reads the children's label sets: building a
    # tree bottom-up walks no subtree, and only a duplicate found is named
    # by a preorder walk
    walks = []
    real = OperadicTree.nodes

    def spy(self):
        walks.append(self.label)
        return real(self)

    monkeypatch.setattr(OperadicTree, "nodes", spy)
    t = OperadicTree("n0")
    for i in range(1, 400):
        t = OperadicTree(f"n{i}", (t,))
    assert walks == []
    assert t.labels == frozenset(f"n{i}" for i in range(400))
    with pytest.raises(OperadicTreeError, match="^duplicate node label 'n7'$"):
        OperadicTree("a", (OperadicTree("b", (OperadicTree("n7"),)), t))
    assert walks


def test_round_state_checks_its_carrier():
    h = _path3()
    s = simplex_round(h.carrier, h)
    with pytest.raises(TruncationError, match="^facets must run in the order of the truncation carrier$"):
        RoundState(s.base, s.facets[::-1], s.vertex_sets, s.truncations)


def test_operadic_tree_sorts_its_children():
    t = OperadicTree("a", (OperadicTree("c"), OperadicTree("b", (OperadicTree("e"), OperadicTree("d")))))
    assert [c.label for c in t.children] == ["b", "c"]
    assert [c.label for c in t.children[0].children] == ["d", "e"]
    assert t == parse_tree("a(b(d,e),c)")
    assert t.labels == frozenset("abcde")
