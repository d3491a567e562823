"""Truncation rounds: the square example driven for three rounds, the
degenerate truncation choices, and the loud failure modes."""

import json

import pytest

from hgpoly.constructs import (
    Construct,
    enumerate_constructions,
    enumerate_constructs,
    leq,
    make_node,
    parse_construct,
)
from hgpoly.corpus import all_connected_atomic, hemiassociahedron
from hgpoly.hypergraph import GuardExceeded, connected_subset_masks
from hgpoly.pba import pba_setup
from hgpoly.truncation import (
    Multiset,
    TruncationError,
    advance,
    complements,
    constrs,
    make_round,
    mu_sigma,
    next_round,
    round_state_from_json_dict,
    round_state_to_json_dict,
    simplex_round,
    tamed_constructions,
    tamed_constructs,
    vertex_family,
)

BASE = ("x", "y", "z", "u")

ROUND_1_TRUNCATIONS = [["x"], ["y"], ["z"], ["u"], ["x", "y"], ["x", "y", "z", "u"]]

ROUND_2_TRUNCATIONS = [
    ["u"], ["x"], ["y"], ["z"], ["x+y"],
    ["x", "x+y"],
    ["u", "x", "y", "z", "x+y"],
]

H2 = {"x", "y", "z", "u", "x+y"}
H2V = {
    frozenset({"y", "z", "u"}),
    frozenset({"x", "z", "u"}),
    frozenset({"y", "x+y", "z"}),
    frozenset({"x", "x+y", "z"}),
    frozenset({"y", "x+y", "u"}),
    frozenset({"x", "x+y", "u"}),
}

H3 = {"x", "y", "z", "u", "x+y", "2x+y"}
H3V = {
    frozenset({"x", "z", "u"}),
    frozenset({"y", "z", "u"}),
    frozenset({"x+y", "y", "z"}),
    frozenset({"x+y", "y", "u"}),
    frozenset({"x+y", "2x+y", "z"}),
    frozenset({"x", "2x+y", "z"}),
    frozenset({"x+y", "2x+y", "u"}),
    frozenset({"x", "2x+y", "u"}),
}


def square_round_1():
    return simplex_round(BASE, ROUND_1_TRUNCATIONS)


def square_round_2():
    return advance(square_round_1(), ROUND_2_TRUNCATIONS)


# -- formal sums --------------------------------------------------------


def test_multiset_text_and_json():
    m = Multiset.from_json_dict(BASE, {"x": 2, "y": 1})
    assert m.text() == "2x+y"
    assert Multiset.unit(BASE, "u").text() == "u"
    assert m.add(Multiset.unit(BASE, "x")).text() == "3x+y"
    assert m.to_json_dict() == {"x": 2, "y": 1}
    assert Multiset.from_json_dict(BASE, m.to_json_dict()) == m


def test_multiset_rejects_bad_input():
    with pytest.raises(TruncationError):
        Multiset(BASE, (1, 0, 0))
    with pytest.raises(TruncationError):
        Multiset(BASE, (0, 0, 0, 0))
    with pytest.raises(TruncationError):
        Multiset(BASE, (1, -1, 0, 2))
    with pytest.raises(TruncationError):
        Multiset.unit(BASE, "w")
    with pytest.raises(TruncationError):
        Multiset.from_json_dict(BASE, {"w": 1})
    with pytest.raises(TruncationError):
        Multiset.from_json_dict(BASE, {"x": 0})


def test_mu_sigma_flattens():
    x = Multiset.unit(BASE, "x")
    xy = Multiset.from_json_dict(BASE, {"x": 1, "y": 1})
    assert mu_sigma([x, xy]).text() == "2x+y"
    assert mu_sigma([x]).text() == "x"
    assert mu_sigma([x, Multiset.from_json_dict(BASE, {"x": 2, "y": 1})]).text() == "3x+y"
    with pytest.raises(TruncationError):
        mu_sigma([])


# -- round 1 ------------------------------------------------------------


def test_simplex_round_shape():
    s = square_round_1()
    assert s.facet_names == BASE
    assert [m.text() for m in s.facets] == list(BASE)
    assert set(s.vertex_sets) == {
        frozenset(BASE) - {a} for a in BASE
    }
    assert s.round_index == 1 and s.trace == ()


def test_round_1_taming_is_trivial():
    s = square_round_1()
    ht = s.truncations
    assert set(tamed_constructs(s)) == set(enumerate_constructs(ht))
    assert set(tamed_constructions(s)) == set(enumerate_constructions(ht))


def test_round_1_construction_vertex():
    s = square_round_1()
    t = parse_construct(s.truncations, "z(y(x),u)")
    assert t in set(tamed_constructions(s))
    assert vertex_family(s, t) == {"x", "x+y", "u"}


# -- the worked square example ------------------------------------------


def test_round_1_to_2():
    tr = next_round(square_round_1())
    assert {m.text() for m in tr.facets} == H2
    assert [m.text() for m in tr.facets][:4] == list(BASE)
    assert set(tr.vertex_sets) == H2V
    assert tr.coincidences == ()


def test_round_2_state():
    s = square_round_2()
    assert s.round_index == 2
    assert s.facet_names == ("x", "y", "z", "u", "x+y")
    assert set(s.vertex_sets) == H2V
    assert len(s.trace) == 1
    assert s.trace[0].round_index == 1
    assert len(s.trace[0].vertex_sets) == 4
    assert len(s.trace[0].truncation_edges) == 6


def test_round_2_constructions():
    s = square_round_2()
    ht = s.truncations

    def node(dec, kids=()):
        return make_node(ht, dec, list(kids))

    expected = {
        node({"x", "x+y"}, [node({"y"}), node({"z"}), node({"u"})]),
        node({"y", "x+y"}, [node({"x"}), node({"z"}), node({"u"})]),
        node({"x", "u"}, [node({"y"}), node({"x+y"}), node({"z"})]),
        node({"x", "z"}, [node({"y"}), node({"x+y"}), node({"u"})]),
        node({"y", "u"}, [node({"x"}, [node({"x+y"})]), node({"z"})]),
        node({"y", "u"}, [node({"x+y"}, [node({"x"})]), node({"z"})]),
        node({"y", "z"}, [node({"x"}, [node({"x+y"})]), node({"u"})]),
        node({"y", "z"}, [node({"x+y"}, [node({"x"})]), node({"u"})]),
    }
    got = tamed_constructions(s)
    assert len(got) == 8
    assert set(got) == expected


def test_round_2_taming_filters():
    s = square_round_2()
    comps = complements(s)
    assert set(comps) == {
        frozenset({"x", "x+y"}), frozenset({"y", "x+y"}),
        frozenset({"x", "u"}), frozenset({"y", "u"}),
        frozenset({"x", "z"}), frozenset({"y", "z"}),
    }
    for t in tamed_constructs(s):
        assert any(c <= t.decoration for c in comps)
    untamed = set(enumerate_constructs(s.truncations)) - set(tamed_constructs(s))
    root_z = make_node(s.truncations, {"z"}, [
        make_node(s.truncations, {"x", "x+y"}),
        make_node(s.truncations, {"y"}),
        make_node(s.truncations, {"u"}),
    ])
    assert root_z in untamed


def test_round_2_to_3():
    s = square_round_2()
    tr = next_round(s)
    assert {m.text() for m in tr.facets} == H3
    assert [m.text() for m in tr.facets][:5] == list(s.facet_names)
    assert set(tr.vertex_sets) == H3V
    assert tr.coincidences == ()


def test_round_3_correspondences():
    s = square_round_2()
    ht = s.truncations
    t = make_node(ht, {"y", "z"}, [
        make_node(ht, {"x"}, [make_node(ht, {"x+y"})]), make_node(ht, {"u"}),
    ])
    assert vertex_family(s, t) == {"x+y", "2x+y", "u"}
    mirror = make_node(ht, {"y", "z"}, [
        make_node(ht, {"x+y"}, [make_node(ht, {"x"})]), make_node(ht, {"u"}),
    ])
    assert vertex_family(s, mirror) == {"x", "2x+y", "u"}


# -- constrs ------------------------------------------------------------


def test_constrs_shape_and_maximality():
    for s in (square_round_1(), square_round_2()):
        ht = s.truncations
        top = Construct(frozenset(s.facet_names), ())
        tamed = set(tamed_constructs(s))
        assert top in tamed
        below = tamed - {top}
        maximal = {
            t for t in below
            if not any(u != t and leq(t, u, ht) for u in below)
        }
        got = set(constrs(s))
        assert got == maximal
        for t in got:
            assert len(t.children) == 1 and not t.children[0].children
            y = t.children[0].decoration
            assert t.decoration == frozenset(s.facet_names) - y
            assert any(y <= fam for fam in s.vertex_sets)


def test_constr_facets_are_subset_sums():
    s = square_round_2()
    ys = {t.children[0].decoration for t in constrs(s)}
    assert ys == {
        frozenset({"x"}), frozenset({"y"}), frozenset({"z"}),
        frozenset({"u"}), frozenset({"x+y"}), frozenset({"x", "x+y"}),
    }


def _oracle_states():
    """The square rounds and the pba rounds for n <= 2."""
    states = [square_round_1(), square_round_2()]
    for n in (1, 2):
        setup = pba_setup(n)
        states += [setup.round1, setup.state]
    return states


def test_tamed_constructions_are_the_tamed_construct_filter():
    # root exactly a complement, every other node a singleton
    for s in _oracle_states():
        ht = s.truncations
        comps = complements(s)
        want = [
            t for t in enumerate_constructs(ht)
            if t.decoration in comps
            and all(len(node.decoration) == 1 for node in list(t.nodes())[1:])
        ]
        got = tamed_constructions(s)
        assert len(got) == len(set(got)) == len(want)
        assert set(got) == set(want)


def test_constrs_are_the_connected_subset_filter():
    for s in _oracle_states():
        ht = s.truncations
        full = frozenset(s.facet_names)
        want = [
            make_node(ht, full - ht.labels(m), [Construct(ht.labels(m))])
            for m in connected_subset_masks(ht)
            if m != ht.full_mask and any(ht.labels(m) <= fam for fam in s.vertex_sets)
        ]
        assert constrs(s) == want


def test_tamed_constructions_keep_the_enumeration_guard():
    atoms = [f"a{i}" for i in range(10)]
    path = [[a] for a in atoms] + [list(p) for p in zip(atoms, atoms[1:])]
    with pytest.raises(GuardExceeded, match="carrier has 9 atoms, guard is 8"):
        tamed_constructions(simplex_round(atoms, path))


# -- degenerate truncation choices --------------------------------------


def test_bare_simplex_round_is_stationary():
    bare = [["x"], ["y"], ["z"], ["u"], ["x", "y", "z", "u"]]
    s = simplex_round(BASE, bare)
    tr = next_round(s)
    assert tr.facets == s.facets
    assert set(tr.vertex_sets) == set(s.vertex_sets)
    again = advance(s, bare)
    assert again.facet_names == s.facet_names


def test_complete_graph_round_adds_every_proper_subset():
    edges = [[a] for a in BASE] + [
        [a, b] for i, a in enumerate(BASE) for b in BASE[i + 1:]
    ]
    tr = next_round(simplex_round(BASE, edges))
    names = {m.text() for m in tr.facets}
    assert len(names) == 14
    assert {"x+y+z", "y+z+u", "x+u"} <= names


# -- propositions across the corpus -------------------------------------


def test_rounds_preserve_facets_and_coverage():
    cases = [h for h in all_connected_atomic(3)] + [hemiassociahedron()]
    for h in cases:
        edges = [sorted(h.labels(m)) for m in h.edge_masks]
        s = simplex_round(h.carrier, edges)
        tr = next_round(s)
        new_names = [m.text() for m in tr.facets]
        assert list(s.facet_names) == new_names[: len(s.facet_names)]
        for name in new_names:
            assert any(name in fam for fam in tr.vertex_sets)


# -- failure modes ------------------------------------------------------


def test_flattening_collision_reports_both_preimages():
    base = ("x",)
    facets = [Multiset(base, (1,)), Multiset(base, (2,)), Multiset(base, (3,))]
    ht = [["x"], ["2x"], ["3x"], ["x", "2x"], ["x", "2x", "3x"]]
    s = make_round(base, facets, [["x", "2x", "3x"]], ht)
    with pytest.raises(TruncationError, match=r"\{3x\}.*\{2x,x\}.*3x"):
        next_round(s)


def test_make_round_validation():
    facets = [Multiset.unit(BASE, a) for a in BASE]
    bare = [["x"], ["y"], ["z"], ["u"], ["x", "y", "z", "u"]]
    families = [["y", "z", "u"], ["x", "z", "u"], ["x", "y", "u"], ["x", "y", "z"]]
    with pytest.raises(TruncationError, match="connected"):
        make_round(BASE, facets, families, [["x"], ["y"], ["z"], ["u"], ["x", "y"]])
    with pytest.raises(TruncationError, match="no vertex decoration"):
        make_round(BASE, facets, [["x", "y", "z"]], bare)
    with pytest.raises(TruncationError, match="collide"):
        make_round(BASE, facets + [Multiset.unit(BASE, "x")], families, bare)
    with pytest.raises(TruncationError, match="unknown facets"):
        make_round(BASE, facets, families + [["w"]], bare)
    with pytest.raises(TruncationError, match="non-empty"):
        make_round(BASE, facets, families + [[]], bare)
    with pytest.raises(TruncationError, match="invalid"):
        make_round(BASE, facets, families, [["x"], ["y"], ["z"], ["u"], ["x", "w"]])


# -- serialization ------------------------------------------------------


def test_round_state_json_round_trip():
    s = square_round_2()
    blob = json.dumps(round_state_to_json_dict(s), sort_keys=True)
    back = round_state_from_json_dict(json.loads(blob))
    assert round_state_to_json_dict(back) == json.loads(blob)
    assert back.facet_names == s.facet_names
    assert set(back.vertex_sets) == set(s.vertex_sets)
    assert back.trace == s.trace


def test_round_state_json_errors():
    with pytest.raises(TruncationError, match="lacks"):
        round_state_from_json_dict({"format": 1})
    with pytest.raises(TruncationError):
        round_state_from_json_dict(
            {
                "base": ["x"],
                "round": 1,
                "facets": [{"x": "one"}],
                "vertex_hypergraph": [["x"]],
                "truncation_hypergraph": {"carrier": ["x"], "hyperedges": [["x"]]},
            }
        )
