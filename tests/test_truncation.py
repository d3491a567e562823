"""Truncation rounds: the square example driven for three rounds, the
degenerate truncation choices, and the loud failure modes."""

import json
import random
import re

import pytest

from hgpoly import truncation
from hgpoly.constructs import (
    Construct,
    enumerate_constructions,
    enumerate_constructs,
    leq,
    make_node,
    parse_construct,
    print_construct,
    validate_construct,
)
from hgpoly.corpus import all_connected_atomic, hemiassociahedron
from hgpoly.hypergraph import GuardExceeded, connected_subset_masks
from hgpoly.nestedsets import psi
from hgpoly.pba import pba_setup
from hgpoly.truncation import (
    Multiset,
    RoundState,
    TruncationError,
    advance,
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
from hgpoly.verification import (
    VerificationFailure,
    _round_properties_hold,
    check_truncation_rounds,
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


def square_round_3():
    # round 3 truncates along {x+y,2x+y}
    names = ["x", "y", "z", "u", "x+y", "2x+y"]
    return advance(square_round_2(), [[n] for n in names] + [["x+y", "2x+y"], names])


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
    with pytest.raises(TruncationError, match="empty family"):
        mu_sigma([])


def test_mu_sigma_refuses_mixed_bases():
    x = Multiset.unit(BASE, "x")
    with pytest.raises(TruncationError, match="different bases"):
        mu_sigma([x, Multiset.unit(("x", "y"), "x")])
    with pytest.raises(TruncationError, match="different bases"):
        mu_sigma([x, x, Multiset.unit(tuple(reversed(BASE)), "x")])


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


def test_facet_reads_each_facet_by_name():
    for s in (square_round_1(), square_round_2(), square_round_3()):
        for m in s.facets:
            assert s.facet(m.text()) is m
        with pytest.raises(TruncationError, match="unknown facet 'w'"):
            s.facet("w")


def test_round_state_keeps_facets_in_carrier_order():
    s = square_round_2()
    shuffled = (s.facets[1], s.facets[0], *s.facets[2:])
    with pytest.raises(TruncationError, match="carrier"):
        RoundState(s.base, shuffled, s.vertex_sets, s.truncations)


# -- the worked square example ------------------------------------------


def test_round_1_to_2():
    s = square_round_1()
    tr = next_round(s)
    assert {m.text() for m in tr.facets} == H2
    assert [m.text() for m in tr.facets][:4] == list(BASE)
    assert set(tr.vertex_sets) == H2V
    # each tamed construction has its own vertex decoration
    assert len(tr.vertex_sets) == len(tamed_constructions(s))


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
    comps = {frozenset(s.facet_names) - fam for fam in s.vertex_sets}
    assert comps == {
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
    assert len(tr.vertex_sets) == len(tamed_constructions(s))


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
        comps = {frozenset(s.facet_names) - fam for fam in s.vertex_sets}
        want = [
            t for t in enumerate_constructs(ht)
            if t.decoration in comps
            and all(len(node.decoration) == 1 for node in list(t.nodes())[1:])
        ]
        got = tamed_constructions(s)
        assert len(got) == len(set(got)) == len(want)
        assert set(got) == set(want)


def test_tamed_constructions_are_canonical(pba2, pba3):
    # tamed_constructions hands out the kernel's trees unchecked: each must
    # already be the canonical construct that validation returns
    states = [square_round_1(), square_round_2()]
    for setup in (pba_setup(1), pba2, pba3):
        states += [setup.round1, setup.state]
    for s in states:
        ht = s.truncations
        got = tamed_constructions(s)
        assert got
        for t in got:
            assert validate_construct(ht, t) == t


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
    with pytest.raises(GuardExceeded, match="vertex decoration has 9 facets, guard is 8"):
        tamed_constructions(simplex_round(atoms, path))


def test_tamed_constructs_guard_each_vertex_decoration():
    atoms = [f"a{i}" for i in range(10)]
    path = [[a] for a in atoms] + [list(p) for p in zip(atoms, atoms[1:])]
    with pytest.raises(GuardExceeded, match="vertex decoration has 9 facets, guard is 8"):
        tamed_constructs(simplex_round(atoms, path))


# -- counting the tamed faces -------------------------------------------


def _built_rounds():
    """Every round this file builds, the bare and complete-graph rounds
    advanced once more, a seeded sample of advanced corpus rounds, and two
    rounds with a vertex decoration equal to the whole facet set."""
    bare = [["x"], ["y"], ["z"], ["u"], ["x", "y", "z", "u"]]
    complete = [[a] for a in BASE] + [[a, b] for i, a in enumerate(BASE) for b in BASE[i + 1:]]
    round_one = [simplex_round(h.carrier, h) for k in (2, 3, 4) for h in all_connected_atomic(k)]
    hemi = hemiassociahedron()
    round_one.append(simplex_round(hemi.carrier, hemi))
    states = [*round_one, square_round_1(), square_round_2(), square_round_3()]
    for s in (simplex_round(BASE, bare), simplex_round(BASE, complete)):
        states += [s, _random_advance(s, random.Random(3))]
    for n in (1, 2, 3):
        setup = pba_setup(n)
        states += [setup.round1, setup.state]
    rng = random.Random(12)
    states += [_random_advance(s, rng) for s in rng.sample(round_one, 60)]
    facets = [Multiset(("x",), (k,)) for k in (1, 2, 3)]
    states.append(make_round(("x",), facets, [["x", "2x", "3x"]],
                             [["x"], ["2x"], ["3x"], ["x", "2x"], ["x", "2x", "3x"]]))
    three = [Multiset.unit(("x", "y", "z"), a) for a in "xyz"]
    states.append(make_round(("x", "y", "z"), three, [["y", "z"], ["x", "z"], ["x", "y"], ["x", "y", "z"]],
                             [["x"], ["y"], ["z"], ["x", "y"], ["y", "z"]]))
    return states


def test_tamed_counts_match_the_enumerated_lengths():
    # the new round's counts come from the face polynomial; the enumerated
    # lists are their oracle, whole-facet-set decorations included
    states = _built_rounds()
    for s in states:
        assert truncation._tamed_counts(s) == (len(tamed_constructs(s)), len(tamed_constructions(s)))
    assert truncation._tamed_counts(states[-1]) == (11, 5)


def test_tamed_counts_of_the_pba_states():
    want = {1: (3, 2), 2: (25, 12), 3: (363, 120), 4: (7401, 1680)}
    for n, counts in want.items():
        s = pba_setup(n).state
        assert truncation._tamed_counts(s) == counts == (len(tamed_constructs(s)), len(tamed_constructions(s)))


def _reference_transition(s):
    """The transition computed on labels: psi families, mu_sigma over facet
    names and list scans. Returns next_round's two fields, the families
    that two or more tamed constructions share (with their prints) and the
    vertex family of every tamed construction."""
    ht = s.truncations
    full = frozenset(s.facet_names)
    by_name = {m.text(): m for m in s.facets}
    preimage, image_sum = {}, {}

    def flatten(sub):
        total = mu_sigma([by_name[n] for n in sub])
        image = total.text()
        assert preimage.setdefault(image, sub) == sub, f"two preimages of {image}"
        image_sum[image] = total
        return image

    images = []
    for t in constrs(s):
        image = flatten(t.children[0].decoration)
        if image not in images:
            images.append(image)
    names = list(s.facet_names) + [n for n in images if n not in s.facet_names]
    families, sources, family_of = [], {}, {}
    for t in tamed_constructions(s):
        fam = family_of[t] = frozenset(flatten(sub) for sub in psi(t) if sub != full)
        if fam not in families:
            families.append(fam)
        sources.setdefault(fam, []).append(print_construct(ht, t))
    families.sort(key=lambda f: (len(f), sorted(names.index(n) for n in f)))
    coincidences = tuple(
        (tuple(sorted(fam, key=names.index)), tuple(sorted(sources[fam])))
        for fam in families
        if len(sources[fam]) > 1
    )
    return tuple(image_sum[n] for n in names), tuple(families), coincidences, family_of


def _random_advance(s, rng):
    """Advance s along a random connected truncation hypergraph on the
    next round's facets: every singleton, a few random pairs and triples,
    and the whole carrier."""
    names = [m.text() for m in next_round(s).facets]
    edges = [[n] for n in names] + [names]
    for _ in range(rng.randint(0, 4)):
        edges.append(rng.sample(names, rng.randint(2, min(3, len(names)))))
    return advance(s, edges)


def test_next_round_matches_the_label_reference():
    round_one = [simplex_round(h.carrier, h) for k in (2, 3, 4) for h in all_connected_atomic(k)]
    states = [*round_one, square_round_1(), square_round_2(), square_round_3()]
    for n in (1, 2, 3):
        setup = pba_setup(n)
        states += [setup.round1, setup.state]
    rng = random.Random(12)
    states += [_random_advance(s, rng) for s in rng.sample(round_one, 60)]
    for s in states:
        facets, vertex_sets, coincidences, family_of = _reference_transition(s)
        assert coincidences == ()
        tr = next_round(s)
        assert (tr.facets, tr.vertex_sets) == (facets, vertex_sets)
        for t, fam in family_of.items():
            assert vertex_family(s, t) == fam


def test_a_shared_vertex_decoration_fails_the_round_check(monkeypatch):
    # psi and the flattening are injective, so no two tamed constructions
    # share a decoration; force the second construction of every pass onto
    # the first one's decoration and the check must notice
    real = truncation._family
    passes = {}

    def colliding(ht, flat, t):
        fams = passes.setdefault(flat, [])
        fams.append(real(ht, flat, t))
        return fams[0] if len(fams) == 2 else fams[-1]

    monkeypatch.setattr(truncation, "_family", colliding)
    with pytest.raises(VerificationFailure):
        check_truncation_rounds()
    h = hemiassociahedron()
    with pytest.raises(VerificationFailure, match="do not biject"):
        _round_properties_hold(simplex_round(h.carrier, h))


def test_a_decoration_leaving_the_facets_names_its_construction(monkeypatch):
    # every span of a tamed construction flattens to a new facet, so force
    # the third decoration of the pass off the facet set: the error names
    # the third tamed construction, in the kernel's order
    s = square_round_1()
    real, calls = truncation._family, []

    def leaving(ht, flat, spans):
        calls.append(spans)
        fam = real(ht, flat, spans)
        return fam | {"nowhere"} if len(calls) == 3 else fam

    monkeypatch.setattr(truncation, "_family", leaving)
    third = print_construct(s.truncations, tamed_constructions(s)[2])
    with pytest.raises(TruncationError, match=rf"^decoration of {re.escape(third)} leaves"):
        next_round(s)


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
