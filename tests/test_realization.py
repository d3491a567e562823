import math
from fractions import Fraction

import pytest

from hgpoly import (
    Hypergraph,
    HypergraphError,
    RealizationError,
    f_vector,
    face_vertex_set,
    hrep,
    parse_construct,
    print_construct,
    verify_isomorphism,
    vertex_of_construction,
)
from hgpoly import constructs, corpus, realization
from hgpoly.constructs import Construct, enumerate_constructions, enumerate_constructs
from hgpoly.nestedsets import psi
from hgpoly.hypergraph import connected_subset_masks
from hgpoly.realization import affine_dimension, vertices_to_json_dict

from _helpers import face_counts_by_dimension

PENTAGON_HREP = """\
x >= 3
y >= 3
z >= 3
x + y >= 9
y + z >= 9
x + y + z == 27
"""


def test_pentagon_hrep_text(named):
    assert hrep(named["pentagon"]).to_text() == PENTAGON_HREP


def test_segment_hrep():
    h = corpus.simplex(2)
    assert hrep(h).to_text() == "x >= 3\ny >= 3\nx + y == 9\n"


def test_hrep_refuses_a_disconnected_hypergraph():
    # {x} and {y} alone bound no polytope: there is no carrier equality
    h = Hypergraph(["x", "y"], [["x"], ["y"]])
    with pytest.raises(HypergraphError, match="require a connected hypergraph"):
        hrep(h)


def test_hexagon_hrep_census(named):
    sys = hrep(named["hexagon"])
    kinds = [c.kind for c in sys.constraints]
    assert kinds.count("equality") == 1
    rhs = sorted(c.rhs for c in sys.constraints if c.kind == "at-least")
    assert rhs == [3, 3, 3, 9, 9, 9]


def test_pentagon_vertex_coordinates(named):
    h = named["pentagon"]
    v = vertex_of_construction(h, parse_construct(h, "x(y(z))"))
    assert v.coords == (Fraction(18), Fraction(6), Fraction(3))


def test_segment_vertex():
    h = corpus.simplex(2)
    v = vertex_of_construction(h, parse_construct(h, "x(y)"))
    assert v.coords == (Fraction(6), Fraction(3))


def test_rejects_non_construction(named):
    h = named["pentagon"]
    with pytest.raises(RealizationError):
        vertex_of_construction(h, parse_construct(h, "{x,y}(z)"))


def test_vertices_are_tight_on_psi_and_strict_elsewhere(small_corpus, named):
    # an oracle independent of the closed form: the public constraint
    # system, summed label by label over the Fraction coordinates
    for h in [*small_corpus, *named.values()]:
        system = hrep(h)
        for v in enumerate_constructions(h):
            p = vertex_of_construction(h, v)
            family = psi(v)
            for c in system.constraints:
                total = p.sum_over(c.support)
                if c.support in family:
                    assert total == c.rhs, (h, c)
                else:
                    assert total > c.rhs, (h, c)


def _tree(atom, *children):
    return Construct(frozenset({atom}), children)


MALFORMED = {
    "x(y)": _tree("x", _tree("y")),
    "x(y(y))": _tree("x", _tree("y", _tree("y"))),
    "x(y(z),z)": _tree("x", _tree("y", _tree("z")), _tree("z")),
}


@pytest.mark.parametrize("tree", MALFORMED.values(), ids=MALFORMED)
def test_trees_that_do_not_span_the_carrier_once_are_refused(named, tree):
    with pytest.raises(RealizationError):
        vertex_of_construction(named["pentagon"], tree)


def test_a_tree_over_other_atoms_is_refused(named):
    tree = _tree("x", _tree("y", _tree("z", _tree("w"))))
    with pytest.raises(HypergraphError, match="'w' not in carrier"):
        vertex_of_construction(named["pentagon"], tree)


def test_permutohedron_barycenter_is_interior(named):
    h = named["3-permutohedron"]
    n = len(h.carrier)
    value = Fraction(3**n, n)
    for c in hrep(h).constraints:
        total = value * len(c.support)
        if c.kind == "equality":
            assert total == c.rhs
        else:
            assert total > c.rhs


def test_edge_vertices_sit_on_the_named_hyperplane(named):
    h = named["pentagon"]
    edge = parse_construct(h, "{x,y}(z)")
    pts = face_vertex_set(h, edge)
    assert len(pts) == 2
    for p in pts:
        assert p["z"] == 3  # psi names {z}, so the edge saturates z >= 3
    other = parse_construct(h, "z({x,y})")
    for p in face_vertex_set(h, other):
        assert p.sum_over(["x", "y"]) == 9


def test_top_face_has_all_vertices(named):
    h = named["pentagon"]
    assert len(face_vertex_set(h, parse_construct(h, "{x,y,z}"))) == 5


def test_f_vectors(named):
    assert f_vector(named["pentagon"]) == (5, 5, 1)
    assert f_vector(named["hexagon"]) == (6, 6, 1)
    assert f_vector(named["3-permutohedron"]) == (24, 36, 14, 1)
    assert f_vector(named["2-simplex"]) == (3, 3, 1)
    assert f_vector(named["hemiassociahedron"]) == (18, 27, 11, 1)


def _simplex(n):
    atoms = [f"a{i}" for i in range(n)]
    return Hypergraph(atoms, [[a] for a in atoms] + [atoms])


def _path(n):
    atoms = [f"a{i}" for i in range(n)]
    return Hypergraph(atoms, [[a] for a in atoms] + [atoms[i : i + 2] for i in range(n - 1)])


def _complete_graph(n):
    atoms = [f"a{i}" for i in range(n)]
    pairs = [[a, b] for i, a in enumerate(atoms) for b in atoms[i + 1 :]]
    return Hypergraph(atoms, [[a] for a in atoms] + pairs)


def test_f_vector_matches_enumeration(small_corpus, named):
    for h in [*small_corpus, *named.values()]:
        assert f_vector(h) == face_counts_by_dimension(h, enumerate_constructs(h)), h


@pytest.mark.parametrize("n", range(1, 9))
def test_f_vector_closed_forms(n):
    assert f_vector(_complete_graph(n))[0] == math.factorial(n)
    assert f_vector(_path(n))[0] == math.comb(2 * n, n) // (n + 1)
    simplex = f_vector(_simplex(n))
    assert sum(simplex) == 2**n - 1
    assert simplex == tuple(math.comb(n, n - d - 1) for d in range(n))


def test_affine_dimension_helper():
    p = lambda *cs: type(
        "P", (), {"coords": tuple(Fraction(c) for c in cs)}
    )()
    assert affine_dimension([p(0, 0), p(1, 0), p(0, 1)]) == 2
    assert affine_dimension([p(0, 0, 0), p(1, 1, 1), p(2, 2, 2)]) == 1


def test_verify_isomorphism_named(named):
    for key in ["pentagon", "2-simplex", "hexagon", "3-simplex",
                "edge-truncated-3-simplex", "vertex-truncated-3-simplex",
                "hemiassociahedron", "3-permutohedron", "3-cyclohedron"]:
        report = verify_isomorphism(named[key])
        assert report.ok, f"{key}:\n{report.summary()}"
        assert report.stats["dimension"] == len(named[key].carrier) - 1


def test_verify_isomorphism_small_corpus(small_corpus):
    for h in small_corpus:
        report = verify_isomorphism(h)
        assert report.ok, report.summary()


def test_facet_count_is_saturation_size_minus_one(small_corpus):
    from hgpoly.hypergraph import saturate

    for h in small_corpus:
        report = verify_isomorphism(h)
        assert report.stats["facets"] == len(saturate(h).hyperedges) - 1


def test_vertex_json_strings(named):
    blob = vertices_to_json_dict(named["pentagon"])
    assert blob["format"] == 1
    assert blob["vertices"]["x(y(z))"] == ["18", "6", "3"]


def test_tight_facets_give_the_vertices_of_each_face(small_corpus, named):
    # a vertex lies on a face exactly when it is tight on every member of
    # the face's nested set: the AND of the tight bitsets over psi(t) minus
    # the carrier is vertices_below(t), on every face; the listing commands'
    # psi keys name the same faces
    cases = list(small_corpus) + [h for h in named.values() if len(h.carrier) <= 5]
    checked = 0
    for h in cases:
        faces = enumerate_constructs(h)
        vertices = [v for v in faces if v.is_construction]
        bit = {m: 1 << i for i, m in enumerate(connected_subset_masks(h))}
        carrier = bit[h.full_mask]
        at = [sum(bit[m] for m in realization._vertex(h, v)[2]) for v in vertices]
        keys = [sum(map(bit.__getitem__, constructs._spans(h, t))) for t in faces]
        keyed = constructs._keyed(h, constructs._submasks, "constructs", None)
        assert len(keyed) == len(faces)
        sets = realization._face_vertices([k & ~carrier for k in keys], at, len(bit))
        for t, key, got in zip(faces, keys, sets):
            assert key == sum(bit[h.mask(x)] for x in psi(t))
            assert keyed[key] == print_construct(h, t)
            want = set(constructs.vertices_below(h, t))
            assert {v for j, v in enumerate(vertices) if got >> j & 1} == want
            checked += 1
    assert checked == 9527


def test_verify_isomorphism_catches_a_missing_vertex(monkeypatch):
    h = corpus.hemiassociahedron()
    top = min(enumerate_constructs(h), key=lambda t: t.node_count)
    real = realization.vertices_below

    def lossy(h_, t):
        got = real(h_, t)
        return got[1:] if t == top else got

    monkeypatch.setattr(realization, "vertices_below", lossy)
    report = verify_isomorphism(h)
    assert not report.ok
    assert {"order-isomorphism", "injectivity"} & set(report.failures)


def test_verify_isomorphism_catches_a_missing_cover(monkeypatch):
    h = corpus.hemiassociahedron()
    vertex = next(t for t in enumerate_constructs(h) if t.is_construction)
    real = constructs.covers

    def lossy(h_, s):
        got = real(h_, s)
        return got[1:] if s == vertex else got

    monkeypatch.setattr(constructs, "covers", lossy)
    report = verify_isomorphism(h)
    assert not report.ok
    assert "order-isomorphism" in report.failures
