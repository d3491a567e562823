import gc
import math
import pickle
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from hgpoly import (
    ConstructError,
    GuardExceeded,
    Hypergraph,
    covers,
    enumerate_constructions,
    enumerate_constructs,
    leq,
    parse_construct,
    print_construct,
    rewrite_step,
    spanning_partial_constructions,
    validate_construct,
    vertices_below,
)
from hgpoly.constructs import Construct, Omega, covers_memo
from hgpoly import corpus
from hgpoly.nestedsets import psi

from _helpers import face_counts_by_dimension, parse_all, prints

SIMPLEX_2_FACES = [
    "x(y,z)", "y(x,z)", "z(x,y)",
    "{x,y}(z)", "{y,z}(x)", "{x,z}(y)",
    "{x,y,z}",
]

PENTAGON_VERTICES = ["x(y(z))", "x(z(y))", "y(x,z)", "z(x(y))", "z(y(x))"]

HEXAGON_CONSTRUCTIONS = [
    "x(y(z))", "y(x(z))", "y(z(x))", "x(z(y))", "z(x(y))", "z(y(x))",
]

EDGE_TRUNCATED_NEW = [
    "x(y,u(z))", "x(y,z(u))", "y(x,u(z))", "y(x,z(u))",
    "x(y,{u,z})", "y(x,{u,z})", "{x,y}(u(z))", "{x,y}(z(u))",
    "{x,y}({u,z})",
]

VERTEX_TRUNCATED_NEW = [
    "x(y(z,u))", "x(z(y,u))", "x(u(y,z))",
    "x({y,z}(u))", "x({z,u}(y))", "x({u,y}(z))",
    "x({y,z,u})",
]


def test_simplex_2_census(named):
    h = named["2-simplex"]
    assert set(enumerate_constructs(h)) == parse_all(h, SIMPLEX_2_FACES)


def test_simplex_3_census(named):
    h = named["3-simplex"]
    faces = enumerate_constructs(h)
    assert face_counts_by_dimension(h, faces) == (4, 6, 4, 1)
    assert len(faces) == 15 == 2**4 - 1


def test_pentagon_vertices(named):
    h = named["pentagon"]
    faces = enumerate_constructs(h)
    assert face_counts_by_dimension(h, faces) == (5, 5, 1)
    assert prints(h, enumerate_constructions(h)) == set(PENTAGON_VERTICES)


def test_hexagon_constructions(named):
    h = named["hexagon"]
    faces = enumerate_constructs(h)
    assert face_counts_by_dimension(h, faces) == (6, 6, 1)
    assert prints(h, enumerate_constructions(h)) == set(HEXAGON_CONSTRUCTIONS)


def test_edge_truncated_3_simplex_new_constructs(named):
    plain = set(enumerate_constructs(named["3-simplex"]))
    h = named["edge-truncated-3-simplex"]
    new = set(enumerate_constructs(h)) - plain
    assert new == parse_all(h, EDGE_TRUNCATED_NEW)


def test_vertex_truncated_3_simplex_new_constructs(named):
    plain = set(enumerate_constructs(named["3-simplex"]))
    h = named["vertex-truncated-3-simplex"]
    new = set(enumerate_constructs(h)) - plain
    assert new == parse_all(h, VERTEX_TRUNCATED_NEW)


def test_vertex_truncated_2_simplex_new_constructs(named):
    plain = set(enumerate_constructs(named["2-simplex"]))
    h = named["vertex-truncated-2-simplex"]
    new = set(enumerate_constructs(h)) - plain
    assert new == parse_all(h, ["x(y(z))", "x(z(y))", "x({y,z})"])


def test_truncation_kills_the_truncated_face(named):
    h = named["vertex-truncated-2-simplex"]
    with pytest.raises(ConstructError):
        parse_construct(h, "x(y,z)")


def test_associahedron_path_4_has_14_constructions(named):
    assert len(enumerate_constructions(named["3-associahedron"])) == 14


def test_permutohedron_4_face_counts(named):
    h = named["3-permutohedron"]
    faces = enumerate_constructs(h)
    assert face_counts_by_dimension(h, faces) == (24, 36, 14, 1)


def test_validate_rejects_wrong_components(named):
    h = named["2-simplex"]
    with pytest.raises(ConstructError):
        parse_construct(h, "x(y(z))")  # {y,z} is disconnected here


def test_validate_rejects_escaping_decoration(named):
    h = named["2-simplex"]
    with pytest.raises(ConstructError):
        validate_construct(
            h,
            parse_construct(h, "{x,y}(z)").__class__(
                frozenset({"x", "q"}), ()
            ),
        )


def test_print_uses_carrier_order(named):
    h = named["edge-truncated-3-simplex"]
    c = parse_construct(h, "{ x , y } ( { u , z } )")
    assert print_construct(h, c) == "{x,y}({z,u})"


def test_parse_print_round_trip_everywhere(small_corpus):
    for h in small_corpus:
        for c in enumerate_constructs(h):
            assert parse_construct(h, print_construct(h, c)) == c


def test_guard_blocks_large_carriers():
    atoms = [f"a{i}" for i in range(9)]
    h = Hypergraph(atoms, [[a] for a in atoms] + [atoms])
    with pytest.raises(GuardExceeded):
        enumerate_constructs(h)
    assert len(enumerate_constructions(h, max_carrier=9)) == 9


def test_leq_examples(named):
    h2 = named["2-simplex"]
    assert leq(parse_construct(h2, "x(y,z)"), parse_construct(h2, "{x,y}(z)"), h2)
    pent = named["pentagon"]
    assert not leq(
        parse_construct(pent, "x(y(z))"), parse_construct(pent, "{y,z}(x)"), pent
    )


def test_leq_variants_agree_on_named(named):
    for key in ["pentagon", "hexagon", "3-simplex", "hemiassociahedron"]:
        h = named[key]
        faces = enumerate_constructs(h)
        for s in faces:
            for t in faces:
                r = leq(s, t, h, "rules")
                assert r == leq(s, t, h, "v2") == leq(s, t, h, "v3")


def test_covers_of_a_vertex_are_edges(named):
    h = named["pentagon"]
    v = parse_construct(h, "x(y(z))")
    ups = covers(h, v)
    assert all(u.node_count == 2 for u in ups)
    assert prints(h, ups) == {"{x,y}(z)", "x({y,z})"}


def test_edge_has_its_two_endpoints_below(named):
    h = named["2-simplex"]
    edge = parse_construct(h, "{x,y}(z)")
    assert prints(h, vertices_below(h, edge)) == {"x(y,z)", "y(x,z)"}


def test_vertices_below_matches_order_filter(small_corpus):
    for h in small_corpus:
        if len(h.carrier) > 3:
            continue
        faces = enumerate_constructs(h)
        vs = [c for c in faces if c.is_construction]
        for t in faces:
            assert set(vertices_below(h, t)) == {v for v in vs if leq(v, t, h, "v2")}


def test_order_agrees_with_vertex_containment(named):
    h = named["hexagon"]
    faces = enumerate_constructs(h)
    below = {t: set(vertices_below(h, t)) for t in faces}
    for s in faces:
        for t in faces:
            assert leq(s, t, h, "v2") == (below[s] <= below[t])


def test_rewriting_grows_span_one_atom_at_a_time(named):
    h = named["pentagon"]
    p = Omega(frozenset("xyz"))
    p = rewrite_step(h, p, "y", frozenset("xy"))
    assert print_construct(h, p) == "y(?x,?z)"
    p = rewrite_step(h, p, "x", frozenset("xy"))
    assert print_construct(h, p) == "y(x,?z)"
    assert p.span == frozenset("xy")


def test_spanning_partial_constructions_pentagon(named):
    h = named["pentagon"]
    got = prints(h, spanning_partial_constructions(h, ["x", "y"]))
    assert got == {"y(x,?z)", "x(y(?z))"}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_leq_is_a_partial_order(data):
    pool = corpus.small_corpus()
    h = data.draw(st.sampled_from([h for h in pool if 2 <= len(h.carrier) <= 4]))
    faces = enumerate_constructs(h)
    s, t, u = (data.draw(st.sampled_from(faces)) for _ in range(3))
    assert leq(s, s, h, "v2")
    if leq(s, t, h, "v2") and leq(t, s, h, "v2"):
        assert s == t
    if leq(s, t, h, "v2") and leq(t, u, h, "v2"):
        assert leq(s, u, h, "v2")


def test_spanning_partial_children_sort_by_spanned_atoms():
    # y leaves {x,u} and {z}: the child u(?x) spans only u, so ?z precedes it
    h = Hypergraph("xyzu", [["x"], ["y"], ["z"], ["u"], ["x", "y"], ["y", "z"], ["x", "u"]])
    got = [print_construct(h, p) for p in spanning_partial_constructions(h, ["y", "u"])]
    assert got == ["u(y(?x,?z))", "y(?z,u(?x))"]


def test_construct_equality_hash_and_cached_fields(named):
    def rebuild(t):
        return Construct(t.decoration, tuple(rebuild(c) for c in t.children))

    h = named["hemiassociahedron"]
    faces = enumerate_constructs(h)
    assert len(set(faces)) == len(faces)
    for t in faces:
        twin = rebuild(t)
        assert twin is not t and twin == t and hash(twin) == hash(t)
        nodes = list(twin.nodes())
        assert twin.span == frozenset().union(*(n.decoration for n in nodes))
        assert twin == t and hash(twin) == hash(t)
        assert twin.node_count == len(nodes)
        assert twin.is_construction == all(len(n.decoration) == 1 for n in nodes)
        assert not hasattr(twin, "__dict__")
        copy = pickle.loads(pickle.dumps(twin))
        assert copy == t and hash(copy) == hash(t) and copy.span == t.span


def test_covers_memo_is_owned_by_its_hypergraph():
    h, twin = corpus.hemiassociahedron(), corpus.hemiassociahedron()
    assert h == twin and h is not twin
    faces = enumerate_constructs(h)
    assert leq(faces[-1], faces[0], h, "rules")
    assert h._covers_cache and not twin._covers_cache
    for s in faces:
        assert covers_memo(h, s) == tuple(covers(h, s))


def test_text_memo_is_owned_by_its_hypergraph():
    h, twin = corpus.hemiassociahedron(), corpus.hemiassociahedron()
    faces = enumerate_constructs(h)
    assert h._text_cache and not twin._text_cache
    assert [print_construct(twin, t) for t in faces] == [print_construct(h, t) for t in faces]
    leaf = Omega(frozenset({"x", "z"}))
    assert print_construct(h, leaf) == "?{x,z}"
    ref = weakref.ref(leaf)
    del leaf, twin
    gc.collect()
    assert ref() is not None  # held by h's memo
    del h, faces
    gc.collect()
    assert ref() is None


def test_text_follows_the_carrier_order_of_each_hypergraph():
    xy = Hypergraph(["x", "y"], [["x"], ["y"], ["x", "y"]])
    yx = Hypergraph(["y", "x"], [["x"], ["y"], ["x", "y"]])
    top = Construct(frozenset({"x", "y"}))
    assert print_construct(xy, top) == "{x,y}"
    assert print_construct(yx, top) == "{y,x}"
    assert print_construct(xy, top) == "{x,y}"


@pytest.mark.parametrize("n", range(1, 7))
def test_closed_form_counts(n):
    # permutohedron: n! vertices; associahedron: the Catalan number C(n);
    # simplex: n vertices and 2^n - 1 faces
    assert len(enumerate_constructions(corpus.complete_graph(n))) == math.factorial(n)
    assert len(enumerate_constructions(corpus.path_graph(n))) == math.comb(2 * n, n) // (n + 1)
    simplex = corpus.simplex(n)
    assert len(enumerate_constructions(simplex)) == n
    assert len(enumerate_constructs(simplex)) == 2 ** n - 1


def test_constructions_are_the_single_atom_constructs(small_corpus, named):
    for h in list(small_corpus) + list(named.values()):
        faces = enumerate_constructs(h)
        assert enumerate_constructions(h) == [c for c in faces if c.is_construction]


def test_constructs_come_by_node_count_then_text(small_corpus, named):
    for h in list(small_corpus) + list(named.values()):
        keys = [(t.node_count, print_construct(h, t)) for t in enumerate_constructs(h)]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_covers_drop_one_member_of_psi(small_corpus, named):
    # the covers of s are the node_count - 1 faces whose nested set is
    # psi(s) minus one member other than the carrier
    for h in list(small_corpus) + list(named.values()):
        faces = enumerate_constructs(h)
        by_psi = {psi(t): t for t in faces}
        carrier = frozenset(h.carrier)
        for s in faces:
            got = covers(h, s)
            nested = psi(s)
            want = {by_psi[nested - {m}] for m in nested if m != carrier}
            assert len(got) == len(want) == s.node_count - 1
            assert set(got) == want
