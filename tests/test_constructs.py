import gc
import math
from itertools import combinations
import pickle
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from hgpoly import (
    ConstructError,
    GuardExceeded,
    Hypergraph,
    build_edge_graph,
    covers,
    enumerate_constructions,
    enumerate_constructs,
    face_vertex_set,
    leq,
    next_round,
    parse_construct,
    parse_tree,
    print_construct,
    rewrite_step,
    simplex_round,
    skeleton_dot,
    spanning_partial_constructions,
    validate_construct,
    verify_isomorphism,
    vertices_below,
)
from hgpoly.constructs import Construct, Omega, _checked, _covers, _spans, _up, make_node
from hgpoly import constructs, corpus
from hgpoly.nestedsets import psi

from _helpers import face_counts_by_dimension, parse_all, prints


def _record(h, t):
    """The canonical mask record of the construct t, from the checked walk."""
    return _checked(h, t)[1]


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


def _reversed(t: Construct) -> Construct:
    return Construct(t.decoration, tuple(_reversed(c) for c in reversed(t.children)))


def test_validate_restores_the_component_order(small_corpus, named):
    # every node's children reversed: validation puts them back in the
    # order the enumeration builds, and hands a canonical tree back as is
    for h in list(small_corpus) + list(named.values()):
        for t in enumerate_constructs(h):
            assert validate_construct(h, _reversed(t)) == t
            assert validate_construct(h, t) is t


def test_validate_rejects_two_children_over_one_component(named):
    h = named["2-simplex"]
    y, z = Construct(frozenset("y")), Construct(frozenset("z"))
    for kids in [(y, y), (y, y, z), (y, z, z), (y, z, y)]:
        with pytest.raises(ConstructError, match="expected the components"):
            validate_construct(h, Construct(frozenset("x"), kids))
    assert validate_construct(h, Construct(frozenset("x"), (z, y))).children == (y, z)


def test_print_uses_carrier_order(named):
    h = named["edge-truncated-3-simplex"]
    c = parse_construct(h, "{ x , y } ( { u , z } )")
    assert print_construct(h, c) == "{x,y}({z,u})"


# malformed construct text on the path x - y - z, with the exact message
PARSE_CONSTRUCT_ERRORS = [
    ("{a,}(b)", "expected '}', found '(' in '{a,}(b)'"),
    ("a(b)(c)", "trailing input ['(', 'c', ')'] in 'a(b)(c)'"),
    ("a((b))", "bad atom '(' in 'a((b))'"),
    ("", "unexpected end of input in ''"),
    ("{a", "unexpected end of input in '{a'"),
    ("{}", "unexpected end of input in '{}'"),
    ("a(", "unexpected end of input in 'a('"),
    ("a(b,", "unexpected end of input in 'a(b,'"),
    ("b(a,c", "unexpected end of input in 'b(a,c'"),
    ("a)", "trailing input [')'] in 'a)'"),
    ("a,b", "trailing input [',', 'b'] in 'a,b'"),
    ("b(a,c)d", "trailing input ['d'] in 'b(a,c)d'"),
    (",", "bad atom ',' in ','"),
    ("a()", "bad atom ')' in 'a()'"),
    ("(a)", "bad atom '(' in '(a)'"),
    ("a(b(c(a)))", "nesting deeper than the 3 atoms of the carrier in 'a(b(c(a)))'"),
    ("{a b}", "atom 'a b' not in carrier"),
    (" a ( b ) ", "atom 'a' not in carrier"),
    ("z", "children of z span [], expected the components ['{x,y}']"),
]


@pytest.mark.parametrize("text, message", PARSE_CONSTRUCT_ERRORS)
def test_parse_construct_messages(text, message):
    with pytest.raises(ConstructError) as err:
        parse_construct(corpus.path_graph(3), text)
    assert str(err.value) == message


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
    assert sorted(got) == ["u(y(?x,?z))", "y(?z,u(?x))"]


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


def test_constructs_are_unordered_tuples(named):
    # equality and the hash are tuple's own, done in C; the node keeps no
    # per-instance memo; and the tuple base does not make faces orderable
    assert Construct.__eq__ is tuple.__eq__ and Construct.__hash__ is tuple.__hash__
    assert Construct.__slots__ == ()
    faces = enumerate_constructs(named["hemiassociahedron"])
    with pytest.raises(TypeError):
        faces[0] < faces[1]
    with pytest.raises(TypeError):
        faces[0] >= faces[1]
    with pytest.raises(TypeError):
        sorted(faces)
    for t in faces:
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(t, protocol))
            assert type(copy) is Construct and copy == t
            assert hash(copy) == hash(t) and copy.node_count == t.node_count


def test_up_memo_is_owned_by_its_hypergraph_and_holds_closures():
    h, twin = corpus.hemiassociahedron(), corpus.hemiassociahedron()
    assert h == twin and h is not twin
    faces = enumerate_constructs(h)
    assert leq(faces[-1], faces[0], h, "rules")
    assert h._face_cache and not twin._face_cache
    # the face table is keyed by the records of faces, each entry holds its
    # key, and the up-set stored on an entry holds records
    records = {_record(h, t): t for t in faces}
    assert set(h._face_cache) <= set(records)
    assert all(entry[0] is s for s, entry in h._face_cache.items())
    ups = {s: entry[2] for s, entry in h._face_cache.items() if entry[2] is not None}
    assert ups
    for s, got in ups.items():
        # a plain breadth-first closure of the public covers, with no memo
        seen, frontier = {records[s]}, [records[s]]
        while frontier:
            frontier = [v for u in frontier for v in covers(h, u) if v not in seen]
            seen.update(frontier)
        assert got == {_record(h, v) for v in seen}


def test_twins_print_alike_and_omega_prints_its_atoms():
    h, twin = corpus.hemiassociahedron(), corpus.hemiassociahedron()
    faces = enumerate_constructs(h)
    assert [print_construct(twin, t) for t in faces] == [print_construct(h, t) for t in faces]
    assert print_construct(h, Omega(frozenset({"x", "z"}))) == "?{x,z}"


def test_siblings_share_their_root_decoration():
    # the kernel makes a decoration's labels once per region and root
    # decoration, so every tree with that root over that region shares them
    h = corpus.complete_graph(4)
    by_root: dict[frozenset[str], list[frozenset[str]]] = {}
    for t in enumerate_constructs(h):
        by_root.setdefault(t.decoration, []).append(t.decoration)
    assert max(map(len, by_root.values())) > 1
    for decorations in by_root.values():
        assert all(d is decorations[0] for d in decorations)


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
        got = enumerate_constructions(h)
        assert len(set(got)) == len(got)
        assert set(got) == {c for c in enumerate_constructs(h) if c.is_construction}


def test_constructs_come_once_each_in_a_fixed_order(small_corpus, named):
    # the kernel's order is not text order, but it is fixed: a twin built
    # afresh, with empty memos, yields the same text sequence
    for h in list(small_corpus) + list(named.values()):
        twin = Hypergraph(h.carrier, h.hyperedges)
        texts = [print_construct(h, t) for t in enumerate_constructs(h)]
        assert len(set(texts)) == len(texts)
        assert [print_construct(twin, t) for t in enumerate_constructs(twin)] == texts


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


VARIANTS = ("rules", "v2", "v3")


def test_order_and_covers_refuse_partial_constructs(small_corpus, named):
    # a tree with an Omega leaf is no face: every variant and covers raise
    # ConstructError alike, whichever side of the comparison it is on
    h = named["2-simplex"]
    (p,) = spanning_partial_constructions(h, ["x"])
    assert print_construct(h, p) == "x(?y,?z)"
    for variant in VARIANTS:
        with pytest.raises(ConstructError):
            leq(p, p, h, variant)
    checked = 0
    for h in small_corpus:
        top = Construct(frozenset(h.carrier))
        for size in range(1, len(h.carrier)):
            for x in combinations(h.carrier, size):
                for p in spanning_partial_constructions(h, x):
                    for s, t in ((p, p), (p, top), (top, p)):
                        for variant in VARIANTS:
                            with pytest.raises(ConstructError):
                                leq(s, t, h, variant)
                    with pytest.raises(ConstructError):
                        covers(h, p)
                    checked += 1
    assert checked == 6551


def test_order_and_covers_name_an_atom_outside_the_carrier(named):
    # x(y(w)) on the pentagon: w is no atom of h, on either side of leq
    h = named["pentagon"]
    bad = Construct(frozenset("x"), (Construct(frozenset("y"), (Construct(frozenset("w")),)),))
    top = Construct(frozenset(h.carrier))
    with pytest.raises(ConstructError, match="'w'"):
        covers(h, bad)
    for variant in VARIANTS:
        for s, t in ((bad, top), (top, bad)):
            with pytest.raises(ConstructError, match="'w'"):
                leq(s, t, h, variant)


def test_children_in_any_order_name_the_same_face(small_corpus, named):
    # a face with the children of every node reversed is the same face:
    # each variant compares it with every face as it compares the face,
    # and covers and vertices_below give the face's; fresh copies keep the
    # shared fixtures' memos as the other tests leave them
    cases = list(small_corpus) + [h for h in named.values() if len(h.carrier) <= 5]
    checked = 0
    for h in (Hypergraph(g.carrier, g.hyperedges) for g in cases):
        faces = enumerate_constructs(h)
        for s in faces:
            twin = _reversed(s)
            if twin == s:
                continue  # no node has two children
            for t in faces:
                for variant in VARIANTS:
                    assert leq(twin, t, h, variant) == leq(s, t, h, variant)
                    assert leq(t, twin, h, variant) == leq(t, s, h, variant)
            assert covers(h, twin) == covers(h, s)
            assert vertices_below(h, twin) == vertices_below(h, s)
            checked += 1
    assert checked == 1668


def test_the_order_and_the_vertex_paths_refuse_a_tree_that_is_no_face(named):
    # on the pentagon, the path x-y-z, the atoms left by x form the one
    # component {y,z}: x(y,z) is no construct, on either side of leq
    h = named["pentagon"]
    bad = Construct(frozenset("x"), (Construct(frozenset("y")), Construct(frozenset("z"))))
    top = Construct(frozenset(h.carrier))
    for variant in VARIANTS:
        for s, t in ((bad, bad), (bad, top), (top, bad)):
            with pytest.raises(ConstructError, match="expected the components"):
                leq(s, t, h, variant)
    for path in (covers, vertices_below, face_vertex_set):
        with pytest.raises(ConstructError, match="expected the components"):
            path(h, bad)


def test_mask_records_and_spans_mirror_the_tree(small_corpus, named):
    # the checked walk's record of a construct is (decoration mask, span
    # mask, the children's records in the children's order), leq keys each
    # queried face to the face table's entry holding that one record, and
    # _spans reads the same spans in preorder; each hypergraph is a fresh
    # copy, so the shared fixtures' memos stay as the other tests leave them
    cases = list(small_corpus) + [h for h in named.values() if len(h.carrier) <= 5]
    checked = 0
    for h in (Hypergraph(g.carrier, g.hyperedges) for g in cases):
        faces = enumerate_constructs(h)
        for t in faces:
            assert leq(t, t, h)
            record = h._mask_cache[t][0]
            assert record == _record(h, t)
            assert h._face_cache[record] is h._mask_cache[t]
            todo = [(t, record)]
            while todo:
                n, (dec, span, kids) = todo.pop()
                assert dec == h.mask(n.decoration) and span == h.mask(n.span)
                assert len(kids) == len(n.children)
                todo += zip(n.children, kids)
                checked += 1
            assert _spans(record) == [h.mask(n.span) for n in t.nodes()]
        assert len(h._mask_cache) == len(h._face_cache) == len(faces)
    assert checked == 29396
    h = named["2-simplex"]
    (p,) = spanning_partial_constructions(h, ["x"])
    with pytest.raises(ConstructError):
        _checked(h, p)
    h = named["pentagon"]
    bad = Construct(frozenset("x"), (Construct(frozenset("y"), (Construct(frozenset("w")),)),))
    with pytest.raises(ConstructError, match="'w'"):
        _checked(h, bad)


class _CountingDict(dict):
    """A dict that counts the lookups made through get, [], `in` and setdefault."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)

    def setdefault(self, key, default=None):
        self.lookups += 1
        return super().setdefault(key, default)


def test_leq_v2_and_v3_look_up_only_s_and_t():
    # once every s has been queried, each call reads the node memo for s
    # and for t and no other dict on h, the face table included: v2 and v3
    # recurse over the records on the two entries, and rules reads the
    # up-set stored on s's entry
    for h in (corpus.hemiassociahedron(), corpus.complete_graph(4)):
        memos = {}
        for name in Hypergraph.__slots__:
            if type(getattr(h, name)) is dict:
                memos[name] = _CountingDict(getattr(h, name))
                object.__setattr__(h, name, memos[name])
        assert {"_mask_cache", "_face_cache"} <= memos.keys()
        faces = enumerate_constructs(h)
        for s in faces:
            for t in faces:
                leq(s, t, h, "rules")
        for variant in VARIANTS:
            for memo in memos.values():
                memo.lookups = 0
            for s in faces:
                for t in faces:
                    leq(s, t, h, variant)
            reads = {name: memo.lookups for name, memo in memos.items() if memo.lookups}
            assert reads == {"_mask_cache": 2 * len(faces) ** 2}, variant


def test_up_sets_are_boolean_intervals(small_corpus, named):
    # hypergraph polytopes are simple, so the faces above s form a Boolean
    # interval of rank node_count(s) - 1; this closed form needs neither
    # covers nor psi nor another variant
    cases = list(small_corpus) + [h for h in named.values() if len(h.carrier) <= 5]
    for h in cases:
        faces = enumerate_constructs(h)
        for variant in VARIANTS:
            for s in faces:
                above = sum(leq(s, t, h, variant) for t in faces)
                assert above == 2 ** (s.node_count - 1)


def test_order_memos_are_owned_by_their_hypergraph():
    # a Construct cannot be weakly referenced, so the probe is a vertex
    # over a fresh root decoration, and the decoration is what is watched
    h, twin = corpus.hemiassociahedron(), corpus.hemiassociahedron()
    faces = enumerate_constructs(h)
    vertex, top = faces[-1], faces[0]
    decoration = frozenset(list(vertex.decoration))
    assert decoration is not vertex.decoration
    probe = Construct(decoration, vertex.children)
    for variant in VARIANTS:
        assert leq(probe, top, h, variant)
    # the node memo keys the probe to its face's entry, which holds the
    # probe's record and, once rules asked, its up-set
    entry = h._mask_cache[probe]
    assert h._face_cache[entry[0]] is entry and entry[2] is not None
    assert not twin._mask_cache and not twin._face_cache
    ref = weakref.ref(decoration)
    del probe, decoration
    gc.collect()
    assert ref() is not None  # held by h's memos
    del h, faces, vertex, top
    gc.collect()
    assert ref() is None


def test_only_leq_keeps_node_masks_on_the_hypergraph():
    # covers and psi as span masks serve one-off callers, whose memo of
    # node masks dies with the call
    h = corpus.complete_graph(5)
    assert verify_isomorphism(h).ok
    assert not h._mask_cache and not h._face_cache
    g = build_edge_graph(parse_tree("a(b(c,d),e)"))
    skeleton_dot(g)
    assert not g.hypergraph._mask_cache and not g.hypergraph._face_cache
    h = corpus.path_graph(4)
    for s in enumerate_constructs(h):
        covers(h, s)
    assert not h._mask_cache and not h._face_cache
    ht = corpus.path_graph(4)
    next_round(simplex_round(ht.carrier, ht))
    assert not ht._mask_cache and not ht._face_cache


def test_order_follows_the_carrier_order_of_each_hypergraph():
    # the same construct objects under two carrier orders; the hypergraph
    # met first alternates, so a memo shared between the two would mix
    # the masks of one order into the other (atoms no other test uses, so
    # no earlier test has met these nodes)
    edges = [["p"], ["q"], ["r"], ["p", "q"], ["q", "r"]]
    pqr, rqp = Hypergraph("pqr", edges), Hypergraph("rqp", edges)
    faces = enumerate_constructs(pqr)
    for i, s in enumerate(faces):
        for j, t in enumerate(faces):
            want = psi(t) <= psi(s)
            for h in (pqr, rqp) if (i + j) % 2 else (rqp, pqr):
                for variant in VARIANTS:
                    assert leq(s, t, h, variant) == want


def test_rules_memoises_only_the_queried_up_set():
    # the chain vertex of a path lies below 2^(n-1) faces; the rules order
    # keeps that one up-set and no up-set of the faces it passed through
    n = 10
    atoms = [f"a{i}" for i in range(n)]
    h = Hypergraph(atoms, [[a] for a in atoms] + [list(e) for e in zip(atoms, atoms[1:])])
    chain = parse_construct(h, "(".join(atoms) + ")" * (n - 1))
    top = Construct(frozenset(h.carrier))
    assert leq(chain, top, h, "rules")
    assert [r for r, entry in h._face_cache.items() if entry[2] is not None] == [_record(h, chain)]
    assert len(h._face_cache[_record(h, chain)][2]) == 2 ** (n - 1)


def _contractions(h, s):
    """The covers of s over label sets, for an oracle: each tree edge
    contracted, the child's decoration merged into its parent's and the
    parent's children rebuilt by make_node."""
    out = []
    for i, child in enumerate(s.children):
        rest = s.children[:i] + s.children[i + 1 :]
        out.append(make_node(h, s.decoration | child.decoration, rest + child.children))
        out += [make_node(h, s.decoration, rest + (sub,)) for sub in _contractions(h, child)]
    return out


def test_record_covers_and_up_sets_match_the_construct_closure(small_corpus, named):
    # the record covers kernel against contraction over label sets, the
    # public covers converted at return, and each memoised up-set against
    # the breadth-first closure of the public covers; fresh copies keep the
    # shared fixtures' memos as other tests leave them
    cases = list(small_corpus) + [h for h in named.values() if len(h.carrier) <= 5]
    checked = 0
    for h in (Hypergraph(g.carrier, g.hyperedges) for g in cases):
        faces = enumerate_constructs(h)
        for t in faces:
            want = _contractions(h, t)
            assert sorted(_covers(_record(h, t))) == sorted(_record(h, c) for c in want)
            got = covers(h, t)
            assert len(got) == len(want) and set(got) == set(want)
        for t in faces:
            seen, frontier = {t}, [t]
            while frontier:
                frontier = [v for u in frontier for v in covers(h, u) if v not in seen]
                seen.update(frontier)
            assert _up(h, _record(h, t)) == {_record(h, v) for v in seen}
            checked += 1
    assert checked == 9527


def test_up_sets_share_one_record_per_face(monkeypatch):
    # the faces met by separate searches are interned on h: every up-set
    # holds the one record kept for a face, and each face is contracted
    # once, whether the vertices or the top face are queried first
    real, contracted = constructs._covers, []

    def counting(r):
        contracted.append(r)
        return real(r)

    monkeypatch.setattr(constructs, "_covers", counting)
    for vertices_first in (True, False):
        h = corpus.complete_graph(4)
        faces = sorted(enumerate_constructs(h), key=lambda t: t.node_count, reverse=vertices_first)
        contracted.clear()
        for s in faces:
            for t in faces:
                leq(s, t, h, "rules")
        held = {}
        for _, _, up in h._face_cache.values():
            for r in up:
                assert held.setdefault(r, r) is r and h._face_cache[r][0] is r
        assert len(held) == len(h._face_cache) == len(faces) == 75
        assert sorted(r for r in contracted if r[1] == h.full_mask) == sorted(held)


def test_covers_come_in_preorder_of_the_node_they_drop(small_corpus, named):
    # the k-th record cover contracts the edge above the (k+1)-th node in
    # preorder: its psi is psi(s) minus _spans(s)[k + 1], read off the
    # Construct rather than the record
    checked = 0
    for h in [*small_corpus, *named.values()]:
        for t in enumerate_constructs(h):
            s = _record(h, t)
            spans, ups = _spans(s), _covers(s)
            assert len(ups) == len(spans) - 1
            for up, d in zip(ups, spans[1:]):
                assert psi(constructs._construct(h, up)) == psi(t) - {h.labels(d)}
                checked += 1
    assert checked == 19869
