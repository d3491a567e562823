import math
import random
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
from hgpoly.constructs import Construct, enumerate_constructions, enumerate_constructs, leq
from hgpoly.nestedsets import psi
from hgpoly.hypergraph import connected_subset_masks
from hgpoly.realization import LinearConstraint, affine_dimension, vertices_to_json_dict

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
    # not a construction either: the message naming the tree cannot be printed
    tree = _tree("w", Construct(frozenset({"x", "y"})))
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
        points = [vertex_of_construction(h, v).coords for v in vertices]
        at = [_plain_tight(h, p) for p in points]
        keys = [sum(map(bit.__getitem__, constructs._spans(constructs._checked(h, t)[1]))) for t in faces]
        node = constructs._keyed_node(h, constructs._text(h))
        keyed = {key: text for text, key, _ in enumerate_constructs(h, node=node)}
        assert len(keyed) == len(faces)
        for t, key in zip(faces, keys):
            assert key == sum(bit[h.mask(x)] for x in psi(t))
            assert keyed[key] == print_construct(h, t)
            want = set(constructs.vertices_below(h, t))
            members = key & ~carrier
            assert {v for v, own in zip(vertices, at) if own & members == members} == want
            checked += 1
    assert checked == 9527


def test_verify_isomorphism_catches_a_missing_vertex(monkeypatch):
    # verify_isomorphism reads the vertices below the top face off its record
    h = corpus.hemiassociahedron()
    top = constructs._checked(h, min(enumerate_constructs(h), key=lambda t: t.node_count))[1]
    real = realization._vertices_below

    def lossy(h_, t, node=None):
        got = real(h_, t, node)
        return got[1:] if t == top else got

    monkeypatch.setattr(realization, "_vertices_below", lossy)
    report = verify_isomorphism(h)
    assert not report.ok
    assert {"order-isomorphism", "injectivity"} & set(report.failures)


def test_record_paths_build_no_construct(monkeypatch, named):
    # verify_isomorphism, vertices_to_json_dict and the rules order work on
    # mask records: with Construct refused, a passing input still passes
    # (a Construct is built only to print a witness)
    h = named["hemiassociahedron"]
    fresh = Hypergraph(h.carrier, h.hyperedges)
    faces = enumerate_constructs(h)
    vertices, order = vertices_to_json_dict(h), [[leq(s, t, h, "v2") for t in faces] for s in faces]

    def refuse(*args, **kwargs):
        raise AssertionError("a record path built a Construct")

    monkeypatch.setattr(constructs, "Construct", refuse)
    with pytest.raises(AssertionError):
        enumerate_constructs(h)  # the stand-in is live
    assert verify_isomorphism(fresh).ok
    assert vertices_to_json_dict(fresh) == vertices
    assert [[leq(s, t, fresh, "rules") for t in faces] for s in faces] == order


def test_verify_isomorphism_catches_a_missing_cover(monkeypatch):
    # verify_isomorphism contracts the edges of each face's record
    h = corpus.hemiassociahedron()
    vertex = constructs._checked(h, next(t for t in enumerate_constructs(h) if t.is_construction))[1]
    real = constructs._covers

    def lossy(s):
        got = real(s)
        return got[1:] if s == vertex else got

    monkeypatch.setattr(constructs, "_covers", lossy)
    report = verify_isomorphism(h)
    assert not report.ok
    assert "order-isomorphism" in report.failures



def _face_with_two_covers(h):
    """The record of the first face of h with three or more nodes, and its text."""
    t = next(t for t in enumerate_constructs(h) if t.node_count >= 3)
    return constructs._checked(h, t)[1], print_construct(h, t)


def test_verify_isomorphism_catches_two_covers_swapped(monkeypatch):
    # each cover is paired with the member it drops, so a swap is caught
    # though the set of covers is right
    h = corpus.hemiassociahedron()
    face, text = _face_with_two_covers(h)
    real = constructs._covers

    def swapped(s):
        got = real(s)
        return [got[1], got[0], *got[2:]] if s == face else got

    monkeypatch.setattr(constructs, "_covers", swapped)
    report = verify_isomorphism(h)
    assert report.failures == {
        "order-isomorphism": [f"covers of {text} are not its nested set minus one member"]
    }


@pytest.mark.parametrize("cover_too", [False, True])
def test_verify_isomorphism_catches_a_repeated_span(monkeypatch, cover_too):
    # the dropped members must be those of the face's key, each once: with
    # the cover repeated along with its span, every pair still matches
    h = corpus.hemiassociahedron()
    face, text = _face_with_two_covers(h)

    def repeating(real, skip):
        def faulty(r):
            got = real(r)
            return [*got[:skip], got[skip], got[skip], *got[skip + 2 :]] if r == face else got

        return faulty

    monkeypatch.setattr(constructs, "_spans", repeating(constructs._spans, 1))
    if cover_too:
        monkeypatch.setattr(constructs, "_covers", repeating(constructs._covers, 0))
    report = verify_isomorphism(h)
    assert report.failures == {
        "order-isomorphism": [f"covers of {text} are not its nested set minus one member"]
    }

# -- the vertex solve against plain sums ------------------------------------


def _plain_sums(h, coords):
    """The sum of one vertex's coordinates over each connected subset, in
    the order of connected_subset_masks, added one atom at a time."""
    return [
        sum(c for i, c in enumerate(coords) if m >> i & 1) for m in connected_subset_masks(h)
    ]


def _plain_tight(h, coords):
    """The subsets but the carrier on which the vertex is tight, as a
    bitset over the indices of connected_subset_masks."""
    subsets = connected_subset_masks(h)
    return sum(
        1 << i
        for i, (m, total) in enumerate(zip(subsets, _plain_sums(h, coords)))
        if m != h.full_mask and total == 3 ** m.bit_count()
    )


def _plain_check(h, vs, points):
    """What the solve must report on these coordinates: the strictness
    witness of each failing vertex at its first failing subset, and the
    tight subsets of each vertex, or None when they are psi minus the
    carrier."""
    subsets = connected_subset_masks(h)
    bit = {m: 1 << i for i, m in enumerate(subsets)}
    strict, tight, named = [], [], []
    for v, p in zip(vs, points):
        family = {h.mask(x) for x in psi(v)}
        for m, total in zip(subsets, _plain_sums(h, p)):
            bound = 3 ** m.bit_count()
            if total <= bound and m not in family:
                strict.append(
                    f"vertex of {print_construct(h, v)} fails strictness on "
                    f"{sorted(h.labels(m))}: sum is {total}, bound {bound}"
                )
                break
        tight.append(_plain_tight(h, p))
        named.append(sum(bit[m] for m in family if m != h.full_mask))
    return strict, None if strict or tight == named else tight


def _closed_form_by_labels(h, v):
    """The closed form again, over label sets: a node's atom gets 3^|span|
    minus 3^|child span| summed over its children."""
    coords = [0] * len(h.carrier)
    for node in v.nodes():
        (atom,) = node.decoration
        below = sum(3 ** len(c.span) for c in node.children)
        coords[h.carrier.index(atom)] = 3 ** len(node.span) - below
    return coords


class _Witnesses:
    """Collects every strictness witness the solve reports, uncapped."""

    def __init__(self):
        self.strict = []

    def add(self, kind, witness):
        assert kind == "strictness"
        self.strict.append(witness)


def _kernel(h):
    """The constructions of h as the vertex stage reads them off one kernel
    run: their texts, psi keys and integer coordinates."""
    node = constructs._keyed_node(h, constructs._text(h), True)
    return realization._vertices(h, enumerate_constructions(h, max_carrier=None, node=node))


def _solve(h, texts, keys, coords):
    report = _Witnesses()
    tight = realization._solve(h, coords, keys, texts.__getitem__, report)
    return coords, report.strict, tight


def _solve_cases(small_corpus, named):
    # four atoms fill a lane of one byte, the guard in bit 7: 3^4 = 81 takes
    # 7 bits; nine atoms take two bytes a lane (3^9 = 19,683 takes 15 bits)
    assert (3**4).bit_length() + 1 == 8 and (3**9).bit_length() + 1 == 16
    cases = [*small_corpus, *named.values(), _path(9)]
    assert {4, 9} <= {len(h.carrier) for h in cases}
    return cases


def test_solve_matches_plain_sums(small_corpus, named):
    # the kernel's texts, keys and closed-form coordinates against the
    # constructions, psi and the closed form over label sets
    for h in _solve_cases(small_corpus, named):
        vs = enumerate_constructions(h, max_carrier=None)
        texts, keys, coords = _kernel(h)
        assert list(texts) == [print_construct(h, v) for v in vs], h
        bit = {m: 1 << i for i, m in enumerate(connected_subset_masks(h))}
        assert list(keys) == [sum(bit[h.mask(x)] for x in psi(v)) for v in vs], h
        points, strict, tight = _solve(h, texts, keys, coords)
        assert points == [_closed_form_by_labels(h, v) for v in vs], h
        assert _plain_check(h, vs, points) == (strict, tight) == ([], None), h


def _perturbed(coords, deltas):
    """Add deltas[k % len(deltas)] to coordinate k % n of the k-th vertex."""
    for k, c in enumerate(coords):
        c[k % len(c)] += deltas[k % len(deltas)]
    return coords


@pytest.mark.parametrize(
    "deltas",
    [(0, -4, 1, 0, -3, 6, -1, -40), (0, 1, 0, 2, 120)],
    ids=["below-the-bound-and-negative", "above-the-bound"],
)
def test_solve_matches_plain_sums_on_broken_coordinates(small_corpus, named, deltas):
    # the solve must find what plain sums find on any integer coordinates:
    # ties, sums below the bound, negative coordinates, vertices failing on
    # many subsets, and sums too wide for a lane sized by 3^n
    kinds = set()
    for h in _solve_cases(small_corpus, named):
        vs = enumerate_constructions(h, max_carrier=None)
        texts, keys, coords = _kernel(h)
        points, strict, tight = _solve(h, texts, keys, _perturbed(coords, deltas))
        assert (strict, tight) == _plain_check(h, vs, points), h
        kinds.add("strictness" if strict else "simplicity" if tight else "none")
    assert kinds >= ({"strictness"} if min(deltas) < 0 else {"simplicity"})


# The witnesses below were taken from the per-vertex solve this one
# replaced, with the same coordinate changed


def _shifted(monkeypatch, change):
    """Monkeypatch the vertex solve to call change(h, text, coordinates) on
    each vertex before it checks them."""
    real = realization._solve

    def solve(h, coords, keys, name, report=None):
        for j, c in enumerate(coords):
            change(h, name(j), c)
        return real(h, coords, keys, name, report)

    monkeypatch.setattr(realization, "_solve", solve)


def _lower_u_under_y(h, text, coords):
    if text.startswith("y"):
        coords[-1] -= 4


UNDER_BOUND = "vertex of y(x(u(z))) fails strictness on ['u']: sum is 2, bound 3"


def test_strictness_witnesses_are_the_first_failing_vertex_and_subset(monkeypatch, named):
    h = named["3-permutohedron"]
    _shifted(monkeypatch, _lower_u_under_y)
    assert verify_isomorphism(h).summary() == (
        "carrier 4 atoms: FAIL\n  strictness:\n"
        "    vertex of y(z(u(x))) fails strictness on ['u']: sum is 2, bound 3\n"
        f"    {UNDER_BOUND}"
    )
    # enumerate_constructions lists y(x(u(z))) first, and so do vertices_below
    with pytest.raises(RealizationError) as err:
        vertices_to_json_dict(h)
    assert str(err.value) == UNDER_BOUND
    with pytest.raises(RealizationError) as err:
        face_vertex_set(h, parse_construct(h, "{x,y,z,u}"))
    assert str(err.value) == UNDER_BOUND
    with pytest.raises(RealizationError) as err:
        vertex_of_construction(h, parse_construct(h, "y(z(u(x)))"))
    assert str(err.value) == "vertex of y(z(u(x))) fails strictness on ['u']: sum is 2, bound 3"


def test_simplicity_witnesses(monkeypatch, named):
    h = named["pentagon"]
    _shifted(monkeypatch, lambda h, text, coords: coords.__setitem__(0, coords[0] + 1))
    assert verify_isomorphism(h).summary() == "\n".join([
        "carrier 3 atoms: FAIL",
        "  constructs: 11",
        "  dimension: 2",
        "  facets: 5",
        "  vertices: 5",
        "  facet-census:",
        "    facet {y,z}(x) nested in {x,z}(y)",
        "    facet {y,z}(x) nested in z({x,y})",
        "    facet {y,z}(x) nested in {x,y}(z)",
        "    facet {y,z}(x) nested in x({y,z})",
        "    facet {x,z}(y) nested in z({x,y})",
        "    facet z({x,y}) nested in {x,y}(z)",
        "    facet z({x,y}) nested in x({y,z})",
        "  order-isomorphism:",
        "    {y,z}(x) holds no vertex",
        "    z({x,y}) holds no vertex",
        "    z(y(x)) holds no vertex",
        "    z(x(y)) holds no vertex",
        "    y(x,z) holds no vertex",
        "  simplicity:",
        "    z(y(x)) lies on 0 facets, named 2",
        "    z(x(y)) lies on 1 facets, named 2",
        "    y(x,z) lies on 1 facets, named 2",
    ])
    # the export checks strictness only
    assert vertices_to_json_dict(h)["vertices"]["z(y(x))"] == ["4", "6", "18"]


def test_distinct_points_witness(monkeypatch):
    # both vertices of the segment move to (6, 6)
    h = corpus.simplex(2)
    _shifted(monkeypatch, lambda h, text, coords: coords.__setitem__(coords.index(3), 6))
    assert verify_isomorphism(h).summary() == "\n".join([
        "carrier 2 atoms: FAIL",
        "  constructs: 3",
        "  dimension: 0",
        "  facets: 2",
        "  vertices: 2",
        "  dimension:",
        "    affine hull has dimension 0, expected 1",
        "  distinct-points:",
        "    x(y) and y(x) coincide",
        "  facet-census:",
        "    facet y(x) nested in x(y)",
        "  order-isomorphism:",
        "    y(x) holds no vertex",
        "    x(y) holds no vertex",
        "  simplicity:",
        "    y(x) lies on 0 facets, named 1",
        "    x(y) lies on 0 facets, named 1",
    ])


# -- hrep against constraints built label by label --------------------------


def _connected_atomic(rng, atoms):
    """A random connected atomic hypergraph: a random spanning path and
    some random edges of 2-4 atoms."""
    order = rng.sample(atoms, len(atoms))
    edges = [[a] for a in atoms] + [order[i : i + 2] for i in range(len(atoms) - 1)]
    edges += [rng.sample(atoms, rng.randint(2, 4)) for _ in range(rng.randint(0, len(atoms)))]
    return Hypergraph(atoms, edges)


def test_hrep_rows_are_the_connected_subsets(small_corpus, named):
    """Past 8 atoms a row's labels join two halves; labels may be long or
    hold spaces."""
    rng = random.Random(30)
    randoms = [_connected_atomic(rng, [f"a{i}" for i in range(n)]) for n in range(11, 17)]
    spaced = [_connected_atomic(rng, [f"atom {i}" for i in range(n)]) for n in (9, 13)]
    odd = [
        Hypergraph(["x"], [["x"]]),
        Hypergraph(["a b", "cd", "e"], [["a b"], ["cd"], ["e"], ["a b", "cd"], ["cd", "e"]]),
    ]
    for h in [*small_corpus, *named.values(), *randoms, *spaced, *odd]:
        want = tuple(
            LinearConstraint(
                h.labels(m), 3 ** len(h.labels(m)),
                "equality" if m == h.full_mask else "at-least",
            )
            for m in connected_subset_masks(h)
        )
        system = hrep(h)
        assert system.constraints == want, h
        assert system.to_text() == "".join(c.text(h) + "\n" for c in want), h
        assert system.to_json_dict()["constraints"] == [
            {"support": list(h.sorted_labels(c.support)), "rhs": str(c.rhs), "kind": c.kind}
            for c in want
        ], h
    assert hrep(odd[0]).to_text() == "x == 3\n"
    assert hrep(odd[1]).to_text().splitlines()[-2:] == ["cd + e >= 9", "a b + cd + e == 27"]