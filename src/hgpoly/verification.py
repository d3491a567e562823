"""The acceptance checklist: twelve exhaustive checks, one per frozen
family of facts, shared by `hgpoly corpus verify` and the acceptance
test module.

Each check re-derives its facts from scratch and raises
VerificationFailure on the first mismatch, so a green `corpus verify`
and a green acceptance run mean the same thing.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from itertools import permutations
from typing import Callable, Iterable

from . import corpus
from .constructs import (
    Construct,
    enumerate_constructions,
    enumerate_constructs,
    leq,
    make_node,
    parse_construct,
    print_construct,
)
from .hypergraph import Hypergraph
from .nestedsets import (
    NestedSetError,
    check_tubing_conditions,
    condition_c,
    condition_c_graph,
    psi,
    unpsi,
)
from .operadic import (
    EdgeGraph,
    build_edge_graph,
    classify_edge,
    construction_to_word,
    decomposition_words,
    min_path,
    normalize_path,
    parse_tree,
    word_to_construction,
)
from .pba import (
    HoleWordError,
    census,
    decode,
    encode,
    face_constructs,
    parse_word,
    pba_setup,
    rule_closure_leq,
    word_leq,
)
from .realization import f_vector, verify_isomorphism, vertex_of_construction
from .truncation import (
    advance,
    constrs,
    next_round,
    simplex_round,
    tamed_constructions,
    vertex_family,
)


class VerificationFailure(Exception):
    """An acceptance check found a mismatch."""


def need(condition: bool, message: str) -> None:
    if not condition:
        raise VerificationFailure(message)


def _parse_all(h: Hypergraph, texts: Iterable[str]) -> set[Construct]:
    return {parse_construct(h, t) for t in texts}


def _prints(h: Hypergraph, cs: Iterable[Construct]) -> set[str]:
    return {print_construct(h, c) for c in cs}


def _counts(h: Hypergraph, cs: Iterable[Construct]) -> tuple[int, ...]:
    n = len(h.carrier)
    out = [0] * n
    for c in cs:
        out[n - c.node_count] += 1
    return tuple(out)


# -- 1: simplex censuses ------------------------------------------------

SIMPLEX_2_FACES = [
    "x(y,z)", "y(x,z)", "z(x,y)",
    "{x,y}(z)", "{y,z}(x)", "{x,z}(y)",
    "{x,y,z}",
]


def check_simplex_censuses() -> None:
    """The 2-simplex has exactly 7 constructs; the 3-simplex 4/6/4/1."""
    h2 = corpus.simplex(3)
    need(set(enumerate_constructs(h2)) == _parse_all(h2, SIMPLEX_2_FACES),
         "2-simplex constructs drifted from the frozen seven")
    h3 = corpus.simplex(4)
    faces = enumerate_constructs(h3)
    need(_counts(h3, faces) == (4, 6, 4, 1),
         f"3-simplex counts {_counts(h3, faces)} != (4, 6, 4, 1)")
    need(len(faces) == 15, f"3-simplex has {len(faces)} faces, not 15")


# -- 2: pentagon and hexagon --------------------------------------------

PENTAGON_VERTICES = ["x(y(z))", "x(z(y))", "y(x,z)", "z(x(y))", "z(y(x))"]

HEXAGON_CONSTRUCTIONS = [
    "x(y(z))", "y(x(z))", "y(z(x))", "x(z(y))", "z(x(y))", "z(y(x))",
]


def check_pentagon_and_hexagon() -> None:
    """f-vectors (5,5,1) and (6,6,1) with the frozen vertex constructs."""
    pent = corpus.path_graph(3)
    need(f_vector(pent) == (5, 5, 1), f"pentagon f-vector {f_vector(pent)}")
    need(_prints(pent, enumerate_constructions(pent)) == set(PENTAGON_VERTICES),
         "pentagon vertices drifted from the frozen five")
    hexa = corpus.complete_graph(3)
    need(f_vector(hexa) == (6, 6, 1), f"hexagon f-vector {f_vector(hexa)}")
    need(_prints(hexa, enumerate_constructions(hexa)) == set(HEXAGON_CONSTRUCTIONS),
         "hexagon constructions drifted from the frozen six")


# -- 3: truncated simplices ---------------------------------------------

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


def check_truncated_simplices() -> None:
    """Adding one hyperedge to the 3-simplex adds exactly the frozen
    9 (edge cut) or 7 (vertex cut) new constructs."""
    plain = set(enumerate_constructs(corpus.simplex(4)))
    edge = corpus.edge_truncated_3_simplex()
    need(set(enumerate_constructs(edge)) - plain == _parse_all(edge, EDGE_TRUNCATED_NEW),
         "edge-truncated 3-simplex new constructs drifted")
    vert = corpus.vertex_truncated_3_simplex()
    need(set(enumerate_constructs(vert)) - plain == _parse_all(vert, VERTEX_TRUNCATED_NEW),
         "vertex-truncated 3-simplex new constructs drifted")


# -- 4: the three order implementations ---------------------------------


def check_order_variants() -> None:
    """rules, v2 and v3 agree on every pair over every connected atomic
    hypergraph with at most 4 atoms plus the named 5-atom example."""
    cases = list(corpus.small_corpus()) + [corpus.named_corpus()["4-associahedron"]]
    for h in cases:
        faces = enumerate_constructs(h)
        for s in faces:
            for t in faces:
                r = leq(s, t, h, "rules")
                if r != leq(s, t, h, "v2") or r != leq(s, t, h, "v3"):
                    raise VerificationFailure(
                        "order variants disagree on %s vs %s over %r"
                        % (print_construct(h, s), print_construct(h, t), h.carrier)
                    )


# -- 5: nested sets -------------------------------------------------------


def check_nested_sets() -> None:
    """psi and unpsi are mutually inverse, psi reverses the order, and
    the connectivity-only example separates the two conditions."""
    for h in corpus.small_corpus():
        for t in enumerate_constructs(h):
            m = psi(t)
            need(len(m) == t.node_count, "psi image has the wrong size")
            need(unpsi(h, m) == t, "unpsi(psi(t)) != t")
    named = corpus.named_corpus()
    for key in ("pentagon", "hexagon", "3-simplex", "hemiassociahedron"):
        h = named[key]
        faces = enumerate_constructs(h)
        for s in faces:
            for t in faces:
                need(leq(s, t, h, "v2") == (psi(t) <= psi(s)),
                     f"psi does not reverse the order on {key}")

    h = Hypergraph("xyz", [["x"], ["y"], ["z"], ["x", "y", "z"]])
    family = frozenset(frozenset(s) for s in ("x", "y", "z", "xyz"))
    singletons = {frozenset({a}) for a in "xyz"}
    need(condition_c_graph(h, family), "graph condition rejected the separation family")
    witness = condition_c(h, family)
    need(witness is not None and set(witness) == singletons,
         "connected-antichain witness drifted")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        need(check_tubing_conditions(h, family),
             "tubing conditions rejected the separation family")
    try:
        unpsi(h, family)
    except NestedSetError as err:
        need(err.condition == "C", "separation family failed the wrong condition")
        need(set(err.witness) == singletons, "separation witness drifted")
    else:
        raise VerificationFailure("unpsi accepted the separation family")


# -- 6: geometric realization ---------------------------------------------


def check_realization() -> None:
    """verify_isomorphism holds corpus-wide (order isomorphism, simplicity,
    affine dimension) and the pentagon vertex solves exactly."""
    cases = list(corpus.small_corpus()) + list(corpus.named_corpus().values())
    for h in cases:
        report = verify_isomorphism(h)
        need(report.ok, report.summary())
        need(report.stats["dimension"] == len(h.carrier) - 1,
             f"dimension {report.stats['dimension']} over {h.carrier!r}")
    pent = corpus.path_graph(3)
    v = vertex_of_construction(pent, parse_construct(pent, "x(y(z))"))
    need(v.coords == (Fraction(18), Fraction(6), Fraction(3)),
         f"pentagon vertex x(y(z)) solved to {v.coords}")


# -- 7: coherence diagrams ------------------------------------------------

DIAGRAM_STAR = [
    ("b({c,d})", "theta", "((ac)d)b", "((ad)c)b"),
    ("c({b,d})", "theta", "((ab)d)c", "((ad)b)c"),
    ("d({b,c})", "theta", "((ab)c)d", "((ac)b)d"),
    ("{b,c}(d)", "theta", "((ad)b)c", "((ad)c)b"),
    ("{b,d}(c)", "theta", "((ac)b)d", "((ac)d)b"),
    ("{c,d}(b)", "theta", "((ab)c)d", "((ab)d)c"),
]
DIAGRAM_CHAIN = [
    ("b({c,d})", "beta", "a((bc)d)", "a(b(cd))"),
    ("d({b,c})", "beta", "((ab)c)d", "(a(bc))d"),
    ("{b,c}(d)", "beta", "(ab)(cd)", "a(b(cd))"),
    ("{b,d}(c)", "beta", "(a(bc))d", "a((bc)d)"),
    ("{c,d}(b)", "beta", "((ab)c)d", "(ab)(cd)"),
]
DIAGRAM_FORK = [
    ("b({c,d})", "theta", "a((bc)d)", "a((bd)c)"),
    ("c({b,d})", "beta", "((ab)d)c", "(a(bd))c"),
    ("d({b,c})", "beta", "((ab)c)d", "(a(bc))d"),
    ("{b,c}(d)", "beta", "(a(bd))c", "a((bd)c)"),
    ("{b,d}(c)", "beta", "(a(bc))d", "a((bc)d)"),
    ("{c,d}(b)", "theta", "((ab)c)d", "((ab)d)c"),
]
DIAGRAM_MIXED_PENTAGON = [
    ("y({x,z})", "beta", "((ab)d)c", "(a(bd))c"),
    ("z({x,y})", "theta", "((ab)c)d", "((ac)b)d"),
    ("{x,y}(z)", "theta", "(a(bd))c", "(ac)(bd)"),
    ("{x,z}(y)", "beta", "((ac)b)d", "(ac)(bd)"),
    ("{y,z}(x)", "theta", "((ab)c)d", "((ab)d)c"),
]


def _classified_rows(g: EdgeGraph) -> list[tuple[str, str, str, str]]:
    h = g.hypergraph
    rows = []
    for e in enumerate_constructs(h):
        if e.node_count != len(h.carrier) - 1:
            continue
        cls = classify_edge(g, e)
        if cls.kind == "beta":
            a, b = cls.source, cls.target
        else:
            a, b = sorted(cls.endpoints, key=lambda v: construction_to_word(g, v))
        rows.append((print_construct(h, e), cls.kind,
                     construction_to_word(g, a), construction_to_word(g, b)))
    return sorted(rows)


def check_coherence_diagrams() -> None:
    """The edge classifier reproduces all four frozen diagrams and the
    orientation of the one mixed-pentagon sequential edge."""
    diagrams = [
        ("a(b,c,d)", None, DIAGRAM_STAR),
        ("a(b(c(d)))", None, DIAGRAM_CHAIN),
        ("a(b(c,d))", None, DIAGRAM_FORK),
        ("a(b(d),c)", {"b": "x", "c": "y", "d": "z"}, DIAGRAM_MIXED_PENTAGON),
    ]
    for text, names, expected in diagrams:
        g = build_edge_graph(parse_tree(text), names=names)
        got = _classified_rows(g)
        need(got == sorted(expected), f"diagram for {text} drifted:\n{got}")
    g = build_edge_graph(parse_tree("a(b(d),c)"), names={"b": "x", "c": "y", "d": "z"})
    h = g.hypergraph
    cls = classify_edge(g, parse_construct(h, "{x,z}(y)"))
    need(cls.kind == "beta", "the mixed-pentagon edge {x,z}(y) is not sequential")
    need(print_construct(h, cls.source) == "z(x(y))"
         and print_construct(h, cls.target) == "x(y,z)",
         "orientation of {x,z}(y) drifted")


# -- 8: min-path normal forms ---------------------------------------------


def _all_simple_paths(g: EdgeGraph, u: str, v: str) -> list[tuple[str, ...]]:
    out: list[tuple[str, ...]] = []
    _walk_paths(g, [u], v, out)
    return out


def _walk_paths(g: EdgeGraph, path: list[str], v: str, out: list) -> None:
    """Each simple path from path's start to v that extends path goes into out."""
    if path[-1] == v:
        out.append(tuple(path))
        return
    for b in g.neighbors(path[-1]):
        if b not in path:
            _walk_paths(g, path + [b], v, out)


def _bfs_distance(g: EdgeGraph, u: str, v: str) -> int:
    seen = {u: 0}
    frontier = [u]
    while frontier:
        nxt = []
        for a in frontier:
            for b in g.neighbors(a):
                if b not in seen:
                    seen[b] = seen[a] + 1
                    nxt.append(b)
        frontier = nxt
    return seen[v]


def check_min_paths() -> None:
    """Every simple path in every edge graph of a tree with at most 6
    nodes normalizes to the unique shortest type-I-or-II form."""
    for n in range(2, 7):
        for t in corpus.all_operadic_trees(n):
            g = build_edge_graph(t)
            names = g.hypergraph.carrier
            for i, u in enumerate(names):
                for v in names[i + 1:]:
                    normals = {normalize_path(g, p) for p in _all_simple_paths(g, u, v)}
                    if len(normals) != 1:
                        raise VerificationFailure(
                            f"{u}..{v} has {len(normals)} normal forms in {t!r}"
                        )
                    (normal,) = normals
                    need(normal == min_path(g, u, v), "normal form is not the min-path")
                    need(normal.length == _bfs_distance(g, u, v),
                         "normal form is not a shortest path")
                    need(normal.path_type in ("I", "II"), "normal form has no type")


# -- 9: decomposition words -------------------------------------------------


def _words_by_merging(t) -> set[str]:
    """Brute force: all distinct full decompositions over all edge orders."""
    edges = t.edges()
    words = set()
    for order in permutations(edges):
        block = {label: label for label in t.labels}
        word = {label: label for label in t.labels}
        for p, c in order:
            left, right = block[p], block[c]
            merged = f"({word[left]}{word[right]})"
            for label, b in block.items():
                if b in (left, right):
                    block[label] = left
            word[left] = merged
        words.add(word[block[t.label]][1:-1])
    return words


def check_decomposition_words() -> None:
    """Words biject with constructions on all trees with at most 5 nodes,
    and the frozen example decodes to z(x(y),u)."""
    for n in range(2, 6):
        for t in corpus.all_operadic_trees(n):
            g = build_edge_graph(t)
            constructions = enumerate_constructions(g.hypergraph)
            words = [construction_to_word(g, v) for v in constructions]
            need(len(set(words)) == len(constructions), f"words collide on {t!r}")
            need(set(words) == _words_by_merging(t), f"word census drifted on {t!r}")
            for v, w in zip(constructions, words):
                need(word_to_construction(g, w) == v, f"round trip broke on {w}")
    g = build_edge_graph(parse_tree("a(b(c,d),e)"),
                         names={"c": "x", "d": "y", "b": "z", "e": "u"})
    v = word_to_construction(g, "(ae)((bd)c)")
    need(print_construct(g.hypergraph, v) == "z(x(y),u)",
         "(ae)((bd)c) no longer decodes to z(x(y),u)")
    need(construction_to_word(g, v) == "(ae)((bd)c)", "frozen word round trip broke")


# -- 10: truncation rounds --------------------------------------------------

SQUARE_BASE = ("x", "y", "z", "u")
SQUARE_ROUND_1 = [["x"], ["y"], ["z"], ["u"], ["x", "y"], ["x", "y", "z", "u"]]
SQUARE_ROUND_2 = [
    ["u"], ["x"], ["y"], ["z"], ["x+y"],
    ["x", "x+y"],
    ["u", "x", "y", "z", "x+y"],
]
SQUARE_H2 = {"x", "y", "z", "u", "x+y"}
SQUARE_H2V = {
    frozenset({"y", "z", "u"}),
    frozenset({"x", "z", "u"}),
    frozenset({"y", "x+y", "z"}),
    frozenset({"x", "x+y", "z"}),
    frozenset({"y", "x+y", "u"}),
    frozenset({"x", "x+y", "u"}),
}
SQUARE_H3 = {"x", "y", "z", "u", "x+y", "2x+y"}
SQUARE_H3V = {
    frozenset({"x", "z", "u"}),
    frozenset({"y", "z", "u"}),
    frozenset({"x+y", "y", "z"}),
    frozenset({"x+y", "y", "u"}),
    frozenset({"x+y", "2x+y", "z"}),
    frozenset({"x", "2x+y", "z"}),
    frozenset({"x+y", "2x+y", "u"}),
    frozenset({"x", "2x+y", "u"}),
}


def _round_properties_hold(s) -> None:
    tr = next_round(s)
    new_names = [m.text() for m in tr.facets]
    need(list(s.facet_names) == new_names[: len(s.facet_names)],
         "old facets are not a prefix of the new round")
    need(len(tr.vertex_sets) == len(tamed_constructions(s)),
         "tamed constructions do not biject with the vertex decorations")
    need(len(new_names) == len(set(new_names)), "facet names collide")
    for name in new_names:
        need(any(name in fam for fam in tr.vertex_sets),
             f"facet {name} lies in no vertex family")


def check_truncation_rounds() -> None:
    """The square example runs rounds 1 to 3 exactly as frozen and the
    per-round properties hold across the 3-atom corpus."""
    r1 = simplex_round(SQUARE_BASE, SQUARE_ROUND_1)
    tr = next_round(r1)
    need({m.text() for m in tr.facets} == SQUARE_H2, "round 2 facets drifted")
    need(set(tr.vertex_sets) == SQUARE_H2V, "round 2 vertex families drifted")

    r2 = advance(r1, SQUARE_ROUND_2)
    ht = r2.truncations

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
    need(set(tamed_constructions(r2)) == expected, "round 2 constructions drifted")

    tr3 = next_round(r2)
    need({m.text() for m in tr3.facets} == SQUARE_H3, "round 3 facets drifted")
    need(set(tr3.vertex_sets) == SQUARE_H3V, "round 3 vertex families drifted")

    deep = make_node(ht, {"y", "z"}, [
        make_node(ht, {"x"}, [make_node(ht, {"x+y"})]), make_node(ht, {"u"}),
    ])
    need(vertex_family(r2, deep) == {"x+y", "2x+y", "u"},
         "the 2x+y flattening drifted")
    ys = {t.children[0].decoration for t in constrs(r2)}
    need(frozenset({"x", "x+y"}) in ys, "round 2 lost its two-facet constr")

    for h in list(corpus.all_connected_atomic(3)) + [corpus.hemiassociahedron()]:
        edges = [sorted(h.labels(m)) for m in h.edge_masks]
        _round_properties_hold(simplex_round(h.carrier, edges))
    _round_properties_hold(r1)
    _round_properties_hold(r2)


# -- 11: words with holes ----------------------------------------------------

QUOTED_WORDS = [
    (frozenset({"x1", "x1+x2+x3"}), "x1,{x1+x2+x3}",
     "(x₁·₁)(·₁x₄); ·₁={x₂,x₃}"),
    (frozenset({"x1+x2"}), "{x1+x2}",
     "·₁(·₁·₂)·₂; ·₁={x₁,x₂}; ·₂={x₃,x₄}"),
    (frozenset({"x1+x2", "x1+x2+x3"}), "{x1+x2,x1+x2+x3}",
     "·₁(·₁x₃x₄); ·₁={x₁,x₂}"),
    (frozenset({"x1", "x1+x2"}), "{x1,x1+x2}",
     "(x₁x₂·₁)·₁; ·₁={x₃,x₄}"),
    (frozenset({"x1"}), "x1",
     "(x₁·₁)·₁·₁; ·₁={x₂,x₃,x₄}"),
    (frozenset({"x2+x3+x4"}), "{x2+x3+x4}",
     "·₁·₁(·₁x₁); ·₁={x₂,x₃,x₄}"),
    (frozenset({"x1", "x1+x2", "x1+x2+x3"}), "{x1+x2}(x1,{x1+x2+x3})",
     "(x₁x₂)(x₃x₄)"),
    (frozenset({"x1", "x1+x3", "x1+x2+x3"}), "{x1+x3}(x1,{x1+x2+x3})",
     "(x₁x₃)(x₂x₄)"),
    (frozenset({"x1", "x1+x2", "x1+x2+x3"}), "{x1,x1+x2+x3}({x1+x2})",
     "x₁(x₂x₃)x₄"),
]


def check_words_with_holes() -> None:
    """encode/decode biject and reverse the nested-set order for the
    three smallest sizes, the census is frozen, the quoted words print
    verbatim, and the mis-bracketed word is rejected."""
    counts = {1: 3, 2: 25, 3: 363}
    setups = {n: pba_setup(n) for n in (1, 2, 3)}
    for n, setup in setups.items():
        faces = face_constructs(setup)
        need(len(faces) == counts[n], f"n={n} face count {len(faces)}")
        words = [encode(setup, t) for t in faces]
        need(len(set(words)) == len(faces), f"n={n} words collide")
        nested = [psi(t) for t in faces]
        for t, w in zip(faces, words):
            need(decode(setup, w) == t, f"n={n} round trip broke on {w.text()}")
        for i, wi in enumerate(words):
            for j, wj in enumerate(words):
                need(word_leq(setup, wi, wj) == (nested[j] <= nested[i]),
                     f"n={n} word order drifted on pair ({i}, {j})")

    setup = setups[3]
    c = census(setup)
    need((c.vertices, c.edges, c.facets, c.faces) == (120, 180, 62, 363),
         f"census {(c.vertices, c.edges, c.facets, c.faces)}")
    profiles = dict(c.facet_profiles)
    need(profiles[(1, 1, 1, 1)] == 24, "pentagon facet count drifted")
    need(profiles[(1, 3)] == 8, "dodecagon facet count drifted")
    need(profiles[(2, 2)] == 6, "octagon facet count drifted")

    carrier = set(setup.hypergraph.carrier)
    for root_minus, tree, expected in QUOTED_WORDS:
        root = ",".join(sorted(carrier - root_minus))
        t = parse_construct(setup.hypergraph, "{%s}(%s)" % (root, tree))
        got = encode(setup, t).text(ascii_symbols=False, square=False)
        need(got == expected, f"quoted word drifted: {got} != {expected}")

    a = parse_word(".1((.1x3)x4); .1={x1,x2}")
    b = parse_word(".1(.1x3x4); .1={x1,x2}")
    c2 = parse_word(".1(.1.2).2; .1={x1,x2}; .2={x3,x4}")
    d = parse_word("(x1.1).1.1; .1={x2,x3,x4}")
    e = parse_word(".1.1.1.1; .1={x1,x2,x3,x4}")
    for lo, hi in ((a, b), (a, c2), (d, e)):
        need(word_leq(setup, lo, hi) and not word_leq(setup, hi, lo),
             "frozen order example drifted")
        need(rule_closure_leq(setup, lo, hi), "rule closure lost a frozen example")

    try:
        decode(setup, parse_word("(x1x2)(.1.1); .1={x3,x4}"))
    except HoleWordError as err:
        need("standardization is [x1x2.1].1" in str(err),
             "rejection message lost the standardization")
    else:
        raise VerificationFailure("the mis-bracketed word was accepted")


# -- 12: hemiassociahedron ---------------------------------------------------

HEMIASSOCIAHEDRON_PRINTED_LABELS = [
    "(((ab)d)c)e",
    "(((ab)c)d)e",
    "((a(bc))d)e",
    "((a(bd))c)e",
    "(a((bc)d))e",
    "(a((bd)c))e",
    "(((ab)c)e)d",
    "((a(bc))e)d",
    "((ae)(bc))d",
    "(((ae)b)c)d",
    "(((ab)e)c)d",
]


def check_hemiassociahedron() -> None:
    """The edge graph of a(b(c,d),e) realizes exactly, counts (18,27,11,1),
    and its words include every frozen printed label."""
    g = build_edge_graph(parse_tree("a(b(c,d),e)"),
                         names={"c": "x", "d": "y", "b": "z", "e": "u"})
    h = g.hypergraph
    report = verify_isomorphism(h)
    need(report.ok, report.summary())
    need(f_vector(h) == (18, 27, 11, 1), f"f-vector {f_vector(h)}")
    words = decomposition_words(g)
    need(len(words) == 18, f"{len(words)} decomposition words")
    need(set(HEMIASSOCIAHEDRON_PRINTED_LABELS) <= set(words),
         "a frozen printed label is missing from the words")


CHECKS: tuple[tuple[str, Callable[[], None]], ...] = (
    ("simplex-censuses", check_simplex_censuses),
    ("pentagon-and-hexagon", check_pentagon_and_hexagon),
    ("truncated-simplices", check_truncated_simplices),
    ("order-variants", check_order_variants),
    ("nested-sets", check_nested_sets),
    ("realization", check_realization),
    ("coherence-diagrams", check_coherence_diagrams),
    ("min-paths", check_min_paths),
    ("decomposition-words", check_decomposition_words),
    ("truncation-rounds", check_truncation_rounds),
    ("words-with-holes", check_words_with_holes),
    ("hemiassociahedron", check_hemiassociahedron),
)
