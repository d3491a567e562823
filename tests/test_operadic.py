"""Edge graphs of operadic trees: min-paths, beta/theta, decomposition words."""

import json
from itertools import combinations, permutations

import pytest

from hgpoly import cli, constructs, corpus, operadic
from hgpoly.constructs import (
    enumerate_constructions,
    enumerate_constructs,
    parse_construct,
    print_construct,
    vertices_below,
)
from hgpoly.hypergraph import InvariantError, connected_subset_masks
from hgpoly.nestedsets import psi
from hgpoly.operadic import (
    EdgeGraph,
    OperadicTree,
    OperadicTreeError,
    WordError,
    build_edge_graph,
    classify_edge,
    construction_to_word,
    decomposition_words,
    edge_removal_census,
    min_path,
    normalize_path,
    parse_tree,
    skeleton_dot,
    subtree_component_correspondence,
    tree_from_json_dict,
    word_to_construction,
)

FIGURE_TREE = "a(b(c,d),e)"
FIGURE_NAMES = {"c": "x", "d": "y", "b": "z", "e": "u"}

# Edge types of the four coherence diagrams, as (edge construct, kind,
# word, word); beta rows are ordered source -> target, theta rows sorted.
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


def figure_graph() -> EdgeGraph:
    return build_edge_graph(parse_tree(FIGURE_TREE), names=FIGURE_NAMES)


def classify_all(g: EdgeGraph) -> list[tuple[str, str, str, str]]:
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
        rows.append(
            (
                print_construct(h, e),
                cls.kind,
                construction_to_word(g, a),
                construction_to_word(g, b),
            )
        )
    return sorted(rows)


def test_tree_parsing_and_json_round_trip():
    t = parse_tree(FIGURE_TREE)
    assert t.labels == frozenset("abcde")
    assert t.edges() == (("a", "b"), ("a", "e"), ("b", "c"), ("b", "d"))
    assert tree_from_json_dict(t.to_json_dict()) == t


TREE_TEXT_ERRORS = [
    ("a(b,)", "expected a label at position 4"),
    ("a(b", "unbalanced parentheses in tree text"),
    ("", "expected a label at position 0"),
    (" ", "expected a label at position 0"),
    ("a(", "expected a label at position 2"),
    ("(a)", "expected a label at position 0"),
    ("a(,b)", "expected a label at position 2"),
    ("a(b(c)", "unbalanced parentheses in tree text"),
    ("a)", "trailing input at position 1"),
    ("a(b)c", "trailing input at position 4"),
    ("a(b)(c)", "trailing input at position 4"),
    ("a(b,c))", "trailing input at position 6"),
    ("a(b,b)", "duplicate node label 'b'"),
]

TREE_JSON_ERRORS = [
    ([], "tree JSON must be an object"),
    ({"format": 2}, "unsupported format version"),
    ({"format": 1}, "tree node must be an object with a label"),
    ({"format": 1, "label": "a", "children": {}}, "children must be a list"),
    ({"format": 1, "label": "a", "children": [3]}, "tree node must be an object with a label"),
    ({"format": 1, "label": "a", "children": [{"label": ""}]}, "node labels must be non-empty strings"),
    ({"format": 1, "label": "a", "children": [{"label": "a"}]}, "duplicate node label 'a'"),
]

WORD_TEXT_ERRORS = [
    ("(ab", "expected ')' for the parenthesis at position 0"),
    ("(a b)", "unexpected character ' ' at position 2"),
    ("", "unexpected end of word"),
    ("(", "unexpected end of word"),
    ("abc", "trailing input at position 2"),
    ("((ab)c", "expected ')' for the parenthesis at position 0"),
    (")", "unexpected character ')' at position 0"),
    ("a)", "unexpected character ')' at position 1"),
    ("(ab))", "unexpected character ')' at position 4"),
    ("a-b", "unexpected character '-' at position 1"),
    ("()", "unexpected character ')' at position 1"),
    ("(a)", "unexpected character ')' at position 2"),
]

# words over the figure tree a(b(c,d),e) that parse but name no construction
FIGURE_WORD_ERRORS = [
    ("(ae)(bd)", "word does not use every tree node: missing c"),
    ("a", "word does not use every tree node: missing bcde"),
    ("((ab)((ab)c))", "blocks overlap in ((ab)((ab)c))"),
    ("(ae)((bd)c", "expected ')' for the parenthesis at position 4"),
    ("(qe)((bd)c)", "letter 'q' does not name a tree node"),
    ("(ac)(bd)", "no tree edge joins the blocks of (ac)"),
    ("(ae)(b(dc))", "no tree edge joins the blocks of (dc)"),
    ("(ea)((bc)d)", "(ea) puts the parent-side block on the right"),
]


@pytest.mark.parametrize("text, message", TREE_TEXT_ERRORS)
def test_parse_tree_messages(text, message):
    with pytest.raises(OperadicTreeError) as err:
        parse_tree(text)
    assert str(err.value) == message


@pytest.mark.parametrize("data, message", TREE_JSON_ERRORS)
def test_tree_json_messages(data, message):
    with pytest.raises(OperadicTreeError) as err:
        tree_from_json_dict(data)
    assert str(err.value) == message


@pytest.mark.parametrize("text, message", WORD_TEXT_ERRORS)
def test_parse_word_messages(text, message):
    with pytest.raises(WordError) as err:
        operadic._parse_word(text)
    assert str(err.value) == message


@pytest.mark.parametrize("word, message", FIGURE_WORD_ERRORS)
def test_word_to_construction_messages(word, message):
    with pytest.raises(WordError) as err:
        word_to_construction(figure_graph(), word)
    assert str(err.value) == message


def test_tree_rejects_duplicate_labels():
    with pytest.raises(OperadicTreeError):
        parse_tree("a(b,b)")


def test_single_node_tree_has_no_edge_graph():
    with pytest.raises(OperadicTreeError):
        build_edge_graph(parse_tree("a"))


def test_figure_edge_graph():
    g = figure_graph()
    assert g.hypergraph.carrier == ("x", "y", "z", "u")
    assert g.solid == {frozenset("xz"), frozenset("yz")}
    assert g.dashed == {frozenset("xy"), frozenset("zu")}
    assert g.level == {"z": 1, "u": 1, "x": 2, "y": 2}


def test_linear_tree_gives_solid_path():
    g = build_edge_graph(parse_tree("a(b(c(d)))"))
    assert g.dashed == frozenset()
    assert g.solid == {frozenset("bc"), frozenset("cd")}
    assert g.level == {"b": 1, "c": 2, "d": 3}


def test_star_tree_gives_dashed_triangle():
    g = build_edge_graph(parse_tree("a(b,c,d)"))
    assert g.solid == frozenset()
    assert g.dashed == {frozenset("bc"), frozenset("bd"), frozenset("cd")}
    assert set(g.level.values()) == {1}


def test_normalize_valley_to_dashed():
    g = figure_graph()
    normal = normalize_path(g, ["x", "z", "y"])
    assert normal.vertices == ("x", "y")
    assert normal.path_type == "II"


def test_normalize_leaves_normal_forms_alone():
    g = figure_graph()
    assert normalize_path(g, ["x", "z"]).vertices == ("x", "z")
    assert normalize_path(g, ["x", "z"]).path_type == "I"
    two_step = normalize_path(g, ["x", "z", "u"])
    assert two_step.vertices == ("x", "z", "u")
    assert two_step.path_type == "II"


def test_min_path_matches_figure():
    g = figure_graph()
    assert min_path(g, "x", "u").vertices == ("x", "z", "u")
    assert min_path(g, "x", "y").vertices == ("x", "y")
    assert min_path(g, "x", "z").path_type == "I"


def _all_simple_paths(g: EdgeGraph, u: str, v: str):
    out = []

    def walk(path):
        if path[-1] == v:
            out.append(tuple(path))
            return
        for b in g.neighbors(path[-1]):
            if b not in path:
                walk(path + [b])

    walk([u])
    return out


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


def _stacked_in_tree(t: OperadicTree, g: EdgeGraph, u: str, v: str) -> bool:
    parent_of = {c: p for p, c in t.edges()}

    def ancestors(label: str):
        while label in parent_of:
            label = parent_of[label]
            yield label

    cu, cv = g.edge_of[u], g.edge_of[v]
    return cu in ancestors(cv) or cv in ancestors(cu)


def test_every_simple_path_normalizes_to_the_unique_min_path():
    for n in range(2, 7):
        for t in corpus.all_operadic_trees(n):
            g = build_edge_graph(t)
            names = g.hypergraph.carrier
            for i, u in enumerate(names):
                for v in names[i + 1 :]:
                    normals = {
                        normalize_path(g, p) for p in _all_simple_paths(g, u, v)
                    }
                    assert len(normals) == 1
                    (normal,) = normals
                    assert normal.length == _bfs_distance(g, u, v)
                    assert normal == min_path(g, u, v)
                    assert normal.path_type in ("I", "II")
                    stacked = _stacked_in_tree(t, g, u, v)
                    assert stacked == (normal.path_type == "I")
                    dashed_steps = [
                        g.kind_of(a, b) == "dashed"
                        for a, b in zip(normal.vertices, normal.vertices[1:])
                    ]
                    assert (normal.path_type == "II") == any(dashed_steps)


def test_decode_of_figure_word():
    g = figure_graph()
    v = word_to_construction(g, "(ae)((bd)c)")
    assert print_construct(g.hypergraph, v) == "z(x(y),u)"
    assert construction_to_word(g, v) == "(ae)((bd)c)"


def test_decode_accepts_the_outer_parentheses():
    g = build_edge_graph(parse_tree("a(b)"))
    v = word_to_construction(g, "(ab)")
    assert v == word_to_construction(g, "ab")
    assert construction_to_word(g, v) == "ab"


@pytest.mark.parametrize("tree", ["ab(cd,e)", "a(b,-)"])
def test_words_need_one_letter_or_digit_per_label(tree):
    g = build_edge_graph(parse_tree(tree))
    (v, *_) = enumerate_constructions(g.hypergraph)
    for spell in (lambda: construction_to_word(g, v), lambda: decomposition_words(g),
                  lambda: operadic.skeleton_dot(g)):
        with pytest.raises(WordError, match="is not a word letter"):
            spell()


def test_non_adjacent_merge_is_rejected_with_the_parenthesis():
    g = build_edge_graph(parse_tree("a(b(c(d)))"))
    with pytest.raises(WordError, match=r"\(ac\)"):
        word_to_construction(g, "((ac)b)d")


def test_child_side_on_the_left_is_rejected():
    g = build_edge_graph(parse_tree("a(b)"))
    with pytest.raises(WordError, match="parent-side"):
        word_to_construction(g, "(ba)")


def test_incomplete_and_overlapping_words_are_rejected():
    g = figure_graph()
    with pytest.raises(WordError, match="missing"):
        word_to_construction(g, "(ae)(bd)")
    with pytest.raises(WordError, match="overlap"):
        word_to_construction(g, "((ab)((ab)c))")
    with pytest.raises(WordError):
        word_to_construction(g, "(ae)((bd)c")
    with pytest.raises(WordError, match="tree node"):
        word_to_construction(g, "(qe)((bd)c)")


def _oracle_words(t: OperadicTree) -> set[str]:
    """Distinct decomposition words over all edge insertion orders."""
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


def test_words_biject_with_constructions_on_small_trees():
    for n in range(2, 6):
        for t in corpus.all_operadic_trees(n):
            g = build_edge_graph(t)
            constructions = enumerate_constructions(g.hypergraph)
            words = [construction_to_word(g, v) for v in constructions]
            assert len(set(words)) == len(constructions)
            assert set(words) == _oracle_words(t)
            for v, w in zip(constructions, words):
                assert word_to_construction(g, w) == v


def test_decomposition_words_match_the_permutation_oracle():
    # the words name tree nodes, so renaming the atoms keeps them; the
    # reversed names put the atoms in carrier order against label order
    for n in range(2, 8):
        for t in corpus.all_operadic_trees(n):
            want = sorted(_oracle_words(t))
            labels = [c for _, c in t.edges()]
            for names in (None, dict(zip(labels, reversed(labels)))):
                assert decomposition_words(build_edge_graph(t, names)) == want


def test_figure_words_include_all_printed_hemiassociahedron_labels():
    g = figure_graph()
    words = decomposition_words(g)
    assert len(words) == 18
    assert set(HEMIASSOCIAHEDRON_PRINTED_LABELS) <= set(words)


def test_star_diagram_is_all_theta():
    assert classify_all(build_edge_graph(parse_tree("a(b,c,d)"))) == sorted(DIAGRAM_STAR)


def test_chain_diagram_is_all_beta():
    assert classify_all(build_edge_graph(parse_tree("a(b(c(d)))"))) == sorted(DIAGRAM_CHAIN)


def test_fork_diagram_mixes_two_theta_and_four_beta():
    assert classify_all(build_edge_graph(parse_tree("a(b(c,d))"))) == sorted(DIAGRAM_FORK)


def test_mixed_pentagon_diagram_and_its_beta_orientation():
    g = build_edge_graph(parse_tree("a(b(d),c)"), names={"b": "x", "c": "y", "d": "z"})
    assert classify_all(g) == sorted(DIAGRAM_MIXED_PENTAGON)
    h = g.hypergraph
    cls = classify_edge(g, parse_construct(h, "{x,z}(y)"))
    assert cls.kind == "beta"
    assert print_construct(h, cls.source) == "z(x(y))"
    assert print_construct(h, cls.target) == "x(y,z)"


def test_classify_rejects_non_edge_constructs():
    g = figure_graph()
    h = g.hypergraph
    with pytest.raises(OperadicTreeError):
        classify_edge(g, parse_construct(h, "z(x(y),u)"))
    with pytest.raises(OperadicTreeError):
        classify_edge(g, parse_construct(h, "{x,y,z}(u)"))


def test_beta_subgraph_is_acyclic():
    trees = ["a(b,c,d)", "a(b(c(d)))", "a(b(c,d))", "a(b(d),c)", FIGURE_TREE]
    for text in trees:
        g = build_edge_graph(parse_tree(text))
        h = g.hypergraph
        succ = {v: [] for v in enumerate_constructions(h)}
        for e in enumerate_constructs(h):
            if e.node_count != len(h.carrier) - 1:
                continue
            cls = classify_edge(g, e)
            if cls.kind == "beta":
                succ[cls.source].append(cls.target)

        state: dict = {}

        def acyclic(v) -> bool:
            if state.get(v) == "done":
                return True
            if state.get(v) == "open":
                return False
            state[v] = "open"
            ok = all(acyclic(w) for w in succ[v])
            state[v] = "done"
            return ok

        assert all(acyclic(v) for v in succ)


def test_subtree_correspondence_examples():
    g = figure_graph()
    assert subtree_component_correspondence(g, {"x", "y", "z"}) == parse_tree("a(b(c,d))")
    assert subtree_component_correspondence(g, {"y"}) == parse_tree("b(d)")
    assert subtree_component_correspondence(g, set("xyzu")) == g.tree
    with pytest.raises(OperadicTreeError):
        subtree_component_correspondence(g, {"x", "u"})


def test_subtrees_biject_with_connected_subsets():
    for n in range(2, 7):
        for t in corpus.all_operadic_trees(n):
            g = build_edge_graph(t)
            h = g.hypergraph
            seen = set()
            for m in connected_subset_masks(h):
                sub = subtree_component_correspondence(g, h.labels(m))
                back = {v for _, v in ((p, c) for p, c in sub.edges())}
                assert {g.edge_of[a] for a in h.labels(m)} == back
                seen.add(sub)
            non_empty_subtrees = _count_non_empty_subtrees(t)
            assert len(seen) == len(connected_subset_masks(h)) == non_empty_subtrees


def _count_non_empty_subtrees(t: OperadicTree) -> int:
    labels = sorted(t.labels)
    edges = t.edges()
    count = 0
    for bits in range(1, 1 << len(labels)):
        nodes = {labels[i] for i in range(len(labels)) if bits >> i & 1}
        inside = [(p, c) for p, c in edges if p in nodes and c in nodes]
        if len(inside) != len(nodes) - 1 or not inside:
            continue
        reach = {inside[0][0]}
        grew = True
        while grew:
            grew = False
            for p, c in inside:
                if (p in reach) != (c in reach):
                    reach.update((p, c))
                    grew = True
        if len(reach) == len(nodes):
            count += 1
    return count


def test_edge_removal_census_examples():
    g = figure_graph()
    cen = edge_removal_census(g, {"z"})
    assert cen.subtree_count == 2
    assert cen.nonempty_count == 2
    assert cen.pairs == (
        (frozenset("ae"), frozenset("u")),
        (frozenset("bcd"), frozenset("xy")),
    )

    two = build_edge_graph(parse_tree("a(b)"))
    assert edge_removal_census(two, {"b"}).nonempty_count == 0

    topmost = edge_removal_census(figure_graph(), {"x"})
    assert topmost.subtree_count == 2
    assert topmost.nonempty_count == 1


def test_edge_removal_census_counts_on_small_trees():
    for n in range(2, 6):
        for t in corpus.all_operadic_trees(n):
            g = build_edge_graph(t)
            names = g.hypergraph.carrier
            for bits in range(1 << len(names)):
                removed = {names[i] for i in range(len(names)) if bits >> i & 1}
                cen = edge_removal_census(g, removed)
                assert cen.subtree_count == len(removed) + 1
                assert 0 <= cen.nonempty_count <= len(removed) + 1


def test_skeleton_dot_output():
    g = build_edge_graph(parse_tree("a(b(d),c)"))
    dot = skeleton_dot(g)
    assert dot.startswith("digraph skeleton {")
    assert dot.count('[label="beta"]') == 2
    assert dot.count('[label="theta"') == 3
    assert dot == skeleton_dot(build_edge_graph(parse_tree("a(b(d),c)")))


def test_skeleton_dot_runs_the_kernel_once(monkeypatch):
    # the vertices come from one run of the kernel and the edges
    # are read off their nested sets: no construct is enumerated, split
    # into its vertices or printed
    g = build_edge_graph(parse_tree("a(b(c,d),e(f))"))
    want = skeleton_dot(g)
    calls = []
    real = operadic.enumerate_constructions

    def counting(h, **kwargs):
        calls.append(h)
        return real(h, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("skeleton_dot enumerated, split or printed a construct")

    monkeypatch.setattr(operadic, "enumerate_constructions", counting)
    for module in (operadic, constructs):
        for name in ("enumerate_constructs", "vertices_below", "print_construct"):
            monkeypatch.setattr(module, name, refused, raising=False)
    assert skeleton_dot(g) == want
    assert calls == [g.hypergraph]


def test_word_paths_build_no_construct(monkeypatch):
    # skeleton_dot and decomposition_words read words and edge keys off the
    # kernel's node builder: with Construct refused, a fresh edge graph gives
    # the same output
    t = parse_tree("a(b(c,d),e(f))")
    want = skeleton_dot(build_edge_graph(t)), decomposition_words(build_edge_graph(t))

    def refuse(*args, **kwargs):
        raise AssertionError("a word path built a Construct")

    for module in (constructs, operadic):
        monkeypatch.setattr(module, "Construct", refuse)
    g = build_edge_graph(t)
    with pytest.raises(AssertionError):
        enumerate_constructions(g.hypergraph)  # the stand-in is live
    assert (skeleton_dot(g), decomposition_words(g)) == want


def _edges(h):
    return [e for e in enumerate_constructs(h) if e.node_count == len(h.carrier) - 1]


def test_edge_endpoints_split_the_doubleton(named):
    # the two vertices below an edge are its nested set with one member
    # more, on the edge graphs of every tree with 5 or 6 nodes and on the
    # named corpus
    trees = [build_edge_graph(t).hypergraph for n in (5, 6) for t in corpus.all_operadic_trees(n)]
    checked = 0
    for h in [*trees, *named.values()]:
        for e in _edges(h):
            ends = vertices_below(h, e)
            assert len(ends) == 2
            for v in ends:
                assert any(psi(v) - {m} == psi(e) for m in psi(v))
            checked += 1
    assert checked == 3231


def _reference_dot(g):
    """skeleton_dot built edge by edge from the public classify_edge."""
    h = g.hypergraph

    def word(v):
        return construction_to_word(g, v)

    rows = []
    for e in _edges(h):
        cls = classify_edge(g, e)
        if cls.kind == "beta":
            rows.append(f'  "{word(cls.source)}" -> "{word(cls.target)}" [label="beta"];')
        else:
            a, b = sorted(map(word, cls.endpoints))
            rows.append(f'  "{a}" -> "{b}" [label="theta", dir=none, style=dashed];')
    vertices = [f'  "{w}";' for w in sorted(map(word, enumerate_constructions(h)))]
    return "\n".join(["digraph skeleton {", *vertices, *sorted(rows), "}"]) + "\n"


def test_skeleton_dot_matches_classify_edge_on_every_small_tree():
    # the words name tree nodes, so renaming the atoms keeps the DOT; the
    # reversed names put the atoms in carrier order against text order
    for n in range(2, 7):
        for t in corpus.all_operadic_trees(n):
            want = skeleton_dot(build_edge_graph(t))
            labels = [c for _, c in t.edges()]
            for names in (None, dict(zip(labels, reversed(labels)))):
                g = build_edge_graph(t, names)
                assert skeleton_dot(g) == _reference_dot(g) == want


def test_skeleton_dot_reads_one_min_path_per_pair(monkeypatch):
    # a min-path reversed keeps its type, so each unordered pair is asked
    # once, the earlier atom of the carrier first; the reversed names put
    # the carrier order against the text order
    t = parse_tree("a(b(c,d),e(f))")
    labels = [c for _, c in t.edges()]
    g = build_edge_graph(t, dict(zip(labels, reversed(labels))))
    want = skeleton_dot(g)
    asked = []
    real = operadic.min_path

    def spy(g, u, v):
        asked.append((u, v))
        return real(g, u, v)

    monkeypatch.setattr(operadic, "min_path", spy)
    assert skeleton_dot(g) == want
    assert asked == list(combinations(g.hypergraph.carrier, 2))


def test_skeleton_breaks_an_invariant_when_search_and_rewriting_disagree(monkeypatch, capsys, tmp_path):
    # the rewriting hands back the breadth-first path reversed
    real = operadic.normalize_path
    monkeypatch.setattr(operadic, "normalize_path", lambda g, p: real(g, p[::-1]))
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(parse_tree("a(b(c,d),e(f))").to_json_dict()))
    assert cli.main(["op", "classify", "--tree", str(path)]) == 1
    assert capsys.readouterr() == ("", "error: invariant broken: shortest path is not in normal form\n")


def test_skeleton_edge_without_two_vertices_breaks_an_invariant(monkeypatch, capsys, tmp_path):
    # dropping one vertex leaves its edges with one vertex each
    real = operadic.enumerate_constructions
    monkeypatch.setattr(operadic, "enumerate_constructions", lambda h, **kw: real(h, **kw)[1:])
    g = build_edge_graph(parse_tree("a(b(c,d),e(f))"))
    message = "a skeleton edge should have 2 vertices, found 1"
    with pytest.raises(InvariantError, match=message):
        skeleton_dot(g)
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(g.tree.to_json_dict()))
    assert cli.main(["op", "classify", "--tree", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: invariant broken: {message}\n")
