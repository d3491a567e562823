"""Rooted operation trees and their derived edge graphs.

The edges of a labeled rooted tree form a hypergraph: one atom per edge,
a pair hyperedge whenever two tree edges share a node. Pairs are tagged
solid (stacked edges) or dashed (sibling edges) and stratified by level;
the tags sit beside the plain hypergraph, which the construct and
realization machinery consumes unchanged. On the polytope of that
hypergraph, every edge either rebrackets one association step (beta,
oriented by level) or swaps two independent ones (theta, undirected).
The decision runs on the min-path between the two merged atoms, computed
both by breadth-first search and by a four-rule path rewriting system.
Constructions correspond to fully parenthesised merge words over the
tree's node labels, with the parent-side block printed on the left.
"""

from __future__ import annotations

from collections import deque, namedtuple
from functools import cached_property
from typing import NamedTuple

from .constructs import (
    MAX_CARRIER, Construct, _check_size, _checked, _psi_bits, _vertices_below,
    enumerate_constructions, validate_construct,
)
from .hypergraph import Hypergraph, InvariantError, _is_format_1, components


class OperadicTreeError(ValueError):
    """Input data violates a tree or edge-graph invariant."""


class WordError(ValueError):
    """A parenthesised word is not admissible for the tree at hand."""


class OperadicTree(namedtuple("OperadicTree", "label children", defaults=((),))):
    """Rooted tree with pairwise distinct node labels; children unordered
    (stored sorted by label). The tuple (label, children), and `labels`,
    the frozenset of its node labels."""

    def __new__(cls, label: str, children: tuple[OperadicTree, ...] = ()) -> OperadicTree:
        if not isinstance(label, str) or not label:
            raise OperadicTreeError("node labels must be non-empty strings")
        self = super().__new__(cls, label, tuple(sorted(children, key=lambda c: c.label)))
        self.labels = frozenset((label,)).union(*(c.labels for c in self.children))
        if len(self.labels) <= sum(len(c.labels) for c in self.children):
            # a label repeats: name the first one a preorder walk meets again
            seen: set[str] = set()
            repeated = next(n.label for n in self.nodes() if n.label in seen or seen.add(n.label))
            raise OperadicTreeError(f"duplicate node label {repeated!r}")
        return self

    def nodes(self):
        yield self
        for child in self.children:
            yield from child.nodes()

    def edges(self) -> tuple[tuple[str, str], ...]:
        """(parent label, child label) pairs, preorder."""
        out: list[tuple[str, str]] = []
        for node in self.nodes():
            for child in node.children:
                out.append((node.label, child.label))
        return tuple(out)

    @property
    def is_non_empty(self) -> bool:
        return bool(self.children)

    def to_json_dict(self) -> dict:
        return {"format": 1, **_json_node(self)}


def _json_node(node: OperadicTree) -> dict:
    return {"label": node.label, "children": [_json_node(c) for c in node.children]}


def tree_from_json_dict(data: dict) -> OperadicTree:
    if not isinstance(data, dict):
        raise OperadicTreeError("tree JSON must be an object")
    if not _is_format_1(data):
        raise OperadicTreeError("unsupported format version")
    return _tree_of_json(data)


def _tree_of_json(node) -> OperadicTree:
    if not isinstance(node, dict) or "label" not in node:
        raise OperadicTreeError("tree node must be an object with a label")
    children = node.get("children", [])
    if not isinstance(children, list):
        raise OperadicTreeError("children must be a list")
    return OperadicTree(node["label"], tuple(_tree_of_json(c) for c in children))


def parse_tree(text: str) -> OperadicTree:
    """Parse `a(b(c,d),e)` notation."""
    result, pos = _tree_node(text, 0)
    if pos != len(text):
        raise OperadicTreeError(f"trailing input at position {pos}")
    return result


def _tree_node(text: str, pos: int) -> tuple[OperadicTree, int]:
    """The tree whose label starts at pos, and the position after it."""
    start = pos
    while pos < len(text) and text[pos] not in "(),":
        pos += 1
    name = text[start:pos].strip()
    if not name:
        raise OperadicTreeError(f"expected a label at position {start}")
    kids: list[OperadicTree] = []
    if pos < len(text) and text[pos] == "(":
        kid, pos = _tree_node(text, pos + 1)
        kids.append(kid)
        while pos < len(text) and text[pos] == ",":
            kid, pos = _tree_node(text, pos + 1)
            kids.append(kid)
        if pos >= len(text) or text[pos] != ")":
            raise OperadicTreeError("unbalanced parentheses in tree text")
        pos += 1
    return OperadicTree(name, tuple(kids)), pos


class EdgeGraph:
    """The derived graph of an operadic tree, vertices named per edge.

    `hypergraph` is the plain atomic hypergraph (singletons plus adjacent
    pairs); solid/dashed tags and levels are sidecar data.
    """

    def __init__(
        self, tree: OperadicTree, hypergraph: Hypergraph, solid: frozenset[frozenset[str]],
        dashed: frozenset[frozenset[str]], level: dict[str, int], edge_of: dict[str, str],
    ) -> None:
        self.tree, self.hypergraph = tree, hypergraph
        self.solid, self.dashed, self.level = solid, dashed, level
        self.edge_of = edge_of  # vertex name -> child endpoint label in the tree

    @property
    def vertex_names(self) -> tuple[str, ...]:
        return self.hypergraph.carrier

    def kind_of(self, u: str, v: str) -> str | None:
        pair = frozenset((u, v))
        return "solid" if pair in self.solid else "dashed" if pair in self.dashed else None

    def neighbors(self, u: str) -> tuple[str, ...]:
        return self._adjacency[u]

    @cached_property
    def _adjacency(self) -> dict[str, tuple[str, ...]]:
        order = {a: i for i, a in enumerate(self.hypergraph.carrier)}
        out: dict[str, list[str]] = {a: [] for a in self.hypergraph.carrier}
        for pair in self.solid | self.dashed:
            u, v = tuple(pair)
            out[u].append(v)
            out[v].append(u)
        return {a: tuple(sorted(ns, key=order.__getitem__)) for a, ns in out.items()}

    @cached_property
    def _parent_of(self) -> dict[str, str]:
        return {c: p for p, c in self.tree.edges()}


def build_edge_graph(
    t: OperadicTree, names: dict[str, str] | None = None
) -> EdgeGraph:
    """Derive the edge graph: one vertex per tree edge (named by child
    endpoint, or per `names`), solid pairs for stacked edges, dashed
    pairs for siblings, level = distance of the child endpoint from the
    root."""
    if not t.is_non_empty:
        raise OperadicTreeError("the tree has no edges")
    child_labels = [c for _, c in t.edges()]
    if names is None:
        names = {c: c for c in child_labels}
    else:
        if set(names) != set(child_labels):
            raise OperadicTreeError("names must cover exactly the non-root labels")
        if len(set(names.values())) != len(names):
            raise OperadicTreeError("vertex names must be pairwise distinct")
    carrier = list(names.values())  # insertion order fixes the atom order

    level: dict[str, int] = {}
    solid: set[frozenset[str]] = set()
    dashed: set[frozenset[str]] = set()
    _walk_edges(t, 0, names, level, solid, dashed)
    edges = [[a] for a in carrier] + [sorted(p, key=carrier.index) for p in solid | dashed]
    return EdgeGraph(tree=t, hypergraph=Hypergraph(carrier, edges), solid=frozenset(solid),
                     dashed=frozenset(dashed), level=level, edge_of={v: c for c, v in names.items()})


def _walk_edges(node: OperadicTree, depth: int, names: dict, level: dict, solid: set, dashed: set) -> None:
    """Record the edges below node, at depth: each child edge's level, and
    the solid and dashed pairs, in preorder."""
    kids = [names[c.label] for c in node.children]
    for a in kids:
        level[a] = depth + 1
    for i, a in enumerate(kids):
        for b in kids[i + 1 :]:
            dashed.add(frozenset((a, b)))
    for child in node.children:
        if node.label in names:  # node's parent edge stacks on its child edges
            solid.add(frozenset((names[node.label], names[child.label])))
        _walk_edges(child, depth + 1, names, level, solid, dashed)


class MinPath(NamedTuple):
    vertices: tuple[str, ...]
    path_type: str  # "I" | "II"

    @property
    def length(self) -> int:
        return len(self.vertices) - 1


def _step_kinds(g: EdgeGraph, seq: tuple[str, ...]) -> list[str]:
    """Per step: 'down' (solid toward the root), 'up' (solid away), 'd'."""
    out = []
    for a, b in zip(seq, seq[1:]):
        kind = g.kind_of(a, b)
        if kind is None:
            raise OperadicTreeError(f"{a!r} and {b!r} are not adjacent")
        if kind == "dashed":
            out.append("d")
        else:
            out.append("up" if g.level[b] == g.level[a] + 1 else "down")
    return out


def _normal_type(steps: list[str]) -> str | None:
    """Type I: all down or all up. Type II: downs, one dashed, ups."""
    if "d" not in steps:
        if all(s == "down" for s in steps) or all(s == "up" for s in steps):
            return "I"
        return None
    if steps.count("d") > 1:
        return None
    i = steps.index("d")
    if all(s == "down" for s in steps[:i]) and all(s == "up" for s in steps[i + 1 :]):
        return "II"
    return None


def normalize_path(g: EdgeGraph, p) -> MinPath:
    """Apply the four length-reducing rewrite rules until no triple
    matches; the result is the unique min-path between the endpoints."""
    seq = list(p)
    if not seq:
        raise OperadicTreeError("empty path")
    if len(set(seq)) != len(seq):
        raise OperadicTreeError("path revisits a vertex")
    while True:
        steps = _step_kinds(g, tuple(seq))
        for i in range(len(steps) - 1):
            pair = (steps[i], steps[i + 1])
            if pair in {("d", "d"), ("down", "up"), ("d", "down"), ("up", "d")}:
                if g.kind_of(seq[i], seq[i + 2]) is None:
                    raise InvariantError("rewrite produced a non-edge; graph is not tree-derived")
                del seq[i + 1]
                break
        else:
            break
    kind = _normal_type(_step_kinds(g, tuple(seq)))
    if kind is None:
        raise InvariantError("normal form is neither type I nor type II")
    return MinPath(tuple(seq), kind)


def min_path(g: EdgeGraph, u: str, v: str) -> MinPath:
    """Unique shortest path between two vertices, by breadth-first search
    cross-checked against the rewriting normal form."""
    if u == v:
        raise OperadicTreeError("min-path endpoints must differ")
    prev: dict[str, str] = {u: u}
    queue = deque([u])
    while queue:
        a = queue.popleft()
        if a == v:
            break
        for b in g.neighbors(a):
            if b not in prev:
                prev[b] = a
                queue.append(b)
    if v not in prev:
        raise OperadicTreeError(f"no path between {u!r} and {v!r}")
    seq = [v]
    while seq[-1] != u:
        seq.append(prev[seq[-1]])
    seq.reverse()
    normal = normalize_path(g, seq)
    if normal.vertices != tuple(seq):
        raise InvariantError("shortest path is not in normal form")
    return normal


class EdgeClassification:
    def __init__(
        self, kind: str, endpoints: tuple[Construct, Construct], min_path: MinPath,
        source: Construct | None = None, target: Construct | None = None,
    ) -> None:
        self.kind = kind  # "beta" | "theta"
        self.endpoints, self.min_path = endpoints, min_path
        self.source, self.target = source, target  # beta only


def classify_edge(g: EdgeGraph, e: Construct) -> EdgeClassification:
    """Decide beta versus theta for a polytope edge.

    The edge merges two atoms u, v into one doubleton node; its two
    endpoints, the vertices below it, split that node. If the min-path
    between u and v is all solid, the edge is beta, oriented toward the
    endpoint in which the lower-level atom sits above the higher-level
    one; a dashed crossing makes it theta. The endpoints come in kernel order.
    """
    h = g.hypergraph
    e, record = _checked(h, e)
    doubletons = [n for n in e.nodes() if len(n.decoration) == 2]
    if len(doubletons) != 1 or e.node_count != len(h.carrier) - 1:
        raise OperadicTreeError("expected a construct with exactly one doubleton node")
    u, v = h.sorted_labels(doubletons[0].decoration)
    path = min_path(g, u, v)
    first, second = _vertices_below(h, record)
    if path.path_type == "II":
        return EdgeClassification("theta", (first, second), path)
    # u is above v in the first endpoint iff u's node spans v
    (top,) = (n for n in first.nodes() if u in n.decoration)
    upper, lower = (u, v) if v in top.span else (v, u)
    source, target = (first, second) if g.level[upper] > g.level[lower] else (second, first)
    return EdgeClassification("beta", (first, second), path, source, target)


def subtree_component_correspondence(g: EdgeGraph, k) -> OperadicTree:
    """The subtree of the underlying tree whose edge set is a connected
    set of graph vertices; its own edge graph restricts back to k."""
    atoms = frozenset(k)
    h = g.hypergraph
    if not atoms:
        raise OperadicTreeError("empty vertex set")
    if not h.connected_mask(h.mask(atoms)):
        raise OperadicTreeError("vertex set is not connected in the edge graph")
    parent_of = g._parent_of
    picked = {g.edge_of[a] for a in atoms}  # child endpoints of kept edges
    nodes = picked | {parent_of[c] for c in picked}
    children: dict[str, list[str]] = {n: [] for n in nodes}
    tops = set(nodes)
    for c in picked:
        children[parent_of[c]].append(c)
        tops.discard(c)
    (root,) = tops
    return _rebuilt(root, children)


def _rebuilt(label: str, children: dict[str, list[str]]) -> OperadicTree:
    return OperadicTree(label, tuple(_rebuilt(c, children) for c in children[label]))


class EdgeRemovalCensus(NamedTuple):
    """Removing n tree edges leaves n+1 subtrees; the ones that keep an
    edge match the components of the graph minus the removed vertices."""

    subtrees: tuple[frozenset[str], ...]  # node label sets, all of them
    pairs: tuple[tuple[frozenset[str], frozenset[str]], ...]  # (node set, vertex set)

    @property
    def subtree_count(self) -> int:
        return len(self.subtrees)

    @property
    def nonempty_count(self) -> int:
        return len(self.pairs)


def edge_removal_census(g: EdgeGraph, removed) -> EdgeRemovalCensus:
    removed_atoms = frozenset(removed)
    for a in removed_atoms:
        if a not in g.edge_of:
            raise OperadicTreeError(f"{a!r} is not a vertex of the edge graph")
    cut = {g.edge_of[a] for a in removed_atoms}
    kept = [(p, c) for p, c in g.tree.edges() if c not in cut]

    blocks: dict[str, set[str]] = {n.label: {n.label} for n in g.tree.nodes()}
    for p, c in kept:
        merged = blocks[p] | blocks[c]
        for n in merged:
            blocks[n] = merged
    subtrees = {frozenset(b) for b in blocks.values()}

    vertex_of = {c: v for v, c in g.edge_of.items()}
    pairs = []
    for part in subtrees:
        inside = frozenset(vertex_of[c] for p, c in kept if p in part and c in part)
        if inside:
            pairs.append((part, inside))

    found = {frozenset(comp) for comp in components(g.hypergraph, removed_atoms)}
    if found != {vs for _, vs in pairs}:
        raise InvariantError("graph components do not match the non-Empty subtrees")

    return EdgeRemovalCensus(  # parts by their sorted labels
        tuple(sorted(subtrees, key=sorted)), tuple(sorted(pairs, key=lambda pc: sorted(pc[0]))))


def _parse_word(text: str):
    """Letter or (left, right) pairs; accepts the outer pair dropped."""
    first, pos = _word_item(text, 0)
    if pos == len(text):
        return first
    second, pos = _word_item(text, pos)
    if pos != len(text):
        raise WordError(f"trailing input at position {pos}")
    return (first, second)


def _word_item(text: str, pos: int):
    """The letter or pair starting at pos, and the position after it."""
    if pos >= len(text):
        raise WordError("unexpected end of word")
    ch = text[pos]
    if ch == "(":
        left, end = _word_item(text, pos + 1)
        right, end = _word_item(text, end)
        if end >= len(text) or text[end] != ")":
            raise WordError(f"expected ')' for the parenthesis at position {pos}")
        return (left, right), end + 1
    if ch.isalnum():
        return ch, pos + 1
    raise WordError(f"unexpected character {ch!r} at position {pos}")


def _word_text(w) -> str:
    if isinstance(w, str):
        return w
    return f"({_word_text(w[0])}{_word_text(w[1])})"


def word_to_construction(g: EdgeGraph, word: str) -> Construct:
    """Decode a fully parenthesised merge word into the construction it
    denotes. Each parenthesis must merge two blocks joined by a tree
    edge whose parent endpoint lies in the left block."""
    t, h = g.tree, g.hypergraph
    vertex_of = {c: v for v, c in g.edge_of.items()}
    built, used = _word_block(_parse_word(word), t.labels, t.edges(), vertex_of)
    if used != t.labels:
        missing = "".join(sorted(t.labels - used))
        raise WordError(f"word does not use every tree node: missing {missing}")
    return validate_construct(h, built)


def _word_block(w, labels: frozenset[str], tree_edges, vertex_of: dict):
    """The construction the parsed word w builds (None for one letter) and
    the tree nodes it merges."""
    if isinstance(w, str):
        if w not in labels:
            raise WordError(f"letter {w!r} does not name a tree node")
        return None, frozenset((w,))
    left, right = w
    built_l, set_l = _word_block(left, labels, tree_edges, vertex_of)
    built_r, set_r = _word_block(right, labels, tree_edges, vertex_of)
    if set_l & set_r:
        raise WordError(f"blocks overlap in {_word_text(w)}")
    joining = [
        (p, c)
        for (p, c) in tree_edges
        if (p in set_l and c in set_r) or (p in set_r and c in set_l)
    ]
    if not joining:
        raise WordError(f"no tree edge joins the blocks of {_word_text(w)}")
    ((p, c),) = joining
    if p not in set_l:
        raise WordError(
            f"{_word_text(w)} puts the parent-side block on the right"
        )
    kids = tuple(x for x in (built_l, built_r) if x is not None)
    return Construct(frozenset((vertex_of[c],)), kids), set_l | set_r


def _check_letters(g: EdgeGraph) -> None:
    """Words spell tree labels as the letters word_to_construction reads:
    one character each, a letter or a digit."""
    bad = sorted(x for x in g.tree.labels if len(x) != 1 or not x.isalnum())
    if bad:
        raise WordError(f"tree label {bad[0]!r} is not a word letter (one letter or digit)")


def _merges(g: EdgeGraph):
    """merge(region, y): y's atom, the ends p, c of its tree edge, the components
    y leaves, and the indices among them of p's block and c's (None if missing):
    node y merges the two, p's first, and c's holds an edge down from c."""
    h, parent_of = g.hypergraph, g._parent_of
    ends = {  # atom bit -> (atom, p, c, the atoms of the edges down from c)
        h.mask((a,)): (a, parent_of[c], c, h.mask(b for b, d in g.edge_of.items() if parent_of[d] == c))
        for a, c in g.edge_of.items()
    }

    def merge(region: int, y: int):
        atom, p, c, below = ends[y]
        comps = h.components_mask(region & ~y)
        left = right = None
        for i, m in enumerate(comps):
            left, right = (left, i) if m & below else (i, right)
        return atom, p, c, comps, left, right

    return merge


def _word_head(g: EdgeGraph):
    """A _trees node builder: each construction as its word, outer parentheses
    kept, p or c standing in for a missing block."""
    merge = _merges(g)

    def head(region: int, y: int):
        _, p, c, _, left, right = merge(region, y)
        return lambda kids: "(" + (p if left is None else kids[left]) + (
            c if right is None else kids[right]) + ")"

    return head


def _skeleton_node(g: EdgeGraph):
    """A _trees node builder: each construction as (word, root atom, psi key,
    one (child span's psi bit, atom, child's root atom) per tree edge), made in
    one call per tree by a maker fitted to (region, y)'s 0, 1 or 2 blocks."""
    merge, bit = _merges(g), _psi_bits(g.hypergraph)

    def node(region: int, y: int):
        atom, p, c, comps, left, right = merge(region, y)
        own, bits = bit[region], [bit[m] for m in comps]
        if len(comps) == 2:
            def tree(kids: tuple) -> tuple:
                (w0, a0, k0, i0), (w1, a1, k1, i1) = kids
                word = "(" + w0 + w1 + ")" if left == 0 else "(" + w1 + w0 + ")"
                return word, atom, own + k0 + k1, ((bits[0], atom, a0),) + i0 + ((bits[1], atom, a1),) + i1
        elif comps:
            pre, post = ("(" + p, ")") if right == 0 else ("(", c + ")")
            def tree(kids: tuple) -> tuple:
                ((w, a, k, i),) = kids
                return pre + w + post, atom, own + k, ((bits[0], atom, a),) + i
        else:
            leaf = "(" + p + c + ")", atom, own, ()
            tree = lambda kids: leaf
        return tree

    return node


def construction_to_word(g: EdgeGraph, v: Construct) -> str:
    """Encode a construction as its decomposition word, parent-side
    block on the left, outermost parentheses dropped."""
    _check_letters(g)
    h = g.hypergraph
    v, record = _checked(h, v)
    if not v.is_construction:
        raise OperadicTreeError("expected a construction spanning the whole graph")
    return _vertices_below(h, record, _word_head(g))[0][1:-1]  # v alone, made by the word head


def decomposition_words(g: EdgeGraph) -> list[str]:
    """All full decomposition words, one per construction, sorted."""
    _check_letters(g)
    _check_size(len(g.hypergraph.carrier), MAX_CARRIER, fixed=True)  # op has no --max-carrier
    words = enumerate_constructions(g.hypergraph, max_carrier=None, node=_word_head(g))
    return sorted(w[1:-1] for w in words)


def _dot(text: str) -> str:
    """text as a DOT ID: double-quoted, with `\\` and `"` escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def skeleton_dot(g: EdgeGraph) -> str:
    """Polytope vertex-edge skeleton as DOT: beta edges directed and
    solid, theta edges undirected and dashed, vertices labeled by words."""
    _check_letters(g)
    _check_size(len(g.hypergraph.carrier), MAX_CARRIER, fixed=True)  # as decomposition_words
    h = g.hypergraph
    # an edge is the nested set of either vertex less the span of one node, so
    # its key is the vertex's less that span's bit: record (word, atom of the
    # node's parent, atom of the node) under it. A word is quoted once; a closing
    # quote sorts below every letter, digit and parenthesis, so quoted words sort as words do
    words, rows, edges = [], [], {}
    for word, _, key, incidences in enumerate_constructions(h, max_carrier=None, node=_skeleton_node(g)):
        word = _dot(word[1:-1])
        words.append(word)
        for b, upper, lower in incidences:
            edges.setdefault(key - b, []).append((word, upper, lower))
    # a min-path read backwards keeps its type: one per unordered pair, carrier order
    types = {(u, v): min_path(g, u, v).path_type for i, u in enumerate(h.carrier) for v in h.carrier[i + 1:]}
    types.update({(v, u): kind for (u, v), kind in types.items()})
    for ends in edges.values():
        if len(ends) != 2:
            raise InvariantError(f"a skeleton edge should have 2 vertices, found {len(ends)}")
        (a, upper, lower), (b, _, _) = ends  # b has lower above upper
        if types[upper, lower] == "II":
            a, b = (a, b) if a < b else (b, a)
            rows.append(f'  {a} -> {b} [label="theta", dir=none, style=dashed];')
        else:  # u above v is the beta source iff u sits deeper, as in classify_edge
            a, b = (a, b) if g.level[upper] > g.level[lower] else (b, a)
            rows.append(f'  {a} -> {b} [label="beta"];')
    del edges  # so the joined output does not add to its peak
    vertices = (f"  {w};" for w in sorted(words))
    return "\n".join(["digraph skeleton {", *vertices, *sorted(rows), "}", ""])
