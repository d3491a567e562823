"""Output checks made apart from hgpoly.

Nothing here imports hgpoly.  Connectivity, the face-count recursion,
the construct-text parser and the nested sets are the benchmark's own,
so a fault in the library's shared core cannot make a wrong output pass.
Every check raises CheckFailed with a message naming what disagreed.
"""

from __future__ import annotations

import json
from fractions import Fraction


class CheckFailed(Exception):
    """An output of the program disagrees with the independent oracle."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- hypergraphs as masks ---------------------------------------------------


class Graph:
    """A hypergraph as a carrier list and hyperedge masks (no invariants
    beyond what the checks below need)."""

    def __init__(self, carrier, hyperedges) -> None:
        self.carrier = list(carrier)
        self.index = {a: i for i, a in enumerate(self.carrier)}
        self.n = len(self.carrier)
        self.full = (1 << self.n) - 1
        self.edges = sorted({self.mask(e) for e in hyperedges})
        self._poly: dict[int, list[int]] = {}

    @classmethod
    def from_json(cls, data: dict) -> "Graph":
        return cls(data["carrier"], data["hyperedges"])

    def mask(self, atoms) -> int:
        m = 0
        for a in atoms:
            m |= 1 << self.index[a]
        return m

    def components(self, sub: int) -> list[int]:
        """Connected components of the hyperedges inside sub, by repeated
        merging of overlapping edge unions."""
        parts: list[int] = []
        for e in self.edges:
            if e & ~sub:
                continue
            joined = e
            keep = []
            for p in parts:
                if p & joined:
                    joined |= p
                else:
                    keep.append(p)
            keep.append(joined)
            parts = keep
        return parts

    def connected(self, sub: int) -> bool:
        return sub != 0 and len(self.components(sub)) == 1

    def connected_subsets(self) -> list[int]:
        return [s for s in range(1, self.full + 1) if self.connected(s)]

    def face_polynomial(self, sub: int | None = None) -> list[int]:
        """Coefficient k counts the constructs of the restriction to sub
        with k nodes: F(S) = sum over non-empty Y in S of
        z * prod over components C of S minus Y of F(C)."""
        sub = self.full if sub is None else sub
        got = self._poly.get(sub)
        if got is not None:
            return got
        total = [0]
        y = sub
        while y:
            poly = [0, 1]
            for c in self.components(sub & ~y):
                poly = _multiply(poly, self.face_polynomial(c))
            total = _add(total, poly)
            y = (y - 1) & sub
        self._poly[sub] = total
        return total

    def f_vector(self) -> list[int]:
        """Face counts by dimension, vertices first (dim d has n-d nodes)."""
        poly = self.face_polynomial() + [0] * (self.n + 1)
        return [poly[self.n - d] for d in range(self.n)]


def _multiply(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    return out


# -- construct text -----------------------------------------------------------


def parse_tree(text: str):
    """Parse `{x,y}(z(u),v)` into (decoration, children) tuples of label
    frozensets; singleton braces are optional."""
    pos = 0

    def atom() -> str:
        nonlocal pos
        start = pos
        while pos < len(text) and text[pos] not in "{}(),":
            pos += 1
        require(pos > start, f"expected an atom at {start} in {text!r}")
        return text[start:pos]

    def expect(ch: str) -> None:
        nonlocal pos
        require(pos < len(text) and text[pos] == ch, f"expected {ch!r} at {pos} in {text!r}")
        pos += 1

    def node():
        nonlocal pos
        if pos < len(text) and text[pos] == "{":
            pos += 1
            labels = [atom()]
            while pos < len(text) and text[pos] == ",":
                pos += 1
                labels.append(atom())
            expect("}")
        else:
            labels = [atom()]
        kids = []
        if pos < len(text) and text[pos] == "(":
            pos += 1
            kids.append(node())
            while pos < len(text) and text[pos] == ",":
                pos += 1
                kids.append(node())
            expect(")")
        require(len(set(labels)) == len(labels), f"repeated atom in {text!r}")
        return frozenset(labels), tuple(kids)

    tree = node()
    require(pos == len(text), f"trailing input in {text!r}")
    return tree


def tree_spans(tree) -> frozenset:
    """The nested set of a tree: one subtree union per node."""
    out = set()

    def rec(node) -> frozenset:
        up = node[0].union(*(rec(c) for c in node[1]))
        out.add(up)
        return up

    rec(tree)
    return frozenset(out)


def tree_union(tree) -> frozenset:
    return tree[0].union(*(tree_union(c) for c in tree[1]))


def node_count(tree) -> int:
    return 1 + sum(node_count(c) for c in tree[1])


def check_construct(g: Graph, tree) -> None:
    """The inductive definition over masks: decorations are non-empty and
    inside their ambient set, and the children span exactly the connected
    components of the ambient set minus the decoration."""

    def rec(node, ambient: int) -> None:
        decoration, kids = node
        require(bool(decoration) and decoration <= set(g.carrier),
                f"decoration {sorted(decoration)} is not a set of atoms")
        dec = g.mask(decoration)
        require(not dec & ~ambient, f"decoration {sorted(decoration)} leaves its component")
        spans = [g.mask(tree_union(k)) for k in kids]
        require(sorted(spans) == sorted(g.components(ambient & ~dec)),
                f"children of {sorted(decoration)} are not the components")
        for kid, span in zip(kids, spans):
            rec(kid, span)

    require(g.connected(g.full), "hypergraph is disconnected")
    rec(tree, g.full)


# -- lattice outputs ------------------------------------------------------------


def check_fvector_identities(g: Graph, f: list[int]) -> None:
    require(sum((-1) ** k * c for k, c in enumerate(f)) == 1, f"Euler sum fails for {f}")
    if g.n >= 2:
        require(2 * f[1] == (g.n - 1) * f[0], f"not simple: 2*f1 != (n-1)*f0 for {f}")


def check_fvector(g: Graph, out: str) -> None:
    got = [int(x) for x in out.split()]
    want = g.f_vector()
    require(got == want, f"fvector {got}, recursion gives {want}")
    check_fvector_identities(g, got)


def check_faces(g: Graph, out: str) -> None:
    lines = out.splitlines()
    require(len(lines) == len(set(lines)), "repeated face line")
    counts = [0] * g.n
    for line in lines:
        dim_text, _, text = line.partition("\t")
        dim = int(dim_text)
        tree = parse_tree(text)
        check_construct(g, tree)
        require(node_count(tree) == g.n - dim, f"{text} has the wrong dimension {dim}")
        counts[dim] += 1
    require(counts == g.f_vector(), f"face counts {counts}, recursion gives {g.f_vector()}")


def check_constructions(g: Graph, out: str) -> None:
    lines = out.splitlines()
    require(len(lines) == len(set(lines)), "repeated construction")
    for text in lines:
        tree = parse_tree(text)
        check_construct(g, tree)
        require(node_count(tree) == g.n, f"{text} is not a construction")
    require(len(lines) == g.f_vector()[0], f"{len(lines)} constructions, recursion gives {g.f_vector()[0]}")


def check_hasse(g: Graph, out: str) -> None:
    lines = out.splitlines()
    require(lines[:1] == ["digraph hasse {"] and lines[-1:] == ["}"], "not a hasse digraph")
    nodes, edges = [], []
    for line in lines[1:-1]:
        if " -> " in line:
            a, _, b = line.strip().rstrip(";").partition(" -> ")
            edges.append((a.strip('"'), b.strip('"')))
        else:
            nodes.append(line.strip().rstrip(";").strip('"'))
    f = g.f_vector()
    require(len(nodes) == len(set(nodes)) == sum(f), f"{len(nodes)} hasse nodes, recursion gives {sum(f)}")
    want = sum((g.n - 1 - k) * c for k, c in enumerate(f))
    require(len(edges) == len(set(edges)) == want, f"{len(edges)} hasse edges, expected {want}")
    spans = {text: tree_spans(parse_tree(text)) for text in nodes}
    for a, b in edges:
        require(a in spans and b in spans, f"edge {a} -> {b} names an unknown face")
        require(spans[b] < spans[a] and len(spans[a]) == len(spans[b]) + 1,
                f"{a} -> {b} is not one edge contraction")


def check_hrep(g: Graph, out: str) -> None:
    lines = out.splitlines()
    subsets = g.connected_subsets()
    require(len(lines) == len(subsets), f"{len(lines)} half-spaces, {len(subsets)} connected subsets")
    seen = set()
    for i, line in enumerate(lines):
        left, op, rhs = line.rsplit(" ", 2)
        m = g.mask(left.split(" + "))
        size = bin(m).count("1")
        require(g.connected(m) and m not in seen, f"bad support in {line!r}")
        require(int(rhs) == 3 ** size, f"bad bound in {line!r}")
        last = i == len(lines) - 1
        require(op == ("==" if last else ">="), f"bad relation in {line!r}")
        require(not last or m == g.full, "the carrier equality is not last")
        seen.add(m)


def check_vertices(g: Graph, out: str) -> None:
    data = json.loads(out)
    vertices = data["vertices"]
    require(data["carrier"] == g.carrier, "vertex carrier differs")
    require(len(vertices) == g.f_vector()[0], f"{len(vertices)} vertices, recursion gives {g.f_vector()[0]}")
    proper = [m for m in g.connected_subsets() if m != g.full]
    bits = [[i for i in range(g.n) if m >> i & 1] for m in proper]
    bounds = [3 ** len(b) for b in bits]
    seen = set()
    for text, coords in vertices.items():
        x = [Fraction(c) for c in coords]
        require(sum(x) == 3 ** g.n, f"vertex {text} does not sum to 3^n")
        tight = 0
        for b, bound in zip(bits, bounds):
            s = sum(x[i] for i in b)
            require(s >= bound, f"vertex {text} violates a bound")
            tight += s == bound
        require(tight == g.n - 1, f"vertex {text} is tight on {tight} facets, not {g.n - 1}")
        seen.add(tuple(x))
    require(len(seen) == len(vertices), "two vertices coincide")


# -- order outputs ---------------------------------------------------------------


def check_verify(g: Graph, out: str) -> None:
    lines = out.splitlines()
    require(lines[0] == f"carrier {g.n} atoms: PASS", f"verify reports {lines[0]!r}")
    stats = dict(line.strip().split(": ") for line in lines[1:])
    f = g.f_vector()
    want = {
        "constructs": sum(f),
        "vertices": f[0],
        "facets": len(g.connected_subsets()) - 1,
        "dimension": g.n - 1,
    }
    require({k: int(v) for k, v in stats.items()} == want, f"verify counts {stats}, expected {want}")


def check_order(spans: list[frozenset], results: dict[str, list[list[bool]]]) -> None:
    """Every variant's all-pairs matrix equals span containment:
    s <= t exactly when t's subtree spans are among s's."""
    for i, si in enumerate(spans):
        want = [sj <= si for sj in spans]
        for variant, matrix in results.items():
            require(matrix[i] == want, f"leq variant {variant} disagrees with span containment at face {i}")


# -- words outputs ----------------------------------------------------------------


def check_census3(out: str) -> None:
    counts = {}
    for line in out.splitlines():
        key, _, value = line.partition(" ")
        if key != "profile":
            counts[key] = int(value)
    want = {"vertices": 120, "edges": 180, "facets": 62, "faces": 363}
    require(counts == want, f"census 3 reads {counts}")
    require(2 * counts["edges"] == 3 * counts["vertices"], "census 3 is not simple")


def tree_edge_graph(parent: dict[str, str]) -> Graph:
    """The derived hypergraph of a rooted tree given as child -> parent:
    one atom per edge (named by its child), a pair per two edges that
    share a node."""
    atoms = sorted(parent)
    pairs = []
    for i, a in enumerate(atoms):
        for b in atoms[i + 1:]:
            if {a, parent[a]} & {b, parent[b]}:
                pairs.append([a, b])
    return Graph(atoms, [[a] for a in atoms] + pairs)


def check_op_words(parent: dict[str, str], out: str) -> None:
    g = tree_edge_graph(parent)
    words = out.splitlines()
    labels = sorted(set(parent) | set(parent.values()))
    require(len(words) == len(set(words)) == g.f_vector()[0],
            f"{len(words)} words, recursion gives {g.f_vector()[0]}")
    for w in words:
        require(sorted(ch for ch in w if ch not in "()") == labels, f"word {w} does not use each node once")


def check_op_classify(parent: dict[str, str], out: str, kind: str | None) -> None:
    g = tree_edge_graph(parent)
    lines = out.splitlines()
    require(lines[:1] == ["digraph skeleton {"] and lines[-1:] == ["}"], "not a skeleton digraph")
    edges = [line for line in lines[1:-1] if " -> " in line]
    nodes = [line for line in lines[1:-1] if " -> " not in line]
    f0 = g.f_vector()[0]
    require(len(nodes) == f0, f"{len(nodes)} skeleton vertices, recursion gives {f0}")
    require(2 * len(edges) == (g.n - 1) * f0, f"{len(edges)} skeleton edges, expected {(g.n - 1) * f0 // 2}")
    if kind is not None:
        require(all(f'label="{kind}"' in e for e in edges), f"not every edge is {kind}")


def check_trunc_state(base_size: int, data: dict) -> None:
    families = data["vertex_hypergraph"]
    require(bool(families), "no vertex families")
    for fam in families:
        require(len(fam) == base_size - 1, f"vertex family {fam} has {len(fam)} facets, not {base_size - 1}")
