"""Named example hypergraphs and exhaustive small-carrier generation.

The corpus backs the cross-checking tests: every connected atomic
hypergraph on up to 4 atoms (one per isomorphism class), every rooted
tree shape up to 6 nodes, plus the named examples used throughout.
Each call builds fresh hypergraphs, so no two callers share the memos a
hypergraph carries; only the isomorphism search is cached, once per size.
"""

from __future__ import annotations

import string
from functools import lru_cache
from itertools import combinations, permutations

from .hypergraph import Hypergraph, HypergraphError, is_connected
from .operadic import OperadicTree

ATOMS = ("x", "y", "z", "u", "v", "w")


def _atoms(n_atoms: int) -> tuple[str, ...]:
    """The first n_atoms labels of ATOMS; no other size has labels here."""
    if not 1 <= n_atoms <= len(ATOMS):
        raise HypergraphError(f"n_atoms must be between 1 and {len(ATOMS)}, got {n_atoms}")
    return ATOMS[:n_atoms]


def simplex(n_atoms: int) -> Hypergraph:
    """Singletons plus the full carrier: the (n-1)-dimensional simplex."""
    atoms = _atoms(n_atoms)
    return Hypergraph(atoms, [[a] for a in atoms] + [list(atoms)])


def complete_graph(n_atoms: int) -> Hypergraph:
    """Singletons plus all pairs: the (n-1)-dimensional permutohedron."""
    atoms = _atoms(n_atoms)
    edges = [[a] for a in atoms] + [list(p) for p in combinations(atoms, 2)]
    return Hypergraph(atoms, edges)


def path_graph(n_atoms: int) -> Hypergraph:
    """Singletons plus consecutive pairs: the (n-1)-dimensional associahedron."""
    atoms = _atoms(n_atoms)
    edges = [[a] for a in atoms] + [[atoms[i], atoms[i + 1]] for i in range(n_atoms - 1)]
    return Hypergraph(atoms, edges)


def cycle_graph(n_atoms: int) -> Hypergraph:
    """Singletons plus a cycle of pairs: the (n-1)-dimensional cyclohedron-like polytope."""
    atoms = _atoms(n_atoms)
    edges = [[a] for a in atoms] + [
        [atoms[i], atoms[(i + 1) % n_atoms]] for i in range(n_atoms)
    ]
    return Hypergraph(atoms, edges)


def vertex_truncated_2_simplex() -> Hypergraph:
    return Hypergraph("xyz", [["x"], ["y"], ["z"], ["y", "z"], ["x", "y", "z"]])


def edge_truncated_3_simplex() -> Hypergraph:
    return Hypergraph(
        "xyzu", [["x"], ["y"], ["z"], ["u"], ["u", "z"], ["x", "y", "z", "u"]]
    )


def vertex_truncated_3_simplex() -> Hypergraph:
    return Hypergraph(
        "xyzu", [["x"], ["y"], ["z"], ["u"], ["y", "z", "u"], ["x", "y", "z", "u"]]
    )


def hemiassociahedron() -> Hypergraph:
    """Two solid edges below a common atom plus one sibling pair and one
    further dashed edge; the running 3-dimensional example."""
    return Hypergraph(
        "xyzu",
        [["x"], ["y"], ["z"], ["u"], ["x", "z"], ["y", "z"], ["x", "y"], ["z", "u"]],
    )


def named_corpus() -> dict[str, Hypergraph]:
    """The named examples, built fresh on each call, so no two callers
    share a hypergraph or the memos it carries."""
    return {
        "2-simplex": simplex(3),
        "3-simplex": simplex(4),
        "pentagon": path_graph(3),
        "hexagon": complete_graph(3),
        "3-associahedron": path_graph(4),
        "3-permutohedron": complete_graph(4),
        "3-cyclohedron": cycle_graph(4),
        "vertex-truncated-2-simplex": vertex_truncated_2_simplex(),
        "edge-truncated-3-simplex": edge_truncated_3_simplex(),
        "vertex-truncated-3-simplex": vertex_truncated_3_simplex(),
        "hemiassociahedron": hemiassociahedron(),
        "4-associahedron": path_graph(5),
    }


@lru_cache(maxsize=None)
def _classes(n_atoms: int) -> tuple[tuple[tuple[str, ...], ...], ...]:
    """The hyperedges of one representative per isomorphism class of
    connected atomic hypergraphs on n_atoms atoms, searched once per size."""
    atoms = _atoms(n_atoms)
    idx = {a: i for i, a in enumerate(atoms)}
    candidates = [
        frozenset(s)
        for r in range(2, n_atoms + 1)
        for s in combinations(atoms, r)
    ]

    def mask(s) -> int:
        m = 0
        for a in s:
            m |= 1 << idx[a]
        return m

    perms = [dict(zip(atoms, p)) for p in permutations(atoms)]

    def canon(family: frozenset[frozenset[str]]) -> tuple[int, ...]:
        best = None
        for p in perms:
            key = tuple(sorted(mask(p[a] for a in s) for s in family))
            if best is None or key < best:
                best = key
        return best

    seen: set[tuple[int, ...]] = set()
    out: list[tuple[tuple[str, ...], ...]] = []
    for bits in range(1 << len(candidates)):
        family = frozenset(
            candidates[i] for i in range(len(candidates)) if bits >> i & 1
        )
        edges = [(a,) for a in atoms] + [tuple(sorted(s, key=idx.__getitem__)) for s in family]
        if not is_connected(Hypergraph(atoms, edges)):
            continue
        key = canon(family)
        if key in seen:
            continue
        seen.add(key)
        out.append(tuple(edges))
    return tuple(out)


def all_connected_atomic(n_atoms: int) -> tuple[Hypergraph, ...]:
    """One representative per isomorphism class of connected atomic
    hypergraphs on n_atoms atoms, built fresh on each call."""
    atoms = _atoms(n_atoms)
    return tuple(Hypergraph(atoms, edges) for edges in _classes(n_atoms))


def small_corpus() -> tuple[Hypergraph, ...]:
    """Isomorph-free connected atomic hypergraphs with at most 4 atoms,
    built fresh on each call."""
    return tuple(h for n in range(1, 5) for h in all_connected_atomic(n))


@lru_cache(maxsize=None)
def _tree_shapes(n_nodes: int) -> tuple[tuple, ...]:
    """All rooted tree shapes with n nodes; a shape is the sorted tuple
    of its child shapes."""
    if n_nodes == 1:
        return ((),)
    return tuple(sorted(_forests(n_nodes - 1, None)))


@lru_cache(maxsize=None)
def _forests(total: int, bound: tuple | None) -> tuple[tuple, ...]:
    """Multisets of shapes with node counts summing to total, listed in
    descending (size, shape) order, each at most `bound`."""
    if total == 0:
        return ((),)
    out = []
    for size in range(total, 0, -1):
        for shape in _tree_shapes(size):
            key = (size, shape)
            if bound is not None and key > bound:
                continue
            for rest in _forests(total - size, key):
                out.append((shape,) + rest)
    return tuple(out)


def all_operadic_trees(n_nodes: int) -> list[OperadicTree]:
    """All rooted trees with exactly n nodes, one per shape, labeled
    a, b, c, ... in preorder."""

    def label(shape: tuple, names) -> OperadicTree:
        own = next(names)
        return OperadicTree(own, tuple(label(c, names) for c in shape))

    return [
        label(shape, iter(string.ascii_lowercase))
        for shape in _tree_shapes(n_nodes)
    ]
