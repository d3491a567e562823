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

from .constructs import _bit_indices
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


CORPUS_ATOMS = 4  # the largest size all_connected_atomic searches


@lru_cache(maxsize=None)
def _classes(n_atoms: int) -> tuple[tuple[tuple[str, ...], ...], ...]:
    """The hyperedges of one representative per isomorphism class of
    connected atomic hypergraphs on n_atoms atoms, searched once per size.

    The k = 2^n - n - 1 non-singleton edges are numbered by size, then in
    combinations order, and a family is one k-bit int. Each atom
    permutation maps a family through two tables, one per half of its
    bits, OR-ed. A family is kept exactly when no permutation maps it
    lower: the least member of its orbit, the first met counting up
    (Read 1978; McKay 1998). Only these are tested for connectivity, which
    an orbit has throughout or not at all. On 4 atoms that is 2^11 families
    under 24 permutations, a few ms; 5 atoms would be 2^26 under 120, so
    sizes past CORPUS_ATOMS are refused before any work."""
    atoms = _atoms(n_atoms)
    if n_atoms > CORPUS_ATOMS:
        raise HypergraphError(
            f"the isomorph-free corpus has at most {CORPUS_ATOMS} atoms, got {n_atoms}"
        )
    edges = [sum(1 << i for i in s) for r in range(2, n_atoms + 1)
             for s in combinations(range(n_atoms), r)]
    index = {m: i for i, m in enumerate(edges)}
    half = len(edges) // 2

    def table(images: list[int]) -> list[int]:
        """The image of each family of these edges, indexed by the family."""
        out = [0]
        for image in images:
            out += [f | image for f in out]
        return out

    maps = []
    for p in list(permutations(range(n_atoms)))[1:]:  # the identity maps nothing lower
        images = [1 << index[sum(1 << p[i] for i in _bit_indices(m))] for m in edges]
        maps.append((table(images[:half]), table(images[half:])))
    low = (1 << half) - 1

    singletons = tuple((a,) for a in atoms)
    named = [tuple(atoms[i] for i in _bit_indices(m)) for m in edges]
    out = []
    for bits in range(1 << len(edges)):
        if any(lo[bits & low] | hi[bits >> half] < bits for lo, hi in maps):
            continue
        family = singletons + tuple(named[i] for i in _bit_indices(bits))
        if is_connected(Hypergraph(atoms, family)):
            out.append(family)
    return tuple(out)


def all_connected_atomic(n_atoms: int) -> tuple[Hypergraph, ...]:
    """One representative per isomorphism class of connected atomic
    hypergraphs on n_atoms atoms, built fresh on each call: the least
    labelled family of each class, in ascending order of its edge bits
    (see _classes). Sizes above CORPUS_ATOMS raise HypergraphError."""
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
    return [_labelled(shape, iter(string.ascii_lowercase)) for shape in _tree_shapes(n_nodes)]


def _labelled(shape: tuple, names) -> OperadicTree:
    """The tree of shape, its nodes labelled in preorder from the iterator names."""
    own = next(names)
    return OperadicTree(own, tuple(_labelled(c, names) for c in shape))
