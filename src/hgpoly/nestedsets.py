"""Nested-set encoding of constructs and its non-inductive characterizations.

psi sends a construct to the family of its subtree unions; the family
determines the tree (Hasse diagram of reverse inclusion) and the original
decorations (member minus union of its children). One builder, `_tree_of`,
turns a nested set of span masks into that tree: `unpsi` calls it on a
checked label family, and `pba.decode` reads a word with holes as its
nested set and calls it too. Three checkable characterizations of which
decorated trees are constructs, and the graph specialization (tubings),
live here too.
"""

from __future__ import annotations

import warnings
from itertools import combinations

from .constructs import Construct, print_atom_set, validate_construct
from .hypergraph import Hypergraph, InvariantError

NestedSet = frozenset  # of frozensets of atom labels


class NestedSetError(ValueError):
    """A family is not a valid nested set; carries the violated condition
    and a witness."""

    def __init__(self, condition: str, witness, message: str) -> None:
        super().__init__(message)
        self.condition = condition
        self.witness = witness


def psi(t: Construct) -> frozenset[frozenset[str]]:
    """The family of subtree unions, one per node; contains the carrier.
    Each union is built once, bottom up, by _unions."""
    out: set[frozenset[str]] = set()
    _unions(t, out)
    return frozenset(out)


def _unions(node: Construct, out: set) -> frozenset[str]:
    """The union below node, built from its children's; each union below it goes into out."""
    up = frozenset(node.decoration).union(*(_unions(c, out) for c in node.children)) \
        if node.children else node.decoration
    out.add(up)
    return up


def condition_c(h: Hypergraph, members) -> tuple[frozenset[str], ...] | None:
    """None when every proper antichain has a disconnected union; otherwise
    a minimal witness antichain.

    Antichains are cliques of the incomparability relation, generated in
    ascending cardinality so the witness is minimal."""
    ms = sorted(members, key=lambda s: (len(s), h.sorted_labels(s)))
    n = len(ms)
    incomparable = [
        [not (ms[i] <= ms[j] or ms[j] <= ms[i]) for j in range(n)] for i in range(n)
    ]
    for size in range(2, n + 1):
        found_any = False
        for combo in combinations(range(n), size):
            if all(incomparable[i][j] for i, j in combinations(combo, 2)):
                found_any = True
                union = frozenset().union(*(ms[i] for i in combo))
                if h.connected_mask(h.mask(union)):
                    return tuple(ms[i] for i in combo)
        if not found_any:
            return None
    return None


def condition_c_graph(h: Hypergraph, members) -> bool:
    """Only 2-element antichains are required to have disconnected unions."""
    for a, b in combinations(members, 2):
        if a <= b or b <= a:
            continue
        if h.connected_mask(h.mask(a | b)):
            return False
    return True


def _tree_of(h: Hypergraph, spans) -> Construct:
    """The tree of a laminar family of span masks that holds the carrier:
    each member's children are the largest members inside it, in canonical
    (lowest atom) order, and its decoration is what they leave of it."""
    tops: dict[int, Construct] = {}  # the members built so far with no parent yet
    for m in sorted(set(spans), key=int.bit_count):
        kids = sorted((r for r in tops if not r & ~m), key=lambda r: r & -r)
        # laminar: the children are disjoint, so their sum is their union
        tops[m] = Construct(h.labels(m & ~sum(kids)), tuple(map(tops.pop, kids)))
    return tops[h.full_mask]


def unpsi(h: Hypergraph, family) -> Construct:
    """The unique construct whose psi is the given family."""
    members = {frozenset(s) for s in family}
    carrier = frozenset(h.carrier)
    if carrier not in members:
        raise NestedSetError("membership", carrier, "family must contain the carrier")
    for s in members:
        if not s:
            raise NestedSetError("B", s, "members must be non-empty")
        if not h.connected_mask(h.mask(s)):
            raise NestedSetError(
                "B", s, f"member {print_atom_set(h, s)} is not connected"
            )
    witness = condition_c(h, members)
    if witness is not None:
        pretty = ", ".join(print_atom_set(h, w) for w in witness)
        raise NestedSetError(
            "C", witness, f"antichain {{{pretty}}} has a connected union"
        )
    return validate_construct(h, _tree_of(h, {h.mask(s) for s in members}))


def check_tree_characterization(h: Hypergraph, t: Construct, variant: str) -> bool:
    """Decide whether a decorated tree is a construct of h, three ways."""
    if variant == "inductive":
        try:
            validate_construct(h, t)
        except ValueError:
            return False
        return True

    ups: list[frozenset[str]] = []
    decorations: list[frozenset[str]] = []
    total, c_prime_ok = _tree_walk(h, t, decorations, ups)
    # A: pairwise disjoint decorations covering the carrier
    if sum(len(d) for d in decorations) != len(total) or total != frozenset(h.carrier):
        return False
    if any(not d for d in decorations):
        return False
    # B: every subtree union connected
    if any(not h.connected_mask(h.mask(u)) for u in ups):
        return False
    if variant == "ABC'":
        return c_prime_ok
    if variant == "ABC":
        return condition_c(h, set(ups)) is None
    raise ValueError(f"unknown variant {variant!r}")


def _tree_walk(h: Hypergraph, node: Construct, decorations: list, ups: list) -> tuple[frozenset[str], bool]:
    """The union below node, and whether C' holds below it: no two or more
    sibling unions have a connected union. The decorations below node go
    into decorations in preorder, and the unions into ups in postorder."""
    decorations.append(node.decoration)
    walked = [_tree_walk(h, c, decorations, ups) for c in node.children]
    child_ups = [up for up, _ in walked]
    c_prime_ok = all(ok for _, ok in walked)
    for size in range(2, len(child_ups) + 1):
        for group in combinations(child_ups, size):
            if h.connected_mask(h.mask(frozenset().union(*group))):
                c_prime_ok = False
    up = node.decoration.union(*child_ups) if child_ups else node.decoration
    ups.append(up)
    return up, c_prime_ok


def check_tubing_conditions(h: Hypergraph, family) -> bool:
    """The graph form: every 2-antichain has a disconnected union,
    equivalently the tubing pair (overlapping members nest; disjoint
    members have disconnected unions). Unsound for genuine hypergraphs."""
    if any(len(e) >= 3 for e in h.hyperedges):
        warnings.warn(
            "hyperedge of cardinality >= 3 present: the 2-antichain "
            "relaxation may disagree with the full antichain condition",
            stacklevel=2,
        )
    members = [frozenset(s) for s in family]
    cg = condition_c_graph(h, members)
    pair = True
    for a, b in combinations(members, 2):
        if a & b and not (a <= b or b <= a):
            pair = False
        if not a & b and h.connected_mask(h.mask(a | b)):
            pair = False
    if cg != pair:
        raise InvariantError("2-antichain form and tubing pair disagree")
    return cg

