"""Nested-set encoding of constructs and its non-inductive characterizations.

psi sends a construct to the family of its subtree unions; the family
determines the tree (Hasse diagram of reverse inclusion) and the original
decorations (member minus union of its children). Three checkable
characterizations of which decorated trees are constructs, and the graph
specialization (tubings), live here too.
"""

from __future__ import annotations

import warnings
from itertools import combinations

from .constructs import Construct, make_node, print_atom_set, validate_construct
from .hypergraph import Hypergraph

NestedSet = frozenset  # of frozensets of atom labels


class NestedSetError(ValueError):
    """A family is not a valid nested set; carries the violated condition
    and a witness."""

    def __init__(self, condition: str, witness, message: str) -> None:
        super().__init__(message)
        self.condition = condition
        self.witness = witness


def psi(t: Construct) -> frozenset[frozenset[str]]:
    """The family of subtree unions, one per node; contains the carrier."""
    out: set[frozenset[str]] = set()

    def rec(node: Construct) -> frozenset[str]:
        up = frozenset(node.decoration).union(*(rec(c) for c in node.children)) \
            if node.children else node.decoration
        out.add(up)
        return up

    rec(t)
    return frozenset(out)


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

    def children_of(s: frozenset[str]) -> list[frozenset[str]]:
        below = [m for m in members if m < s]
        return [m for m in below if not any(m < other for other in below)]

    def build(s: frozenset[str]) -> Construct:
        kids = children_of(s)
        decoration = s.difference(*kids) if kids else s
        return make_node(h, decoration, [build(k) for k in kids])

    return validate_construct(h, build(carrier))


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
    c_prime_ok = True

    def rec(node: Construct) -> frozenset[str]:
        nonlocal c_prime_ok
        decorations.append(node.decoration)
        child_ups = [rec(c) for c in node.children]
        for size in range(2, len(child_ups) + 1):
            for group in combinations(child_ups, size):
                if h.connected_mask(h.mask(frozenset().union(*group))):
                    c_prime_ok = False
        up = node.decoration.union(*child_ups) if child_ups else node.decoration
        ups.append(up)
        return up

    total = rec(t)
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
        raise AssertionError("2-antichain form and tubing pair disagree")
    return cg

