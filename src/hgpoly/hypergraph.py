"""Atomic hypergraphs over finite label sets.

The carrier is an ordered tuple of atom labels; every atom set is handled
internally as a bit mask keyed by carrier position, while the public
surface speaks labels and frozensets. All values are immutable.
"""

from __future__ import annotations

from collections.abc import Iterable


class HypergraphError(ValueError):
    """Input data violates a hypergraph invariant."""


class GuardExceeded(RuntimeError):
    """An enumeration would exceed the configured size guard."""


class InvariantError(RuntimeError):
    """A computed structure broke an invariant of the theory: a defect in
    the program, never bad input."""


def _ordered_carrier(carrier: Iterable[str]) -> tuple[str, ...]:
    if isinstance(carrier, (set, frozenset)):
        items = tuple(sorted(carrier))
    else:
        items = tuple(carrier)
    if len(set(items)) != len(items):
        raise HypergraphError("duplicate atoms in carrier")
    for a in items:
        if not isinstance(a, str) or not a:
            raise HypergraphError("atom labels must be non-empty strings")
    return items


class Hypergraph:
    """Immutable atomic hypergraph.

    Invariants:
      - every hyperedge is a non-empty subset of the carrier
      - the union of the hyperedges is the carrier
      - every singleton is a hyperedge (atomicity)
      - no duplicate hyperedges
    """

    __slots__ = (
        "carrier", "_index", "_edge_masks", "_full", "_comp_cache", "_covers_cache",
        "_text_cache", "_connected_subsets",
    )

    def __init__(
        self,
        carrier: Iterable[str],
        hyperedges: Iterable[Iterable[str]],
        *,
        atomize: bool = False,
    ) -> None:
        object.__setattr__(self, "carrier", _ordered_carrier(carrier))
        if not self.carrier:
            raise HypergraphError("carrier must be non-empty")
        index = {a: i for i, a in enumerate(self.carrier)}
        object.__setattr__(self, "_index", index)

        masks: set[int] = set()
        for edge in hyperedges:
            m = 0
            for a in edge:
                if a not in index:
                    raise HypergraphError(f"hyperedge atom {a!r} not in carrier")
                m |= 1 << index[a]
            if m == 0:
                raise HypergraphError("empty hyperedge")
            masks.add(m)
        if atomize:
            masks.update(1 << i for i in range(len(self.carrier)))
        covered = 0
        for m in masks:
            covered |= m
        full = (1 << len(self.carrier)) - 1
        if covered != full:
            missing = self.labels(full & ~covered)
            raise HypergraphError(f"hyperedges do not cover the carrier: missing {missing}")
        for i, a in enumerate(self.carrier):
            if (1 << i) not in masks:
                raise HypergraphError(f"not atomic: singleton {{{a}}} is missing")
        object.__setattr__(self, "_edge_masks", tuple(sorted(masks, key=self._edge_key)))
        object.__setattr__(self, "_full", full)
        object.__setattr__(self, "_comp_cache", {})
        # construct -> its covers, filled by constructs.covers_memo
        object.__setattr__(self, "_covers_cache", {})
        # construct -> its text, filled by constructs.print_construct
        object.__setattr__(self, "_text_cache", {})
        # set by connected_subset_masks on first use
        object.__setattr__(self, "_connected_subsets", None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Hypergraph is immutable")

    # -- mask plumbing -------------------------------------------------

    def _edge_key(self, m: int) -> tuple[int, tuple[int, ...]]:
        return (bin(m).count("1"), tuple(i for i in range(64) if m >> i & 1))

    def mask(self, atoms: Iterable[str]) -> int:
        m = 0
        for a in atoms:
            try:
                m |= 1 << self._index[a]
            except KeyError:
                raise HypergraphError(f"atom {a!r} not in carrier") from None
        return m

    def labels(self, mask: int) -> frozenset[str]:
        return frozenset(a for i, a in enumerate(self.carrier) if mask >> i & 1)

    def sorted_labels(self, atoms: Iterable[str] | int) -> tuple[str, ...]:
        """Atoms in carrier order."""
        mask = atoms if isinstance(atoms, int) else self.mask(atoms)
        return tuple(a for i, a in enumerate(self.carrier) if mask >> i & 1)

    @property
    def full_mask(self) -> int:
        return self._full

    @property
    def edge_masks(self) -> tuple[int, ...]:
        return self._edge_masks

    @property
    def hyperedges(self) -> tuple[frozenset[str], ...]:
        return tuple(self.labels(m) for m in self._edge_masks)

    def components_mask(self, sub: int) -> tuple[int, ...]:
        """Connected components of the restriction to the atoms in sub."""
        cached = self._comp_cache.get(sub)
        if cached is not None:
            return cached
        comps: list[int] = []
        for e in self._edge_masks:
            if e & ~sub:
                continue
            merged = e
            rest = []
            for c in comps:
                if c & merged:
                    merged |= c
                else:
                    rest.append(c)
            rest.append(merged)
            comps = rest
        result = tuple(sorted(comps, key=lambda m: m & -m))
        self._comp_cache[sub] = result
        return result

    def connected_mask(self, sub: int) -> bool:
        return len(self.components_mask(sub)) == 1

    # -- equality ------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hypergraph)
            and self.carrier == other.carrier
            and self._edge_masks == other._edge_masks
        )

    def __hash__(self) -> int:
        return hash((self.carrier, self._edge_masks))

    def __repr__(self) -> str:
        edges = ", ".join("{" + ",".join(self.sorted_labels(m)) + "}" for m in self._edge_masks)
        return f"Hypergraph({{{','.join(self.carrier)}}}; {edges})"

    # -- JSON ----------------------------------------------------------

    @classmethod
    def from_json_dict(cls, data: dict, *, atomize: bool = False) -> "Hypergraph":
        if not isinstance(data, dict):
            raise HypergraphError("hypergraph JSON must be an object")
        if "carrier" not in data or "hyperedges" not in data:
            raise HypergraphError("hypergraph JSON needs 'carrier' and 'hyperedges'")
        carrier, edges = data["carrier"], data["hyperedges"]
        if not _is_label_list(carrier):
            raise HypergraphError("'carrier' must be a list of atom labels")
        if not isinstance(edges, list) or not all(map(_is_label_list, edges)):
            raise HypergraphError("'hyperedges' must be a list of lists of atom labels")
        return cls(carrier, edges, atomize=atomize)

    def to_json_dict(self) -> dict:
        return {
            "format": 1,
            "carrier": list(self.carrier),
            "hyperedges": [list(self.sorted_labels(m)) for m in self._edge_masks],
        }


def _is_label_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(a, str) for a in value)


def restrict(h: Hypergraph, x: Iterable[str]) -> Hypergraph:
    """Sub-hypergraph on x: keeps exactly the hyperedges contained in x."""
    sub = h.mask(x)
    if sub == 0:
        raise HypergraphError("cannot restrict to the empty set")
    carrier = h.sorted_labels(sub)
    edges = [h.sorted_labels(m) for m in h.edge_masks if not m & ~sub]
    return Hypergraph(carrier, edges)


def is_connected(h: Hypergraph) -> bool:
    return h.connected_mask(h.full_mask)


def components(h: Hypergraph, x: Iterable[str] = ()) -> tuple[frozenset[str], ...]:
    """Connected components of the restriction to carrier minus x.

    Empty when x is the whole carrier; components are ordered by their
    least atom in carrier order.
    """
    removed = h.mask(x)
    return tuple(h.labels(m) for m in h.components_mask(h.full_mask & ~removed))


def saturate(h: Hypergraph) -> Hypergraph:
    """Hypergraph whose hyperedges are all non-empty connected subsets."""
    return Hypergraph(h.carrier, [h.sorted_labels(m) for m in connected_subset_masks(h)])


def connected_subset_masks(h: Hypergraph) -> tuple[int, ...]:
    """All non-empty connected subsets of the carrier, as masks, by size and
    then position; computed once per hypergraph."""
    got = h._connected_subsets
    if got is None:
        out = [sub for sub in range(1, h.full_mask + 1) if h.connected_mask(sub)]
        got = tuple(sorted(out, key=h._edge_key))
        object.__setattr__(h, "_connected_subsets", got)
    return got


def quasi_partition_refine(
    h: Hypergraph, y: Iterable[str], x: Iterable[str]
) -> dict[frozenset[str], tuple[frozenset[str], ...]]:
    """Assign each component of the restriction minus x to the component
    of the restriction minus y containing it.

    Requires y to be a subset of x; fibers may be empty.
    """
    ymask, xmask = h.mask(y), h.mask(x)
    if ymask & ~xmask:
        raise HypergraphError("y must be a subset of x")
    coarse = h.components_mask(h.full_mask & ~ymask)
    fine = h.components_mask(h.full_mask & ~xmask)
    result: dict[frozenset[str], list[frozenset[str]]] = {h.labels(k): [] for k in coarse}
    for f in fine:
        homes = [k for k in coarse if f & k]
        if len(homes) != 1 or f & ~homes[0]:
            raise HypergraphError("component not contained in a unique coarse component")
        result[h.labels(homes[0])].append(h.labels(f))
    return {k: tuple(v) for k, v in result.items()}
