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
        if not isinstance(a, str) or not a or any(ch in "{}()," for ch in a):  # else faces print alike
            raise HypergraphError(f"atom label {a!r} is not a non-empty string free of {{ }} ( ) ,")
        if a != a.strip() or not a.isprintable():  # else faces do not read back
            raise HypergraphError(f"atom label {a!r} is padded or holds an unprintable character")
    return items


_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))  # each byte, bits reversed


class Hypergraph:
    """Immutable atomic hypergraph.

    Invariants:
      - atom labels are printable, unpadded non-empty strings holding none of `{ } ( ) ,`
      - every hyperedge is a non-empty subset of the carrier
      - the union of the hyperedges is the carrier
      - every singleton is a hyperedge (atomicity)
      - no duplicate hyperedges
    """

    __slots__ = (
        "carrier", "_index", "_edge_masks", "_full", "_comp_cache", "_mask_cache",
        "_face_cache", "_connected_subsets",
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
        object.__setattr__(self, "_full", full)
        object.__setattr__(self, "_edge_masks", tuple(sorted(masks, key=self._edge_key)))
        object.__setattr__(self, "_comp_cache", {})
        # the face order's one table, filled by constructs.leq and _up: face
        # record -> [record, covers' entries, up-set once asked]; Construct -> entry
        object.__setattr__(self, "_face_cache", {})
        object.__setattr__(self, "_mask_cache", {})
        # set by connected_subset_masks on first use
        object.__setattr__(self, "_connected_subsets", None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Hypergraph is immutable")

    # -- mask plumbing -------------------------------------------------

    def _edge_key(self, m: int) -> int:
        """Size, then the ascending tuple of positions, as one integer. Two
        masks of one size first differ at the lowest bit of their XOR, set
        in the earlier one; reversing the bits, a byte at a time, makes it
        the highest bit that differs, so the earlier mask has the larger
        reversal and, subtracted, the smaller key."""
        width = len(self.carrier) + 7 >> 3
        flip = m.to_bytes(width, "little").translate(_REVERSED)
        return (m.bit_count() << 8 * width) - int.from_bytes(flip, "big")

    def mask(self, atoms: Iterable[str]) -> int:
        m = 0
        for a in atoms:
            try:
                m |= 1 << self._index[a]
            except KeyError:
                raise HypergraphError(f"atom {a!r} not in carrier") from None
        return m

    def labels(self, mask: int) -> frozenset[str]:
        return frozenset(self.sorted_labels(mask))

    def sorted_labels(self, atoms: Iterable[str] | int) -> tuple[str, ...]:
        """Atoms in carrier order."""
        mask = atoms if isinstance(atoms, int) else self.mask(atoms)
        carrier, out = self.carrier, []
        while mask:
            bit = mask & -mask
            out.append(carrier[bit.bit_length() - 1])
            mask ^= bit
        return tuple(out)

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
        if not _is_format_1(data):
            raise HypergraphError("unsupported format version")
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


def _is_format_1(data: dict) -> bool:
    """A JSON object's "format" is absent or the integer 1, not true or 1.0."""
    version = data.get("format", 1)
    return isinstance(version, int) and not isinstance(version, bool) and version == 1


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


_BLOCK = 12  # the connected subsets with one high part (atoms 12 on) are one int of 2^12 bits
_WORD = (1 << (1 << _BLOCK)) - 1
# the low parts lacking atom i, as a bitset over the 2^12 low parts
_LACKS = tuple(_WORD // ((1 << (2 << i)) - 1) * ((1 << (1 << i)) - 1) for i in range(_BLOCK))


def connected_subset_masks(h: Hypergraph) -> tuple[int, ...]:
    """All non-empty connected subsets of the carrier, as masks, by size and
    then position; computed once per hypergraph.

    Grown from the singletons: a connected set united with an edge that
    meets it is connected, and every connected set is reached so, by adding
    the edges inside it one by one. The sets found are held in blocks: those
    with one high part (their atoms from k = min(n, 12) up) are one int of
    2^k bits, bit p set when the set with low part p is found. An edge grows
    a block at once: it keeps the sets that it meets, adds its low atoms to
    them, each a shift of the sets lacking that atom, and lands them in the
    block of the high part united with its own. A pass grows the sets found
    in the pass before, in every block that gained some, by each edge in
    turn; the passes stop when one finds nothing new. The cost is at most
    passes x edge atoms x blocks x 2^12/64 words, no int is wider than 2^12
    bits, and reading the masks out is one step per connected subset: the
    cost follows the number of connected subsets, never 2^n."""
    got = h._connected_subsets
    if got is None:
        n = len(h.carrier)
        k = min(n, _BLOCK)
        word = (1 << (1 << k)) - 1
        lacks = [x & word for x in _LACKS[:k]]
        edges = []  # per edge: its high part, the low parts meeting its low atoms, its folds
        for e in h.edge_masks:
            if e & (e - 1):
                misses, folds = word, []
                for i in range(k):
                    if e >> i & 1:
                        misses &= lacks[i]
                        folds.append((lacks[i], 1 << i))
                edges.append((e >> k, word ^ misses, folds))
        blocks: dict[int, int] = {}  # high part -> the low parts of the sets found
        for i in range(n):
            part, bit = (0, 1 << (1 << i)) if i < k else (1 << i - k, 1)
            blocks[part] = blocks.get(part, 0) | bit
        fresh = blocks.copy()
        while fresh:
            grown, fresh = fresh, {}
            for part, sets in grown.items():
                for high, meets, folds in edges:
                    out = sets if part & high else sets & meets
                    if not out:
                        continue
                    for lack, step in folds:
                        moved = out & lack
                        out = out ^ moved | moved << step  # out ^= ... would drop sets already in out
                    to = part | high
                    new = out & ~blocks.get(to, 0)
                    if new:
                        blocks[to] = blocks.get(to, 0) | new
                        fresh[to] = fresh.get(to, 0) | new
                        if to == part:  # the later edges of this pass grow them too
                            sets |= new
        # each set m is read out as the int (_edge_key(m) + 2^w - 1) << w | m, so
        # plain ints sort as _edge_key does, with no key call per set. _edge_key
        # adds over disjoint atoms: a block's high part gives one term, a table
        # of the 2^k low parts the other
        w = 8 * (n + 7 >> 3)
        ones, low = (1 << w) - 1, [0]
        for i in range(k):  # _edge_key(1 << i) is 2^w - 2^(w - 1 - i)
            step = ((1 << w) - (1 << w - 1 - i) << w) + (1 << i)
            low += [v + step for v in low]
        found = []
        for part, sets in blocks.items():
            high = part << k
            base, bits = (h._edge_key(high) + ones << w) + high, bin(sets)[:1:-1]
            p = bits.find("1")
            while p >= 0:
                found.append(base + low[p])
                p = bits.find("1", p + 1)
        found.sort()
        got = tuple(map(ones.__and__, found))
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
