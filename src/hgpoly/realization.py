"""Exact geometric realization of a hypergraph polytope.

Every connected subset A contributes the half-space sum(A) >= 3^|A|; the
carrier holds with equality. The vertex of a construction solves the
nested system over its psi family in integers. Its coordinates come from
the tree kernel itself: `constructs._keyed_node` gives each node its closed-form
coordinate once per region and decoration, and each tree its psi key, so
no tree is walked twice. verify_isomorphism checks the face-order
isomorphism, simplicity, dimension, and the facet census on these
coordinates, over mask records; `RationalPoint` holds them as `Fraction`s
at the public boundary. f_vector reads the face counts off the face
polynomial in `constructs` and builds no face.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from itertools import groupby
from typing import NamedTuple

from . import constructs
from .constructs import (
    MAX_CARRIER,
    Construct,
    _bit_indices,
    _check_guard,
    _checked,
    _construct,
    _face_polynomial,
    _keyed_node,
    _psi_bits,
    _record,
    _submasks,
    _text,
    _vertices_below,
    enumerate_constructions,
    enumerate_constructs,
    print_construct,
)
from .hypergraph import Hypergraph, InvariantError, connected_subset_masks

MAX_HREP_CARRIER = 16  # hrep prints the connected subsets: at most 2^16 - 1 rows


class RealizationError(InvariantError):
    """A geometric invariant failed on actual coordinates."""


def _row(labels: tuple[str, ...], rhs: int, kind: str) -> str:
    return f"{' + '.join(labels)} {'==' if kind == 'equality' else '>='} {rhs}"


class LinearConstraint(NamedTuple):
    support: frozenset[str]
    rhs: int
    kind: str  # "equality" | "at-least"

    def text(self, h: Hypergraph) -> str:
        return _row(h.sorted_labels(self.support), self.rhs, self.kind)


class HalfSpaceSystem(NamedTuple):
    """One half-space per connected subset mask, in the order of masks; text
    and JSON are printed straight from the masks."""

    ambient: Hypergraph
    masks: tuple[int, ...]

    def _rows(self):
        """(labels in carrier order, rhs, kind) per mask."""
        h = self.ambient
        for m in self.masks:
            yield h.sorted_labels(m), 3 ** m.bit_count(), "equality" if m == h.full_mask else "at-least"

    @property
    def constraints(self) -> tuple[LinearConstraint, ...]:
        return tuple(LinearConstraint(frozenset(s), rhs, kind) for s, rhs, kind in self._rows())

    def to_text(self) -> str:
        """The rows of _rows. Each half is spelled once: a low half as its joined
        labels, a high half led by ` + `, which a row without low atoms drops.
        The masks come size-first, so the rows of one size join on their tail."""
        h, masks = self.ambient, self.masks
        n = len(h.carrier)
        low = (1 << n // 2) - 1
        high = h.full_mask ^ low
        lows = {x: " + ".join(h.sorted_labels(x)) for x in {m & low for m in masks}}
        highs = {y: "".join([" + " + a for a in h.sorted_labels(y)]) for y in {m & high for m in masks}}
        out = []
        for k, group in groupby(masks, int.bit_count):
            tail = f" == {3**k}\n" if k == n else f" >= {3**k}\n"  # only the carrier has n atoms
            rows = [lows[m & low] + highs[m & high] if m & low else highs[m][3:] for m in group]
            out.append(tail.join(rows) + tail)
        return "".join(out)

    def to_json_dict(self) -> dict:
        rows = [{"support": list(s), "rhs": str(r), "kind": k} for s, r, k in self._rows()]
        return {"format": 1, "carrier": list(self.ambient.carrier), "constraints": rows}


class RationalPoint:
    """A point by its coordinates on atoms, equal and hashed by value."""

    __slots__ = ("atoms", "coords")

    def __init__(self, atoms: tuple[str, ...], coords: tuple[Fraction, ...]) -> None:
        self.atoms, self.coords = atoms, coords

    def __repr__(self) -> str:
        return f"RationalPoint(atoms={self.atoms!r}, coords={self.coords!r})"

    def __eq__(self, other) -> bool:
        if type(other) is not RationalPoint:
            return NotImplemented
        return (self.atoms, self.coords) == (other.atoms, other.coords)

    def __hash__(self) -> int:
        return hash((self.atoms, self.coords))

    def __getitem__(self, atom: str) -> Fraction:
        return self.coords[self.atoms.index(atom)]

    def sum_over(self, atoms) -> Fraction:
        return sum((self[a] for a in atoms), Fraction(0))


def hrep(h: Hypergraph, *, max_carrier: int | None = MAX_HREP_CARRIER) -> HalfSpaceSystem:
    """The defining constraint system in canonical support order: one
    at-least constraint per proper connected subset, then the carrier
    equality (the largest support comes last). Raises GuardExceeded past
    max_carrier atoms and HypergraphError on a disconnected h (no polytope)."""
    _check_guard(h, max_carrier, "half-spaces")
    return HalfSpaceSystem(h, connected_subset_masks(h))


def _vertices(h: Hypergraph, trees: list) -> tuple[list, list, list[list[int]]]:
    """The heads, psi keys and integer coordinates, in carrier order, of
    trees built by constructs._keyed_node: the vertices, for constructions."""
    width = (3 ** len(h.carrier)).bit_length()
    lanes, mask = range(0, width * len(h.carrier), width), (1 << width) - 1
    return [t[0] for t in trees], [t[1] for t in trees], [[t[2] >> s & mask for s in lanes] for t in trees]


def _solve(
    h: Hypergraph, coords: list[list[int]], keys, name, report: VerificationReport | None = None
) -> list[int] | None:
    """Check vertices with the given coordinates and psi keys on every
    connected subset m: strict where m is not in psi(v), tight where it is
    (Postnikov 2009); name(j) is the text of vertex j. One int per atom
    holds a lane per vertex, with a guard bit: a sum over m is one addition,
    its compare with 3^|m| one subtraction (Lamport 1975; Knuth, TAOCP 4A
    7.1.3). The first vertex failing strictness raises, or all go to
    report, each at its first failing subset. Returns the tight subsets of
    each vertex but the carrier, or None if psi's."""
    subsets, count, n = connected_subset_masks(h), len(coords), len(h.carrier)
    held = [array("I") for _ in subsets]  # subset i -> the vertices whose psi holds it
    for j, key in enumerate(keys):
        for i in _bit_indices(key):
            held[i].append(j)
    # lanes hold x + shift >= 0 and sums below top; shift > 0 only if the closed form broke
    shift = max(0, -min(map(min, coords)))
    top = max(3**n, max(map(sum, coords))) + shift * n
    nb = (top.bit_length() + 8) // 8  # a guard bit above top, in whole bytes
    size = count * nb

    def decode(bits: int) -> list[int]:  # the lanes whose guard bit is set
        return [j for j, x in enumerate(bits.to_bytes(size, "little")[nb - 1 :: nb]) if x]

    cols = [
        int.from_bytes(b"".join([(x + shift).to_bytes(nb, "little") for x in col]), "little")
        for col in zip(*coords)
    ]
    ones = int.from_bytes(b"\1".ljust(nb, b"\0") * count, "little")
    guards = ones << 8 * nb - 1
    strict, loose, sums = {}, {}, {0: 0}
    for i, m in enumerate(subsets):  # by size, so m minus its lowest atom is mostly summed
        k, low = m.bit_count(), m & -m
        rest = sums.get(m ^ low)
        if rest is None:
            rest = sum(map(cols.__getitem__, _bit_indices(m ^ low)))
        total = sums[m] = rest + cols[low.bit_length() - 1]
        above = (total | guards) - ones * (3**k + shift * k)
        ge, gt = above & guards, (above - ones) & guards
        lanes = bytearray(size)
        for j in held[i]:
            lanes[j * nb + nb - 1] = 0x80
        psi = int.from_bytes(lanes, "little")
        fail = (guards ^ gt) & ~psi  # at or below the bound, m not in psi
        if fail:
            for j in decode(fail):
                if j not in strict:
                    got = sum(coords[j][i] for i in _bit_indices(m))
                    where = f"{sorted(h.labels(m))}: sum is {got}, bound {3**k}"
                    strict[j] = f"vertex of {name(j)} fails strictness on {where}"
        if m != h.full_mask and ge ^ gt != psi:
            loose[m] = decode(ge ^ gt)  # its tight lanes, not those of psi
    for j in sorted(strict):
        if report is None:
            raise RealizationError(strict[j])
        report.add("strictness", strict[j])
    if strict or not loose:
        return None
    tight = [0] * count
    for i, m in enumerate(subsets[:-1]):  # the carrier comes last
        for j in loose.get(m, held[i]):
            tight[j] |= 1 << i
    return tight


def vertex_of_construction(h: Hypergraph, v: Construct) -> RationalPoint:
    """The vertex of the construction v, with Fraction coordinates."""
    if not v.is_construction:
        raise RealizationError(f"{print_construct(h, v)} is not a construction")
    # one node per atom and a root spanning the carrier: each atom once
    if h.mask(v.span) != h.full_mask or v.node_count != len(h.carrier):
        raise RealizationError(f"{print_construct(h, v)} does not span the carrier exactly once")
    (point,) = face_vertex_set(h, v)
    return point


def face_vertex_set(h: Hypergraph, t: Construct) -> frozenset[RationalPoint]:
    texts, keys, coords = _vertices(h, _vertices_below(h, _checked(h, t)[1], _keyed_node(h, _text(h), True)))
    _solve(h, coords, keys, texts.__getitem__)  # raises at the first vertex failing strictness
    return frozenset(RationalPoint(h.carrier, tuple(map(Fraction, p))) for p in coords)


def f_vector(h: Hypergraph, *, max_carrier: int | None = MAX_CARRIER) -> tuple[int, ...]:
    """Face counts by dimension, vertices first, top last, counted without
    building a face from the face polynomial (constructs._face_polynomial):
    a face of dimension d has n - d nodes."""
    _check_guard(h, max_carrier, "constructs")
    n = len(h.carrier)
    top = _face_polynomial(h, h.full_mask, {})
    return tuple(top[n - d] for d in range(n))


def affine_dimension(points) -> int:
    """Dimension of the affine hull of points (objects with `coords`, or
    coordinate tuples), by fraction-free Gaussian elimination: rows are
    scaled and subtracted, never divided, so ints and Fractions stay exact."""
    pts = [getattr(p, "coords", p) for p in points]
    if not pts:
        return -1
    base = pts[0]
    width = len(base)
    rows = [[p[i] - base[i] for i in range(width)] for p in pts[1:]]
    rank = 0
    col = 0
    while rank < len(rows) and col < width:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col]
            if factor:
                rows[r] = [lead * a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


class VerificationReport:
    def __init__(self, hypergraph: Hypergraph) -> None:
        self.hypergraph, self.ok = hypergraph, True
        self.failures: dict[str, list[str]] = {}
        self.stats: dict[str, int] = {}

    def add(self, kind: str, witness: str) -> None:
        self.ok = False
        bucket = self.failures.setdefault(kind, [])
        if len(bucket) < 10:
            bucket.append(witness)

    def summary(self) -> str:
        lines = [f"carrier {len(self.hypergraph.carrier)} atoms: {'PASS' if self.ok else 'FAIL'}"]
        lines += (f"  {key}: {self.stats[key]}" for key in sorted(self.stats))
        for kind in sorted(self.failures):
            lines.append(f"  {kind}:")
            lines.extend(f"    {w}" for w in self.failures[kind])
        return "\n".join(lines)


def verify_isomorphism(
    h: Hypergraph, *, max_carrier: int | None = MAX_CARRIER
) -> VerificationReport:
    """Check the construct order against actual geometry: order
    isomorphism, injectivity, simplicity, affine dimension, facet census.

    Each face is keyed by psi(t), a bitset over the connected subsets; a
    vertex lies on a face exactly when it is tight on every member of its
    key but the carrier (Postnikov 2009; Feichtner-Sturmfels 2005). The
    polytope is simple: every subset of a vertex's tight facets, with the
    carrier, must be a key, and these must reach every face. The order
    compared is the closure of `covers` (the `rules` order): the k-th cover
    of s must be the face keyed by key(s) minus the span of the (k+1)-th
    node in preorder, and these spans the other members of key(s), each
    once; no key is computed from a cover. Faces are mask records with psi
    keys from one kernel run. A second, vertices_below the top face, gives
    the coordinates; it must give every vertex and no more, or the check stops."""
    report = VerificationReport(h)
    n = len(h.carrier)
    trees = enumerate_constructs(h, max_carrier=max_carrier, node=_keyed_node(h, _record))
    faces, keys = [t[0] for t in trees], [t[1] for t in trees]

    def text(i: int) -> str:
        return print_construct(h, _construct(h, faces[i]))

    subsets = connected_subset_masks(h)
    carrier = 1 << len(subsets) - 1  # the carrier comes last
    top = keys.index(carrier)
    # a key has a bit per node; n nodes partition n atoms, so every decoration is a singleton
    vs = [i for i, key in enumerate(keys) if key.bit_count() == n]
    vertex = {t[1]: t for t in _vertices_below(h, faces[top], _keyed_node(h, _record, True))}
    run = [vertex.get(keys[i]) for i in vs]
    if None in run or len(vertex) > len(vs) or any(t[0] != faces[i] for t, i in zip(run, vs)):
        report.add("order-isomorphism", f"{text(top)} misses a vertex")
        return report
    _, vkeys, coords = _vertices(h, run)
    tight = _solve(h, coords, vkeys, lambda j: text(vs[j]), report)
    if not report.ok:
        return report

    # the tight facets of each vertex, as a key without the carrier
    named = [keys[i] & ~carrier for i in vs]
    at = named if tight is None else tight

    seen_points: dict[tuple[int, ...], int] = {}
    for i, p, own, want in zip(vs, map(tuple, coords), at, named):
        other = seen_points.setdefault(p, i)
        if other != i:
            report.add("distinct-points", f"{text(i)} and {text(other)} coincide")
            seen_points[p] = i
        if own != want:
            report.add("simplicity", f"{text(i)} lies on {own.bit_count()} facets, named {n - 1}")
    index: dict[int, int] = {}
    for i, key in enumerate(keys):
        j = index.setdefault(key, i)
        if j != i:
            report.add("injectivity", f"{text(i)} and {text(j)} share a nested set")

    # the faces at a vertex are the subsets of its tight facets
    reached = bytearray(len(faces))
    for i, own in zip(vs, at):
        for sub in (*_submasks(own), 0):
            k = index.get(sub | carrier)
            if k is None:
                witness = f"{sub.bit_count()} tight facets of {text(i)} name no face"
                report.add("order-isomorphism", witness)
            else:
                reached[k] = 1
    for i, r in enumerate(reached):
        if not r:
            report.add("order-isomorphism", f"{text(i)} holds no vertex")

    # the k-th cover contracts the edge above the (k+1)-th node in preorder and
    # drops that node's span: together they must drop key's other members, each once
    bit = _psi_bits(h)
    for i, s in enumerate(faces):
        key, ups = keys[i], constructs._covers(s)
        members, drops = key & ~carrier, [bit[d] for d in constructs._spans(s)[1:]]
        want = [index.get(key ^ d) for d in drops]
        exact = sum(drops) == members and len(drops) == members.bit_count()
        if not exact or None in want or ups != [faces[j] for j in want]:
            report.add("order-isomorphism", f"covers of {text(i)} are not its nested set minus one member")

    dim = affine_dimension(coords)
    if dim != n - 1:
        report.add("dimension", f"affine hull has dimension {dim}, expected {n - 1}")

    # a facet is keyed by the carrier and one subset, and holds the vertices tight on it
    on = [0] * len(subsets)
    for j, own in enumerate(at):
        for i in _bit_indices(own):
            on[i] |= 1 << j
    facets = [i for i, key in enumerate(keys) if key.bit_count() == 2]
    below = {i: on[(keys[i] & ~carrier).bit_length() - 1] for i in facets}
    proper = len(subsets) - 1
    if len(facets) != proper:
        report.add("facet-census", f"{len(facets)} two-node constructs vs {proper} connected subsets")
    for k, a in enumerate(facets):
        for b in facets[k + 1 :]:
            if not below[a] & ~below[b] or not below[b] & ~below[a]:
                report.add("facet-census", f"facet {text(a)} nested in {text(b)}")

    report.stats.update(constructs=len(faces), vertices=len(vs), facets=len(facets), dimension=dim)
    return report


def vertices_to_json_dict(h: Hypergraph, *, max_carrier: int | None = MAX_CARRIER) -> dict:
    """JSON export: construction text -> integer coordinates as strings,
    texts, psi keys and coordinates from one kernel run."""
    node = _keyed_node(h, _text(h), True)
    texts, keys, coords = _vertices(h, enumerate_constructions(h, max_carrier=max_carrier, node=node))
    _solve(h, coords, keys, texts.__getitem__)  # raises at the first vertex failing strictness
    out = {t: list(map(str, p)) for t, p in zip(texts, coords)}
    return {"format": 1, "carrier": list(h.carrier), "vertices": out}
