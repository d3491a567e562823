"""Exact geometric realization of a hypergraph polytope.

Every connected subset A contributes the half-space sum(A) >= 3^|A|; the
carrier holds with equality. The vertex of a construction solves the
nested system over its psi family in integers, and verify_isomorphism
checks the face-order isomorphism, simplicity, dimension, and the facet
census on actual coordinates; `RationalPoint` holds them as `Fraction`s
at the public boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import constructs
from .constructs import (
    MAX_CARRIER,
    Construct,
    _bit_indices,
    _bits,
    _check_guard,
    _spans,
    _submasks,
    enumerate_constructions,
    enumerate_constructs,
    print_construct,
    vertices_below,
)
from .hypergraph import Hypergraph, InvariantError, connected_subset_masks


class RealizationError(InvariantError):
    """A geometric invariant failed on actual coordinates."""


@dataclass(frozen=True)
class LinearConstraint:
    support: frozenset[str]
    rhs: int
    kind: str  # "equality" | "at-least"

    def text(self, h: Hypergraph) -> str:
        left = " + ".join(h.sorted_labels(self.support))
        op = "==" if self.kind == "equality" else ">="
        return f"{left} {op} {self.rhs}"


@dataclass(frozen=True)
class HalfSpaceSystem:
    ambient: Hypergraph
    constraints: tuple[LinearConstraint, ...]

    def to_text(self) -> str:
        return "\n".join(c.text(self.ambient) for c in self.constraints) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "format": 1,
            "carrier": list(self.ambient.carrier),
            "constraints": [
                {
                    "support": list(self.ambient.sorted_labels(c.support)),
                    "rhs": str(c.rhs),
                    "kind": c.kind,
                }
                for c in self.constraints
            ],
        }


@dataclass(frozen=True)
class RationalPoint:
    atoms: tuple[str, ...]
    coords: tuple[Fraction, ...]

    def __getitem__(self, atom: str) -> Fraction:
        return self.coords[self.atoms.index(atom)]

    def sum_over(self, atoms) -> Fraction:
        return sum((self[a] for a in atoms), Fraction(0))


def hrep(h: Hypergraph) -> HalfSpaceSystem:
    """The defining constraint system in canonical support order: one
    at-least constraint per proper connected subset, then the carrier
    equality (the largest support comes last). A disconnected h bounds no
    polytope and raises HypergraphError."""
    _check_guard(h, None, "half-spaces")
    constraints = []
    for m in connected_subset_masks(h):
        support = h.labels(m)
        kind = "equality" if m == h.full_mask else "at-least"
        constraints.append(LinearConstraint(support, 3 ** len(support), kind))
    return HalfSpaceSystem(h, tuple(constraints))


def _vertex(h: Hypergraph, v: Construct) -> tuple[tuple[int, ...], set[int], set[int]]:
    """The vertex v names, in closed form: a node's atom gets 3^|span| minus
    3^|child span| summed over its children. Returns the integer coordinates
    in carrier order, psi(v) as masks and the proper connected subsets the
    vertex is tight on; it must be strict on every other one."""
    if not v.is_construction:
        raise RealizationError(f"{print_construct(h, v)} is not a construction")
    coords = [0] * len(h.carrier)
    family: set[int] = set()

    def rec(node: Construct) -> int:
        bit = span = h.mask(node.decoration)
        below = 0
        for c in node.children:
            m = rec(c)
            span |= m
            below += 3 ** m.bit_count()
        coords[bit.bit_length() - 1] = 3 ** span.bit_count() - below
        family.add(span)
        return span

    # one node per atom and a root spanning the carrier: each atom once
    full = h.full_mask
    if rec(v) != full or v.node_count != len(coords):
        raise RealizationError(f"{print_construct(h, v)} does not span the carrier exactly once")
    tight: set[int] = set()
    # the subsets come by size, so m minus its lowest atom is mostly one
    # already summed
    sums = {0: 0}
    for m in connected_subset_masks(h):
        low = m & -m
        rest = sums.get(m ^ low)
        if rest is None:
            rest = sum(map(coords.__getitem__, _bit_indices(m ^ low)))
        total = sums[m] = rest + coords[low.bit_length() - 1]
        bound = 3 ** m.bit_count()
        if total <= bound and m not in family:
            raise RealizationError(
                f"vertex of {print_construct(h, v)} fails strictness on "
                f"{sorted(h.labels(m))}: sum is {total}, bound {bound}"
            )
        if total == bound:
            tight.add(m)
    tight.discard(full)
    return tuple(coords), family, tight


def vertex_of_construction(h: Hypergraph, v: Construct) -> RationalPoint:
    """The vertex of the construction v, with Fraction coordinates."""
    return RationalPoint(h.carrier, tuple(map(Fraction, _vertex(h, v)[0])))


def face_vertex_set(h: Hypergraph, t: Construct) -> frozenset[RationalPoint]:
    return frozenset(vertex_of_construction(h, v) for v in vertices_below(h, t))


def f_vector(h: Hypergraph, *, max_carrier: int | None = MAX_CARRIER) -> tuple[int, ...]:
    """Face counts by dimension, vertices first, top last, counted without
    building a face. F(S) = sum over non-empty Y in S of z times the product
    of F(C) over the components C of S - Y is the face polynomial of the
    nestohedron (Postnikov 2009): its z^k coefficient counts the constructs
    over S with k nodes, and a face of dimension d has n - d nodes."""
    _check_guard(h, max_carrier, "constructs")
    memo: dict[int, list[int]] = {}

    def poly(region: int) -> list[int]:
        got = memo.get(region)
        if got is None:
            got = [0] * (region.bit_count() + 1)
            for y in _submasks(region):
                term = [0, 1]
                for c in h.components_mask(region & ~y):
                    factor = poly(c)
                    prod = [0] * (len(term) + len(factor) - 1)
                    for i, a in enumerate(term):
                        if a:
                            for j, b in enumerate(factor):
                                prod[i + j] += a * b
                    term = prod
                for k, a in enumerate(term):
                    got[k] += a
            memo[region] = got
        return got

    n = len(h.carrier)
    top = poly(h.full_mask)
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


@dataclass
class VerificationReport:
    hypergraph: Hypergraph
    ok: bool = True
    failures: dict[str, list[str]] = field(default_factory=dict)
    stats: dict[str, int] = field(default_factory=dict)

    def add(self, kind: str, witness: str) -> None:
        self.ok = False
        bucket = self.failures.setdefault(kind, [])
        if len(bucket) < 10:
            bucket.append(witness)

    def summary(self) -> str:
        lines = [
            f"carrier {len(self.hypergraph.carrier)} atoms: "
            + ("PASS" if self.ok else "FAIL")
        ]
        for key in sorted(self.stats):
            lines.append(f"  {key}: {self.stats[key]}")
        for kind in sorted(self.failures):
            lines.append(f"  {kind}:")
            lines.extend(f"    {w}" for w in self.failures[kind])
        return "\n".join(lines)


def _face_vertices(keys: list[int], at: list[int], width: int) -> list[int]:
    """The vertex bitset of each face whose psi key, the carrier left out,
    is in keys: the AND over the members i of the key of tight[i], the
    vertices j whose tight facets at[j] hold i; width counts the subsets."""
    tight = [0] * width
    for j, own in enumerate(at):
        for i in _bit_indices(own):
            tight[i] |= 1 << j
    out = []
    for key in keys:
        bits = (1 << len(at)) - 1
        for i in _bit_indices(key):
            bits &= tight[i]
        out.append(bits)
    return out


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
    compared is the closure of `covers` (the `rules` order): the covers of
    s must be the faces keyed by key(s) minus one non-carrier member, and
    vertices_below the top face must give every vertex."""
    report = VerificationReport(h)
    faces = enumerate_constructs(h, max_carrier=max_carrier)
    n = len(h.carrier)
    # n nodes partition n atoms, so every decoration is a singleton
    constructions = [c for c in faces if c.node_count == n]

    solved = {}
    for v in constructions:
        try:
            solved[v] = _vertex(h, v)
        except RealizationError as err:
            report.add("strictness", str(err))
    if not report.ok:
        return report

    seen_points: dict[tuple[int, ...], Construct] = {}
    for v, (p, family, on) in solved.items():
        other = seen_points.get(p)
        if other is not None:
            report.add(
                "distinct-points",
                f"{print_construct(h, v)} and {print_construct(h, other)} coincide",
            )
        seen_points[p] = v
        named = family - {h.full_mask}
        if on != named or len(on) != n - 1:
            report.add(
                "simplicity",
                f"{print_construct(h, v)} lies on {len(on)} facets, named {len(named)}",
            )

    subsets = connected_subset_masks(h)
    bit = {m: 1 << i for i, m in enumerate(subsets)}
    carrier = bit[h.full_mask]
    # psi(t) as the sum of bit[span] over the nodes of t, whose spans are distinct
    keys = [sum(map(bit.__getitem__, _spans(h, t))) for t in faces]
    index: dict[int, int] = {}
    for i, key in enumerate(keys):
        j = index.setdefault(key, i)
        if j != i:
            report.add(
                "injectivity",
                f"{print_construct(h, faces[i])} and {print_construct(h, faces[j])} "
                "share a nested set",
            )

    # the tight facets of each vertex as a key without the carrier; the
    # faces at a vertex are the subsets of its tight facets
    at = [sum(map(bit.__getitem__, on)) for _, _, on in solved.values()]
    reached = bytearray(len(faces))
    for v, own in zip(solved, at):
        for sub in (*_submasks(own), 0):
            i = index.get(sub | carrier)
            if i is None:
                report.add(
                    "order-isomorphism",
                    f"{sub.bit_count()} tight facets of {print_construct(h, v)} name no face",
                )
            else:
                reached[i] = 1
    for i, r in enumerate(reached):
        if not r:
            report.add("order-isomorphism", f"{print_construct(h, faces[i])} holds no vertex")

    face_at = {t: i for i, t in enumerate(faces)}
    for i, s in enumerate(faces):
        key = keys[i]
        ups = constructs.covers(h, s)
        got = {face_at.get(u) for u in ups}
        want = {index.get(key ^ b) for b in _bits(key & ~carrier)}
        if None in want or got != want or len(ups) != len(want):
            report.add(
                "order-isomorphism",
                f"covers of {print_construct(h, s)} are not its nested set minus one member",
            )

    top = next(t for t in faces if t.node_count == 1)
    if set(vertices_below(h, top)) != solved.keys():
        report.add("order-isomorphism", f"{print_construct(h, top)} misses a vertex")

    dim = affine_dimension(p for p, _, _ in solved.values())
    if dim != n - 1:
        report.add("dimension", f"affine hull has dimension {dim}, expected {n - 1}")

    facets = [i for i, t in enumerate(faces) if t.node_count == 2]
    sets = _face_vertices([keys[i] & ~carrier for i in facets], at, len(subsets))
    below = dict(zip(facets, sets))
    proper = len(subsets) - 1
    if len(facets) != proper:
        report.add(
            "facet-census",
            f"{len(facets)} two-node constructs vs {proper} connected subsets",
        )
    for k, a in enumerate(facets):
        for b in facets[k + 1 :]:
            if not below[a] & ~below[b] or not below[b] & ~below[a]:
                report.add(
                    "facet-census",
                    f"facet {print_construct(h, faces[a])} nested in {print_construct(h, faces[b])}",
                )

    report.stats.update(
        constructs=len(faces), vertices=len(constructions), facets=len(facets), dimension=dim
    )
    return report


def vertices_to_json_dict(h: Hypergraph, *, max_carrier: int | None = MAX_CARRIER) -> dict:
    """JSON export: construction text -> integer coordinates as strings."""
    out = {}
    for v in enumerate_constructions(h, max_carrier=max_carrier):
        out[print_construct(h, v)] = [str(c) for c in _vertex(h, v)[0]]
    return {"format": 1, "carrier": list(h.carrier), "vertices": out}
