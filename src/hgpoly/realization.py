"""Exact geometric realization of a hypergraph polytope.

Every connected subset A contributes the half-space sum(A) >= 3^|A|; the
carrier holds with equality. Vertices come from constructions by a
triangular solve over the nested psi family, and verify_isomorphism checks
the face-order isomorphism, simplicity, dimension, and the facet census on
actual coordinates. Integer and Fraction arithmetic only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .constructs import (
    Construct,
    _constructs,
    covers_memo,
    enumerate_constructions,
    print_construct,
    vertices_below,
)
from .hypergraph import Hypergraph, InvariantError, connected_subset_masks
from .nestedsets import psi


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

    def as_strings(self) -> list[str]:
        return [str(c) for c in self.coords]


def hrep(h: Hypergraph) -> HalfSpaceSystem:
    """The defining constraint system in canonical support order: one
    at-least constraint per proper connected subset, then the carrier
    equality (the largest support comes last)."""
    constraints = []
    for m in connected_subset_masks(h):
        support = h.labels(m)
        kind = "equality" if m == h.full_mask else "at-least"
        constraints.append(LinearConstraint(support, 3 ** len(support), kind))
    return HalfSpaceSystem(h, tuple(constraints))


def vertex_of_construction(h: Hypergraph, v: Construct) -> RationalPoint:
    """Solve { sum(X) = 3^|X| : X in psi(v) } by increasing |X|; the
    supports are nested so each equation determines one new coordinate.
    The result is checked strictly against every other connected subset."""
    if not v.is_construction:
        raise RealizationError(f"{print_construct(h, v)} is not a construction")
    family = sorted(psi(v), key=len)
    values: dict[str, Fraction] = {}
    for x_set in family:
        unknowns = [a for a in x_set if a not in values]
        if len(unknowns) != 1:
            raise RealizationError(
                f"system is not triangular at {sorted(x_set)}: {unknowns}"
            )
        values[unknowns[0]] = Fraction(3 ** len(x_set)) - sum(
            (values[a] for a in x_set if a != unknowns[0]), Fraction(0)
        )
    point = RationalPoint(h.carrier, tuple(values[a] for a in h.carrier))
    member = set(family)
    for m in connected_subset_masks(h):
        y = h.labels(m)
        if y in member:
            continue
        if point.sum_over(y) <= 3 ** len(y):
            raise RealizationError(
                f"vertex of {print_construct(h, v)} fails strictness on "
                f"{sorted(y)}: sum is {point.sum_over(y)}, bound {3 ** len(y)}"
            )
    return point


def face_vertex_set(h: Hypergraph, t: Construct) -> frozenset[RationalPoint]:
    return frozenset(vertex_of_construction(h, v) for v in vertices_below(h, t))


def f_vector(h: Hypergraph, *, max_carrier: int | None = 8) -> tuple[int, ...]:
    """Face counts by dimension, vertices first, top last."""
    n = len(h.carrier)
    counts = [0] * n
    for c in _constructs(h, max_carrier):
        counts[n - c.node_count] += 1
    return tuple(counts)


def affine_dimension(points) -> int:
    """Dimension of the affine hull, by exact Gaussian elimination."""
    pts = list(points)
    if not pts:
        return -1
    base = pts[0]
    rows = [
        [p.coords[i] - base.coords[i] for i in range(len(base.coords))]
        for p in pts[1:]
    ]
    rank = 0
    col = 0
    width = len(base.coords)
    while rank < len(rows) and col < width:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                factor = rows[r][col] / lead
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
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


def _bit_indices(mask: int):
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def verify_isomorphism(h: Hypergraph, *, max_carrier: int | None = 8) -> VerificationReport:
    """Check the construct order against actual geometry: order
    isomorphism, injectivity, simplicity, affine dimension, facet census.

    The order compared is the closure of single-edge contractions (the
    `rules` order, built from `covers`): s <= t must hold exactly when
    every vertex of s, from vertices_below, is a vertex of t. Vertex sets
    and up-sets are int bitsets over indexed points and faces."""
    report = VerificationReport(h)
    faces = _constructs(h, max_carrier)
    constructions = [c for c in faces if c.is_construction]

    points: dict[Construct, RationalPoint] = {}
    for v in constructions:
        try:
            points[v] = vertex_of_construction(h, v)
        except RealizationError as err:
            report.add("strictness", str(err))
    if not report.ok:
        return report

    n = len(h.carrier)
    facet_sets = {
        m: h.labels(m) for m in connected_subset_masks(h) if m != h.full_mask
    }

    seen_points: dict[RationalPoint, Construct] = {}
    for v, p in points.items():
        other = seen_points.get(p)
        if other is not None:
            report.add(
                "distinct-points",
                f"{print_construct(h, v)} and {print_construct(h, other)} coincide",
            )
        seen_points[p] = v
        on = {y for y in facet_sets.values() if p.sum_over(y) == 3 ** len(y)}
        named = psi(v) - {frozenset(h.carrier)}
        if on != named or len(on) != n - 1:
            report.add(
                "simplicity",
                f"{print_construct(h, v)} lies on {len(on)} facets, named {len(named)}",
            )

    # below[i]: the vertex bitset of face i, over the distinct points;
    # holding[j]: the faces whose vertex set holds point j
    point_index = {p: j for j, p in enumerate(seen_points)}
    below = [0] * len(faces)
    holding = [0] * len(point_index)
    for i, t in enumerate(faces):
        for v in vertices_below(h, t):
            below[i] |= 1 << point_index[points[v]]
        for j in _bit_indices(below[i]):
            holding[j] |= 1 << i

    # up[i]: the faces reached from face i by contracting tree edges; a
    # cover has one node fewer, so the fewest nodes go first
    index = {t: i for i, t in enumerate(faces)}
    up = [0] * len(faces)
    for i in sorted(range(len(faces)), key=lambda i: faces[i].node_count):
        bits = 1 << i
        for u in covers_memo(h, faces[i]):
            bits |= up[index[u]]
        up[i] = bits

    everything = (1 << len(faces)) - 1
    for i, s in enumerate(faces):
        geometric = everything
        for j in _bit_indices(below[i]):
            geometric &= holding[j]
        for k in _bit_indices(up[i] ^ geometric):
            report.add(
                "order-isomorphism",
                f"{print_construct(h, s)} vs {print_construct(h, faces[k])}",
            )

    seen_sets: dict[int, Construct] = {}
    for i, t in enumerate(faces):
        other = seen_sets.get(below[i])
        if other is not None:
            report.add(
                "injectivity",
                f"{print_construct(h, t)} and {print_construct(h, other)} share vertices",
            )
        seen_sets[below[i]] = t

    dim = affine_dimension(points.values())
    if dim != n - 1:
        report.add("dimension", f"affine hull has dimension {dim}, expected {n - 1}")

    facets = [i for i, t in enumerate(faces) if t.node_count == 2]
    if len(facets) != len(facet_sets):
        report.add(
            "facet-census",
            f"{len(facets)} two-node constructs vs {len(facet_sets)} connected subsets",
        )
    for k, a in enumerate(facets):
        for b in facets[k + 1 :]:
            if not below[a] & ~below[b] or not below[b] & ~below[a]:
                report.add(
                    "facet-census",
                    f"facet {print_construct(h, faces[a])} nested in {print_construct(h, faces[b])}",
                )

    report.stats.update(
        {
            "constructs": len(faces),
            "vertices": len(constructions),
            "facets": len(facets),
            "dimension": dim,
        }
    )
    return report


def vertices_to_json_dict(h: Hypergraph, *, max_carrier: int | None = 8) -> dict:
    """JSON export: construction text -> exact coordinates as strings."""
    out = {}
    for v in enumerate_constructions(h, max_carrier=max_carrier):
        out[print_construct(h, v)] = vertex_of_construction(h, v).as_strings()
    return {"format": 1, "carrier": list(h.carrier), "vertices": out}
