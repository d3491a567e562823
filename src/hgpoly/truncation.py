"""Iterated truncation rounds.

A round is a triple: the current facet set (formal sums of the original
atoms, printed like ``2x+y``), the hypergraph of vertex decorations, and
the hypergraph that drives the truncation.  Advancing a round flattens
the decorations of the maximal proper tamed constructs into new facets
and reads the next vertex hypergraph off the tamed constructions.
"""

from dataclasses import dataclass
from typing import Iterable

from .constructs import (
    Construct,
    _bits,
    _rooted,
    _submasks,
    enumerate_constructs,
    print_construct,
    validate_construct,
)
from .hypergraph import Hypergraph, HypergraphError
from .nestedsets import psi


class TruncationError(ValueError):
    """A round violates its invariants or an advance breaks one."""


# -- formal sums of atoms ----------------------------------------------


@dataclass(frozen=True)
class Multiset:
    """A non-empty formal sum over a fixed atom base, e.g. 2x+y."""

    base: tuple[str, ...]
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.base) != len(self.counts):
            raise TruncationError("counts must run parallel to the base")
        if any(c < 0 for c in self.counts) or not any(self.counts):
            raise TruncationError("a formal sum needs positive counts")

    @classmethod
    def unit(cls, base: Iterable[str], atom: str) -> "Multiset":
        base = tuple(base)
        if atom not in base:
            raise TruncationError(f"unknown atom {atom!r}")
        return cls(base, tuple(int(b == atom) for b in base))

    @classmethod
    def from_json_dict(cls, base: Iterable[str], data: dict) -> "Multiset":
        base = tuple(base)
        if not isinstance(data, dict):
            raise TruncationError("a facet must be a counts object")
        extra = set(data) - set(base)
        if extra:
            raise TruncationError(f"facet uses atoms outside the base: {sorted(extra)}")
        if not all(isinstance(c, int) and c > 0 for c in data.values()):
            raise TruncationError("facet counts must be positive integers")
        return cls(base, tuple(data.get(b, 0) for b in base))

    def add(self, other: "Multiset") -> "Multiset":
        if self.base != other.base:
            raise TruncationError("cannot add formal sums over different bases")
        return Multiset(self.base, tuple(a + b for a, b in zip(self.counts, other.counts)))

    def text(self) -> str:
        terms = []
        for atom, count in zip(self.base, self.counts):
            if count == 1:
                terms.append(atom)
            elif count:
                terms.append(f"{count}{atom}")
        return "+".join(terms)

    def to_json_dict(self) -> dict:
        return {a: c for a, c in zip(self.base, self.counts) if c}


def mu_sigma(parts: Iterable[Multiset]) -> Multiset:
    """Flatten a set of formal sums into their pointwise sum."""
    parts = list(parts)
    if not parts:
        raise TruncationError("cannot flatten an empty family")
    total = parts[0]
    for p in parts[1:]:
        total = total.add(p)
    return total


# -- round state --------------------------------------------------------


@dataclass(frozen=True)
class TraceEntry:
    round_index: int
    vertex_sets: tuple[tuple[str, ...], ...]
    truncation_edges: tuple[tuple[str, ...], ...]


@dataclass(frozen=True, eq=False)
class RoundState:
    """One truncation round: facets, vertex decorations, truncations.

    Facet names (canonical formal-sum prints) serve as the atoms of both
    hypergraphs; ``facets`` fixes their order.
    """

    base: tuple[str, ...]
    facets: tuple[Multiset, ...]
    vertex_sets: tuple[frozenset[str], ...]
    truncations: Hypergraph
    round_index: int = 1
    trace: tuple[TraceEntry, ...] = ()

    @property
    def facet_names(self) -> tuple[str, ...]:
        return self.truncations.carrier

    def facet(self, name: str) -> Multiset:
        got = {m.text(): m for m in self.facets}.get(name)
        if got is None:
            raise TruncationError(f"unknown facet {name!r}")
        return got


def _edges_of(top: Hypergraph | Iterable) -> list[list[str]]:
    if isinstance(top, Hypergraph):
        return [list(top.sorted_labels(m)) for m in top.edge_masks]
    return [list(e) for e in top]


def _family_key(names: tuple[str, ...]):
    def key(family: frozenset[str]) -> tuple:
        return (len(family), tuple(sorted(names.index(f) for f in family)))

    return key


def make_round(
    base: Iterable[str],
    facets: Iterable[Multiset],
    vertex_sets: Iterable[Iterable[str]],
    truncations: Hypergraph | Iterable,
    *,
    round_index: int = 1,
    trace: tuple[TraceEntry, ...] = (),
) -> RoundState:
    """Validate and assemble a round.

    Checks: facet names distinct, both hypergraphs cover exactly the
    facets, the truncation hypergraph is connected, and every facet lies
    in some vertex decoration.
    """
    base = tuple(base)
    facets = tuple(facets)
    names = tuple(m.text() for m in facets)
    if len(set(names)) != len(names):
        raise TruncationError("facet names collide")
    for m in facets:
        if m.base != base:
            raise TruncationError("facet base mismatch")
    name_set = frozenset(names)

    families = []
    for family in vertex_sets:
        fam = frozenset(family)
        if not fam:
            raise TruncationError("vertex decorations must be non-empty")
        if not fam <= name_set:
            raise TruncationError(f"vertex decoration {sorted(fam)} uses unknown facets")
        if fam not in families:
            families.append(fam)
    for name in names:
        if not any(name in fam for fam in families):
            raise TruncationError(f"facet {name!r} lies in no vertex decoration")

    # rebuild over the facet order so prints are canonical
    try:
        ht = Hypergraph(names, _edges_of(truncations))
    except HypergraphError as exc:
        raise TruncationError(f"truncation hypergraph invalid: {exc}") from exc
    if not ht.connected_mask(ht.full_mask):
        raise TruncationError("truncation hypergraph must be connected")
    families.sort(key=_family_key(names))
    return RoundState(base, facets, tuple(families), ht, round_index, trace)


def simplex_round(base: Iterable[str], truncations: Hypergraph | Iterable) -> RoundState:
    """The initial round: unit facets, one vertex decoration per omitted
    atom, and a caller-chosen truncation hypergraph."""
    base = tuple(base)
    facets = [Multiset.unit(base, a) for a in base]
    families = [frozenset(b for b in base if b != a) for a in base]
    return make_round(base, facets, families, truncations)


# -- taming -------------------------------------------------------------


def complements(s: RoundState) -> list[frozenset[str]]:
    """Complements of the vertex decorations, deduped, in family order."""
    full = frozenset(s.facet_names)
    out: list[frozenset[str]] = []
    for fam in s.vertex_sets:
        c = full - fam
        if c not in out:
            out.append(c)
    return out


def tamed_constructs(s: RoundState) -> list[Construct]:
    """Constructs of the truncation hypergraph whose root contains the
    complement of some vertex decoration."""
    comps = complements(s)
    return [
        t
        for t in enumerate_constructs(s.truncations)
        if any(c <= t.decoration for c in comps)
    ]


def tamed_constructions(s: RoundState) -> list[Construct]:
    """Tamed constructs whose root is exactly a complement and whose
    other nodes are singletons."""
    ht = s.truncations
    roots = [ht.mask(c) for c in complements(s) if c]
    return [validate_construct(ht, t) for t in _rooted(ht, roots, _bits)]


def constrs(s: RoundState) -> list[Construct]:
    """The maximal tamed constructs below the top: one per non-empty
    proper connected subset Y of the truncation hypergraph that fits
    inside a vertex decoration, shaped (H minus Y)(Y)."""
    ht = s.truncations
    full = ht.full_mask
    ys = {
        y
        for fam in s.vertex_sets
        for y in _submasks(ht.mask(fam))
        if y != full and ht.connected_mask(y)
    }
    return [
        Construct(ht.labels(full & ~y), (Construct(ht.labels(y)),))
        for y in sorted(ys, key=ht._edge_key)
    ]


def vertex_family(s: RoundState, construction: Construct) -> frozenset[str]:
    """Flattened image of a tamed construction's nested set, minus the
    carrier, as facet names."""
    full = frozenset(s.facet_names)
    return frozenset(
        mu_sigma([s.facet(n) for n in sub]).text()
        for sub in psi(construction)
        if sub != full
    )


# -- advancing ----------------------------------------------------------


@dataclass(frozen=True)
class RoundTransition:
    """The facets and vertex decorations of the next round, plus any
    constructions that collapsed onto the same decoration."""

    facets: tuple[Multiset, ...]
    vertex_sets: tuple[frozenset[str], ...]
    coincidences: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]


def next_round(s: RoundState) -> RoundTransition:
    """Flatten the decorations of the maximal tamed constructs into the
    next facet set and map each tamed construction to the flattened
    image of its nested set.

    Fails loudly if flattening identifies two distinct subsets, if an
    old facet disappears, or if some new facet lies in no decoration.
    """
    ht = s.truncations
    by_name = {m.text(): m for m in s.facets}
    applied: dict[str, frozenset[str]] = {}
    image_sum: dict[str, Multiset] = {}

    def flatten(sub: frozenset[str]) -> str:
        total = mu_sigma([by_name[n] for n in sub])
        image = total.text()
        prior = applied.setdefault(image, sub)
        if prior != sub:
            raise TruncationError(
                f"flattening is not injective: {{{','.join(sorted(prior))}}} and "
                f"{{{','.join(sorted(sub))}}} both map to {image}"
            )
        image_sum[image] = total
        return image

    images: list[str] = []
    for t in constrs(s):
        image = flatten(t.children[0].decoration)
        if image not in images:
            images.append(image)

    missing = [n for n in s.facet_names if n not in images]
    if missing:
        raise TruncationError(f"facets {missing} do not survive the round")
    new_names = [n for n in images if n not in by_name]
    facets = tuple(image_sum[n] for n in [*s.facet_names, *new_names])

    families: list[frozenset[str]] = []
    sources: dict[frozenset[str], list[str]] = {}
    for t in tamed_constructions(s):
        fam = frozenset(flatten(sub) for sub in psi(t) if sub != frozenset(s.facet_names))
        if not fam <= set(images):
            raise TruncationError(
                f"decoration of {print_construct(ht, t)} leaves the new facet set"
            )
        if fam not in families:
            families.append(fam)
        sources.setdefault(fam, []).append(print_construct(ht, t))

    uncovered = [n for n in images if not any(n in fam for fam in families)]
    if uncovered:
        raise TruncationError(f"new facets {uncovered} lie in no vertex decoration")

    names = tuple(m.text() for m in facets)
    families.sort(key=_family_key(names))
    coincidences = tuple(
        (tuple(sorted(fam, key=names.index)), tuple(sorted(sources[fam])))
        for fam in families
        if len(sources[fam]) > 1
    )
    return RoundTransition(facets, tuple(families), coincidences)


def advance(s: RoundState, truncations: Hypergraph | Iterable) -> RoundState:
    """Advance one round, recording the round just left in the trace."""
    tr = next_round(s)
    entry = TraceEntry(
        s.round_index,
        tuple(tuple(sorted(f, key=s.facet_names.index)) for f in s.vertex_sets),
        tuple(tuple(s.truncations.sorted_labels(m)) for m in s.truncations.edge_masks),
    )
    return make_round(
        s.base,
        tr.facets,
        tr.vertex_sets,
        truncations,
        round_index=s.round_index + 1,
        trace=s.trace + (entry,),
    )


# -- serialization ------------------------------------------------------


def round_state_to_json_dict(s: RoundState) -> dict:
    return {
        "format": 1,
        "base": list(s.base),
        "round": s.round_index,
        "facets": [m.to_json_dict() for m in s.facets],
        "vertex_hypergraph": [
            sorted(f, key=s.facet_names.index) for f in s.vertex_sets
        ],
        "truncation_hypergraph": s.truncations.to_json_dict(),
        "trace": [
            {
                "round": e.round_index,
                "vertex_hypergraph": [list(f) for f in e.vertex_sets],
                "truncation_hypergraph": [list(f) for f in e.truncation_edges],
            }
            for e in s.trace
        ],
    }


def round_state_from_json_dict(data: dict) -> RoundState:
    if not isinstance(data, dict):
        raise TruncationError("round JSON must be an object")
    needed = {"base", "round", "facets", "vertex_hypergraph", "truncation_hypergraph"}
    missing = needed - set(data)
    if missing:
        raise TruncationError(f"round JSON lacks {sorted(missing)}")
    base = tuple(data["base"])
    facets = [Multiset.from_json_dict(base, d) for d in data["facets"]]
    trace = tuple(
        TraceEntry(
            e["round"],
            tuple(tuple(f) for f in e["vertex_hypergraph"]),
            tuple(tuple(f) for f in e["truncation_hypergraph"]),
        )
        for e in data.get("trace", [])
    )
    return make_round(
        base,
        facets,
        data["vertex_hypergraph"],
        Hypergraph.from_json_dict(data["truncation_hypergraph"]),
        round_index=data["round"],
        trace=trace,
    )
