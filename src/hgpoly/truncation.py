"""Iterated truncation rounds.

A round is a triple: the current facet set (formal sums of the original
atoms, printed like ``2x+y``), the hypergraph of vertex decorations, and
the hypergraph that drives the truncation.  Advancing a round flattens
the decorations of the maximal proper tamed constructs into new facets
and reads the next vertex hypergraph off the tamed constructions.
"""

from collections import namedtuple
from functools import cache, cached_property
from typing import Iterable, NamedTuple

from .constructs import (
    MAX_CARRIER,
    Construct,
    _bit_indices,
    _bits,
    _check_size,
    _checked,
    _construct,
    _face_term,
    _record,
    _spans,
    _submasks,
    _trees,
    print_construct,
)
from .hypergraph import Hypergraph, HypergraphError, _is_format_1, _is_label_list


class TruncationError(ValueError):
    """A round violates its invariants or an advance breaks one."""


# -- formal sums of atoms ----------------------------------------------


def _is_count(value) -> bool:
    """A positive JSON integer; true and false are not counts."""
    return type(value) is int and value > 0


class Multiset(namedtuple("Multiset", "base counts")):
    """A non-empty formal sum over a fixed atom base, e.g. 2x+y: the tuple
    (base, counts)."""

    __slots__ = ()

    def __new__(cls, base: tuple[str, ...], counts: tuple[int, ...]) -> "Multiset":
        if len(base) != len(counts):
            raise TruncationError("counts must run parallel to the base")
        if any(c < 0 for c in counts) or not any(counts):
            raise TruncationError("a formal sum needs positive counts")
        return super().__new__(cls, base, counts)

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
        if not all(map(_is_count, data.values())):
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
    base = parts[0].base
    if any(p.base != base for p in parts):
        raise TruncationError("cannot add formal sums over different bases")
    return Multiset(base, tuple(map(sum, zip(*(p.counts for p in parts)))))


# -- round state --------------------------------------------------------


class TraceEntry(NamedTuple):
    round_index: int
    vertex_sets: tuple[tuple[str, ...], ...]
    truncation_edges: tuple[tuple[str, ...], ...]


class RoundState:
    """One truncation round: facets, vertex decorations, truncations.

    Facet names (canonical formal-sum prints) serve as the atoms of both
    hypergraphs; ``facets`` runs in the order of the truncation carrier.
    """

    def __init__(
        self, base: tuple[str, ...], facets: tuple[Multiset, ...],
        vertex_sets: tuple[frozenset[str], ...], truncations: Hypergraph,
        round_index: int = 1, trace: tuple[TraceEntry, ...] = (),
    ) -> None:
        if tuple(m.text() for m in facets) != truncations.carrier:
            raise TruncationError("facets must run in the order of the truncation carrier")
        self.base, self.facets, self.vertex_sets, self.truncations = base, facets, vertex_sets, truncations
        self.round_index, self.trace = round_index, trace

    @property
    def facet_names(self) -> tuple[str, ...]:
        return self.truncations.carrier

    def facet(self, name: str) -> Multiset:
        i = self.truncations._index.get(name)
        if i is None:
            raise TruncationError(f"unknown facet {name!r}")
        return self.facets[i]

    @cached_property
    def _constr_masks(self) -> list[int]:
        """The masks Y of constrs, in the truncation hypergraph's edge order,
        found once per round and shared by constrs and next_round."""
        ht = self.truncations
        full = ht.full_mask
        ys = {
            y
            for fam in self.vertex_sets
            for y in _submasks(ht.mask(fam))
            if y != full and ht.connected_mask(y)
        }
        return sorted(ys, key=ht._edge_key)


def _edges_of(top: Hypergraph | Iterable) -> list[list[str]]:
    if isinstance(top, Hypergraph):
        return [list(top.sorted_labels(m)) for m in top.edge_masks]
    return [list(e) for e in top]


def _family_key(names: tuple[str, ...]):
    index = {name: i for i, name in enumerate(names)}
    return lambda family: (len(family), sorted(map(index.__getitem__, family)))


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
    name_set = frozenset(names)
    if len(name_set) != len(names):
        raise TruncationError("facet names collide")
    if any(m.base != base for m in facets):
        raise TruncationError("facet base mismatch")

    families = dict.fromkeys(map(frozenset, vertex_sets))
    for fam in families:
        if not fam:
            raise TruncationError("vertex decorations must be non-empty")
        if not fam <= name_set:
            raise TruncationError(f"vertex decoration {sorted(fam)} uses unknown facets")
    covered = set().union(*families)
    for name in names:
        if name not in covered:
            raise TruncationError(f"facet {name!r} lies in no vertex decoration")

    # rebuild over the facet order so prints are canonical
    try:
        ht = Hypergraph(names, _edges_of(truncations))
    except HypergraphError as exc:
        raise TruncationError(f"truncation hypergraph invalid: {exc}") from exc
    if not ht.connected_mask(ht.full_mask):
        raise TruncationError("truncation hypergraph must be connected")
    families = tuple(sorted(families, key=_family_key(names)))
    return RoundState(base, facets, families, ht, round_index, trace)


def simplex_round(base: Iterable[str], truncations: Hypergraph | Iterable) -> RoundState:
    """The initial round: unit facets, one vertex decoration per omitted
    atom, and a caller-chosen truncation hypergraph."""
    base = tuple(base)
    facets = [Multiset.unit(base, a) for a in base]
    families = [frozenset(b for b in base if b != a) for a in base]
    return make_round(base, facets, families, truncations)


# -- taming -------------------------------------------------------------


def _tamed(s: RoundState, grow, decorations, node=None) -> list:
    """One `_trees` run: the top region takes the roots grow(c, fam) gives
    for each vertex decoration fam and its complement c, once each in that
    order; every region below lies inside a vertex decoration and draws from
    decorations; node goes to _trees. A decoration over MAX_CARRIER facets
    raises GuardExceeded."""
    for fam in s.vertex_sets:
        _check_size(len(fam), MAX_CARRIER, "vertex decoration", "facets", fixed=True)
    ht = s.truncations
    full = ht.full_mask
    roots = dict.fromkeys(
        r for fam in map(ht.mask, s.vertex_sets) for r in grow(full & ~fam, fam) if r
    )
    return _trees(ht, full, lambda m: roots if m == full else decorations(m), full, full, None, node)


def tamed_constructs(s: RoundState) -> list[Construct]:
    """Constructs of the truncation hypergraph whose root contains the
    complement of some vertex decoration, each once, in the kernel's
    order, the same on every call. The roots are each complement grown by
    every subset of its decoration; a decoration over MAX_CARRIER facets
    raises GuardExceeded."""
    return _tamed(s, lambda c, fam: (c | y for y in (*_submasks(fam), 0)), _submasks)


def tamed_constructions(s: RoundState) -> list[Construct]:
    """Tamed constructs whose root is exactly a complement and whose
    other nodes are singletons, each once, in the kernel's order, the same
    on every call, under the same guard as tamed_constructs."""
    return _tamed(s, lambda c, fam: (c,), _bits)


def _tamed_counts(s: RoundState) -> tuple[int, int]:
    """len(tamed_constructs(s)) and len(tamed_constructions(s)), built from no
    tree and under no guard. A tamed root leaves some Y inside a decoration, Y
    not all facets, to _face_term(Y) constructs over Y's components; a tamed
    construction leaves a whole decoration to singletons, its top term."""
    ht, memo = s.truncations, {}
    fams = {ht.mask(fam) for fam in s.vertex_sets} - {ht.full_mask}
    ys = {y for fam in map(ht.mask, s.vertex_sets) for y in (*_submasks(fam), 0)} - {ht.full_mask}
    return sum(sum(_face_term(ht, y, memo)) for y in ys), sum(_face_term(ht, f, memo)[-1] for f in fams)


def constrs(s: RoundState) -> list[Construct]:
    """The maximal tamed constructs below the top: one per non-empty
    proper connected subset Y of the truncation hypergraph that fits
    inside a vertex decoration, shaped (H minus Y)(Y)."""
    ht = s.truncations
    return [Construct(ht.labels(ht.full_mask & ~y), (Construct(ht.labels(y)),)) for y in s._constr_masks]


def _sum(s: RoundState, mask: int) -> Multiset:
    """mu_sigma of the facets in a mask over s.truncations (facet i is atom i)."""
    return mu_sigma(map(s.facets.__getitem__, _bit_indices(mask)))


def _flattening(s: RoundState):
    """The round's flattening: the text of _sum(s, mask), memoised per
    mask for one pass over the round. A text reached from a second mask
    raises TruncationError naming the mask flattened first, then the
    second; a fresh memo per pass keeps that from depending on past calls."""
    labels = s.truncations.labels
    preimage: dict[str, int] = {}

    @cache
    def flat(mask: int) -> str:
        text = _sum(s, mask).text()
        prior = preimage.setdefault(text, mask)
        if prior != mask:
            raise TruncationError(
                f"flattening is not injective: {{{','.join(sorted(labels(prior)))}}} and "
                f"{{{','.join(sorted(labels(mask)))}}} both map to {text}"
            )
        return text

    return flat


def _family(ht: Hypergraph, flat, spans) -> frozenset[str]:
    """The flattened nested set of a tree minus the carrier, from its span masks."""
    return frozenset(flat(span) for span in spans if span != ht.full_mask)


def vertex_family(s: RoundState, construction: Construct) -> frozenset[str]:
    """Flattened image of a tamed construction's nested set, minus the
    carrier, as facet names."""
    for name in sorted(construction.span):
        s.facet(name)  # a name outside the facets raises TruncationError
    return _family(s.truncations, _flattening(s), _spans(_checked(s.truncations, construction)[1]))


# -- advancing ----------------------------------------------------------


class RoundTransition(NamedTuple):
    """The facets and vertex decorations of the next round."""

    facets: tuple[Multiset, ...]
    vertex_sets: tuple[frozenset[str], ...]


def next_round(s: RoundState) -> RoundTransition:
    """Flatten the decorations of the maximal tamed constructs into the
    next facet set and map each tamed construction to the flattened
    image of its nested set. psi is injective and so is the flattening
    (a collision raises), so each construction has its own decoration.

    Fails loudly if flattening identifies two distinct subsets, if an
    old facet disappears, or if some new facet lies in no decoration.
    """
    ht = s.truncations
    flat = _flattening(s)
    # each new facet text and the mask it flattens, in constr order
    images: dict[str, int] = {}
    for y in s._constr_masks:
        images.setdefault(flat(y), y)

    missing = [n for n in s.facet_names if n not in images]
    if missing:
        raise TruncationError(f"facets {missing} do not survive the round")
    new = [n for n in images if n not in ht._index]
    facets = s.facets + tuple(_sum(s, images[n]) for n in new)

    # tamed_constructions' decorations off their records' spans
    families: dict[frozenset[str], None] = {}
    for r in _tamed(s, lambda c, fam: (c,), _bits, _record):
        fam = _family(ht, flat, _spans(r))
        if not images.keys() >= fam:
            raise TruncationError(
                f"decoration of {print_construct(ht, _construct(ht, r))} leaves the new facet set"
            )
        families[fam] = None

    covered = set().union(*families)
    uncovered = [n for n in images if n not in covered]
    if uncovered:
        raise TruncationError(f"new facets {uncovered} lie in no vertex decoration")

    names = (*s.facet_names, *new)
    return RoundTransition(facets, tuple(sorted(families, key=_family_key(names))))


def advance(s: RoundState, truncations: Hypergraph | Iterable) -> RoundState:
    """Advance one round, recording the round just left in the trace."""
    tr = next_round(s)
    entry = TraceEntry(
        s.round_index,
        tuple(s.truncations.sorted_labels(f) for f in s.vertex_sets),
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
        "vertex_hypergraph": [list(s.truncations.sorted_labels(f)) for f in s.vertex_sets],
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


def _label_lists(data: dict, key: str, where: str = "round JSON") -> list:
    value = data[key]
    if not isinstance(value, list) or not all(map(_is_label_list, value)):
        raise TruncationError(f"{where} {key!r} must be a list of lists of facet names")
    return value


def _round_index(data: dict, where: str = "round JSON") -> int:
    if not _is_count(data["round"]):
        raise TruncationError(f"{where} 'round' must be a positive integer")
    return data["round"]


def round_state_from_json_dict(data: dict) -> RoundState:
    """Read a round back from round_state_to_json_dict's format, checking
    the type of every field; raises TruncationError on the first bad one."""
    if not isinstance(data, dict):
        raise TruncationError("round JSON must be an object")
    if not _is_format_1(data):
        raise TruncationError("unsupported format version")
    needed = {"base", "round", "facets", "vertex_hypergraph", "truncation_hypergraph"}
    missing = needed - set(data)
    if missing:
        raise TruncationError(f"round JSON lacks {sorted(missing)}")
    if not _is_label_list(data["base"]):
        raise TruncationError("round JSON 'base' must be a list of atom labels")
    if not isinstance(data["facets"], list):
        raise TruncationError("round JSON 'facets' must be a list of counts objects")
    entries = data.get("trace", [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise TruncationError("round JSON 'trace' must be a list of objects")
    base = tuple(data["base"])
    facets = [Multiset.from_json_dict(base, d) for d in data["facets"]]
    trace = []
    for e in entries:
        missing = {"round", "vertex_hypergraph", "truncation_hypergraph"} - set(e)
        if missing:
            raise TruncationError(f"trace entry lacks {sorted(missing)}")
        trace.append(TraceEntry(
            _round_index(e, "trace entry"),
            tuple(map(tuple, _label_lists(e, "vertex_hypergraph", "trace entry"))),
            tuple(map(tuple, _label_lists(e, "truncation_hypergraph", "trace entry"))),
        ))
    return make_round(
        base,
        facets,
        _label_lists(data, "vertex_hypergraph"),
        Hypergraph.from_json_dict(data["truncation_hypergraph"]),
        round_index=_round_index(data),
        trace=tuple(trace),
    )
