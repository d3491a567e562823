"""Construct trees naming the faces of a hypergraph polytope.

A construct of a connected hypergraph picks a non-empty root decoration Y,
splits the rest of the carrier into the connected components it leaves, and
recurses into each. Constructions (all decorations singletons) name the
vertices. One memoised mask recursion, `_trees`, builds every family:
constructs draw Y from every non-empty subset of the region, while
constructions, spanning partial constructions and the vertices below a
face draw single atoms; the tamed families of a truncation round fix the
root decorations at the top region. Its node builder makes each tree a
Construct, a psi key and its text (`_keyed`), or span masks (next_round).
A Construct node is the tuple (decoration, children, node_count), compared
and hashed by value in C, and unordered.
Three independent implementations of the face order are kept deliberately
separate so their agreement can be tested: `rules` asks whether t lies in
the breadth-first closure of `covers` from s, memoised on the hypergraph,
while `v2` and `v3` recurse over mask records (decoration, span, child
records), one per distinct node, also memoised on the hypergraph, so below
the roots they hash no node. `covers` and psi take spans from one pass that
hashes no node either. The order takes constructs only: a tree with an
Omega leaf raises ConstructError.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from itertools import product
from operator import itemgetter

from .hypergraph import (
    GuardExceeded, Hypergraph, HypergraphError, connected_subset_masks, is_connected,
)


# The default enumeration guard: the most atoms a carrier may have before
# an enumeration refuses it.
MAX_CARRIER = 8


class ConstructError(ValueError):
    """A raw tree is not a construct of the given hypergraph."""


class Construct(tuple):
    """A tree node: the tuple (decoration, children, node_count), so
    equality and the hash are tuple's, by value and computed in C. The node
    count is summed at construction and the span is recomputed on each
    read. Constructs are unordered: `<`, `<=`, `>` and `>=` raise
    TypeError. Only this class reads the items by position."""

    __slots__ = ()

    def __new__(cls, decoration: frozenset[str], children: tuple = ()) -> Construct:
        count = 1
        for c in children:
            count += c.node_count
        return tuple.__new__(cls, (decoration, children, count))

    decoration = property(itemgetter(0), doc="The atoms at this node.")
    children = property(itemgetter(1), doc="The subtrees: Constructs and Omega leaves.")
    node_count = property(itemgetter(2), doc="The number of Construct nodes in the subtree.")

    def __getnewargs__(self):
        return self.decoration, self.children

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(decoration={self.decoration!r}, children={self.children!r})"

    # A tuple base alone would order faces by their decorations. Once any
    # comparison is defined here CPython looks `==` up per call too: still
    # tuple's, in C, but about three times the cost of a plain tuple's.
    def _unordered(self, other):
        return NotImplemented

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    @property
    def span(self) -> frozenset[str]:
        """Union of the non-Omega decorations in the subtree."""
        return self.decoration.union(*(c.span for c in self.children))

    @property
    def is_construction(self) -> bool:
        return len(self.decoration) == 1 and all(
            isinstance(c, Construct) and c.is_construction for c in self.children
        )

    def nodes(self):
        yield self
        for c in self.children:
            if isinstance(c, Construct):
                yield from c.nodes()


@dataclass(frozen=True)
class Omega:
    """Undefined leaf standing for a yet-unbuilt subtree over `carried`."""

    carried: frozenset[str]

    @property
    def span(self) -> frozenset[str]:
        return frozenset()

    @property
    def node_count(self) -> int:
        return 0


def _sort_atoms(node: Construct | Omega) -> frozenset[str]:
    return node.carried if isinstance(node, Omega) else node.span


def make_node(
    h: Hypergraph,
    decoration,
    children: tuple[Construct | Omega, ...] | list = (),
) -> Construct:
    """Build a node with children in canonical order (least atom of the
    atoms they cover, in carrier order)."""
    kids = tuple(sorted(children, key=lambda c: min(map(h._index.__getitem__, _sort_atoms(c)))))
    return Construct(frozenset(decoration), kids)


# -- text syntax -------------------------------------------------------


def print_atom_set(h: Hypergraph, atoms) -> str:
    names = h.sorted_labels(atoms)
    if len(names) == 1:
        return names[0]
    return "{" + ",".join(names) + "}"


def print_construct(h: Hypergraph, t: Construct | Omega) -> str:
    """The text of t under h's carrier order."""
    if isinstance(t, Omega):
        return "?" + print_atom_set(h, t.carried)
    text = print_atom_set(h, t.decoration)
    if t.children:
        text += "(" + ",".join(print_construct(h, c) for c in t.children) + ")"
    return text


def _tokenize(text: str) -> list[str]:
    """The delimiters `{ } ( ) ,` and the labels between them, with the
    whitespace around a delimiter and at the ends dropped and the whitespace
    inside a label kept."""
    return [tok for tok in map(str.strip, re.split(r"([{}(),])", text)) if tok]


def parse_construct(h: Hypergraph, text: str) -> Construct:
    """Parse construct text `{x,y}(z(u),v)`; singleton braces are
    optional, and whitespace is ignored around `{ } ( ) ,` and at the ends
    but belongs to the label it sits inside, as in `a b`. The result is
    validated against h."""
    tokens = _tokenize(text)
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take(expected: str | None = None) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise ConstructError(f"unexpected end of input in {text!r}")
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise ConstructError(f"expected {expected!r}, found {tok!r} in {text!r}")
        pos += 1
        return tok

    def parse_set() -> frozenset[str]:
        if peek() == "{":
            take("{")
            atoms = [take()]
            while peek() == ",":
                take(",")
                atoms.append(take())
            take("}")
        else:
            atoms = [take()]
        for a in atoms:
            if a in "{}(),":
                raise ConstructError(f"bad atom {a!r} in {text!r}")
        return frozenset(atoms)

    def parse_node() -> Construct:
        dec = parse_set()
        kids: list[Construct] = []
        if peek() == "(":
            take("(")
            kids.append(parse_node())
            while peek() == ",":
                take(",")
                kids.append(parse_node())
            take(")")
        return Construct(dec, tuple(kids))

    tree = parse_node()
    if pos != len(tokens):
        raise ConstructError(f"trailing input {tokens[pos:]} in {text!r}")
    return validate_construct(h, tree)


# -- validation and enumeration ---------------------------------------


def validate_construct(h: Hypergraph, t: Construct) -> Construct:
    """Check the inductive definition against h and return the canonical
    form, reusing canonical subtrees. Raises ConstructError at the first offending node."""

    def rec(node: Construct, ambient: int) -> Construct:
        if not isinstance(node, Construct):
            raise ConstructError("Omega leaf in a plain construct")
        if not node.decoration:
            raise ConstructError("empty decoration")
        try:
            dec = h.mask(node.decoration)
            by_span = {h.mask(c.span): c for c in node.children}
        except HypergraphError as err:
            raise ConstructError(str(err)) from None
        if dec & ~ambient:
            extra = h.sorted_labels(dec & ~ambient)
            raise ConstructError(
                f"decoration {print_atom_set(h, node.decoration)} leaves its component (atoms {extra})"
            )
        comps = h.components_mask(ambient & ~dec)
        if len(node.children) != len(comps) or by_span.keys() != set(comps):
            want = [print_atom_set(h, h.labels(c)) for c in comps]
            got = [print_atom_set(h, c.span) for c in node.children]
            raise ConstructError(
                f"children of {print_atom_set(h, node.decoration)} span {got}, "
                f"expected the components {want}"
            )
        kids = tuple(rec(by_span[c], c) for c in comps)
        same = all(a is b for a, b in zip(kids, node.children))
        return node if same else Construct(node.decoration, kids)

    if not is_connected(h):
        raise ConstructError("ambient hypergraph is disconnected")
    return rec(t, h.full_mask)


def _check_size(
    count: int, max_carrier: int | None, noun: str = "carrier", unit: str = "atoms"
) -> None:
    """Refuse an enumeration over more than max_carrier atoms of the carrier,
    which callers may raise, or of a vertex decoration, whose guard is
    MAX_CARRIER."""
    if max_carrier is not None and count > max_carrier:
        hint = "raise the guard explicitly to enumerate" if noun == "carrier" else "this guard is fixed"
        raise GuardExceeded(f"{noun} has {count} {unit}, guard is {max_carrier}; {hint}")


def _check_guard(h: Hypergraph, max_carrier: int | None, family: str) -> None:
    _check_size(len(h.carrier), max_carrier)
    if not is_connected(h):
        raise HypergraphError(f"{family} require a connected hypergraph")


def _submasks(m: int):
    """Every non-empty submask of m, largest first."""
    y = m
    while y:
        yield y
        y = (y - 1) & m


def _bits(m: int):
    """The single bits of m, lowest first."""
    while m:
        bit = m & -m
        yield bit
        m ^= bit


def _bit_indices(m: int):
    """The positions of the set bits of m, lowest first."""
    while m:
        bit = m & -m
        yield bit.bit_length() - 1
        m ^= bit


def _trees(
    h: Hypergraph, ambient: int, decorations, xmask: int, spanned: int, fill, node=None
) -> list:
    """The one tree recursion behind every construct family. A tree over a
    region takes a root decoration from decorations(region & xmask) and a
    subtree over each component it leaves; a component holding no atom of
    xmask is a leaf chosen from fill(component). A family with fixed root
    decorations (the tamed ones) returns them from decorations(ambient).
    Children come in canonical order, by least atom of `spanned` (the
    atoms the trees span; an Omega leaf by least carried atom). node(region,
    y), called once per region and root decoration y, returns the maker of
    each tree from its subtrees, by default Construct(h.labels(y), kids)."""
    if node is None:
        node = lambda region, y: partial(Construct, h.labels(y))
    memo: dict[int, list] = {}

    def order(c: int) -> int:
        k = c & spanned or c
        return k & -k

    def rec(region: int) -> list:
        got = memo.get(region)
        if got is not None:
            return got
        got = []
        for y in decorations(region & xmask):
            parts = [
                rec(c) if c & xmask else fill(c)
                for c in sorted(h.components_mask(region & ~y), key=order)
            ]
            got.extend(map(node(region, y), product(*parts)))
        memo[region] = got
        return got

    return rec(ambient)


def _keyed(h: Hypergraph, decorations, family: str, max_carrier: int | None) -> dict[int, str]:
    """The faces of a family over the whole carrier as psi key -> text, built
    bottom-up with no Construct: a key has one bit per node, the index in
    connected_subset_masks(h) of the region the node spans."""
    _check_guard(h, max_carrier, family)
    bit = {m: 1 << i for i, m in enumerate(connected_subset_masks(h))}

    def node(region: int, y: int):
        own, dec = bit[region], print_atom_set(h, y)

        def make(kids: tuple[tuple[int, str], ...]) -> tuple[int, str]:
            if not kids:
                return own, dec
            keys, texts = zip(*kids)
            return own + sum(keys), dec + "(" + ",".join(texts) + ")"

        return make

    full = h.full_mask
    return dict(_trees(h, full, decorations, full, full, None, node))


def enumerate_constructs(
    h: Hypergraph, *, max_carrier: int | None = MAX_CARRIER
) -> list[Construct]:
    """All constructs of h, each once, in the kernel's order, the same on
    every call."""
    _check_guard(h, max_carrier, "constructs")
    full = h.full_mask
    return _trees(h, full, _submasks, full, full, None)


def enumerate_constructions(
    h: Hypergraph, *, max_carrier: int | None = MAX_CARRIER
) -> list[Construct]:
    """All constructions (every decoration a singleton), each once, in the
    kernel's order, the same on every call."""
    _check_guard(h, max_carrier, "constructions")
    full = h.full_mask
    return _trees(h, full, _bits, full, full, None)


# -- the face order, three ways ----------------------------------------


def _masks(h: Hypergraph, node: Construct) -> tuple[int, int, tuple]:
    """The mask record (decoration mask, span mask, child records) of a
    construct node over h's carrier, memoised on h._mask_cache for leq, so
    each distinct node is converted once. The face order takes constructs
    only: an Omega leaf below node, or an atom outside the carrier, raises
    ConstructError."""
    memo = h._mask_cache
    got = memo.get(node)
    if got is None:
        if not isinstance(node, Construct):
            raise ConstructError("Omega leaf: the face order compares constructs only")
        try:
            dec = h.mask(node.decoration)
        except HypergraphError as err:
            raise ConstructError(str(err)) from None
        kids, span = tuple(map(partial(_masks, h), node.children)), dec
        for kid in kids:
            span |= kid[1]
        got = memo[node] = (dec, span, kids)
    return got


def _span_pass(h: Hypergraph, node: Construct, nodes: list, spans: list) -> int:
    """Append the nodes of node's subtree to nodes in preorder and their
    span masks to spans, and return node's span, hashing no node. Raises
    ConstructError where _masks does."""
    if not isinstance(node, Construct):
        raise ConstructError("Omega leaf: the face order compares constructs only")
    try:
        span = h.mask(node.decoration)
    except HypergraphError as err:
        raise ConstructError(str(err)) from None
    i = len(spans)
    nodes.append(node)
    spans.append(span)
    for c in node.children:
        span |= _span_pass(h, c, nodes, spans)
    spans[i] = span
    return span


def _spans(h: Hypergraph, t: Construct) -> list[int]:
    """psi(t) as masks: the span of each node of t, in preorder."""
    spans: list[int] = []
    _span_pass(h, t, [], spans)
    return spans


def covers(h: Hypergraph, s: Construct) -> list[Construct]:
    """All constructs obtained by contracting exactly one tree edge of s
    (merge a child's decoration into its parent's). Their order is
    deterministic but unspecified. Distinct edges drop distinct spans from
    psi(s), so no cover repeats."""
    nodes, spans = [], []
    _span_pass(h, s, nodes, spans)  # rejects an Omega leaf
    low = {id(node): m & -m for node, m in zip(nodes, spans)}  # s keeps its nodes alive

    def rec(node: Construct) -> list[Construct]:
        kids = node.children
        results = []
        for i, child in enumerate(kids):
            before, after, grand = kids[:i], kids[i + 1 :], child.children
            if not grand:
                results.append(Construct(node.decoration | child.decoration, before + after))
                continue
            # the merged node's children keep their spans, so they go in
            # canonical order by lowest atom
            merged = tuple(sorted(before + after + grand, key=lambda c: low[id(c)]))
            results.append(Construct(node.decoration | child.decoration, merged))
            # a contraction inside a child keeps the child's span, hence its
            # place among the children
            for sub in rec(child):
                results.append(Construct(node.decoration, before + (sub,) + after))
        return results

    return rec(s)


def _up(h: Hypergraph, s: Construct) -> frozenset[Construct]:
    """The faces reachable from s along single-edge contractions, s
    included: one closure of covers, memoised on h for the faces s it is
    asked about. A face whose up-set is already memoised adds that up-set
    whole and is not expanded, since up(v) lies inside up(s) for every v
    in up(s)."""
    memo = h._up_cache
    got = memo.get(s)
    if got is None:
        seen, todo = {s}, [s]
        while todo:
            for v in covers(h, todo.pop()):
                if v not in seen:
                    known = memo.get(v)
                    if known is None:
                        seen.add(v)
                        todo.append(v)
                    else:
                        seen |= known
        got = memo[s] = frozenset(seen)
    return got


def _leq_v2(s: tuple, x: int, kids) -> bool:
    # direct two-clause recursion on the pair: the record s against the
    # face with root decoration mask x and child records kids
    if s[0] & ~x:
        return False
    for child in s[2]:
        k = child[1]
        inside = []
        for c in kids:
            if not c[1] & ~k:
                inside.append(c)
        inter = k & x
        if inter:
            if not _leq_v2(child, inter, inside):
                return False
        else:
            # the whole component sits beside the larger decoration
            if len(inside) != 1:
                return False
            tdec, span, grand = inside[0]
            if span != k or not _leq_v2(child, tdec, grand):
                return False
    return True


def _leq_v3(s: tuple, t: tuple) -> bool:
    # cut the record s along the decoration mask x of t's root; the cut
    # prefix must be a spanning partial construct of x and the hanging
    # subtrees must sit below t's children component by component
    (dec, span, _), x = s, t[0]
    if x == span:
        return True  # one-node maximum of this component
    if dec & ~x or not dec & x:
        return False
    hung: dict[int, tuple] = {}
    hanging = 0
    stack = [s]
    while stack:
        for child in stack.pop()[2]:
            cdec, cspan, _ = child
            if not cspan & x:
                hung[cspan] = child
                hanging |= cspan
            elif cdec & ~x or not cdec & x:
                return False
            else:
                stack.append(child)
    # the prefix decorations must exhaust x
    if span & ~hanging != x:
        return False
    below = {}
    for c in t[2]:
        below[c[1]] = c
    if hung.keys() != below.keys():
        return False
    for k, c in hung.items():
        if not _leq_v3(c, below[k]):
            return False
    return True


def leq(s: Construct, t: Construct, h: Hypergraph, variant: str = "v2") -> bool:
    """Face order: s is a face of t. Variants are independent
    implementations that must agree: `rules` asks whether t is in the
    memoised contraction closure of s, `v2` and `v3` decide on the mask
    records of s and t. Both must be constructs; an Omega leaf raises
    ConstructError."""
    # the only memo lookups: v2 and v3 recurse over the records below
    masks = h._mask_cache
    srec, trec = masks.get(s) or _masks(h, s), masks.get(t) or _masks(h, t)
    if srec[1] != trec[1]:
        raise ConstructError("constructs of different carriers are incomparable")
    if variant == "rules":
        return t in _up(h, s)
    if variant == "v2":
        return _leq_v2(srec, trec[0], trec[2])
    if variant == "v3":
        return _leq_v3(srec, trec)
    raise ValueError(f"unknown variant {variant!r}")


# -- partial constructs and vertices -----------------------------------


def rewrite_step(h: Hypergraph, p: Construct | Omega, x: str, target) -> Construct:
    """Grow the spanned set by one atom of target: the Omega leaf holding x
    is replaced by x with fresh Omega leaves for the parts it separates."""
    tmask = h.mask(target)
    xbit = h.mask([x])
    if not xbit & tmask or xbit & h.mask(p.span):
        raise ConstructError(f"atom {x!r} is not in target minus span")

    def expand(k: frozenset[str]) -> Construct:
        kmask = h.mask(k)
        parts = h.components_mask(kmask & ~xbit)
        return make_node(h, {x}, tuple(Omega(h.labels(m)) for m in parts))

    if isinstance(p, Omega):
        if x not in p.carried:
            raise ConstructError(f"atom {x!r} lies in no Omega leaf")
        return expand(p.carried)

    replaced = False

    def rec(node: Construct) -> Construct:
        nonlocal replaced
        kids = []
        for c in node.children:
            if isinstance(c, Omega) and x in c.carried:
                kids.append(expand(c.carried))
                replaced = True
            elif isinstance(c, Construct):
                kids.append(rec(c))
            else:
                kids.append(c)
        return make_node(h, node.decoration, kids)

    out = rec(p)
    if not replaced:
        raise ConstructError(f"atom {x!r} lies in no Omega leaf")
    return out


def spanning_partial_constructions(h: Hypergraph, x) -> list[Construct]:
    """All rewriting normal forms from the bare Omega over the carrier:
    the partial constructions spanning exactly x, each once, in the
    kernel's order, the same on every call."""
    xmask = h.mask(x)
    if xmask == 0:
        raise HypergraphError("x must be non-empty")
    return _trees(h, h.full_mask, _bits, xmask, xmask, lambda c: (Omega(h.labels(c)),))


def vertices_below(h: Hypergraph, t: Construct) -> list[Construct]:
    """All constructions V <= t, each once, in the kernel's order, the same
    on every call: every node of t becomes a spanning partial construction,
    grafted recursively."""

    def rec(node: Construct) -> tuple[int, list[Construct]]:
        # the span of node as a mask, and the constructions below node
        below = dict(rec(c) for c in node.children)
        dec = h.mask(node.decoration)
        ambient = dec
        for m in below:
            ambient |= m
        return ambient, _trees(h, ambient, _bits, dec, ambient, below.__getitem__)

    return rec(t)[1]
