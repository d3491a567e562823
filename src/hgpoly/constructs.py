"""Construct trees naming the faces of a hypergraph polytope.

A construct of a connected hypergraph picks a non-empty root decoration Y,
splits the rest of the carrier into the connected components it leaves, and
recurses into each. Constructions (all decorations singletons) name the
vertices. One memoised mask recursion, `_trees`, builds every family:
constructs draw Y from every non-empty subset of the region, while
constructions, spanning partial constructions and the vertices below a
face draw single atoms. Three independent implementations of the face
order are kept deliberately separate so their agreement can be tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .hypergraph import GuardExceeded, Hypergraph, HypergraphError, is_connected


class ConstructError(ValueError):
    """A raw tree is not a construct of the given hypergraph."""


@dataclass(frozen=True, slots=True)
class Construct:
    """A tree node; equality and the hash cover only `decoration` and
    `children`. The hash and the span are computed on first use and kept,
    since faces are compared and looked up far more often than built."""

    decoration: frozenset[str]
    children: tuple["Construct | Omega", ...] = ()
    node_count: int = field(init=False, repr=False, compare=False)
    _span: frozenset[str] | None = field(default=None, init=False, repr=False, compare=False)
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "node_count", 1 + sum(c.node_count for c in self.children)
        )

    def __hash__(self) -> int:
        got = self._hash
        if got is None:
            got = hash((self.decoration, self.children))
            object.__setattr__(self, "_hash", got)
        return got

    def __reduce__(self):
        # rebuild through __init__: a hash of str sets is only valid in the
        # process that computed it
        return Construct, (self.decoration, self.children)

    @property
    def span(self) -> frozenset[str]:
        """Union of the non-Omega decorations in the subtree."""
        got = self._span
        if got is None:
            got = self.decoration.union(*(c.span for c in self.children))
            object.__setattr__(self, "_span", got)
        return got

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
    """The text of t under h's carrier order, memoised on h: subtrees are
    shared across faces, so each distinct node is printed once."""
    got = h._text_cache.get(t)
    if got is None:
        if isinstance(t, Omega):
            got = "?" + print_atom_set(h, t.carried)
        else:
            got = print_atom_set(h, t.decoration)
            if t.children:
                got += "(" + ",".join(print_construct(h, c) for c in t.children) + ")"
        h._text_cache[t] = got
    return got


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    buf = ""
    for ch in text:
        if ch.isspace():
            if buf:
                tokens.append(buf)
                buf = ""
        elif ch in "{}(),":
            if buf:
                tokens.append(buf)
                buf = ""
            tokens.append(ch)
        else:
            buf += ch
    if buf:
        tokens.append(buf)
    return tokens


def parse_construct(h: Hypergraph, text: str) -> Construct:
    """Parse construct text `{x,y}(z(u),v)`; singleton braces are
    optional and whitespace is ignored. The result is validated against h."""
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
    form. Raises ConstructError at the first offending node."""

    def rec(node: Construct, ambient: int) -> Construct:
        if not isinstance(node, Construct):
            raise ConstructError("Omega leaf in a plain construct")
        if not node.decoration:
            raise ConstructError("empty decoration")
        try:
            dec = h.mask(node.decoration)
        except HypergraphError as err:
            raise ConstructError(str(err)) from None
        if dec & ~ambient:
            extra = h.sorted_labels(dec & ~ambient)
            raise ConstructError(
                f"decoration {print_atom_set(h, node.decoration)} leaves its component (atoms {extra})"
            )
        comps = h.components_mask(ambient & ~dec)
        spans = [h.mask(c.span) for c in node.children]
        if sorted(spans) != sorted(comps):
            want = [print_atom_set(h, h.labels(c)) for c in comps]
            got = [print_atom_set(h, h.labels(s)) for s in spans]
            raise ConstructError(
                f"children of {print_atom_set(h, node.decoration)} span {got}, "
                f"expected the components {want}"
            )
        by_span = {h.mask(c.span): c for c in node.children}
        return make_node(h, node.decoration, [rec(by_span[c], c) for c in comps])

    if not is_connected(h):
        raise ConstructError("ambient hypergraph is disconnected")
    return rec(t, h.full_mask)


def _check_size(atoms: int, max_carrier: int | None) -> None:
    if max_carrier is not None and atoms > max_carrier:
        raise GuardExceeded(
            f"carrier has {atoms} atoms, guard is {max_carrier}; "
            "raise the guard explicitly to enumerate"
        )


def _check_guard(h: Hypergraph, max_carrier: int | None, family: str) -> None:
    _check_size(len(h.carrier), max_carrier)
    if not is_connected(h):
        raise HypergraphError(f"{family} require a connected hypergraph")


def _sort_key(h: Hypergraph):
    return lambda t: (t.node_count, print_construct(h, t))


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


def _trees(
    h: Hypergraph, ambient: int, decorations, xmask: int, spanned: int, fill
) -> list[Construct]:
    """The one tree recursion behind every construct family. A tree over a
    region takes a root decoration from decorations(region & xmask) and a
    subtree over each component it leaves; a component holding no atom of
    xmask is a leaf chosen from fill(component). Children come in
    canonical order, by least atom of `spanned` (the atoms the trees span;
    an Omega leaf by least carried atom). The list is unsorted."""
    memo: dict[int, list[Construct]] = {}

    def order(c: int) -> int:
        k = c & spanned or c
        return k & -k

    def rec(region: int) -> list[Construct]:
        got = memo.get(region)
        if got is not None:
            return got
        got = []
        for y in decorations(region & xmask):
            parts = [
                rec(c) if c & xmask else fill(c)
                for c in sorted(h.components_mask(region & ~y), key=order)
            ]
            dec = h.labels(y)
            got.extend(Construct(dec, combo) for combo in product(*parts))
        memo[region] = got
        return got

    return rec(ambient)


def _rooted(h: Hypergraph, roots, decorations) -> list[Construct]:
    """The constructs of h whose root decoration is one of the masks in
    roots, root by root in that order. Below the root, each component of
    the rest takes the trees `_trees` draws with `decorations`, by node
    count and then text; a component over 8 atoms (the default guard of
    enumerate_constructs) raises GuardExceeded."""
    key = _sort_key(h)
    below: dict[int, list[Construct]] = {}
    out: list[Construct] = []
    for root in roots:
        parts = []
        for c in h.components_mask(h.full_mask & ~root):
            got = below.get(c)
            if got is None:
                _check_size(c.bit_count(), 8)
                got = below[c] = sorted(_trees(h, c, decorations, c, c, None), key=key)
            parts.append(got)
        dec = h.labels(root)
        out.extend(Construct(dec, combo) for combo in product(*parts))
    return out


def _constructs(h: Hypergraph, max_carrier: int | None) -> list[Construct]:
    """enumerate_constructs without the sort, for callers that only count
    or index the faces."""
    _check_guard(h, max_carrier, "constructs")
    full = h.full_mask
    return _trees(h, full, _submasks, full, full, None)


def enumerate_constructs(h: Hypergraph, *, max_carrier: int | None = 8) -> list[Construct]:
    """All constructs of h, each once, by node count and then text."""
    return sorted(_constructs(h, max_carrier), key=_sort_key(h))


def enumerate_constructions(h: Hypergraph, *, max_carrier: int | None = 8) -> list[Construct]:
    """All constructions (every decoration a singleton), in text order."""
    _check_guard(h, max_carrier, "constructions")
    full = h.full_mask
    return sorted(_trees(h, full, _bits, full, full, None), key=_sort_key(h))


# -- the face order, three ways ----------------------------------------


def covers(h: Hypergraph, s: Construct) -> list[Construct]:
    """All constructs obtained by contracting exactly one tree edge of s
    (merge a child's decoration into its parent's), by node count and then
    text."""
    return sorted(_covers(h, s), key=_sort_key(h))


def _covers(h: Hypergraph, s: Construct) -> list[Construct]:
    """covers(h, s) unsorted, for callers that order the result
    themselves. Distinct edges drop distinct spans from psi(s), so no cover
    repeats."""

    def rec(node: Construct) -> list[Construct]:
        kids = node.children
        results = []
        for i, child in enumerate(kids):
            rest = kids[:i] + kids[i + 1 :]
            results.append(make_node(h, node.decoration | child.decoration, rest + child.children))
            # a contraction inside a child keeps the child's span, hence its
            # place among the children
            for sub in rec(child):
                results.append(Construct(node.decoration, kids[:i] + (sub,) + kids[i + 1 :]))
        return results

    return rec(s)


def covers_memo(h: Hypergraph, s: Construct) -> tuple[Construct, ...]:
    """covers(h, s), memoised on h itself, so the memo is freed with h."""
    got = h._covers_cache.get(s)
    if got is None:
        got = h._covers_cache[s] = tuple(covers(h, s))
    return got


def _leq_rules(h: Hypergraph, s: Construct, t: Construct) -> bool:
    # reachability along single-edge contractions
    if s == t:
        return True
    target_nodes = t.node_count
    frontier = {s}
    seen = {s}
    while frontier:
        nxt = set()
        for u in frontier:
            if u.node_count <= target_nodes:
                continue
            for v in covers_memo(h, u):
                if v == t:
                    return True
                if v not in seen:
                    seen.add(v)
                    nxt.add(v)
        frontier = nxt
    return False


def _leq_v2(h: Hypergraph, s: Construct, t: Construct, memo: dict) -> bool:
    # direct two-clause recursion on the pair
    key = (s, t)
    got = memo.get(key)
    if got is not None:
        return got
    result = True
    if s.decoration - t.decoration:
        result = False
    else:
        xmask = h.mask(t.decoration)
        t_kids = {h.mask(c.span): c for c in t.children}
        for s_child in s.children:
            kmask = h.mask(s_child.span)
            inside = {m: c for m, c in t_kids.items() if not m & ~kmask}
            inter = kmask & xmask
            if inter == 0:
                # the whole component sits beside the larger decoration
                if len(inside) != 1 or next(iter(inside)) != kmask:
                    result = False
                    break
                if not _leq_v2(h, s_child, next(iter(inside.values())), memo):
                    result = False
                    break
            else:
                target = make_node(h, h.labels(inter), tuple(inside.values()))
                if not _leq_v2(h, s_child, target, memo):
                    result = False
                    break
    memo[key] = result
    return result


def _leq_v3(h: Hypergraph, s: Construct, t: Construct) -> bool:
    # cut s along the decoration of t's root; the cut prefix must be a
    # spanning partial construct and the hanging subtrees must sit below
    # t's children component by component
    if len(t.decoration) == len(s.span) and t.decoration == s.span:
        return True  # one-node maximum of this component
    x = t.decoration
    prefix_spans: dict[frozenset[str], Construct] = {}

    def cut(node: Construct) -> bool:
        # True iff node belongs to the prefix; collects hanging subtrees
        if node.decoration & x:
            if node.decoration - x:
                return False
            for child in node.children:
                if isinstance(child, Omega):
                    return False
                if child.span & x:
                    if not cut(child):
                        return False
                else:
                    prefix_spans[child.span] = child
            return True
        return False

    if s.decoration - x or not cut(s):
        return False
    # the prefix decorations must exhaust x
    hung = frozenset().union(*prefix_spans) if prefix_spans else frozenset()
    if s.span - hung != x:
        return False
    t_kids = {c.span: c for c in t.children}
    if set(prefix_spans) != set(t_kids):
        return False
    return all(_leq_v3(h, prefix_spans[k], t_kids[k]) for k in t_kids)


def leq(s: Construct, t: Construct, h: Hypergraph, variant: str = "v2") -> bool:
    """Face order: s is a face of t. Variants are independent
    implementations that must agree."""
    if s.span != t.span:
        raise ConstructError("constructs of different carriers are incomparable")
    if variant == "rules":
        return _leq_rules(h, s, t)
    if variant == "v2":
        return _leq_v2(h, s, t, {})
    if variant == "v3":
        return _leq_v3(h, s, t)
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
    the partial constructions spanning exactly x."""
    xmask = h.mask(x)
    if xmask == 0:
        raise HypergraphError("x must be non-empty")
    states = _trees(h, h.full_mask, _bits, xmask, xmask, lambda c: (Omega(h.labels(c)),))
    return sorted(states, key=_sort_key(h))


def vertices_below(h: Hypergraph, t: Construct) -> list[Construct]:
    """All constructions V with V <= t, built by replacing every node of t
    with a spanning partial construction and grafting recursively."""

    def rec(node: Construct) -> tuple[int, list[Construct]]:
        # the span of node as a mask, and the constructions below node
        below = dict(rec(c) for c in node.children)
        dec = h.mask(node.decoration)
        ambient = dec
        for m in below:
            ambient |= m
        return ambient, _trees(h, ambient, _bits, dec, ambient, below.__getitem__)

    return sorted(rec(t)[1], key=_sort_key(h))
