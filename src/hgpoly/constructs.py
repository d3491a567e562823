"""Construct trees naming the faces of a hypergraph polytope.

A construct of a connected hypergraph picks a non-empty root decoration Y,
splits the rest of the carrier into the connected components it leaves, and
recurses into each. Constructions (all decorations singletons) name the
vertices. One memoised mask recursion, `_trees`, builds every family:
constructs draw Y from every non-empty subset of the region, while
constructions, spanning partial constructions and the vertices below a
face draw single atoms; the tamed families of a truncation round fix the
root decorations at the top region. Its node builder makes each tree a
Construct, a mask record (`_record`), a text with its node count
(`_counted_text`), a text or record with its psi key and, for a
construction, its vertex coordinates (`_keyed_node`), or a decomposition
word, with its tree edges (`operadic._word_head`). Beside it, the face
polynomial (`_face_polynomial`, Postnikov 2009) counts the trees over a
region by node count without building one, for `realization.f_vector`,
`pba.census` and a truncation round's tamed counts. Inside
the library a face is its mask record, the plain tuple (decoration mask,
span mask, child records) with children by lowest atom. A Construct, the
tuple (decoration, children, node_count) over labels and unordered, is
built only at the boundary, and enters the library through one checked
walk, `_checked`, which validates it against h and returns its canonical
form with its record: children may come in any order, and a tree that is
not a construct raises ConstructError.
Three independent implementations of the face order are kept deliberately
separate so their agreement can be tested: `rules` asks whether t lies in
the closure of the record `_covers` from s, while `v2` and `v3` recurse
over the records of s and t. All three read one face table on the
hypergraph, one entry per face met, and `covers` and `vertices_below`
convert their results back at return.
"""

from __future__ import annotations

import re
from functools import cache, partial
from itertools import product
from operator import itemgetter
from typing import NamedTuple

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


class Omega(NamedTuple):
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
    validated against h; nesting deeper than h has atoms is refused."""
    tokens = _tokenize(text)
    tree, pos = _parse_node(h, tokens, 0, text, 1)
    if pos != len(tokens):
        raise ConstructError(f"trailing input {tokens[pos:]} in {text!r}")
    return validate_construct(h, tree)


def _take(tokens: list[str], pos: int, text: str, expected: str | None = None) -> str:
    """The token at pos, which must be expected if that is given."""
    if pos >= len(tokens):
        raise ConstructError(f"unexpected end of input in {text!r}")
    tok = tokens[pos]
    if expected is not None and tok != expected:
        raise ConstructError(f"expected {expected!r}, found {tok!r} in {text!r}")
    return tok


def _parse_set(tokens: list[str], pos: int, text: str) -> tuple[frozenset[str], int]:
    """The atom set at pos, braced or a single label, and the position after it."""
    if pos < len(tokens) and tokens[pos] == "{":
        atoms = [_take(tokens, pos + 1, text)]
        pos += 2
        while pos < len(tokens) and tokens[pos] == ",":
            atoms.append(_take(tokens, pos + 1, text))
            pos += 2
        _take(tokens, pos, text, "}")
        pos += 1
    else:
        atoms = [_take(tokens, pos, text)]
        pos += 1
    for a in atoms:
        if a in "{}(),":
            raise ConstructError(f"bad atom {a!r} in {text!r}")
    return frozenset(atoms), pos


def _parse_node(h: Hypergraph, tokens: list[str], pos: int, text: str, depth: int) -> tuple[Construct, int]:
    """The tree at pos, depth nodes below the top, and the position after it."""
    if depth > len(h.carrier):  # a construct has at most one node per atom
        raise ConstructError(f"nesting deeper than the {len(h.carrier)} atoms of the carrier in {text!r}")
    dec, pos = _parse_set(tokens, pos, text)
    kids: list[Construct] = []
    if pos < len(tokens) and tokens[pos] == "(":
        kid, pos = _parse_node(h, tokens, pos + 1, text, depth + 1)
        kids.append(kid)
        while pos < len(tokens) and tokens[pos] == ",":
            kid, pos = _parse_node(h, tokens, pos + 1, text, depth + 1)
            kids.append(kid)
        _take(tokens, pos, text, ")")
        pos += 1
    return Construct(dec, tuple(kids)), pos


# -- validation and enumeration ---------------------------------------


def validate_construct(h: Hypergraph, t: Construct) -> Construct:
    """Check the inductive definition against h and return the canonical
    form, reusing canonical subtrees. Raises ConstructError at the first offending node."""
    return _checked(h, t)[0]


def _checked(h: Hypergraph, t: Construct) -> tuple[Construct, tuple]:
    """The one walk that turns a Construct into masks: validate_construct's
    check of t against h, returning the canonical form and its mask record
    (decoration mask, span mask, child records in component order)."""
    if not is_connected(h):
        raise ConstructError("ambient hypergraph is disconnected")
    return _checked_node(h, t, h.full_mask)


def _checked_node(h: Hypergraph, node: Construct, ambient: int) -> tuple[Construct, tuple]:
    """_checked below one node, whose subtree must span the mask ambient."""
    if isinstance(node, Omega):
        raise ConstructError("Omega leaf in a plain construct")
    labels, children = node.decoration, node.children
    if not labels:
        raise ConstructError("empty decoration")
    try:
        dec = h.mask(labels)
        by_span = {h.mask(c.span): c for c in children}
    except HypergraphError as err:
        raise ConstructError(str(err)) from None
    if dec & ~ambient:
        extra = h.sorted_labels(dec & ~ambient)
        raise ConstructError(
            f"decoration {print_atom_set(h, labels)} leaves its component (atoms {extra})"
        )
    comps = h.components_mask(ambient & ~dec)
    if len(children) != len(comps) or by_span.keys() != set(comps):
        want = [print_atom_set(h, h.labels(c)) for c in comps]
        got = [print_atom_set(h, c.span) for c in children]
        raise ConstructError(
            f"children of {print_atom_set(h, labels)} span {got}, "
            f"expected the components {want}"
        )
    if not comps:
        return node, (dec, ambient, ())
    trees, records = zip(*[_checked_node(h, by_span[c], c) for c in comps])
    return (node if trees == children else Construct(labels, trees)), (dec, ambient, records)


def _check_size(
    count: int, max_carrier: int | None, noun: str = "carrier", unit: str = "atoms", fixed: bool = False
) -> None:
    """Refuse an enumeration over more than max_carrier atoms or facets; the
    message says whether a flag raises the guard or it is fixed."""
    if max_carrier is not None and count > max_carrier:
        hint = "this guard is fixed" if fixed else "raise the guard explicitly to enumerate"
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
    atoms the trees span; an Omega leaf by least carried atom).
    components_mask gives them by least atom, so they are sorted again only
    where spanned does not cover ambient. node(region, y), called once per
    region and root decoration y, returns the maker of each tree from its
    subtrees, by default Construct(h.labels(y), kids) with one label set
    per decoration y. The trees over each region are built once, by _grown
    on a memo that lives for this call."""
    if node is None:
        labels = cache(h.labels)
        node = lambda region, y: partial(Construct, labels(y))
    order = None
    if ambient & ~spanned:
        def order(c: int) -> int:
            k = c & spanned or c
            return k & -k

    return _grown(h, ambient, {}, decorations, xmask, fill, node, order)


def _grown(h: Hypergraph, region: int, memo: dict, decorations, xmask: int, fill, node, order) -> list:
    """The trees of _trees over region, stored on memo by region, where
    the caller looks a component up before it recurses."""
    got = []
    for y in decorations(region & xmask):
        comps = h.components_mask(region & ~y)
        parts = [
            (memo.get(c) or _grown(h, c, memo, decorations, xmask, fill, node, order))
            if c & xmask else fill(c)
            for c in (sorted(comps, key=order) if order else comps)
        ]
        got.extend(map(node(region, y), product(*parts)))
    memo[region] = got
    return got


def _text(h: Hypergraph):
    """Each tree as its text: a head for _keyed_node, or a _trees node
    builder. Each decoration is spelled once per builder."""
    spell = cache(partial(print_atom_set, h))

    def head(region: int, y: int):
        dec = spell(y)
        opened = dec + "("
        return lambda kids: opened + ",".join(kids) + ")" if kids else dec

    return head


def _counted_text(h: Hypergraph):
    """A _trees node builder for a listing that reads no psi key: each tree
    as (text, node count). Each decoration is spelled once per builder."""
    spell = cache(partial(print_atom_set, h))

    def node(region: int, y: int):
        dec = spell(y)
        opened = dec + "("

        def tree(kids: tuple) -> tuple:
            if len(kids) == 1:  # the commonest shape, as in _keyed_node
                ((text, count),) = kids
                return opened + text + ")", count + 1
            if not kids:
                return dec, 1
            texts, counts = zip(*kids)
            return opened + ",".join(texts) + ")", sum(counts) + 1

        return tree

    return node


def _psi_bits(h: Hypergraph) -> dict[int, int]:
    """Each connected subset mask's bit in a psi key: 1 << its index."""
    return {m: 1 << i for i, m in enumerate(connected_subset_masks(h))}


def _keyed_node(h: Hypergraph, head, coords: bool = False):
    """A _trees node builder: each tree as (head, psi key, packed vertex
    coordinates), head(region, y) making a tree's head from its children's.
    The key has one bit per node, the index in connected_subset_masks(h) of
    its span. With coords, for a family of constructions, a node y over a
    region puts in y's lane 3^|region| minus 3^|C| summed over the
    components C that y leaves: the closed form, computed once per
    (region, y), so a tree's lanes are its vertex. Without, every lane is 0."""
    bit = _psi_bits(h)
    width = (3 ** len(h.carrier)).bit_length()

    def node(region: int, y: int):
        own, make, here = bit[region], head(region, y), 0
        if coords:
            below = sum(3 ** c.bit_count() for c in h.components_mask(region & ~y))
            here = 3 ** region.bit_count() - below << width * (y.bit_length() - 1)

        def tree(kids: tuple) -> tuple:
            if len(kids) == 1:  # the commonest shape, and on a complete graph the only one
                ((first, key, lanes),) = kids
                return make((first,)), own + key, here + lanes
            firsts, keys, lanes = zip(*kids) if kids else ((), (), ())
            return make(firsts), own + sum(keys), here + sum(lanes)

        return tree

    return node


def enumerate_constructs(
    h: Hypergraph, *, max_carrier: int | None = MAX_CARRIER, node=None
) -> list[Construct]:
    """All constructs of h, each once, in the kernel's order, the same on
    every call. The library's record paths pass a _trees node builder to
    get each face built by it instead."""
    _check_guard(h, max_carrier, "constructs")
    full = h.full_mask
    return _trees(h, full, _submasks, full, full, None, node)


def enumerate_constructions(
    h: Hypergraph, *, max_carrier: int | None = MAX_CARRIER, node=None
) -> list[Construct]:
    """All constructions (every decoration a singleton), each once, in the
    kernel's order, the same on every call; node as for enumerate_constructs."""
    _check_guard(h, max_carrier, "constructions")
    full = h.full_mask
    return _trees(h, full, _bits, full, full, None, node)


def _face_term(h: Hypergraph, rest: int, memo: dict[int, list[int]]) -> list[int]:
    """z times the product of the face polynomials of the components of the
    mask rest, coefficients lowest first; the polynomials are kept on memo."""
    out = [0, 1]
    for c in h.components_mask(rest):
        factor = _face_polynomial(h, c, memo)
        prod = [0] * (len(out) + len(factor) - 1)
        for i, a in enumerate(out):
            if a:
                for j, b in enumerate(factor):
                    prod[i + j] += a * b
        out = prod
    return out


def _face_polynomial(h: Hypergraph, region: int, memo: dict[int, list[int]]) -> list[int]:
    """The face polynomial F(S) (Postnikov 2009) of the mask region S,
    coefficients lowest first: its z^k coefficient counts the constructs over
    S with k nodes. It sums _face_term(S - Y) over the non-empty Y in S, and
    is stored on memo by region."""
    got = memo.get(region)
    if got is None:
        got = [0] * (region.bit_count() + 1)
        for y in _submasks(region):
            for k, a in enumerate(_face_term(h, region & ~y, memo)):
                got[k] += a
        memo[region] = got
    return got


# -- the face order, three ways ----------------------------------------


def _record(region: int, y: int):
    """A _trees node builder: each tree as its mask record (y, region, child records)."""
    return lambda kids: (y, region, kids)


def _construct(h: Hypergraph, r: tuple) -> Construct:
    """The Construct of the mask record r, for the public boundary and for witnesses."""
    return Construct(h.labels(r[0]), tuple(_construct(h, k) for k in r[2]))


def _spans(r: tuple) -> list[int]:
    """psi of the face with record r as masks: the span of each node, in preorder."""
    return [r[1]] + [m for k in r[2] for m in _spans(k)]


def _covers(s: tuple) -> list[tuple]:
    """The records of the faces obtained from the record s by contracting
    exactly one tree edge: a child's decoration merges into its parent's.
    They come in preorder of the node below the edge, so the k-th cover
    drops _spans(s)[k + 1] from psi(s) and keeps the rest; distinct edges
    drop distinct spans, so no cover repeats."""
    y, span, kids = s
    results = []
    for i, (cy, _, grand) in enumerate(kids):
        before, after = kids[:i], kids[i + 1 :]
        if not grand:
            results.append((y | cy, span, before + after))
            continue
        # the merged node's children go by lowest atom: the earlier siblings'
        # come before the child's, which is at most its children's
        merged = tuple(sorted(grand + after, key=lambda r: r[1] & -r[1])) if after else grand
        results.append((y | cy, span, before + merged))
        # a contraction inside a child keeps the child's span and place
        for sub in _covers(kids[i]):
            results.append((y, span, before + (sub,) + after))
    return results


def covers(h: Hypergraph, s: Construct) -> list[Construct]:
    """All constructs obtained by contracting exactly one tree edge of s,
    the record `_covers` converted at return. Their order is deterministic
    but unspecified, and no cover repeats."""
    return [_construct(h, r) for r in _covers(_checked(h, s)[1])]


def _up(h: Hypergraph, s: tuple) -> frozenset[tuple]:
    """The records of the faces reachable from the record s along
    single-edge contractions, s included, stored on s's entry in the face
    table h._face_cache. Searches share one record per face and contract each
    face once; a face whose up-set is stored adds it whole, as it lies in up(s)."""
    faces = h._face_cache
    top = faces.setdefault(s, [s, None, None])
    if top[2] is None:
        seen, todo = {top[0]}, [top]
        while todo:
            entry = todo.pop()
            if entry[1] is None:
                entry[1] = [faces.setdefault(v, [v, None, None]) for v in _covers(entry[0])]
            for v in entry[1]:
                if v[0] not in seen:
                    if v[2] is None:
                        seen.add(v[0])
                        todo.append(v)
                    else:
                        seen |= v[2]
        top[2] = frozenset(seen)
    return top[2]


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


def _entry(h: Hypergraph, t: Construct) -> list:
    """leq's miss path: check the Construct t once and key its face's entry on h."""
    r = _checked(h, t)[1]
    return h._mask_cache.setdefault(t, h._face_cache.setdefault(r, [r, None, None]))


def leq(s: Construct, t: Construct, h: Hypergraph, variant: str = "v2") -> bool:
    """Face order: s is a face of t. Variants are independent
    implementations that must agree: `rules` asks whether t's record is in
    the contraction closure of s's, stored on s's entry, `v2` and `v3`
    decide on the mask records of s and t. Both must be constructs of h,
    their children in any order; a tree that is not one raises ConstructError."""
    # the only memo lookups, one face entry per queried face: v2 and v3 recurse below
    masks = h._mask_cache
    s = masks.get(s) or _entry(h, s)
    t = masks.get(t) or _entry(h, t)
    if variant == "rules":
        return t[0] in (s[2] or _up(h, s[0]))
    if variant == "v2":
        return _leq_v2(s[0], t[0][0], t[0][2])
    if variant == "v3":
        return _leq_v3(s[0], t[0])
    raise ValueError(f"unknown variant {variant!r}")


# -- partial constructs and vertices -----------------------------------


def rewrite_step(h: Hypergraph, p: Construct | Omega, x: str, target) -> Construct:
    """Grow the spanned set by one atom of target: the Omega leaf holding x
    is replaced by x with fresh Omega leaves for the parts it separates."""
    tmask = h.mask(target)
    xbit = h.mask([x])
    if not xbit & tmask or xbit & h.mask(p.span):
        raise ConstructError(f"atom {x!r} is not in target minus span")
    if isinstance(p, Omega):
        if x not in p.carried:
            raise ConstructError(f"atom {x!r} lies in no Omega leaf")
        return _expanded(h, p, x)
    out = _rewritten(h, p, x)
    if x not in out.span:  # x is in no decoration of p, so no leaf was expanded
        raise ConstructError(f"atom {x!r} lies in no Omega leaf")
    return out


def _expanded(h: Hypergraph, leaf: Omega, x: str) -> Construct:
    """The Omega leaf holding x as x over a fresh leaf per part it separates."""
    parts = h.components_mask(h.mask(leaf.carried) & ~h.mask([x]))
    return make_node(h, {x}, tuple(Omega(h.labels(m)) for m in parts))


def _rewritten(h: Hypergraph, node: Construct, x: str) -> Construct:
    """node with the Omega leaf below it that holds x expanded, if any."""
    kids = []
    for c in node.children:
        if isinstance(c, Omega) and x in c.carried:
            kids.append(_expanded(h, c, x))
        elif isinstance(c, Construct):
            kids.append(_rewritten(h, c, x))
        else:
            kids.append(c)
    return make_node(h, node.decoration, kids)


def spanning_partial_constructions(h: Hypergraph, x) -> list[Construct]:
    """All rewriting normal forms from the bare Omega over the carrier:
    the partial constructions spanning exactly x, each once, in the
    kernel's order, the same on every call."""
    xmask = h.mask(x)
    if xmask == 0:
        raise HypergraphError("x must be non-empty")
    return _trees(h, h.full_mask, _bits, xmask, xmask, lambda c: (Omega(h.labels(c)),))


def _vertices_below(h: Hypergraph, t: tuple, node=None) -> list:
    """The constructions below the face with record t, each once, in the
    kernel's order: every node of t becomes a spanning partial construction
    over its span, one _trees run whose leaves are the constructions below
    its children, from this function on each child. node goes to _trees."""
    y, span, kids = t
    below = {k[1]: _vertices_below(h, k, node) for k in kids}
    return _trees(h, span, _bits, y, span, below.__getitem__, node)


def vertices_below(h: Hypergraph, t: Construct) -> list[Construct]:
    """All constructions V <= t, each once, in the kernel's order, the same
    on every call, built from t's record as Constructs."""
    return _vertices_below(h, _checked(h, t)[1])
