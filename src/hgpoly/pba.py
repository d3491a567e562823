"""The permutohedron-based associahedron and its words with holes.

Round one truncates the simplex along the complete graph, giving the
permutohedron; round two truncates along the chain pairs of proper
subset sums.  Faces of the resulting polytope are named by parenthesised
words that mix determined letters with numbered holes, each hole
standing for an unordered bag of letters.
"""

from dataclasses import dataclass, field
from itertools import combinations, permutations
from math import factorial
from typing import Iterable, Sequence

from .constructs import (
    Construct,
    ConstructError,
    _rooted,
    _submasks,
    leq,
    make_node,
    validate_construct,
)
from .hypergraph import Hypergraph, restrict
from .nestedsets import psi
from .truncation import (
    RoundState,
    advance,
    constrs,
    simplex_round,
    tamed_constructions,
)


class PbaError(ValueError):
    """A setup request or a construct falls outside the encoding."""


class HoleWordError(ValueError):
    """A word with holes violates one of its conditions."""


_SUBSCRIPTS = "₀₁₂₃₄₅₆₇₈₉"


def _subscript(number: int) -> str:
    return "".join(_SUBSCRIPTS[int(d)] for d in str(number))


def _letter_index(name: str) -> int:
    return int(name[1:])


# -- words --------------------------------------------------------------


@dataclass(frozen=True)
class HoleWord:
    """A parenthesised word: letter names and 1-based hole numbers as
    tokens, all parenthesis pairs as inclusive token ranges (standard
    brackets included), and the hole map as one letter set per hole."""

    tokens: tuple
    parens: frozenset
    hole_map: tuple

    def text(self, *, ascii_symbols: bool = True, square: bool = True) -> str:
        return word_text(self, ascii_symbols=ascii_symbols, square=square)


def _block_list(tokens: Sequence) -> list[tuple[int, int]]:
    """Maximal runs of equal hole numbers and single letters, as
    (start, end) token ranges."""
    blocks: list[tuple[int, int]] = []
    i = 0
    while i < len(tokens):
        j = i
        if isinstance(tokens[i], int):
            while j + 1 < len(tokens) and tokens[j + 1] == tokens[i]:
                j += 1
        blocks.append((i, j))
        i = j + 1
    return blocks


def _zone_runs(tokens: Sequence) -> list[tuple[int, int]]:
    """Maximal runs of consecutive gaps, one per connected component of
    the named chain; gap g sits between blocks g-1 and g (0-based)."""
    blocks = _block_list(tokens)
    runs: list[tuple[int, int]] = []
    g = 1
    while g < len(blocks):
        h = g
        while h + 1 < len(blocks) and blocks[h][0] == blocks[h][1] \
                and not isinstance(tokens[blocks[h][0]], int):
            h += 1
        runs.append((g, h))
        g = h + 1
    return runs


def _range_of_gaps(tokens: Sequence, lo_gap: int, hi_gap: int) -> tuple[int, int]:
    blocks = _block_list(tokens)
    return (blocks[lo_gap - 1][1], blocks[hi_gap][0])


def _zone_ranges(tokens: Sequence) -> list[tuple[int, int]]:
    return [_range_of_gaps(tokens, a, b) for a, b in _zone_runs(tokens)]


def _std_ranges(tokens: Sequence) -> frozenset:
    """The standard brackets: one per zone, except a zone covering the
    whole word (which happens only for fully determined words)."""
    whole = (0, len(tokens) - 1)
    return frozenset(r for r in _zone_ranges(tokens) if r != whole)


def _node_ranges(tokens: Sequence) -> dict[tuple[int, int], tuple[int, int]]:
    """Every legal parenthesis position: gap intervals inside a single
    zone, mapped from token range to gap interval."""
    out: dict[tuple[int, int], tuple[int, int]] = {}
    whole = (0, len(tokens) - 1)
    for a, b in _zone_runs(tokens):
        for lo in range(a, b + 1):
            for hi in range(lo, b + 1):
                r = _range_of_gaps(tokens, lo, hi)
                if r != whole:
                    out[r] = (lo, hi)
    return out


def standardize_blocks(blocks: Iterable[Iterable[str]]) -> HoleWord:
    """Word and hole map from raw letter blocks: singleton blocks become
    their determined letter, the rest become numbered holes, and the
    standard brackets are placed.  Block contents are taken as given."""
    tokens: list = []
    hole_map: list[frozenset[str]] = []
    for block in blocks:
        letters = sorted(block, key=_letter_index)
        if not letters:
            raise HoleWordError("empty letter block")
        if len(letters) == 1:
            tokens.append(letters[0])
        else:
            hole_map.append(frozenset(letters))
            tokens.extend([len(hole_map)] * len(letters))
    return HoleWord(tuple(tokens), _std_ranges(tokens), tuple(hole_map))


def standardize(universe: Iterable[str], chain: Iterable[Iterable[str]]) -> HoleWord:
    """Standardized word of a chain of letter sets: blocks are the
    successive differences, closed off by the complement."""
    universe = set(universe)
    sets = sorted((frozenset(c) for c in chain), key=len)
    prev: frozenset[str] = frozenset()
    blocks = []
    for s in sets:
        if not prev < s:
            raise HoleWordError(f"not a chain: {sorted(prev)} vs {sorted(s)}")
        if not s <= universe:
            raise HoleWordError(f"chain leaves the letter universe: {sorted(s)}")
        blocks.append(s - prev)
        prev = s
    if prev == universe:
        raise HoleWordError("chain must consist of proper subsets")
    blocks.append(frozenset(universe) - prev)
    return standardize_blocks(blocks)


# -- printing and parsing ------------------------------------------------


def word_text(w: HoleWord, *, ascii_symbols: bool = True, square: bool = True) -> str:
    std = _std_ranges(w.tokens)

    def letter(name: str) -> str:
        return name if ascii_symbols else "x" + _subscript(_letter_index(name))

    def hole(j: int) -> str:
        return f".{j}" if ascii_symbols else "·" + _subscript(j)

    opens: dict[int, list] = {}
    closes: dict[int, list] = {}
    for lo, hi in w.parens:
        opens.setdefault(lo, []).append((lo, hi))
        closes.setdefault(hi, []).append((lo, hi))
    out = []
    for i, tok in enumerate(w.tokens):
        for r in sorted(opens.get(i, []), key=lambda r: -r[1]):
            out.append("[" if square and r in std else "(")
        out.append(hole(tok) if isinstance(tok, int) else letter(tok))
        for r in sorted(closes.get(i, []), key=lambda r: -r[0]):
            out.append("]" if square and r in std else ")")
    word = "".join(out)
    for j, letters in enumerate(w.hole_map, start=1):
        names = ",".join(letter(x) for x in sorted(letters, key=_letter_index))
        word += f"; {hole(j)}={{{names}}}"
    return word


def _normalize_symbols(text: str) -> str:
    for d, sub in enumerate(_SUBSCRIPTS):
        text = text.replace(sub, str(d))
    return text.replace("·", ".")


def _parse_letter_or_hole(text: str, i: int):
    if text[i] == ".":
        j = i + 1
        while j < len(text) and text[j].isdigit():
            j += 1
        if j == i + 1:
            raise HoleWordError(f"bad hole at position {i} in {text!r}")
        return int(text[i + 1:j]), j
    if text[i] == "x":
        j = i + 1
        while j < len(text) and text[j].isdigit():
            j += 1
        if j == i + 1:
            raise HoleWordError(f"bad letter at position {i} in {text!r}")
        return text[i:j], j
    raise HoleWordError(f"unexpected {text[i]!r} in {text!r}")


def parse_word(text: str) -> HoleWord:
    """Parse the word grammar: letters x1..， holes .1.., parentheses
    ( ) and standard brackets [ ], then `; .1={x2,x3}` hole entries.
    UTF-8 middle dots and subscripts are accepted."""
    parts = _normalize_symbols(text).split(";")
    body = parts[0].strip()
    tokens: list = []
    stack: list[tuple[str, int]] = []
    ranges: list[tuple[int, int, bool]] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch.isspace():
            i += 1
        elif ch in "([":
            stack.append((ch, len(tokens)))
            i += 1
        elif ch in ")]":
            if not stack:
                raise HoleWordError(f"unbalanced {ch!r} in {text!r}")
            kind, start = stack.pop()
            if (kind == "(") != (ch == ")"):
                raise HoleWordError(f"mismatched {kind!r}...{ch!r} in {text!r}")
            if start >= len(tokens):
                raise HoleWordError(f"empty parentheses in {text!r}")
            ranges.append((start, len(tokens) - 1, kind == "["))
            i += 1
        else:
            tok, i = _parse_letter_or_hole(body, i)
            tokens.append(tok)
    if stack:
        raise HoleWordError(f"unbalanced {stack[-1][0]!r} in {text!r}")
    if not tokens:
        raise HoleWordError("empty word")

    hole_map: dict[int, frozenset[str]] = {}
    for entry in parts[1:]:
        entry = entry.strip()
        eq = entry.find("=")
        if eq < 0 or not entry[eq + 1:].startswith("{") or not entry.endswith("}"):
            raise HoleWordError(f"bad hole entry {entry!r}")
        tok, end = _parse_letter_or_hole(entry, 0)
        if not isinstance(tok, int) or entry[end:eq].strip():
            raise HoleWordError(f"bad hole entry {entry!r}")
        letters = []
        for name in entry[eq + 2:-1].split(","):
            name = name.strip()
            if not name:
                raise HoleWordError(f"bad letter in hole entry {entry!r}")
            lt, lend = _parse_letter_or_hole(name, 0)
            if isinstance(lt, int) or lend != len(name):
                raise HoleWordError(f"bad letter in hole entry {entry!r}")
            letters.append(lt)
        if tok in hole_map:
            raise HoleWordError(f"hole .{tok} mapped twice")
        hole_map[tok] = frozenset(letters)

    numbers = sorted({t for t in tokens if isinstance(t, int)})
    if numbers != list(range(1, len(numbers) + 1)):
        raise HoleWordError(f"holes must be numbered 1.. in {text!r}")
    if sorted(hole_map) != numbers:
        raise HoleWordError(f"hole entries must cover exactly .1..{len(numbers)}")

    whole = (0, len(tokens) - 1)
    seen: set[tuple[int, int]] = set()
    parens: set[tuple[int, int]] = set()
    std = _std_ranges(tokens)
    for lo, hi, is_square in ranges:
        if (lo, hi) in seen:
            raise HoleWordError(f"duplicate parentheses in {text!r}")
        seen.add((lo, hi))
        if is_square and (lo, hi) not in std:
            raise HoleWordError(f"[{lo},{hi}] is not a standard bracket in {text!r}")
        if (lo, hi) != whole:
            parens.add((lo, hi))
    return HoleWord(tuple(tokens), frozenset(parens), tuple(hole_map[j] for j in numbers))


# -- validity ------------------------------------------------------------


def validate_word(universe: Iterable[str], w: HoleWord) -> None:
    """The conditions a pair (word, hole map) must satisfy: letters at
    most once, hole blocks contiguous and in order with matching sizes,
    hole sets and determined letters partitioning the universe, and all
    parentheses standard or inside a standard scope."""
    universe = set(universe)
    letters = [t for t in w.tokens if not isinstance(t, int)]
    if len(set(letters)) != len(letters):
        raise HoleWordError("a determined letter appears twice")
    unknown = set(letters) - universe
    if unknown:
        raise HoleWordError(f"letters outside the universe: {sorted(unknown)}")

    numbers = [t for t in w.tokens if isinstance(t, int)]
    blocks = _block_list(w.tokens)
    hole_blocks = [w.tokens[lo] for lo, hi in blocks if isinstance(w.tokens[lo], int)]
    if hole_blocks != sorted(set(numbers)):
        raise HoleWordError("hole occurrences must form one block per hole, in order")
    if hole_blocks != list(range(1, len(w.hole_map) + 1)):
        raise HoleWordError("holes must be numbered 1.. matching the hole map")
    for lo, hi in blocks:
        if isinstance(w.tokens[lo], int):
            if hi - lo + 1 != len(w.hole_map[w.tokens[lo] - 1]):
                raise HoleWordError(
                    f"hole .{w.tokens[lo]} occurs {hi - lo + 1} times for "
                    f"{len(w.hole_map[w.tokens[lo] - 1])} letters"
                )

    parts = [frozenset({x}) for x in letters] + list(w.hole_map)
    if any(len(p) < 2 for p in w.hole_map):
        raise HoleWordError("every hole must stand for at least two letters")
    if sum(len(p) for p in parts) != len(universe) or set().union(*parts, frozenset()) != universe:
        raise HoleWordError("hole sets and determined letters must partition the letters")

    std = _std_ranges(w.tokens)
    missing = std - w.parens
    if missing:
        skeleton = HoleWord(w.tokens, std, w.hole_map)
        raise HoleWordError(
            "missing standard bracket: the standardization is "
            + skeleton.text(ascii_symbols=True, square=True)
        )
    legal = _node_ranges(w.tokens)
    for r in w.parens:
        if r not in legal:
            raise HoleWordError(f"parentheses at tokens {r} do not fit the word")
    for r, s in combinations(sorted(w.parens), 2):
        if r[0] < s[0] <= r[1] < s[1]:
            raise HoleWordError(f"parentheses {r} and {s} cross")


# -- setup ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PbaSetup:
    """Both truncation rounds for n+1 letters, with the round-two state
    carrying the subset-sum facets."""

    n: int
    letters: tuple[str, ...]
    round1: RoundState
    state: RoundState
    # word -> (its construct, the construct's nested set), filled by word_leq
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def hypergraph(self) -> Hypergraph:
        return self.state.truncations

    def name_of(self, letters: Iterable[str]) -> str:
        got = sorted(letters, key=_letter_index)
        if not got:
            raise PbaError("empty letter set has no facet")
        return "+".join(got)

    def letters_of(self, name: str) -> frozenset[str]:
        return frozenset(name.split("+"))


def x_sigma(setup: PbaSetup, order: Sequence[str]) -> frozenset[str]:
    """The proper prefix sums of a letter order, as facet names."""
    if sorted(order) != sorted(setup.letters):
        raise PbaError(f"not an ordering of the letters: {order}")
    return frozenset(
        setup.name_of(order[: k + 1]) for k in range(setup.n)
    )


def pba_setup(n: int, *, max_n: int = 4) -> PbaSetup:
    """Build both rounds and verify the permutohedron facts: round-one
    constrs are the proper non-empty subsets and round-one tamed
    constructions biject with the letter orderings."""
    if n < 1:
        raise PbaError("need at least two letters")
    if n > max_n:
        raise PbaError(f"n={n} exceeds the guard ({max_n}); raise max_n to override")
    letters = tuple(f"x{i}" for i in range(1, n + 2))
    complete = [[a] for a in letters] + [list(p) for p in combinations(letters, 2)]
    round1 = simplex_round(letters, complete)

    ys = {t.children[0].decoration for t in constrs(round1)}
    proper = {
        frozenset(c)
        for k in range(1, n + 1)
        for c in combinations(letters, k)
    }
    if ys != proper:
        raise PbaError("round-one constrs are not the proper non-empty subsets")
    if len(tamed_constructions(round1)) != factorial(n + 1):
        raise PbaError("round-one constructions do not count the orderings")

    def name(group: Iterable[str]) -> str:
        return "+".join(sorted(group, key=_letter_index))

    edges = [[name(c)] for c in proper]
    for c in proper:
        for extra in letters:
            if extra not in c and len(c) < n:
                edges.append([name(c), name(set(c) | {extra})])
    if n == 1:
        # two facets and no subset pair: close the carrier to stay connected
        edges.append([letters[0], letters[1]])
    state = advance(round1, edges)

    expected = {
        frozenset(name(order[: k + 1]) for k in range(n))
        for order in permutations(letters)
    }
    if set(state.vertex_sets) != expected:
        raise PbaError("round-two vertex decorations are not the prefix chains")
    return PbaSetup(n, letters, round1, state)


def _chain_of(setup: PbaSetup, names: Iterable[str]) -> list[frozenset[str]]:
    sets = sorted((setup.letters_of(n) for n in names), key=len)
    for a, b in zip(sets, sets[1:]):
        if not a < b:
            raise PbaError(
                f"decorations {setup.name_of(a)} and {setup.name_of(b)} do not chain"
            )
    return sets


# -- encoding ------------------------------------------------------------


def encode(setup: PbaSetup, t: Construct) -> HoleWord:
    """Word of a tamed construct: standardize the chain named by the
    root complement, then add one parenthesis pair per node of the
    children, placed over the zone letters it spans."""
    ht = setup.hypergraph
    t = validate_construct(ht, t)
    carrier = frozenset(ht.carrier)
    y_names = carrier - t.decoration
    chain = _chain_of(setup, y_names)

    prev: frozenset[str] = frozenset()
    blocks = []
    for s in chain:
        blocks.append(s - prev)
        prev = s
    blocks.append(frozenset(setup.letters) - prev)
    skeleton = standardize_blocks(blocks)
    tokens = skeleton.tokens

    gap_name = {}
    for g, s in enumerate(chain, start=1):
        gap_name[setup.name_of(s)] = g
    whole = (0, len(tokens) - 1)
    parens = set(skeleton.parens)

    def walk(node: Construct) -> None:
        gaps = [gap_name[name] for name in node.span]
        r = _range_of_gaps(tokens, min(gaps), max(gaps))
        if r != whole:
            parens.add(r)
        for child in node.children:
            walk(child)

    for child in t.children:
        walk(child)
    return HoleWord(tokens, frozenset(parens), skeleton.hole_map)


def encode_via_order(setup: PbaSetup, t: Construct, order: Sequence[str]) -> HoleWord:
    """The same word synthesized through one compatible letter order:
    re-root the construct on the order's prefix chain and read each
    node as a parenthesis over letter positions.  Must agree with
    encode for every compatible order."""
    ht = setup.hypergraph
    t = validate_construct(ht, t)
    y_names = frozenset(ht.carrier) - t.decoration
    sigma = x_sigma(setup, order)
    if not y_names <= sigma:
        raise PbaError("order is not compatible with the root complement")
    path = restrict(ht, sigma)
    if y_names < sigma:
        re_rooted = validate_construct(
            path, make_node(path, sigma - y_names, list(t.children))
        )
    else:
        # fully determined: the single child already spans the chain
        re_rooted = validate_construct(path, t.children[0])

    prefix_gap = {
        setup.name_of(order[: k + 1]): k + 1 for k in range(setup.n)
    }
    blocks = []
    current: list[str] = []
    for k, letter in enumerate(order):
        current.append(letter)
        if k == setup.n or setup.name_of(order[: k + 1]) in y_names:
            blocks.append(frozenset(current))
            current = []
    skeleton = standardize_blocks(blocks)
    tokens = skeleton.tokens
    whole = (0, len(tokens) - 1)
    parens = set(skeleton.parens)

    def walk(node: Construct) -> None:
        gaps = [prefix_gap[name] for name in node.span]
        r = (min(gaps) - 1, max(gaps))
        if r != whole:
            parens.add(r)
        for child in node.children:
            walk(child)

    for child in re_rooted.children:
        walk(child)
    return HoleWord(tokens, frozenset(parens), skeleton.hole_map)


def decode(setup: PbaSetup, w: HoleWord) -> Construct:
    """Inverse of encode: the blocks name a chain, the zones name the
    components, and the parentheses inside each zone rebuild a tree."""
    validate_word(setup.letters, w)
    ht = setup.hypergraph
    tokens = w.tokens
    blocks = _block_list(tokens)

    union: set[str] = set()
    gap_atoms: list[str] = []
    for lo, hi in blocks[:-1]:
        tok = tokens[lo]
        union |= w.hole_map[tok - 1] if isinstance(tok, int) else {tok}
        gap_atoms.append(setup.name_of(union))
    root = frozenset(ht.carrier) - set(gap_atoms)

    legal = _node_ranges(tokens)
    children = []
    for zone_lo, zone_hi in _zone_runs(tokens):
        zone_range = _range_of_gaps(tokens, zone_lo, zone_hi)
        inside = [
            r
            for r in w.parens
            if zone_range[0] <= r[0] and r[1] <= zone_range[1] and r != zone_range
        ]
        inside.sort(key=lambda r: (r[1] - r[0], r))

        def build(r: tuple[int, int], pool: list) -> Construct:
            lo, hi = legal[r] if r in legal else (zone_lo, zone_hi)
            here = [s for s in pool if r[0] <= s[0] and s[1] <= r[1] and s != r]
            top = [
                s
                for s in here
                if not any(u != s and u[0] <= s[0] and s[1] <= u[1] for u in here)
            ]
            kids = [build(s, here) for s in top]
            taken: set[str] = set()
            for kid in kids:
                taken |= kid.span
            dec = frozenset(gap_atoms[g - 1] for g in range(lo, hi + 1)) - taken
            if not dec:
                raise HoleWordError(
                    f"parentheses at tokens {r} leave an empty decoration"
                )
            return make_node(ht, dec, kids)

        children.append(build(zone_range, inside))

    try:
        return validate_construct(ht, make_node(ht, root, children))
    except ConstructError as exc:
        raise HoleWordError(f"word does not name a construct: {exc}") from exc


# -- faces and order ------------------------------------------------------


def _proper_chains(setup: PbaSetup) -> list[tuple[frozenset[str], ...]]:
    subsets = [
        frozenset(c)
        for k in range(1, setup.n + 1)
        for c in combinations(setup.letters, k)
    ]
    subsets.sort(key=lambda s: (len(s), sorted(s, key=_letter_index)))
    chains: list[tuple[frozenset[str], ...]] = [()]
    frontier: list[tuple[frozenset[str], ...]] = [()]
    while frontier:
        nxt = []
        for chain in frontier:
            for s in subsets:
                if not chain or chain[-1] < s:
                    nxt.append(chain + (s,))
        chains.extend(nxt)
        frontier = nxt
    return chains


def face_constructs(setup: PbaSetup) -> list[Construct]:
    """Every tamed construct, one per face: a root holding the complement
    of a proper chain, over the constructs of the chain's runs (the
    components the root leaves)."""
    ht = setup.hypergraph
    roots = [
        ht.full_mask & ~ht.mask(map(setup.name_of, chain)) for chain in _proper_chains(setup)
    ]
    return _rooted(ht, roots, _submasks)


def face_words(setup: PbaSetup) -> list[HoleWord]:
    return [encode(setup, t) for t in face_constructs(setup)]


def _decoded(setup: PbaSetup, w: HoleWord) -> tuple[Construct, frozenset]:
    """decode(setup, w) and its nested set, memoised on the setup itself,
    so the memo is freed with the setup."""
    got = setup._memo.get(w)
    if got is None:
        t = decode(setup, w)
        got = setup._memo[w] = (t, psi(t))
    return got


def word_leq(setup: PbaSetup, a: HoleWord, b: HoleWord, *, variant: str = "psi") -> bool:
    """Face order on words, decided through decoding.  The default
    compares nested sets (the order's characterization); other variants
    are passed through to the construct order directly."""
    (s, s_nested), (t, t_nested) = _decoded(setup, a), _decoded(setup, b)
    if variant == "psi":
        return t_nested <= s_nested
    return leq(s, t, setup.hypergraph, variant=variant)


# -- the direct order rules (kept as a cross-check) -----------------------


def rule_upsteps(setup: PbaSetup, w: HoleWord) -> list[HoleWord]:
    """One-step predecessors-to-successors of the two word order rules:
    drop one non-standard parenthesis pair, or merge two adjacent
    blocks into a hole with the word inheriting the parentheses."""
    validate_word(setup.letters, w)
    ups: list[HoleWord] = []
    std = _std_ranges(w.tokens)
    for r in sorted(w.parens - std):
        ups.append(HoleWord(w.tokens, w.parens - {r}, w.hole_map))

    blocks = _block_list(w.tokens)
    for j in range(len(blocks) - 1):
        merged: list = list(w.tokens)
        lo = blocks[j][0]
        hi = blocks[j + 1][1]
        letters: set[str] = set()
        for pos in range(lo, hi + 1):
            tok = w.tokens[pos]
            letters |= w.hole_map[tok - 1] if isinstance(tok, int) else {tok}
        hole_sets: list[frozenset[str]] = []
        for blo, bhi in blocks:
            if blo == lo:
                hole_sets.append(frozenset(letters))
                number = len(hole_sets)
                for pos in range(lo, hi + 1):
                    merged[pos] = number
            elif not (lo <= blo <= hi) and isinstance(w.tokens[blo], int):
                hole_sets.append(w.hole_map[w.tokens[blo] - 1])
                for pos in range(blo, bhi + 1):
                    merged[pos] = len(hole_sets)
        merged_tokens = tuple(merged)
        new_std = _std_ranges(merged_tokens)
        legal = set(_node_ranges(merged_tokens))
        required = w.parens - std
        if not required <= legal:
            continue
        free = sorted(r for r in (w.parens & std) if r in legal)
        for k in range(1 << len(free)):
            chosen = {free[i] for i in range(len(free)) if k >> i & 1}
            candidate = frozenset(required | chosen)
            if not new_std <= candidate:
                continue
            if candidate | std != w.parens:
                continue
            ups.append(HoleWord(merged_tokens, candidate, tuple(hole_sets)))

    seen: set[HoleWord] = set()
    unique = []
    for u in ups:
        if u not in seen:
            seen.add(u)
            unique.append(u)
    return unique


def rule_closure_leq(setup: PbaSetup, a: HoleWord, b: HoleWord, *, limit: int = 10000) -> bool:
    """Reflexive-transitive closure of the two word order rules."""
    if a == b:
        return True
    seen = {a}
    frontier = [a]
    while frontier:
        if len(seen) > limit:
            raise PbaError("rule closure exceeded its search limit")
        nxt = []
        for w in frontier:
            for u in rule_upsteps(setup, w):
                if u == b:
                    return True
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return False


# -- census ----------------------------------------------------------------


@dataclass(frozen=True)
class PbaCensus:
    vertices: int
    edges: int
    facets: int
    faces: int
    facet_profiles: tuple[tuple[tuple[int, ...], int], ...]


def census(setup: PbaSetup) -> PbaCensus:
    """Face counts by dimension plus facet counts keyed by the sorted
    letter-block sizes of their words (for three dimensions: pentagons
    (1,1,1,1), rectangles (1,1,2), dodecagons (1,3), octagons (2,2))."""
    faces = face_constructs(setup)
    by_nodes: dict[int, int] = {}
    profiles: dict[tuple[int, ...], int] = {}
    for t in faces:
        count = t.node_count
        by_nodes[count] = by_nodes.get(count, 0) + 1
        if count == 2:
            w = encode(setup, t)
            profile = tuple(sorted(hi - lo + 1 for lo, hi in _block_list(w.tokens)))
            profiles[profile] = profiles.get(profile, 0) + 1
    return PbaCensus(
        vertices=by_nodes.get(setup.n + 1, 0),
        edges=by_nodes.get(setup.n, 0),
        facets=by_nodes.get(2, 0),
        faces=len(faces),
        facet_profiles=tuple(sorted(profiles.items())),
    )
