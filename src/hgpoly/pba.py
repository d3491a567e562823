"""The permutohedron-based associahedron and its words with holes.

Round one truncates the simplex along the complete graph, giving the
permutohedron; round two truncates along the chain pairs of proper
subset sums.  Faces of the resulting polytope are named by parenthesised
words that mix determined letters with numbered holes, each hole
standing for an unordered bag of letters.
"""

from functools import lru_cache
from itertools import accumulate, combinations, permutations
from math import factorial
from operator import or_
from typing import Iterable, NamedTuple, Sequence

from .constructs import (
    Construct,
    ConstructError,
    _bit_indices,
    _checked,
    _face_term,
    _spans,
    _submasks,
    leq,
    validate_construct,
)
from .hypergraph import Hypergraph, InvariantError, restrict
from .nestedsets import _tree_of, psi
from .truncation import RoundState, advance, constrs, simplex_round, tamed_constructs


# The default setup guard: the largest n that pba_setup builds unasked.
MAX_N = 4

# The most words rule_closure_leq may reach before it gives up.
RULE_CLOSURE_LIMIT = 10000


class PbaError(ValueError):
    """A setup request or a construct falls outside the encoding."""


class HoleWordError(ValueError):
    """A word with holes violates one of its conditions."""


_SUBSCRIPTS = "₀₁₂₃₄₅₆₇₈₉"


def _subscript(number: int) -> str:
    return "".join(_SUBSCRIPTS[int(d)] for d in str(number))


def _letter_index(name: str) -> int:
    return int(name[1:])


def _name(letters: Iterable[str]) -> str:
    """The facet name of a letter set: its letters in index order, joined by +."""
    return "+".join(sorted(letters, key=_letter_index))


# -- words --------------------------------------------------------------


class HoleWord(NamedTuple):
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


def _zones(tokens: Sequence, blocks: list | None = None) -> list[tuple[int, list[int]]]:
    """The zones of a word, as (first gap, cut points). Gap g sits between
    blocks g-1 and g (0-based, see _block_list); a zone is a maximal run of
    consecutive gaps with only determined letters between them, one per
    connected component of the named chain. Its cut points are the last
    token of the block before its first gap, then the first token of the
    block after each gap, so its gaps lo..hi span the tokens
    cuts[lo-first]..cuts[hi-first+1]. blocks, if given, are _block_list(tokens)."""
    zones: list[tuple[int, list[int]]] = []
    for g, (start, end) in enumerate(_block_list(tokens) if blocks is None else blocks):
        if g:
            zones[-1][1].append(start)
        if not g or isinstance(tokens[start], int):  # a hole ends the zone before it
            zones.append((g + 1, [end]))
    if len(zones[-1][1]) == 1:  # the last block opened a zone with no gap
        zones.pop()
    return zones


def _std_ranges(tokens: Sequence, zones: list | None = None) -> frozenset:
    """The standard brackets: one per zone (zones, if given), except a zone
    covering the whole word (which happens only for fully determined words)."""
    whole = (0, len(tokens) - 1)
    zones = _zones(tokens) if zones is None else zones
    return frozenset((cuts[0], cuts[-1]) for _, cuts in zones) - {whole}


def _node_ranges(tokens: Sequence, zones: list | None = None) -> dict:
    """Every legal parenthesis position: gap intervals inside a single
    zone, mapped from token range to gap interval; zones as for _std_ranges."""
    whole = (0, len(tokens) - 1)
    out = {
        (cuts[i], cuts[j]): (first + i, first + j - 1)
        for first, cuts in (_zones(tokens) if zones is None else zones)
        for i, j in combinations(range(len(cuts)), 2)
    }
    out.pop(whole, None)
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
    """The hole .N or the letter xN at text[i], and the index after it."""
    if text[i] not in ".x":
        raise HoleWordError(f"unexpected {text[i]!r} in {text!r}")
    j = i + 1
    while j < len(text) and text[j].isdigit():
        j += 1
    if j == i + 1:
        raise HoleWordError(f"bad {'hole' if text[i] == '.' else 'letter'} at position {i} in {text!r}")
    return (int(text[i + 1:j]) if text[i] == "." else text[i:j]), j


def parse_word(text: str) -> HoleWord:
    """Parse the word grammar: letters x1.., holes .1.., parentheses
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


def validate_word(universe: Iterable[str], w: HoleWord) -> tuple[list, list, dict]:
    """The conditions a pair (word, hole map) must satisfy: letters at
    most once, hole blocks contiguous and in order with matching sizes,
    hole sets and determined letters partitioning the universe, and all
    parentheses standard or inside a standard scope. Returns the word's
    blocks, zones and legal parenthesis positions, each derived once."""
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

    zones = _zones(w.tokens, blocks)
    std = _std_ranges(w.tokens, zones)
    missing = std - w.parens
    if missing:
        skeleton = HoleWord(w.tokens, std, w.hole_map)
        raise HoleWordError(
            "missing standard bracket: the standardization is "
            + skeleton.text(ascii_symbols=True, square=True)
        )
    legal = _node_ranges(w.tokens, zones)
    for r in w.parens:
        if r not in legal:
            raise HoleWordError(f"parentheses at tokens {r} do not fit the word")
    for r, s in combinations(sorted(w.parens), 2):
        if r[0] < s[0] <= r[1] < s[1]:
            raise HoleWordError(f"parentheses {r} and {s} cross")
    return blocks, zones, legal


# -- setup ---------------------------------------------------------------


class PbaSetup:
    """Both truncation rounds for n+1 letters, with the round-two state
    carrying the subset-sum facets."""

    def __init__(self, n: int, letters: tuple[str, ...], round1: RoundState, state: RoundState) -> None:
        self.n, self.letters, self.round1, self.state = n, letters, round1, state
        # word -> (its construct, the construct's nested set), filled by word_leq
        self._memo: dict = {}

    @property
    def hypergraph(self) -> Hypergraph:
        return self.state.truncations

    def name_of(self, letters: Iterable[str]) -> str:
        got = _name(letters)
        if not got:
            raise PbaError("empty letter set has no facet")
        return got

    def letters_of(self, name: str) -> frozenset[str]:
        return frozenset(name.split("+"))


def x_sigma(setup: PbaSetup, order: Sequence[str]) -> frozenset[str]:
    """The proper prefix sums of a letter order, as facet names."""
    if sorted(order) != sorted(setup.letters):
        raise PbaError(f"not an ordering of the letters: {order}")
    return frozenset(
        setup.name_of(order[: k + 1]) for k in range(setup.n)
    )


def pba_setup(n: int, *, max_n: int = MAX_N) -> PbaSetup:
    """Both rounds, built once per n per process and shared, with the
    permutohedron facts checked: round-one constrs are the proper non-empty
    subsets, the round-two vertex decorations (one per round-one tamed
    construction) count the orderings and are the prefix chains. A failed
    fact raises InvariantError on every call; n outside 1..max_n, PbaError."""
    if n < 1:
        raise PbaError("need at least two letters")
    if n > max_n:
        raise PbaError(f"n={n} exceeds the guard ({max_n}); raise max_n to override")
    return _build_setup(n)


@lru_cache(maxsize=MAX_N)
def _build_setup(n: int) -> PbaSetup:
    letters = tuple(f"x{i}" for i in range(1, n + 2))
    complete = [[a] for a in letters] + [list(p) for p in combinations(letters, 2)]
    round1 = simplex_round(letters, complete)

    # letter i is bit i, so one name per proper non-empty letter mask
    name = {m: _name(round1.truncations.labels(m)) for m in range(1, (1 << n + 1) - 1)}
    # constrs and advance's next_round read the masks the round found once
    ys = {round1.truncations.mask(t.children[0].decoration) for t in constrs(round1)}
    if ys != name.keys():
        raise InvariantError("round-one constrs are not the proper non-empty subsets")

    bits = [1 << i for i in range(n + 1)]
    edges = [[c] for c in name.values()]
    edges += [[c, name[m | b]] for m, c in name.items() if m.bit_count() < n for b in bits if not m & b]
    if n == 1:
        # two facets and no subset pair: close the carrier to stay connected
        edges.append([letters[0], letters[1]])
    state = advance(round1, edges)
    if len(state.vertex_sets) != factorial(n + 1):
        raise InvariantError("round-one constructions do not count the orderings")

    expected = {
        frozenset(map(name.__getitem__, accumulate(order[:n], or_)))
        for order in permutations(bits)
    }
    if set(state.vertex_sets) != expected:
        raise InvariantError("round-two vertex decorations are not the prefix chains")
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
    t, record = _checked(ht, t)
    chain = _chain_of(setup, frozenset(ht.carrier) - t.decoration)
    skeleton = standardize(setup.letters, chain)
    blocks = _block_list(skeleton.tokens)
    gap = {ht._index[setup.name_of(s)]: g for g, s in enumerate(chain, start=1)}  # atom -> gap
    parens = set(skeleton.parens)
    for span in _spans(record)[1:]:  # the nodes below the root, each over a gap interval
        gaps = [gap[i] for i in _bit_indices(span)]
        parens.add((blocks[min(gaps) - 1][1], blocks[max(gaps)][0]))
    parens.discard((0, len(skeleton.tokens) - 1))
    return HoleWord(skeleton.tokens, frozenset(parens), skeleton.hole_map)


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
        re_rooted = _checked(path, Construct(sigma - y_names, t.children))[1]
    else:
        # fully determined: the single child already spans the chain
        re_rooted = _checked(path, t.children[0])[1]

    blocks = []
    current: list[str] = []
    for k, letter in enumerate(order):
        current.append(letter)
        if k == setup.n or setup.name_of(order[: k + 1]) in y_names:
            blocks.append(frozenset(current))
            current = []
    skeleton = standardize_blocks(blocks)
    # path atom -> its prefix length: the gap after that prefix's last letter
    gap = [len(setup.letters_of(name)) for name in path.carrier]
    parens = set(skeleton.parens)
    for span in _spans(re_rooted)[1:]:
        gaps = [gap[i] for i in _bit_indices(span)]
        parens.add((min(gaps) - 1, max(gaps)))
    parens.discard((0, setup.n))
    return HoleWord(skeleton.tokens, frozenset(parens), skeleton.hole_map)


def decode(setup: PbaSetup, w: HoleWord) -> Construct:
    """Inverse of encode, reading the word as its nested set: the blocks
    name a chain, whose names are the gap atoms; each zone (a component)
    and each parenthesis is the mask of the gap atoms it spans, the carrier
    holds them all, and nestedsets._tree_of builds the tree."""
    blocks, zones, legal = validate_word(setup.letters, w)
    ht = setup.hypergraph
    tokens = w.tokens
    at = [0]  # at[g]: the mask of gap atoms 1..g
    union: set[str] = set()
    for lo, _ in blocks[:-1]:
        tok = tokens[lo]
        union |= w.hole_map[tok - 1] if isinstance(tok, int) else {tok}
        at.append(at[-1] | 1 << ht._index[setup.name_of(union)])
    gaps = [(first, first + len(cuts) - 2) for first, cuts in zones]
    gaps += map(legal.__getitem__, w.parens)
    spans = {ht.full_mask, *(at[hi] & ~at[lo - 1] for lo, hi in gaps)}
    try:
        return validate_construct(ht, _tree_of(ht, spans))
    except ConstructError as exc:
        raise HoleWordError(f"word does not name a construct: {exc}") from exc


# -- faces and order ------------------------------------------------------


def face_constructs(setup: PbaSetup) -> list[Construct]:
    """Every tamed construct of the round-two state, one per face, in the
    kernel's order, the same on every call. Each root holds the complement
    of a vertex decoration (a prefix chain), so it is the complement of a
    proper chain of letter sets."""
    return tamed_constructs(setup.state)


def face_words(setup: PbaSetup) -> list[HoleWord]:
    return [encode(setup, t) for t in face_constructs(setup)]


def _decoded(setup: PbaSetup, w: HoleWord) -> tuple[Construct, frozenset]:
    """decode(setup, w) and its nested set, memoised on the setup: the memo
    lives as long as the process's shared setup, one entry per face at most."""
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

    return list(dict.fromkeys(ups))


def rule_closure_leq(setup: PbaSetup, a: HoleWord, b: HoleWord) -> bool:
    """Reflexive-transitive closure of the two word order rules."""
    if a == b:
        return True
    seen = {a}
    frontier = [a]
    while frontier:
        if len(seen) > RULE_CLOSURE_LIMIT:
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


class PbaCensus(NamedTuple):
    vertices: int
    edges: int
    facets: int
    faces: int
    facet_profiles: tuple[tuple[tuple[int, ...], int], ...]


def census(setup: PbaSetup) -> PbaCensus:
    """Face counts by dimension plus facet counts keyed by the sorted
    letter-block sizes of their words (for three dimensions: pentagons
    (1,1,1,1), rectangles (1,1,2), dodecagons (1,3), octagons (2,2)),
    counted without building a face. A face's root is the complement of a
    proper chain Y of letter sets (a sub-chain of a vertex decoration), and
    its children are constructs over the runs of Y (its components: sets of
    consecutive sizes), so the faces number the sum over Y of _face_term(Y) =
    z * prod F(R) over the runs R, F being the face polynomial in constructs,
    on one memo for the census. Runs are paths, so their lengths fix
    _face_term(Y), and the census keeps one term per run shape: only pba's
    chains allow that, and the plain sum over every Y (as in
    truncation._tamed_counts) is 2-5x slower here. Facets are the 2-node
    faces, one per single-run chain; the block sizes of
    standardize(setup.letters, Y) are the size steps of Y up to n + 1."""
    ht, n = setup.hypergraph, setup.n
    memo: dict[int, list[int]] = {}
    size = [len(setup.letters_of(name)) for name in ht.carrier]
    terms: dict[tuple[int, ...], list[int]] = {}  # _face_term by run shape
    by_nodes = [0] * (n + 2)
    profiles: dict[tuple[int, ...], int] = {}
    for y in {0}.union(*(_submasks(ht.mask(fam)) for fam in setup.state.vertex_sets)):
        runs = ht.components_mask(y)
        shape = tuple(sorted(map(int.bit_count, runs)))
        if shape not in terms:
            terms[shape] = _face_term(ht, y, memo)
        for k, a in enumerate(terms[shape]):
            by_nodes[k] += a
        if len(runs) == 1:
            sizes = [0, *sorted(size[i] for i in _bit_indices(y)), n + 1]
            profile = tuple(sorted(b - a for a, b in zip(sizes, sizes[1:])))
            profiles[profile] = profiles.get(profile, 0) + 1
    return PbaCensus(
        vertices=by_nodes[n + 1], edges=by_nodes[n], facets=by_nodes[2], faces=sum(by_nodes),
        facet_profiles=tuple(sorted(profiles.items())),
    )
