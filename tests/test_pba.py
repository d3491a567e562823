"""Words with holes: setup facts, standardization, the encode/decode
bijection, the word order, and the frozen three-dimensional census."""

import gc
import random
import weakref
from collections import Counter
from itertools import combinations, permutations

import pytest

from hgpoly import cli, constructs, pba, truncation
from hgpoly.constructs import leq, parse_construct, print_construct
from hgpoly.hypergraph import Hypergraph, InvariantError, restrict
from hgpoly.nestedsets import psi
from hgpoly.pba import (
    HoleWord,
    HoleWordError,
    PbaCensus,
    PbaError,
    census,
    decode,
    encode,
    encode_via_order,
    face_constructs,
    face_words,
    parse_word,
    pba_setup,
    rule_closure_leq,
    rule_upsteps,
    standardize,
    standardize_blocks,
    validate_word,
    word_leq,
    x_sigma,
)

TEN_LETTER_BLOCKS = [
    {"x9"},
    {"x2", "x4", "x8"},
    {"x3"},
    {"x1", "x7"},
    {"x6"},
    {"x5", "x7"},
]


def face(setup, root_minus, tree):
    carrier = set(setup.hypergraph.carrier)
    root = ",".join(sorted(carrier - set(root_minus)))
    return parse_construct(setup.hypergraph, "{%s}(%s)" % (root, tree))


def utf8(w):
    return w.text(ascii_symbols=False, square=False)


# -- setup ----------------------------------------------------------------


def test_setup_counts(pba2, pba3):
    s1 = pba_setup(1)
    assert s1.state.facet_names == ("x1", "x2")
    assert len(s1.state.vertex_sets) == 2
    assert pba2.state.facet_names[:3] == ("x1", "x2", "x3")
    assert len(pba2.state.facet_names) == 6
    assert len(pba2.state.vertex_sets) == 6
    assert len(pba3.state.facet_names) == 14
    assert len(pba3.state.vertex_sets) == 24
    assert pba3.state.facet_names[:4] == ("x1", "x2", "x3", "x4")


def test_setup_enumerates_round_one_once(monkeypatch, fresh_pba_setups):
    # the (n+1)! count is read off the advanced state's decorations, one
    # per round-one tamed construction, so only next_round enumerates them,
    # in one kernel run over round one's whole carrier
    runs = []
    real = truncation._trees

    def counting(h, ambient, *args):
        runs.append((h, ambient))
        return real(h, ambient, *args)

    monkeypatch.setattr(truncation, "_trees", counting)
    setup = pba_setup(3)
    ht1 = setup.round1.truncations
    assert runs == [(ht1, ht1.full_mask)]
    assert len(setup.state.vertex_sets) == 24


def test_setup_finds_round_one_constrs_once(monkeypatch, fresh_pba_setups):
    # the self-check reads constrs(round1) and advance's next_round reads
    # the same masks, which the round finds once: each vertex decoration of
    # round one is walked once
    walks, real = [], truncation._submasks
    monkeypatch.setattr(truncation, "_submasks", lambda m: walks.append(m) or real(m))
    calls, constrs = [], pba.constrs
    monkeypatch.setattr(pba, "constrs", lambda s: calls.append(s) or constrs(s))
    setup = pba_setup(3)
    assert calls == [setup.round1]
    ht1 = setup.round1.truncations
    assert sorted(walks) == sorted(map(ht1.mask, setup.round1.vertex_sets))


def test_decode_lays_out_each_word_once(monkeypatch, pba3):
    # validate_word and decode share one derivation of a word's blocks and
    # zones; the decoded constructs stay those the words were encoded from
    words, faces = face_words(pba3), face_constructs(pba3)
    calls = Counter()
    for name in ("_block_list", "_zones"):
        real = getattr(pba, name)
        monkeypatch.setattr(pba, name, lambda *args, real=real, name=name: calls.update([name]) or real(*args))
    assert [decode(pba3, w) for w in words] == faces
    assert len(words) == 363 and calls == {"_block_list": 363, "_zones": 363}


def test_setup_guard(capsys):
    with pytest.raises(PbaError, match="guard"):
        pba_setup(5)
    with pytest.raises(PbaError, match="guard"):
        pba_setup(3, max_n=2)
    with pytest.raises(PbaError):
        pba_setup(0)
    # the guard comes before the shared setup, even once that is built
    pba_setup(4)
    message = "n=4 exceeds the guard (3); raise max_n to override"
    with pytest.raises(PbaError) as info:
        pba_setup(4, max_n=3)
    assert str(info.value) == message
    assert cli.main(["pba", "census", "4", "--max-n", "3"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_setup_is_built_once_per_n(fresh_pba_setups, monkeypatch, capsys):
    # a setup is built and checked once per n for the process, whatever the
    # guard, and every pba command reads that one
    builds, real = [], pba.simplex_round
    monkeypatch.setattr(pba, "simplex_round", lambda *args: builds.append(args) or real(*args))
    assert pba_setup(3) is pba_setup(3) is pba_setup(3, max_n=5)
    assert len(builds) == 1
    setup = pba_setup(4)
    face = print_construct(setup.hypergraph, face_constructs(setup)[-1])
    pba._build_setup.cache_clear()
    builds.clear()
    outs = []
    for _ in range(2):
        assert cli.main(["pba", "encode", "4", face]) == 0
        outs.append(capsys.readouterr().out)
    assert len(builds) == 1 and outs[0] == outs[1] != ""
    assert pba_setup(4) is pba_setup(4, max_n=5) and len(builds) == 1


def test_a_failed_self_check_keeps_no_setup(fresh_pba_setups, monkeypatch, capsys):
    # lru_cache stores no raised exception: each call builds and fails again,
    # and the first build after the fault is gone passes the checks
    real = pba.constrs
    monkeypatch.setattr(pba, "constrs", lambda s: real(s)[1:])
    for _ in range(2):
        with pytest.raises(InvariantError, match="round-one constrs are not"):
            pba_setup(2)
        assert cli.main(["pba", "census", "2"]) == 1
        assert capsys.readouterr().out == ""
    assert pba._build_setup.cache_info().currsize == 0
    monkeypatch.undo()
    setup = pba_setup(2)
    assert setup is pba_setup(2) and len(setup.state.vertex_sets) == 6


def test_shared_setups_number_at_most_max_n(fresh_pba_setups):
    top = pba.MAX_N + 1
    setups = [pba_setup(n, max_n=top) for n in range(1, top + 1)]
    info = pba._build_setup.cache_info()
    assert info.maxsize == info.currsize == pba.MAX_N
    # n=1, used least recently, made room for the last one
    assert pba_setup(top, max_n=top) is setups[-1]
    assert pba_setup(1) is not setups[0]
    assert pba._build_setup.cache_info().currsize == pba.MAX_N


def test_x_sigma_restrictions_are_paths(pba3):
    ht = pba3.hypergraph
    for order in permutations(pba3.letters):
        names = sorted(
            x_sigma(pba3, order), key=lambda n: len(pba3.letters_of(n))
        )
        sub = restrict(ht, names)
        path = Hypergraph(
            tuple(sub.carrier),
            [[n] for n in names]
            + [[names[i], names[i + 1]] for i in range(len(names) - 1)],
        )
        assert sub == path


def test_x_sigma_rejects_non_orderings(pba3):
    assert x_sigma(pba3, ("x2", "x1", "x3", "x4")) == {
        "x2", "x1+x2", "x1+x2+x3",
    }
    with pytest.raises(PbaError, match="ordering"):
        x_sigma(pba3, ("x1", "x2", "x3"))


# -- standardization ------------------------------------------------------


def test_standardize_ten_letter_example():
    w = standardize_blocks(TEN_LETTER_BLOCKS)
    assert w.text(ascii_symbols=False, square=True) == (
        "[x₉·₁]·₁[·₁x₃·₂][·₂x₆·₃]·₃; ·₁={x₂,x₄,x₈}; ·₂={x₁,x₇}; ·₃={x₅,x₇}"
    )
    assert w.text() == "[x9.1].1[.1x3.2][.2x6.3].3; .1={x2,x4,x8}; .2={x1,x7}; .3={x5,x7}"
    assert w.hole_map == (
        frozenset({"x2", "x4", "x8"}),
        frozenset({"x1", "x7"}),
        frozenset({"x5", "x7"}),
    )


def _layout_by_gaps(tokens):
    """The standard brackets and the legal ranges, gap by gap: gap g sits
    between blocks g-1 and g, a zone runs on while the block after a gap
    is a single letter, and gaps lo..hi span the tokens from the end of
    block lo-1 to the start of block hi."""
    blocks = pba._block_list(tokens)
    zones, g = [], 1
    while g < len(blocks):
        h = g
        while h + 1 < len(blocks) and blocks[h][0] == blocks[h][1] \
                and not isinstance(tokens[blocks[h][0]], int):
            h += 1
        zones.append((g, h))
        g = h + 1
    whole = (0, len(tokens) - 1)
    std = {(blocks[a - 1][1], blocks[b][0]) for a, b in zones} - {whole}
    legal = {
        (blocks[lo - 1][1], blocks[hi][0]): (lo, hi)
        for a, b in zones for lo in range(a, b + 1) for hi in range(lo, b + 1)
    }
    legal.pop(whole, None)
    return std, legal


def test_zones_place_the_brackets_of_the_gap_definitions(pba2, pba3):
    words = [w for setup in (pba_setup(1), pba2, pba3) for w in face_words(setup)]
    merged = [u for w in face_words(pba3) for u in rule_upsteps(pba3, w)]
    for tokens in {w.tokens for w in words + merged} | {standardize_blocks(TEN_LETTER_BLOCKS).tokens}:
        std, legal = _layout_by_gaps(tokens)
        assert pba._std_ranges(tokens) == std
        assert pba._node_ranges(tokens) == legal


def test_standardize_degenerate_chains():
    letters = ("x1", "x2", "x3", "x4")
    top = standardize(letters, [])
    assert top.tokens == (1, 1, 1, 1)
    assert top.parens == frozenset()
    assert top.hole_map == (frozenset(letters),)
    full = standardize(letters, [{"x2"}, {"x2", "x3"}, {"x1", "x2", "x3"}])
    assert full.tokens == ("x2", "x3", "x1", "x4")
    assert full.parens == frozenset()
    assert full.hole_map == ()


def test_standardize_rejects_non_chains():
    letters = ("x1", "x2", "x3")
    with pytest.raises(HoleWordError, match="chain"):
        standardize(letters, [{"x1"}, {"x2"}])
    with pytest.raises(HoleWordError, match="proper"):
        standardize(letters, [{"x1"}, {"x1", "x2", "x3"}])
    with pytest.raises(HoleWordError, match="universe"):
        standardize(letters, [{"x4"}])


# -- text grammar ---------------------------------------------------------


def test_word_text_parse_round_trip(pba2, pba3):
    for setup in (pba2, pba3):
        for w in face_words(setup):
            assert parse_word(w.text()) == w
            assert parse_word(w.text(ascii_symbols=False, square=False)) == w
            assert parse_word(w.text(ascii_symbols=False, square=True)) == w


def test_parse_errors():
    with pytest.raises(HoleWordError, match="unbalanced"):
        parse_word("(x1x2")
    with pytest.raises(HoleWordError, match="unbalanced"):
        parse_word("x1x2)")
    with pytest.raises(HoleWordError, match="mismatched"):
        parse_word("[x1x2)x3")
    with pytest.raises(HoleWordError, match="empty"):
        parse_word("x1()x2")
    with pytest.raises(HoleWordError, match="duplicate"):
        parse_word("((x1x2))x3")
    with pytest.raises(HoleWordError, match="standard"):
        parse_word("[x1x2]x3")
    with pytest.raises(HoleWordError, match="numbered"):
        parse_word(".2.2x1; .2={x2,x3}")
    with pytest.raises(HoleWordError, match="numbered"):
        parse_word(".0.0x1; .0={x2,x3}")
    with pytest.raises(HoleWordError, match="cover"):
        parse_word(".1.1x3")
    with pytest.raises(HoleWordError, match="hole entry"):
        parse_word(".1.1x3; .1=x1,x2")
    with pytest.raises(HoleWordError, match="mapped twice"):
        parse_word(".1.1x3; .1={x1,x2}; .1={x1,x2}")


def test_letter_and_hole_messages():
    # one digit scanner reads the holes .N and the letters xN, in the body
    # and in the hole entries; its three messages, exactly
    for text, message in [
        ("x1.", "bad hole at position 2 in 'x1.'"),
        (".1.1x3; .={x1,x2}", "bad hole at position 0 in '.={x1,x2}'"),
        ("x(x1)", "bad letter at position 0 in 'x(x1)'"),
        ("x1 y2", "unexpected 'y' in 'x1 y2'"),
        (".1.1x3; q={x1,x2}", "unexpected 'q' in 'q={x1,x2}'"),
        (".1.1x3; .1={x1,y}", "unexpected 'y' in 'y'"),
    ]:
        with pytest.raises(HoleWordError) as err:
            parse_word(text)
        assert str(err.value) == message


def test_validate_word_conditions(pba3):
    letters = pba3.letters

    def bad(text, message):
        with pytest.raises(HoleWordError, match=message):
            validate_word(letters, parse_word(text))

    bad("x1x2x3x1", "twice")
    bad("x1x2x3x9", "universe")
    bad(".1x1.1x4; .1={x2,x3}", "one block")
    bad(".1.1.1x4; .1={x2,x3}", "occurs 3 times")
    bad("x1(x2x3)x4x5", "universe")
    bad("(x1x2).1.1; .1={x2,x3}", "partition")
    bad("x1x2.1.1; .1={x3,x4}", "missing standard bracket")
    bad("(x1x2)(.1.1); .1={x3,x4}", r"standardization is \[x1x2\.1\]\.1")
    bad("[(x1)x2.1].1; .1={x3,x4}", "do not fit")
    # the hole word partition must cover every letter
    with pytest.raises(HoleWordError, match="partition"):
        validate_word(letters, parse_word("x1x2x3"))


def test_scoping_example():
    # inner parentheses sit inside one bracketed zone
    w = parse_word(
        "[x9.1].1[.1(x3.2)][.2x6.3].3; .1={x2,x4,x8}; .2={x1,x7}; .3={x5,x10}"
    )
    validate_word([f"x{i}" for i in range(1, 11)], w)
    # a parenthesis spanning two zones is rejected
    with pytest.raises(HoleWordError, match="do not fit"):
        validate_word(
            [f"x{i}" for i in range(1, 11)],
            parse_word(
                "[x9.1].1([.1x3.2][.2x6.3]).3; .1={x2,x4,x8}; .2={x1,x7}; .3={x5,x10}"
            ),
        )


# -- encode ---------------------------------------------------------------


def test_encode_quoted_examples(pba3):
    cases = [
        (face(pba3, {"x1", "x1+x2+x3"}, "x1,{x1+x2+x3}"),
         "(x₁·₁)(·₁x₄); ·₁={x₂,x₃}"),
        (face(pba3, {"x1+x2"}, "{x1+x2}"),
         "·₁(·₁·₂)·₂; ·₁={x₁,x₂}; ·₂={x₃,x₄}"),
        (face(pba3, {"x1+x2", "x1+x2+x3"}, "{x1+x2,x1+x2+x3}"),
         "·₁(·₁x₃x₄); ·₁={x₁,x₂}"),
        (face(pba3, {"x1", "x1+x2"}, "{x1,x1+x2}"),
         "(x₁x₂·₁)·₁; ·₁={x₃,x₄}"),
        (face(pba3, {"x1"}, "x1"),
         "(x₁·₁)·₁·₁; ·₁={x₂,x₃,x₄}"),
        (face(pba3, {"x2+x3+x4"}, "{x2+x3+x4}"),
         "·₁·₁(·₁x₁); ·₁={x₂,x₃,x₄}"),
        (face(pba3, {"x1", "x1+x2", "x1+x2+x3"}, "{x1+x2}(x1,{x1+x2+x3})"),
         "(x₁x₂)(x₃x₄)"),
        (face(pba3, {"x1", "x1+x3", "x1+x2+x3"}, "{x1+x3}(x1,{x1+x2+x3})"),
         "(x₁x₃)(x₂x₄)"),
        (face(pba3, {"x1", "x1+x2", "x1+x2+x3"}, "{x1,x1+x2+x3}({x1+x2})"),
         "x₁(x₂x₃)x₄"),
    ]
    for construct, expected in cases:
        assert utf8(encode(pba3, construct)) == expected


def test_encode_rejects_untamed(pba3):
    ht = pba3.hypergraph
    carrier = set(ht.carrier)
    root = ",".join(sorted(carrier - {"x1", "x2"}))
    t = parse_construct(ht, "{%s}(x1,x2)" % root)
    with pytest.raises(PbaError, match="chain"):
        encode(pba3, t)


def test_sigma_independence(pba2, pba3):
    for setup, stride in ((pba2, 1), (pba3, 11)):
        for t in face_constructs(setup)[::stride]:
            w = encode(setup, t)
            compatible = 0
            for order in permutations(setup.letters):
                try:
                    via = encode_via_order(setup, t, order)
                except PbaError:
                    continue
                compatible += 1
                assert via == w
            assert compatible >= 1


# -- decode ---------------------------------------------------------------


def test_decode_octagon_is_least_upper_bound(pba3):
    w = parse_word(".1(.1.2).2; .1={x1,x2}; .2={x3,x4}")
    assert decode(pba3, w) == face(pba3, {"x1+x2"}, "{x1+x2}")
    below = parse_word("x1(x2x3)x4")
    assert word_leq(pba3, below, w)


def test_decode_counter_example(pba3):
    with pytest.raises(HoleWordError, match=r"standardization is \[x1x2\.1\]\.1"):
        decode(pba3, parse_word("(x1x2)(.1.1); .1={x3,x4}"))


def test_decode_rejects_wrong_universe(pba2):
    with pytest.raises(HoleWordError, match="universe"):
        decode(pba2, parse_word("x1x2x3x4"))


def test_encode_decode_bijection_exhaustive(pba2, pba3):
    s1 = pba_setup(1)
    for setup, count in ((s1, 3), (pba2, 25), (pba3, 363)):
        faces = face_constructs(setup)
        words = [encode(setup, t) for t in faces]
        assert len(faces) == count
        assert len(set(words)) == count
        for t, w in zip(faces, words):
            assert decode(setup, w) == t


def test_faces_share_one_label_set_per_decoration():
    # one kernel run makes each decoration's label set once, and every node
    # decorated alike holds that one object
    faces = face_constructs(pba_setup(4))
    decorations = [node.decoration for t in faces for node in t.nodes()]
    assert len(faces) == 7401
    assert len({id(d) for d in decorations}) == len(set(decorations)) == 1081


def test_decode_inverts_encode_on_every_legal_parenthesis_set(pba2, pba3):
    # every subset of the legal parentheses over every face skeleton that
    # holds the standard brackets: an accepted word comes back from encode,
    # and its nested set is the carrier plus the chain names over each zone
    # and each parenthesis; a refused word fails validate_word alone with
    # the same message
    accepted = refused = 0
    for setup in (pba_setup(1), pba2, pba3):
        carrier = frozenset(setup.hypergraph.carrier)
        for tokens, hole_map in dict.fromkeys((w.tokens, w.hole_map) for w in face_words(setup)):
            blocks = [
                hole_map[tokens[lo] - 1] if isinstance(tokens[lo], int) else {tokens[lo]}
                for lo, _ in pba._block_list(tokens)
            ]
            # gap g sits between blocks g-1 and g and is named by the letters before it
            names = {g: setup.name_of(set().union(*blocks[:g])) for g in range(1, len(blocks))}
            zones: list[set] = []
            for g in names:
                if g == 1 or len(blocks[g - 1]) > 1:  # a hole ends the zone before it
                    zones.append(set())
                zones[-1].add(names[g])
            std, legal = pba._std_ranges(tokens), pba._node_ranges(tokens)
            free = sorted(legal.keys() - std)
            for k in range(len(free) + 1):
                for extra in combinations(free, k):
                    w = HoleWord(tokens, std | frozenset(extra), hole_map)
                    try:
                        t = decode(setup, w)
                    except HoleWordError as exc:
                        with pytest.raises(HoleWordError) as alone:
                            validate_word(setup.letters, w)
                        assert str(alone.value) == str(exc)
                        refused += 1
                        continue
                    assert encode(setup, t) == w
                    spans = [legal[r] for r in w.parens]
                    expected = {carrier, *map(frozenset, zones)} | {
                        frozenset(names[g] for g in range(lo, hi + 1)) for lo, hi in spans
                    }
                    assert psi(t) == expected
                    accepted += 1
    assert (accepted, refused) == (391, 534)


# -- order ----------------------------------------------------------------


def test_order_isomorphism_exhaustive(pba2, pba3):
    for setup in (pba2, pba3):
        faces = face_constructs(setup)
        words = [encode(setup, t) for t in faces]
        nested = [psi(t) for t in faces]
        for i, wi in enumerate(words):
            for j, wj in enumerate(words):
                assert word_leq(setup, wi, wj) == (nested[j] <= nested[i])


def test_word_order_matches_construct_leq(pba2, pba3):
    ht2 = pba2.hypergraph
    faces2 = face_constructs(pba2)
    words2 = [encode(pba2, t) for t in faces2]
    for i, s in enumerate(faces2):
        for j, t in enumerate(faces2):
            assert word_leq(pba2, words2[i], words2[j], variant="v2") == leq(s, t, ht2)
    faces3 = face_constructs(pba3)
    words3 = [encode(pba3, t) for t in faces3]
    rng = random.Random(7)
    for _ in range(400):
        i, j = rng.randrange(len(faces3)), rng.randrange(len(faces3))
        direct = leq(faces3[i], faces3[j], pba3.hypergraph)
        assert word_leq(pba3, words3[i], words3[j]) == direct
        assert word_leq(pba3, words3[i], words3[j], variant="v2") == direct


def test_frozen_order_examples(pba3):
    a = parse_word(".1((.1x3)x4); .1={x1,x2}")
    b = parse_word(".1(.1x3x4); .1={x1,x2}")
    c = parse_word(".1(.1.2).2; .1={x1,x2}; .2={x3,x4}")
    d = parse_word("(x1.1).1.1; .1={x2,x3,x4}")
    e = parse_word(".1.1.1.1; .1={x1,x2,x3,x4}")
    for lo, hi in ((a, b), (a, c), (d, e)):
        assert word_leq(pba3, lo, hi)
        assert not word_leq(pba3, hi, lo)
        assert rule_closure_leq(pba3, lo, hi)
    # the first rule drops the inner non-standard pair in one step
    assert b in rule_upsteps(pba3, a)


def test_rule_steps_are_sound(pba2, pba3):
    for setup, stride in ((pba2, 1), (pba3, 7)):
        for w in face_words(setup)[::stride]:
            for up in rule_upsteps(setup, w):
                assert word_leq(setup, w, up)
                assert w != up


def test_rule_closure_gap_is_real(pba2, pba3):
    # the two rules are sound but not complete: a fully determined word
    # reaches the all-hole top only through repeated block merges, and
    # the octagon misses its pentagon-shared edges
    top2 = parse_word(".1.1.1; .1={x1,x2,x3}")
    bare2 = parse_word("x1x2x3")
    assert word_leq(pba2, bare2, top2)
    assert not rule_closure_leq(pba2, bare2, top2)
    missed2 = 0
    words2 = face_words(pba2)
    for wi in words2:
        for wj in words2:
            if word_leq(pba2, wi, wj) and not rule_closure_leq(pba2, wi, wj):
                missed2 += 1
    assert missed2 == 6

    edge = parse_word("x1(x2x3)x4")
    octagon = parse_word(".1(.1.2).2; .1={x1,x2}; .2={x3,x4}")
    assert word_leq(pba3, edge, octagon)
    assert not rule_closure_leq(pba3, edge, octagon)


def test_rule_closure_stops_at_its_limit(pba2, monkeypatch):
    # (x1x2)x3 reaches the all-hole top in two rule steps, not one
    lo, hi = parse_word("(x1x2)x3"), parse_word(".1.1.1; .1={x1,x2,x3}")
    assert hi not in rule_upsteps(pba2, lo)
    assert rule_closure_leq(pba2, lo, hi)
    monkeypatch.setattr(pba, "RULE_CLOSURE_LIMIT", 1)
    with pytest.raises(PbaError, match="search limit"):
        rule_closure_leq(pba2, lo, hi)


# -- census ---------------------------------------------------------------


def test_census_n2(pba2):
    c = census(pba2)
    assert (c.vertices, c.edges, c.facets, c.faces) == (12, 12, 12, 25)
    assert dict(c.facet_profiles) == {(1, 1, 1): 6, (1, 2): 6}


def test_census_n3(pba3):
    c = census(pba3)
    assert (c.vertices, c.edges, c.facets, c.faces) == (120, 180, 62, 363)
    assert dict(c.facet_profiles) == {
        (1, 1, 1, 1): 24,  # pentagons, one per ordering
        (1, 1, 2): 24,     # rectangles, frozen regression value
        (1, 3): 8,         # dodecagons
        (2, 2): 6,         # octagons
    }
    assert c.vertices - c.edges + c.facets == 2


def _enumerated_census(setup) -> PbaCensus:
    """The census by enumeration: the node counts of every face, and the
    block sizes of the word encode gives each 2-node face."""
    faces = face_constructs(setup)
    by_nodes = Counter(t.node_count for t in faces)
    profiles = Counter(
        tuple(sorted(hi - lo + 1 for lo, hi in pba._block_list(encode(setup, t).tokens)))
        for t in faces
        if t.node_count == 2
    )
    return PbaCensus(
        vertices=by_nodes[setup.n + 1],
        edges=by_nodes[setup.n],
        facets=by_nodes[2],
        faces=len(faces),
        facet_profiles=tuple(sorted(profiles.items())),
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_census_counts_what_enumeration_builds(n):
    setup = pba_setup(n)
    assert census(setup) == _enumerated_census(setup)


def test_fully_determined_words_are_permuted_letters(pba3):
    words = [
        w for w in face_words(pba3)
        if not w.hole_map and not w.parens
    ]
    assert len(words) == 24
    assert {w.tokens for w in words} == set(permutations(pba3.letters))


def test_word_order_memo_is_freed_with_its_setup(fresh_pba_setups):
    # the memo lives on the shared setup, which the process keeps until
    # its cache lets go of it, and then frees both
    setup = pba_setup(2)
    words = face_words(setup)
    assert word_leq(setup, words[0], words[0])
    ref = weakref.ref(setup)
    del setup
    gc.collect()
    assert ref() is not None and ref()._memo
    pba._build_setup.cache_clear()
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("n, count", [(1, 3), (2, 25), (3, 363), (4, 7401)])
def test_face_roots_are_the_proper_chain_complements(n, count):
    # the root decorations of the faces are exactly the carrier minus a
    # proper chain of letter sets (the empty chain included)
    setup = pba_setup(n)
    letters = setup.letters
    subsets = [frozenset(c) for k in range(1, n + 1) for c in combinations(letters, k)]
    carrier = frozenset(setup.hypergraph.carrier)
    roots = set()
    for r in range(n + 1):
        for chain in combinations(subsets, r):
            if all(a < b for a, b in zip(chain, chain[1:])):
                names = {"+".join(sorted(c, key=lambda x: int(x[1:]))) for c in chain}
                roots.add(carrier - names)
    faces = face_constructs(setup)
    assert {t.decoration for t in faces} == roots
    assert len(faces) == len(set(faces)) == count


def test_tamed_families_run_the_kernel_once(monkeypatch, pba3):
    # each tamed family is one kernel run whose top region takes the
    # fixed root decorations
    calls = []
    real = truncation._trees

    def counting(h, ambient, *rest):
        calls.append(ambient)
        return real(h, ambient, *rest)

    for module in (truncation, constructs):
        monkeypatch.setattr(module, "_trees", counting)
    s = pba3.state
    runs = (
        (truncation.tamed_constructs, s),
        (truncation.tamed_constructions, s),
        (face_constructs, pba3),
    )
    for family, arg in runs:
        calls.clear()
        assert family(arg)
        assert calls == [s.truncations.full_mask]
