"""Words with holes: setup facts, standardization, the encode/decode
bijection, the word order, and the frozen three-dimensional census."""

import gc
import random
import weakref
from itertools import permutations

import pytest

from hgpoly.constructs import leq, parse_construct
from hgpoly.hypergraph import Hypergraph, restrict
from hgpoly.nestedsets import psi
from hgpoly.pba import (
    HoleWord,
    HoleWordError,
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
from hgpoly.truncation import tamed_constructs

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


def test_setup_guard():
    with pytest.raises(PbaError, match="guard"):
        pba_setup(5)
    with pytest.raises(PbaError, match="guard"):
        pba_setup(3, max_n=2)
    with pytest.raises(PbaError):
        pba_setup(0)


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


def test_fully_determined_words_are_permuted_letters(pba3):
    words = [
        w for w in face_words(pba3)
        if not w.hole_map and not w.parens
    ]
    assert len(words) == 24
    assert {w.tokens for w in words} == set(permutations(pba3.letters))


def test_word_order_memo_is_freed_with_its_setup():
    setup = pba_setup(2)
    words = face_words(setup)
    assert word_leq(setup, words[0], words[0])
    ref = weakref.ref(setup)
    del setup
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("n", [1, 2])
def test_face_constructs_are_the_tamed_constructs(n):
    setup = pba_setup(n)
    faces = face_constructs(setup)
    tamed = tamed_constructs(setup.state)
    assert len(faces) == len(tamed)
    assert set(faces) == set(tamed)
