from itertools import combinations

import pytest

from hgpoly import (
    Hypergraph,
    NestedSetError,
    check_tree_characterization,
    check_tubing_conditions,
    enumerate_constructs,
    leq,
    parse_construct,
    psi,
    unpsi,
)
from hgpoly import cli, nestedsets
from hgpoly.constructs import Construct
from hgpoly.hypergraph import InvariantError, saturate
from hgpoly.nestedsets import condition_c, condition_c_graph


def fam(*sets):
    return frozenset(frozenset(s) for s in sets)


def test_psi_examples(named):
    pent = named["pentagon"]
    assert psi(parse_construct(pent, "x(y(z))")) == fam("z", "yz", "xyz")
    s2 = named["2-simplex"]
    assert psi(parse_construct(s2, "{x,y}(z)")) == fam("z", "xyz")
    assert psi(parse_construct(s2, "{x,y,z}")) == fam("xyz")


def test_unpsi_examples(named):
    pent = named["pentagon"]
    t = unpsi(pent, fam("z", "yz", "xyz"))
    assert t == parse_construct(pent, "x(y(z))")
    s2 = named["2-simplex"]
    assert unpsi(s2, fam("xyz")) == parse_construct(s2, "{x,y,z}")


def test_separation_example():
    h = Hypergraph("xyz", [["x"], ["y"], ["z"], ["x", "y", "z"]])
    family = fam("x", "y", "z", "xyz")
    assert condition_c_graph(h, family)
    witness = condition_c(h, family)
    assert witness is not None and set(witness) == fam("x", "y", "z")
    with pytest.warns(UserWarning):
        assert check_tubing_conditions(h, family)
    with pytest.raises(NestedSetError) as err:
        unpsi(h, family)
    assert err.value.condition == "C"
    assert set(err.value.witness) == fam("x", "y", "z")


def test_round_trip_everywhere(small_corpus):
    for h in small_corpus:
        for t in enumerate_constructs(h):
            m = psi(t)
            assert len(m) == t.node_count
            assert frozenset(h.carrier) in m
            assert unpsi(h, m) == t


def test_psi_reverses_the_order(named):
    for key in ["pentagon", "hexagon", "3-simplex", "hemiassociahedron"]:
        h = named[key]
        faces = enumerate_constructs(h)
        for s in faces:
            for t in faces:
                assert leq(s, t, h, "v2") == (psi(t) <= psi(s))


def test_image_is_exactly_the_families_satisfying_c(named):
    for key in ["2-simplex", "pentagon", "hexagon", "3-simplex",
                "vertex-truncated-2-simplex", "hemiassociahedron"]:
        h = named[key]
        image = {psi(t) for t in enumerate_constructs(h)}
        carrier = frozenset(h.carrier)
        others = [frozenset(s) for s in saturate(h).hyperedges if frozenset(s) != carrier]
        for r in range(len(others) + 1):
            for picked in combinations(others, r):
                family = frozenset(picked) | {carrier}
                satisfies = condition_c(h, family) is None
                assert (family in image) == satisfies, (key, family)


def test_characterizations_agree_on_valid_and_broken_trees(named):
    pent = named["pentagon"]
    good = parse_construct(pent, "y(x,z)")
    for variant in ("inductive", "ABC'", "ABC"):
        assert check_tree_characterization(pent, good, variant)

    overlapping = Construct(
        frozenset("xy"), (Construct(frozenset("y"), (Construct(frozenset("z")),)),)
    )
    for variant in ("inductive", "ABC'", "ABC"):
        assert not check_tree_characterization(pent, overlapping, variant)

    trunc = named["vertex-truncated-2-simplex"]
    bad = Construct(
        frozenset("x"), (Construct(frozenset("y")), Construct(frozenset("z")))
    )
    for variant in ("inductive", "ABC'", "ABC"):
        assert not check_tree_characterization(trunc, bad, variant)


def test_characterizations_agree_on_all_decorated_trees(named):
    # every tree shape over every decoration assignment on a 3-atom carrier
    for key in ["2-simplex", "pentagon", "hexagon", "vertex-truncated-2-simplex"]:
        h = named[key]
        atoms = list(h.carrier)
        subsets = [
            frozenset(s)
            for r in range(1, 4)
            for s in combinations(atoms, r)
        ]

        def trees(depth):
            for dec in subsets:
                yield Construct(dec)
                if depth:
                    for c in trees(depth - 1):
                        yield Construct(dec, (c,))
                    for c1 in trees(0):
                        for c2 in trees(0):
                            yield Construct(dec, (c1, c2))

        for t in trees(1):
            expected = check_tree_characterization(h, t, "inductive")
            assert check_tree_characterization(h, t, "ABC'") == expected
            assert check_tree_characterization(h, t, "ABC") == expected


def test_tubing_pair_examples(named):
    pent = named["pentagon"]
    assert check_tubing_conditions(pent, fam("z", "yz", "xyz"))
    assert not check_tubing_conditions(pent, fam("xy", "yz", "xyz"))


def test_tubing_forms_that_disagree_break_an_invariant(monkeypatch, named, capsys):
    # corpus verify's nested-set check calls check_tubing_conditions, so a
    # disagreement is one `invariant broken` line and exit status 1
    real = nestedsets.condition_c_graph
    monkeypatch.setattr(nestedsets, "condition_c_graph", lambda h, members: not real(h, members))
    with pytest.raises(InvariantError, match="2-antichain form and tubing pair disagree"):
        check_tubing_conditions(named["pentagon"], fam("z", "yz", "xyz"))
    assert cli.main(["corpus", "verify"]) == 1
    assert capsys.readouterr() == ("", "error: invariant broken: 2-antichain form and tubing pair disagree\n")
