import json
import random

import pytest
from hypothesis import given, strategies as st

from hgpoly import (
    Hypergraph,
    HypergraphError,
    components,
    is_connected,
    quasi_partition_refine,
    restrict,
    saturate,
)
from hgpoly.hypergraph import connected_subset_masks

XYZ = [["x"], ["y"], ["z"], ["x", "y", "z"]]


def test_rejects_missing_singleton():
    with pytest.raises(HypergraphError):
        Hypergraph("xyz", [["x"], ["y"], ["x", "y", "z"]])


def test_rejects_uncovered_carrier():
    with pytest.raises(HypergraphError):
        Hypergraph("xyz", [["x"], ["y"]])


def test_rejects_unknown_atom():
    with pytest.raises(HypergraphError):
        Hypergraph("xy", [["x"], ["y"], ["q"]])


def test_rejects_duplicate_atoms():
    with pytest.raises(HypergraphError):
        Hypergraph(["x", "x", "y"], [["x"], ["y"]])


@pytest.mark.parametrize("label", ["{", "}", "(", ")", ",", "a(b", "x,y"])
def test_rejects_labels_holding_construct_syntax(label):
    with pytest.raises(HypergraphError, match="free of { } \\( \\) ,"):
        Hypergraph([label, "z"], [[label], ["z"], [label, "z"]])


@pytest.mark.parametrize("label", [" a", "a ", "a\nb", "a\tb"])
def test_rejects_labels_that_do_not_read_back(label):
    # construct text drops a label's outer whitespace, and a newline or tab
    # would split a printed face over two rows or fields
    with pytest.raises(HypergraphError, match="padded or holds an unprintable character"):
        Hypergraph([label, "c"], [[label], ["c"], [label, "c"]])


def test_rejects_a_format_other_than_1():
    data = Hypergraph("xyz", XYZ).to_json_dict()
    assert Hypergraph.from_json_dict({k: v for k, v in data.items() if k != "format"}).carrier == ("x", "y", "z")
    for version in (2, True, 1.0, "1"):
        with pytest.raises(HypergraphError, match="unsupported format version"):
            Hypergraph.from_json_dict({**data, "format": version})


def test_atomize_fills_singletons():
    h = Hypergraph("xyz", [["x", "y", "z"]], atomize=True)
    assert frozenset({"x"}) in h.hyperedges
    assert len(h.hyperedges) == 4


def test_restrict_drops_larger_hyperedges():
    h = Hypergraph("xyz", XYZ)
    r = restrict(h, ["y", "z"])
    assert r.carrier == ("y", "z")
    assert set(r.hyperedges) == {frozenset({"y"}), frozenset({"z"})}
    assert not is_connected(r)


def test_components_of_removal():
    h = Hypergraph("xyz", XYZ)
    assert components(h, ["x"]) == (frozenset({"y"}), frozenset({"z"}))
    assert components(h) == (frozenset({"x", "y", "z"}),)


def test_saturate_triangle_path():
    h = Hypergraph("xyz", [["x"], ["y"], ["z"], ["x", "y"], ["y", "z"]])
    sat = saturate(h)
    assert set(sat.hyperedges) == {
        frozenset(s)
        for s in [{"x"}, {"y"}, {"z"}, {"x", "y"}, {"y", "z"}, {"x", "y", "z"}]
    }


def test_json_round_trip():
    h = Hypergraph("xyz", XYZ)
    blob = json.dumps(h.to_json_dict())
    again = Hypergraph.from_json_dict(json.loads(blob))
    assert again == h


def test_quasi_partition_requires_nesting():
    h = Hypergraph("xyz", XYZ)
    with pytest.raises(HypergraphError):
        quasi_partition_refine(h, ["x"], ["y"])


@st.composite
def connected_hypergraphs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    atoms = [f"a{i}" for i in range(n)]
    extras = [
        c
        for r in range(2, n + 1)
        for c in __import__("itertools").combinations(atoms, r)
    ]
    chosen = draw(st.lists(st.sampled_from(extras), max_size=8) if extras else st.just([]))
    edges = [[a] for a in atoms] + [list(c) for c in chosen]
    h = Hypergraph(atoms, edges)
    if not is_connected(h):
        edges.append(atoms)
        h = Hypergraph(atoms, edges)
    return h


@given(connected_hypergraphs(), st.data())
def test_each_fine_component_sits_in_one_coarse_component(h, data):
    carrier = list(h.carrier)
    x = frozenset(data.draw(st.sets(st.sampled_from(carrier), min_size=1)))
    y = frozenset(data.draw(st.sets(st.sampled_from(sorted(x)), min_size=1)))
    fibers = quasi_partition_refine(h, y, x)
    fine = set(components(h, x))
    coarse = set(components(h, y))
    assert set(fibers) == coarse
    seen = [c for parts in fibers.values() for c in parts]
    assert sorted(seen, key=sorted) == sorted(fine, key=sorted)
    for home, parts in fibers.items():
        for part in parts:
            assert part <= home


def test_connected_subsets_are_computed_once_per_hypergraph():
    h, twin = Hypergraph("xyz", XYZ), Hypergraph("xyz", XYZ)
    masks = connected_subset_masks(h)
    assert masks == (0b001, 0b010, 0b100, 0b111)
    assert connected_subset_masks(h) is masks
    assert twin._connected_subsets is None


def _brute_connected_subsets(h):
    return tuple(
        sorted((s for s in range(1, h.full_mask + 1) if h.connected_mask(s)), key=h._edge_key)
    )


def _random_atomic(rng, n):
    atoms = [f"a{i}" for i in range(n)]
    edges = [[a] for a in atoms]
    edges += [rng.sample(atoms, rng.randint(2, 4)) for _ in range(rng.randint(1, 2 * n))]
    return Hypergraph(atoms, edges)


def test_connected_subsets_match_the_brute_force_filter(small_corpus, named):
    rng = random.Random(8)
    randoms = [_random_atomic(rng, n) for n in range(7, 11) for _ in range(6)]
    for h in [*small_corpus, *named.values(), *randoms]:
        assert connected_subset_masks(h) == _brute_connected_subsets(h), h


def test_connected_subsets_match_the_brute_force_filter_past_one_block():
    """Past 12 atoms the subsets are held in several blocks, one per high
    part (the atoms from 12 on)."""
    rng = random.Random(30)
    for n in (11, 12, 13, 13, 14, 14):
        h = _random_atomic(rng, n)
        masks = connected_subset_masks(h)
        assert masks == _brute_connected_subsets(h), h
        if n > 12:
            assert len({m >> 12 for m in masks}) > 1, h


def _graph(n, pairs):
    atoms = [f"a{i}" for i in range(n)]
    return Hypergraph(atoms, [[a] for a in atoms] + [[atoms[i], atoms[j]] for i, j in pairs])


@pytest.mark.parametrize("n", range(12, 17))
def test_complete_graph_has_every_subset_connected(n):
    masks = connected_subset_masks(_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)]))
    assert len(masks) == 2**n - 1 and len(set(masks)) == len(masks)


@pytest.mark.parametrize("n", [13, 24, 40, 80])
def test_path_has_its_intervals_connected(n):
    masks = connected_subset_masks(_graph(n, [(i, i + 1) for i in range(n - 1)]))
    assert len(masks) == n * (n + 1) // 2
    assert set(masks) == {(1 << j + 1) - (1 << i) for i in range(n) for j in range(i, n)}


def test_path_in_shuffled_order_has_its_runs_connected():
    """The edges meet the atoms out of carrier order, so a set grows by
    edges that come before the ones it grew by."""
    n = 40
    order = random.Random(30).sample(range(n), n)
    masks = connected_subset_masks(_graph(n, [(order[i], order[i + 1]) for i in range(n - 1)]))
    runs = {sum(1 << a for a in order[i : j + 1]) for i in range(n) for j in range(i, n)}
    assert len(masks) == len(runs) and set(masks) == runs


@pytest.mark.parametrize("n", [3, 5, 13, 24, 40])
def test_cycle_has_its_arcs_connected(n):
    """n arcs of each length 1 .. n - 1, and the whole cycle."""
    masks = connected_subset_masks(_graph(n, [(i, (i + 1) % n) for i in range(n)]))
    assert len(masks) == n * (n - 1) + 1


def test_connected_subsets_sort_as_the_edge_key_past_fourteen_atoms():
    """The read-out adds each block's high part to a table of low parts;
    past 14 atoms a high part is wider than 2 bits, and the order must
    still be _edge_key's."""
    rng = random.Random(37)
    inputs = [_random_atomic(rng, n) for n in (15, 15, 16, 16)]
    inputs += [_graph(n, [(i, i + 1) for i in range(n - 1)]) for n in (24, 40, 80)]
    inputs.append(_graph(40, [(i, (i + 1) % 40) for i in range(40)]))
    for h in inputs:
        masks = connected_subset_masks(h)
        assert len({m >> 12 for m in masks}) > 4, h
        assert masks == tuple(sorted(masks, key=h._edge_key)), h


def test_components_come_by_lowest_atom(small_corpus, named):
    """The tree kernel keeps this order for children wherever the atoms
    its trees span cover the region, and sorts them only elsewhere."""
    for h in [*small_corpus, *named.values()]:
        for sub in range(h.full_mask + 1):
            comps = h.components_mask(sub)
            lows = [c & -c for c in comps]
            assert lows == sorted(lows) and sum(comps) == sub, (h, sub)


def test_connected_subsets_do_not_walk_every_mask():
    """A path of n atoms has n(n+1)/2 connected subsets among 2^n masks; a
    walk over the masks would not end at 80 atoms."""
    for n in (24, 80):
        atoms = [f"a{i}" for i in range(n)]
        edges = [[a] for a in atoms] + [[atoms[i], atoms[i + 1]] for i in range(n - 1)]
        h = Hypergraph(atoms, edges)
        masks = connected_subset_masks(h)
        assert len(masks) == n * (n + 1) // 2
        assert masks[-1] == h.full_mask


def test_edge_order_is_canonical_past_atom_63():
    atoms = [f"a{i}" for i in range(80)]
    edges = [[a] for a in atoms] + [[atoms[i], atoms[i + 1]] for i in range(60, 79)]
    h1, h2 = Hypergraph(atoms, edges), Hypergraph(atoms, edges[::-1])
    assert h1 == h2 and hash(h1) == hash(h2)
    assert h1.to_json_dict() == h2.to_json_dict()
    pairs = h1.to_json_dict()["hyperedges"][80:]
    assert pairs == [[atoms[i], atoms[i + 1]] for i in range(60, 79)]
