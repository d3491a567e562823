"""The example corpus: named families only at sizes that have labels,
and hypergraphs built fresh on each call over one isomorphism search per
size."""

from itertools import combinations, permutations
from math import factorial

import pytest

from hgpoly import Hypergraph, HypergraphError, corpus
from hgpoly.constructs import enumerate_constructs, leq
from hgpoly.hypergraph import is_connected

FAMILIES = [corpus.simplex, corpus.complete_graph, corpus.path_graph, corpus.cycle_graph]


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
def test_named_families_refuse_sizes_without_labels(family):
    for n in (0, 7, 9):
        with pytest.raises(HypergraphError, match="between 1 and 6"):
            family(n)
    for n in range(1, 7):
        assert len(family(n).carrier) == n


def test_isomorph_free_corpus_is_searched_once_and_built_fresh():
    first = corpus.small_corpus()
    searches = corpus._classes.cache_info().misses
    again = corpus.small_corpus()
    assert isinstance(first, tuple) and len(first) == 179
    assert again == first and all(a is not b for a, b in zip(again, first))
    assert first[-171:] == corpus.all_connected_atomic(4)
    assert corpus._classes.cache_info().misses == searches  # one search per size


def test_the_isomorph_free_search_refuses_sizes_past_its_limit():
    for n in (5, 6):
        with pytest.raises(HypergraphError, match=f"at most 4 atoms, got {n}"):
            corpus.all_connected_atomic(n)
    for n in (0, 7):
        with pytest.raises(HypergraphError, match="between 1 and 6"):
            corpus.all_connected_atomic(n)


def _labelled_families(n_atoms):
    """Every connected atomic hypergraph on the first n_atoms labels, as
    (atoms, family, edges), in ascending order of the family's
    bits over the candidates numbered by size, then in combinations order."""
    atoms = corpus.ATOMS[:n_atoms]
    candidates = [frozenset(s) for r in range(2, n_atoms + 1) for s in combinations(atoms, r)]
    for bits in range(1 << len(candidates)):
        family = frozenset(c for i, c in enumerate(candidates) if bits >> i & 1)
        edges = [(a,) for a in atoms] + [tuple(s) for s in family]
        if is_connected(Hypergraph(atoms, edges)):
            yield atoms, family, edges


def _oracle_classes(n_atoms):
    """One representative per isomorphism class, brute force: each family's
    canonical form is its least sorted tuple of edge masks under every atom
    permutation, and the first family met with a new form is kept."""
    seen, out = set(), []
    for atoms, family, edges in _labelled_families(n_atoms):
        idx = {a: i for i, a in enumerate(atoms)}
        key = min(
            tuple(sorted(sum(1 << idx[p[a]] for a in s) for s in family))
            for p in (dict(zip(atoms, q)) for q in permutations(atoms))
        )
        if key not in seen:
            seen.add(key)
            out.append(Hypergraph(atoms, edges))
    return out


def _automorphisms(h):
    edges = set(h.hyperedges)
    return sum(
        {frozenset(p[a] for a in e) for e in edges} == edges
        for p in (dict(zip(h.carrier, q)) for q in permutations(h.carrier))
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_mask_search_keeps_the_brute_force_classes_in_order(n):
    got = corpus.all_connected_atomic(n)
    assert list(got) == _oracle_classes(n)
    # orbit-stabilizer: the classes' orbits add up to every labelled family
    labelled = sum(1 for _ in _labelled_families(n))
    assert labelled == (1, 1, 12, 1990)[n - 1]
    assert sum(factorial(n) // _automorphisms(h) for h in got) == labelled


def test_named_corpus_results_share_no_memos():
    first, second = corpus.named_corpus(), corpus.named_corpus()
    assert first == second
    for name, h in first.items():
        assert h is not second[name]
        faces = enumerate_constructs(h)
        for s in faces:
            leq(s, faces[0], h, "rules")
            leq(s, faces[0], h, "v2")
        assert h._mask_cache and any(entry[2] for entry in h._face_cache.values())
    for h in second.values():
        assert not h._mask_cache and not h._face_cache
