"""The example corpus: named families only at sizes that have labels,
and hypergraphs built fresh on each call over one isomorphism search per
size."""

import pytest

from hgpoly import HypergraphError, corpus
from hgpoly.constructs import enumerate_constructs, leq

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


def test_named_corpus_results_share_no_memos():
    first, second = corpus.named_corpus(), corpus.named_corpus()
    assert first == second
    for name, h in first.items():
        assert h is not second[name]
        faces = enumerate_constructs(h)
        for s in faces:
            leq(s, faces[0], h, "rules")
            leq(s, faces[0], h, "v2")
        assert h._mask_cache and h._up_cache
    for h in second.values():
        assert not h._mask_cache and not h._up_cache
