"""The example corpus: named families only at sizes that have labels,
and the isomorph-free corpus built once."""

import pytest

from hgpoly import HypergraphError, corpus

FAMILIES = [corpus.simplex, corpus.complete_graph, corpus.path_graph, corpus.cycle_graph]


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
def test_named_families_refuse_sizes_without_labels(family):
    for n in (0, 7, 9):
        with pytest.raises(HypergraphError, match="between 1 and 6"):
            family(n)
    for n in range(1, 7):
        assert len(family(n).carrier) == n


def test_isomorph_free_corpus_is_built_once():
    first = corpus.small_corpus()
    assert isinstance(first, tuple) and len(first) == 179
    assert corpus.small_corpus() is first
    assert corpus.all_connected_atomic(4) is corpus.all_connected_atomic(4)
    assert first[-171:] == corpus.all_connected_atomic(4)
