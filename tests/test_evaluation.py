import numpy as np
from hypothesis import given, settings, strategies as st

from helpers import LABELS, brute_force_score, random_graph, random_partial
from sdpkit.evaluation import score_graphs
from sdpkit.graph import Edge, PartialGraph, SemanticGraph


def _prediction(rng, gold: SemanticGraph) -> SemanticGraph:
    """Some gold edges kept, some relabelled, plus random edges on other cells."""
    edges = set()
    for h, d, label in gold.edges:
        r = rng.random()
        if r < 0.4:
            edges.add(Edge(h, d, label))
        elif r < 0.7 and h != 0:
            edges.add(Edge(h, d, str(rng.choice(LABELS))))
    cells = gold.unlabeled()
    edges |= {e for e in random_graph(rng, n=gold.n).edges
              if (e.head, e.dependent) not in cells}
    return SemanticGraph(gold.sentence, frozenset(edges))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_score_graphs_matches_brute_force(seed, sentences):
    rng = np.random.default_rng(seed)
    gold = [random_partial(rng) if rng.random() < 0.5 else random_graph(rng)
            for _ in range(sentences)]
    plain_gold = [g.graph if isinstance(g, PartialGraph) else g for g in gold]
    predicted = [_prediction(rng, g) for g in plain_gold]
    report = score_graphs(predicted, gold)
    assert (report.labeled_gold, report.labeled_pred, report.labeled_correct,
            report.unlabeled_gold, report.unlabeled_pred, report.unlabeled_correct) == \
        brute_force_score(predicted, plain_gold)
