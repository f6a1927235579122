import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import LABELS, brute_force_score, random_graph, random_partial
from sdpkit.errors import ScoringError
from sdpkit.evaluation import (ScoreReport, at_decided_cells, format_report, head_match_stats,
                               label_contribution, length_buckets, score_graphs)
from sdpkit.graph import (Edge, PartialGraph, SemanticGraph, SyntacticTree, as_partial,
                          make_sentence)


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


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_the_decided_cell_lf_is_the_lf_on_fully_decided_gold(seed):
    rng = np.random.default_rng(seed)
    gold = [random_graph(rng) for _ in range(3)]
    predicted = [_prediction(rng, g) for g in gold]
    for fully_decided in (gold, [as_partial(g) for g in gold]):
        assert at_decided_cells(predicted, fully_decided) == predicted
        assert score_graphs(at_decided_cells(predicted, fully_decided), fully_decided) == \
            score_graphs(predicted, fully_decided)


def test_an_edge_at_an_undecided_cell_lowers_the_lf_and_not_the_decided_cell_lf():
    # token 3 is unaligned, so every cell in its row or column is undecided
    right = _graph(3, {(0, 1, "TOP"), (1, 2, "A")})
    gold = PartialGraph(right, frozenset({1, 2}))
    extra = _graph(3, {*right.edges, (2, 3, "A"), (0, 3, "TOP")})
    assert at_decided_cells([extra], [gold]) == [right]
    lfs = {}
    for name, pred in (("right", right), ("extra", extra)):
        lfs[name] = (score_graphs([pred], [gold]).lf,
                     score_graphs(at_decided_cells([pred], [gold]), [gold]).lf)
    assert lfs == {"right": (1.0, 1.0), "extra": (pytest.approx(2 / 3), 1.0)}
    with pytest.raises(ScoringError, match="corpus size mismatch"):
        at_decided_cells([extra], [gold, gold])


def _graph(n, edges):
    return SemanticGraph(make_sentence([f"w{i}" for i in range(1, n + 1)]), frozenset(edges))


def _tree(heads, deprels):
    return SyntacticTree(make_sentence([f"w{i}" for i in range(1, len(heads) + 1)]),
                         tuple(heads), tuple(deprels))


def test_length_buckets_split_at_4_5_and_9_10_without_top_edges():
    # predicted non-top edges of lengths 4, 5, 9 and 10; the (wrongly labelled)
    # length-5 and the length-10 edge are wrong; the top edge is left out
    gold = _graph(11, {(0, 1, "TOP"), (1, 5, "A"), (1, 6, "B"), (1, 10, "A"), (11, 1, "A")})
    predicted = _graph(11, {(0, 1, "TOP"), (1, 5, "A"), (1, 6, "A"), (1, 10, "A"), (1, 11, "A")})
    stats = length_buckets([PartialGraph(predicted, frozenset(range(12)))], [gold])
    assert {b: (s.predicted, s.correct) for b, s in stats.items()} == \
        {"4": (1, 1), "5-9": (2, 1), ">=10": (1, 0)}
    assert stats["5-9"].precision == 0.5 and stats[">=10"].precision == 0.0
    assert list(stats) == ["4", "5-9", ">=10"]  # buckets 1, 2 and 3 hold no edge: absent


def test_length_buckets_take_each_length_either_way_and_come_in_bucket_order():
    # one edge of each length from token 1 rightwards and one into token 41
    # from its left, so each length points both ways; labels are all correct
    lengths = (1, 2, 3, 4, 5, 9, 10, 40)
    want = ("1", "2", "3", "4", "5-9", "5-9", ">=10", ">=10")
    for length, bucket in zip(lengths, want):
        for edge in ((1, 1 + length, "A"), (41, 41 - length, "A")):
            g = _graph(41, {edge})
            assert {b: (s.predicted, s.correct) for b, s in
                    length_buckets([g], [g]).items()} == {bucket: (1, 1)}, (edge, bucket)
    both_ways = _graph(41, {e for length in lengths
                            for e in ((1, 1 + length, "A"), (41, 41 - length, "A"))})
    stats = length_buckets([both_ways], [both_ways])
    assert list(stats) == ["1", "2", "3", "4", "5-9", ">=10"]
    assert [stats[b].predicted for b in stats] == [2, 2, 2, 2, 4, 4]


def test_head_match_stats_counts_match_and_mismatch_per_improvement_set():
    # syntactic heads 1<-2, 2<-root, 3<-2, 4<-3
    tree = _tree((2, 0, 2, 3), ("nsubj", "root", "obj", "amod"))
    # gold semantic heads: 1 <- 2, 2 <- root (TOP), 3 <- 4, token 4 has none.
    # Token 1: its syntactic head is a semantic head (match). Token 2: matches
    # through the root. Token 3: its semantic head 4 is its syntactic dependent
    # (mismatch). Token 4: neither.
    gold = _graph(4, {(2, 1, "A"), (0, 2, "TOP"), (4, 3, "B")})
    # A gets tokens 1 and 3 right; it misses the top of 2 and adds a head to 4
    pred_a = _graph(4, {(2, 1, "A"), (4, 3, "B"), (1, 4, "A")})
    # B gets tokens 2 and 4 right and token 1 right only unlabeled
    pred_b = _graph(4, {(0, 2, "TOP"), (2, 1, "B")})
    stats = head_match_stats([gold], [tree], [pred_a], [pred_b])
    got = {mode: {key: (s.tokens, s.match_rate, s.mismatch_rate) for key, s in sets.items()}
           for mode, sets in stats.items()}
    assert got == {
        "labeled": {"a_improved": (2, 0.5, 0.5), "b_improved": (2, 0.5, 0.0)},
        "unlabeled": {"a_improved": (1, 0.0, 1.0), "b_improved": (2, 0.5, 0.0)},
    }
    # equal systems improve no token: both rates are None, not 0
    same = head_match_stats([gold], [tree], [pred_a], [pred_a])
    for sets in same.values():
        for s in sets.values():
            assert (s.tokens, s.match_rate, s.mismatch_rate) == (0, None, None)


def test_mismatch_counts_a_semantic_head_at_position_1():
    # token 2's semantic head is token 1, whose syntactic head is token 2
    tree = _tree((2, 0), ("nsubj", "root"))
    gold = _graph(2, {(0, 1, "TOP"), (1, 2, "A")})
    stats = head_match_stats([gold], [tree], [gold], [_graph(2, {(0, 1, "TOP")})])
    s = stats["labeled"]["a_improved"]
    assert (s.tokens, s.match_rate, s.mismatch_rate) == (1, 0.0, 1.0)


def test_a_top_edge_is_no_mismatch():
    # token 1's only semantic head is the root; the root is no token, so no
    # syntactic edge can run against it (heads[-1] is token 2's head, 1)
    tree = _tree((0, 1), ("root", "nsubj"))
    gold = _graph(2, {(0, 1, "TOP")})
    stats = head_match_stats([gold], [tree], [gold], [_graph(2, set())])
    s = stats["labeled"]["a_improved"]
    assert (s.tokens, s.match_rate, s.mismatch_rate) == (1, 1.0, 0.0)


def test_length_buckets_refuse_an_empty_corpus():
    with pytest.raises(ScoringError, match="cannot bucket an empty corpus"):
        length_buckets([], [])


@pytest.mark.parametrize("predicted,message", [
    ([_graph(2, set())], "corpus size mismatch: 1 predicted vs 2 gold sentences"),
    ([_graph(2, set()), _graph(3, set())],
     r"sentence 2: length mismatch \(3 predicted vs 4 gold\)"),
], ids=["size", "length"])
def test_score_graphs_refuses_misaligned_corpora(predicted, message):
    with pytest.raises(ScoringError, match=message):
        score_graphs(predicted, [_graph(2, set()), _graph(4, set())])


def test_label_contribution_is_a_percentage_by_dependent_deprel():
    tree = _tree((0, 1, 1, 3, 3), ("root", "nsubj", "obj", "nsubj", "amod"))
    gold = _graph(5, {(0, 1, "TOP"), (1, 2, "A"), (1, 3, "B"), (3, 4, "A"), (3, 5, "B")})
    # multitask finds four gold edges (the top edge too) and relabels (3, 5)
    multi = _graph(5, {(0, 1, "TOP"), (1, 2, "A"), (1, 3, "B"), (3, 4, "A"), (3, 5, "A")})
    single = _graph(5, {(1, 3, "B")})
    contribution = label_contribution([multi], [single], [gold], [tree])
    assert contribution == {"nsubj": pytest.approx(200 / 3), "root": pytest.approx(100 / 3)}
    assert sum(contribution.values()) == pytest.approx(100.0)
    assert label_contribution([single], [multi], [gold], [tree]) == {}


@pytest.mark.parametrize("counts,decided_lf,text", [
    ((7, 5, 4, 7, 6, 5), 0.8,
     "lp=0.800000 lr=0.571429 lf=0.666667 up=0.833333 ur=0.714286 uf=0.769231 "
     "decided_lf=0.800000\n"
     "labeled_gold=7 labeled_pred=5 labeled_correct=4 unlabeled_gold=7 unlabeled_pred=6 "
     "unlabeled_correct=5\n"
     "           P       R       F1\n"
     "labeled    0.8000  0.5714  0.6667\n"
     "unlabeled  0.8333  0.7143  0.7692"),
    ((0, 0, 0, 3, 0, 0), 0.0,
     "lp=0.000000 lr=0.000000 lf=0.000000 up=0.000000 ur=0.000000 uf=0.000000 "
     "decided_lf=0.000000\n"
     "labeled_gold=0 labeled_pred=0 labeled_correct=0 unlabeled_gold=3 unlabeled_pred=0 "
     "unlabeled_correct=0\n"
     "           P       R       F1\n"
     "labeled    0.0000  0.0000  0.0000\n"
     "unlabeled  0.0000  0.0000  0.0000"),
], ids=["counts", "nothing-predicted"])
def test_format_report_text(counts, decided_lf, text):
    assert format_report(ScoreReport(*counts), decided_lf) == text
