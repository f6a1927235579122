import numpy as np
import pytest

from helpers import brute_force_project, random_alignment_links, random_graph, random_partial, random_sentence
from sdpkit.errors import GraphError, ProjectionError
from sdpkit.graph import Edge, PartialGraph, SemanticGraph
from sdpkit.projection import (IntersectedAlignment, density_sample, heldout_split,
                               intersect_alignments, project_graph)


def brute_force_one_to_one(links):
    """Oracle: keep a link iff no other link shares its source or target."""
    kept = set()
    for s, t in links:
        clash = any((s2 == s or t2 == t) and (s2, t2) != (s, t) for s2, t2 in links)
        if not clash:
            kept.add((s, t))
    return kept


class TestIntersect:
    def test_plain_intersection(self):
        a = intersect_alignments({(1, 1), (2, 3)}, {(1, 1)})
        assert a.mapping() == {1: 1}

    def test_doubly_linked_target_drops_both(self):
        links = {(1, 2), (2, 2)}
        a = intersect_alignments(links, links)
        assert a.links == frozenset()

    def test_empty(self):
        a = intersect_alignments(set(), set())
        assert a.links == frozenset()
        assert a.mapping() == {}

    def test_output_one_to_one_and_subset_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            m, n = int(rng.integers(1, 10)), int(rng.integers(1, 10))
            fwd = random_alignment_links(rng, m, n, p=0.6)
            bwd = random_alignment_links(rng, m, n, p=0.6)
            inter = fwd & bwd
            a = intersect_alignments(fwd, bwd)
            assert a.links <= inter
            assert a.links == brute_force_one_to_one(inter)

    def test_constructor_rejects_many_to_one(self):
        with pytest.raises(ProjectionError, match="one-to-one"):
            IntersectedAlignment(frozenset({(1, 2), (3, 2)}))

    @pytest.mark.parametrize("link", [(0, 1), (1, 0)])
    def test_constructor_rejects_a_zero_position(self, link):
        with pytest.raises(ProjectionError, match=rf"link \({link[0]},{link[1]}\) must be 1-based"):
            IntersectedAlignment(frozenset({link}))


def sentence(n, rng=None):
    return random_sentence(rng or np.random.default_rng(99), n)


class TestProjectGraph:
    def test_paper_style_edge_and_top_transfer(self):
        src = SemanticGraph(sentence(4),
                            frozenset({(0, 2, "TOP"), (2, 4, "ADDR-arg")}))
        a = IntersectedAlignment(frozenset({(2, 3), (4, 4)}))
        out = project_graph(src, a, sentence(5))
        assert (3, 4, "ADDR-arg") in out.graph.edges
        assert out.graph.tops == {3}
        assert out.aligned == {0, 3, 4}

    def test_unaligned_endpoint_drops_edge(self):
        src = SemanticGraph(sentence(2), frozenset({(2, 1, "ACT-arg")}))
        a = IntersectedAlignment(frozenset({(2, 1)}))  # source 1 unaligned
        out = project_graph(src, a, sentence(3))
        assert out.graph.edges == frozenset()
        assert out.aligned == {0, 1}  # cell (1, 2) is undecided

    def test_identity_alignment_reproduces_source(self):
        rng = np.random.default_rng(1)
        src = random_graph(rng, n=6)
        a = IntersectedAlignment(frozenset((j, j) for j in range(1, 7)))
        out = project_graph(src, a, src.sentence)
        assert out.graph.edges == src.edges
        assert out.aligned == frozenset(range(7))

    def test_alignment_exceeding_target_length(self):
        src = SemanticGraph(sentence(2), frozenset())
        a = IntersectedAlignment(frozenset({(1, 9)}))
        with pytest.raises(ProjectionError, match="exceeds"):
            project_graph(src, a, sentence(3))

    def test_alignment_source_exceeding_source_length(self):
        # target 3 would count as decided with no source token behind it
        src = SemanticGraph(sentence(2), frozenset({(0, 1, "TOP"), (1, 2, "ACT-arg")}))
        a = IntersectedAlignment(frozenset({(1, 1), (2, 2), (9, 3)}))
        with pytest.raises(ProjectionError, match="alignment source 9 exceeds sentence length 2"):
            project_graph(src, a, sentence(3))

    def test_never_more_edges_and_labels_verbatim(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            m, n = int(rng.integers(1, 13)), int(rng.integers(1, 13))
            src = random_graph(rng, n=m)
            targets = list(range(1, n + 1))
            rng.shuffle(targets)
            links = set()
            for s in range(1, m + 1):
                if targets and rng.random() < 0.5:
                    links.add((s, targets.pop()))
            a = IntersectedAlignment(frozenset(links))
            out = project_graph(src, a, sentence(n, rng))
            assert len(out.graph.edges) <= len(src.edges)
            assert {l for _, _, l in out.graph.edges} <= \
                {l for _, _, l in src.edges} | set()
            for h, d, _ in out.graph.edges:
                assert h in out.aligned and d in out.aligned

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(400):
            m, n = int(rng.integers(1, 13)), int(rng.integers(1, 13))
            src = random_graph(rng, n=m)
            targets = list(range(1, n + 1))
            rng.shuffle(targets)
            links = set()
            for s in range(1, m + 1):
                if targets and rng.random() < 0.5:
                    links.add((s, targets.pop()))
            a = IntersectedAlignment(frozenset(links))
            tgt = sentence(n, rng)
            expected = brute_force_project(src, dict(links), tgt)
            actual = project_graph(src, a, tgt)
            assert actual.graph.edges == expected.graph.edges
            assert actual.aligned == expected.aligned


def _projected_density(links, target_length: int) -> float:
    """`PartialGraph.density` of an edgeless source projected through `links`."""
    src = SemanticGraph(sentence(max([s for s, _ in links], default=1)), frozenset())
    return project_graph(src, IntersectedAlignment(frozenset(links)),
                         sentence(target_length)).density()


class TestDensity:
    """The aligned share of target tokens, as `PartialGraph.density` reports it."""

    def test_eight_of_ten(self):
        assert _projected_density({(j, j) for j in range(1, 9)}, 10) == 0.8

    def test_extremes(self):
        assert _projected_density(set(), 5) == 0.0
        assert _projected_density({(j, j) for j in range(1, 6)}, 5) == 1.0

    def test_zero_length_rejected(self):
        with pytest.raises(GraphError, match="empty sentence"):
            PartialGraph(SemanticGraph((), frozenset()), frozenset()).density()

    def test_monotone_in_aligned_set(self):
        assert _projected_density({(1, 1)}, 4) < _projected_density({(1, 1), (2, 2)}, 4)


def partial_with_density(rng, density, n=10):
    k = round(density * n)
    aligned = frozenset(int(j) for j in rng.choice(n, size=k, replace=False) + 1)
    return PartialGraph(SemanticGraph(sentence(n, rng), frozenset()), aligned)


class TestDensitySample:
    def test_exact_half_split(self):
        rng = np.random.default_rng(5)
        corpus = [partial_with_density(rng, d)
                  for d in [0.3] * 40 + [0.9] * 40]
        out = density_sample(corpus, 40, 0.8, seed=1)
        below = sum(1 for g in out if g.density() < 0.8)
        assert below == 20 and len(out) == 40

    def test_two_of_two(self):
        rng = np.random.default_rng(6)
        corpus = [partial_with_density(rng, 0.1), partial_with_density(rng, 0.9)]
        out = density_sample(corpus, 2, 0.5, seed=0)
        assert len(out) == 2 and set(map(id, out)) == set(map(id, corpus))

    def test_insufficient_side_is_error(self):
        rng = np.random.default_rng(7)
        corpus = [partial_with_density(rng, 0.1)] + \
                 [partial_with_density(rng, 0.9) for _ in range(5)]
        with pytest.raises(ProjectionError, match="each side"):
            density_sample(corpus, 4, 0.5, seed=0)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(8)
        corpus = [partial_with_density(rng, d) for d in ([0.2] * 30 + [0.9] * 30)]
        a = density_sample(corpus, 20, 0.5, seed=3)
        b = density_sample(corpus, 20, 0.5, seed=3)
        c = density_sample(corpus, 20, 0.5, seed=4)
        assert [id(g) for g in a] == [id(g) for g in b]
        assert [id(g) for g in a] != [id(g) for g in c]

    def test_odd_size_rejected(self):
        with pytest.raises(ProjectionError, match="even"):
            density_sample([], 3, 0.5, seed=0)

    @pytest.mark.parametrize("size", [0, -2])
    def test_size_not_positive_rejected(self, size):
        with pytest.raises(ProjectionError, match=f"positive and even, got {size}"):
            density_sample([], size, 0.5, seed=0)

    def test_density_at_the_threshold_counts_as_above(self):
        rng = np.random.default_rng(9)
        corpus = [partial_with_density(rng, 0.4), partial_with_density(rng, 0.5)]
        assert density_sample(corpus, 2, 0.5, seed=0) == corpus

    def test_sample_is_pinned_for_a_seed(self):
        # Which sentences a seed picks is part of a run's output (numpy 2.4.6 streams).
        rng = np.random.default_rng(8)
        corpus = [partial_with_density(rng, d) for d in [0.2] * 10 + [0.9] * 10]
        out = density_sample(corpus, 6, 0.5, seed=0)
        assert [next(k for k, g in enumerate(corpus) if g is o) for o in out] == \
            [2, 6, 7, 10, 16, 17]


class TestHeldoutSplit:
    def test_ninety_five_five(self):
        train, held = heldout_split(list(range(100)), 0.05, seed=0)
        assert len(train) == 95 and len(held) == 5
        assert sorted(train + held) == list(range(100))

    def test_half_of_two(self):
        train, held = heldout_split([1, 2], 0.5, seed=0)
        assert len(train) == 1 and len(held) == 1

    def test_same_seed_same_split(self):
        corpus = list(range(50))
        assert heldout_split(corpus, 0.2, seed=9) == heldout_split(corpus, 0.2, seed=9)

    def test_split_is_pinned_for_a_seed(self):
        # Which sentences a seed holds out is part of a run's output (numpy 2.4.6 streams).
        assert heldout_split(list(range(20)), 0.25, seed=0)[1] == [0, 5, 7, 14, 17]

    def test_empty_corpus(self):
        with pytest.raises(ProjectionError, match="cannot split an empty corpus"):
            heldout_split([], 0.5, seed=0)

    @pytest.mark.parametrize("corpus,fraction,empty", [
        (list(range(10)), 0.01, "no held-out"), ([7], 0.5, "no held-out"),
        (list(range(10)), 0.99, "no training")], ids=["none-held-out", "one-sentence", "all"])
    def test_empty_part_rejected(self, corpus, fraction, empty):
        message = f"fraction of {fraction} of {len(corpus)} sentences leaves {empty}"
        with pytest.raises(ProjectionError, match=message):
            heldout_split(corpus, fraction, seed=0)

    def test_bad_fraction(self):
        with pytest.raises(ProjectionError):
            heldout_split([1], 1.5, seed=0)

    @pytest.mark.parametrize("fraction", [0, 1, -0.5, 1.5])
    def test_fraction_outside_the_open_interval_refused(self, fraction):
        with pytest.raises(ProjectionError, match=rf"fraction must be in \(0,1\), got {fraction}"):
            heldout_split(list(range(10)), fraction, seed=0)
