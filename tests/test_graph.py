import io

import numpy as np
import pytest

from sdpkit.errors import FormatError, GraphError
from sdpkit.formats import SdpDocument, write_sdp
from sdpkit.graph import (PartialGraph, SemanticGraph, SyntacticTree, as_partial,
                          as_semantic, is_acyclic, make_sentence)


def graph(n, edges):
    return SemanticGraph(make_sentence([f"w{i}" for i in range(1, n + 1)]),
                         frozenset(edges))


def brute_force_has_cycle(n, pairs):
    """DFS cycle detector used as the oracle for is_acyclic."""
    adj = {}
    for h, d in pairs:
        if h >= 1:
            adj.setdefault(h, []).append(d)

    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in range(1, n + 1)}

    def visit(v):
        color[v] = GRAY
        for w in adj.get(v, []):
            if color[w] == GRAY:
                return True
            if color[w] == WHITE and visit(w):
                return True
        color[v] = BLACK
        return False

    return any(color[v] == WHITE and visit(v) for v in range(1, n + 1))


class TestConstruction:
    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            graph(3, {(2, 2, "A")})

    def test_conflicting_labels_rejected(self):
        with pytest.raises(GraphError, match="conflicting"):
            graph(3, {(1, 2, "A"), (1, 2, "B")})

    @pytest.mark.parametrize("label", ["", 5])
    def test_empty_or_non_string_label_rejected(self, label):
        with pytest.raises(GraphError, match=r"edge \(1,2\) has an empty label"):
            graph(3, {(1, 2, label)})

    def test_root_edge_must_be_top(self):
        with pytest.raises(GraphError, match="TOP"):
            graph(3, {(0, 2, "A")})

    def test_out_of_range_endpoints(self):
        with pytest.raises(GraphError):
            graph(3, {(1, 4, "A")})
        with pytest.raises(GraphError):
            graph(3, {(4, 1, "A")})

    def test_tops_derived_from_root_edges(self):
        g = graph(3, {(0, 2, "TOP"), (2, 1, "A")})
        assert g.tops == {2}

    def test_noncontiguous_sentence_rejected(self):
        from sdpkit.graph import Token
        with pytest.raises(GraphError, match="contiguous from 1; position 2 holds index 3"):
            SemanticGraph((Token(1, "a"), Token(3, "b")), frozenset())

    def test_token_index_starts_at_1(self):
        from sdpkit.graph import Token
        assert Token(1, "a").index == 1
        with pytest.raises(GraphError, match="token index must be >= 1, got 0"):
            Token(0, "a")

    @pytest.mark.parametrize("edge,message", [((1, 0, "A"), r"dependent 0 out of range 1\.\.3"),
                                              ((-1, 1, "A"), r"head -1 out of range 0\.\.3")],
                             ids=["dependent", "head"])
    def test_endpoint_out_of_range_is_named(self, edge, message):
        with pytest.raises(GraphError, match=message):
            graph(3, {edge})

    def test_make_sentence_needs_equal_lengths(self):
        with pytest.raises(GraphError, match="forms, lemmas, and pos must have equal lengths"):
            make_sentence(["a", "b"], pos=["N"])

    def test_empty_form_rejected(self):
        with pytest.raises(GraphError, match="token 2 has an empty form"):
            make_sentence(["a", ""])


def _write(g):
    buf = io.StringIO()
    write_sdp(SdpDocument((("s1", g),)), buf)
    return buf.getvalue()


class TestValidateGraph:
    """The check `write_sdp` makes: acyclic graphs are writable, whatever their top count."""

    def test_empty_graph_non_strict(self):
        for tops in (set(), {(0, 1, "TOP")}, {(0, 1, "TOP"), (0, 2, "TOP")}):
            assert _write(graph(3, tops)).startswith("#s1\n")

    def test_two_cycle_reported(self):
        g = graph(2, {(1, 2, "A"), (2, 1, "B")})
        with pytest.raises(FormatError, match="'s1' is not writable: graph contains a directed cycle"):
            _write(g)


class TestAcyclicity:
    def test_chain(self):
        assert is_acyclic(graph(3, {(1, 2, "A"), (2, 3, "B")}))

    def test_three_cycle(self):
        assert not is_acyclic(graph(3, {(1, 2, "A"), (2, 3, "B"), (3, 1, "C")}))

    def test_forward_edge_dag_200_nodes(self):
        rng = np.random.default_rng(0)
        n = 200
        edges = set()
        for d in range(2, n + 1):
            for h in rng.choice(d - 1, size=min(3, d - 1), replace=False):
                edges.add((int(h) + 1, d, "L"))
        assert is_acyclic(graph(n, edges))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = int(rng.integers(1, 13))
            cells = [(h, d) for h in range(1, n + 1) for d in range(1, n + 1) if h != d]
            count = int(rng.integers(0, len(cells) + 1)) if cells else 0
            chosen = [cells[i] for i in rng.choice(len(cells), size=count, replace=False)] \
                if count else []
            g = graph(n, {(h, d, "L") for h, d in chosen})
            assert is_acyclic(g) == (not brute_force_has_cycle(n, chosen))


class TestPartialGraph:
    def test_root_always_aligned(self):
        pg = PartialGraph(graph(3, set()), frozenset({1}))
        assert 0 in pg.aligned

    @pytest.mark.parametrize("index", [-1, 4])
    def test_aligned_index_out_of_range_rejected(self, index):
        with pytest.raises(GraphError, match=rf"aligned index {index} out of range 0\.\.3"):
            PartialGraph(graph(3, set()), frozenset({1, index}))

    def test_edge_outside_mask_rejected(self):
        g = graph(3, {(1, 2, "A")})
        with pytest.raises(GraphError, match="unaligned"):
            PartialGraph(g, frozenset({1}))

    def test_one_token_sentence_has_a_density(self):
        assert PartialGraph(graph(1, set()), frozenset({1})).density() == 1.0

    def test_fully_aligned_mask_is_all_decided(self):
        g = graph(3, {(0, 1, "TOP"), (1, 2, "A")})
        pg = PartialGraph(g, frozenset({1, 2, 3}))
        assert pg.aligned == frozenset(range(4)) and pg.density() == 1.0
        assert as_partial(g) == pg

    def test_as_semantic_strips_the_mask_only(self):
        g = graph(3, {(0, 1, "TOP"), (1, 2, "A")})
        partial = PartialGraph(g, frozenset({1, 2}))
        assert as_semantic(partial) is g
        assert as_semantic(g) is g
        assert as_semantic(as_partial(g)) is g

    def test_density(self):
        pg = PartialGraph(graph(10, set()), frozenset(range(1, 9)))
        assert pg.density() == 0.8


class TestSyntacticTree:
    def test_single_token_root(self):
        t = SyntacticTree(make_sentence(["a"]), (0,), ("root",))
        assert t.head_of(1) == 0 and t.deprel_of(1) == "root"

    def test_self_head_rejected(self):
        with pytest.raises(GraphError):
            SyntacticTree(make_sentence(["a", "b"]), (0, 2), ("root", "x"))

    def test_head_out_of_range(self):
        with pytest.raises(GraphError):
            SyntacticTree(make_sentence(["a", "b"]), (0, 9), ("root", "x"))

    @pytest.mark.parametrize("heads,deprels", [((0,), ("root", "x")), ((0, 1), ("root",))],
                             ids=["heads-short", "deprels-short"])
    def test_heads_and_deprels_must_match_the_length(self, heads, deprels):
        with pytest.raises(GraphError, match="heads and deprels must match the sentence length"):
            SyntacticTree(make_sentence(["a", "b"]), heads, deprels)

    def test_cycles_and_extra_roots_are_representable(self):
        # construction checks ranges and self-heads only
        cyclic = SyntacticTree(make_sentence(["a", "b", "c"]), (0, 3, 2), ("root", "x", "y"))
        assert cyclic.heads == (0, 3, 2)
        two_roots = SyntacticTree(make_sentence(["a", "b"]), (0, 0), ("root", "root"))
        assert two_roots.heads == (0, 0)
