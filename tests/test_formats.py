import io
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_graph, random_partial, random_tree, write_context_vectors
from sdpkit.errors import FormatError
from sdpkit.formats import (AlignmentFile, SdpDocument, read_alignments, read_conllu,
                            read_context_vectors, read_sdp, read_word_vectors,
                            write_alignments, write_conllu, write_sdp)
from sdpkit.graph import PartialGraph, make_sentence


def sdp_roundtrip(doc: SdpDocument) -> SdpDocument:
    buf = io.StringIO()
    write_sdp(doc, buf)
    return read_sdp(io.StringIO(buf.getvalue()))


SIMPLE_BLOCK = """#s1
1\tRok\trok\tN\t-\t-\t_\t_
2\tkoncici\tkoncit\tV\t+\t+\t_\t_
3\tprosinec\tprosinec\tN\t-\t-\t_\tPAT-arg
"""


class TestReadSdp:
    def test_direct_column_semantics(self):
        doc = read_sdp(io.StringIO(SIMPLE_BLOCK))
        assert len(doc) == 1
        sid, g = doc.sentences[0]
        assert sid == "s1"
        assert g.tops == {2}
        assert g.edges == {(0, 2, "TOP"), (2, 3, "PAT-arg")}

    def test_no_predicates_means_no_edges(self):
        text = "#x\n1\ta\ta\tN\t-\t-\t_\n2\tb\tb\tN\t-\t-\t_\n"
        doc = read_sdp(io.StringIO(text))
        assert doc.sentences[0][1].edges == frozenset()

    def test_aligned_comment_yields_partial_graph(self):
        text = "#x\n#aligned: 2\n1\ta\ta\tN\t-\t-\t_\n2\tb\tb\tN\t-\t-\t_\n"
        _, g = read_sdp(io.StringIO(text)).sentences[0]
        assert isinstance(g, PartialGraph)
        assert g.aligned == {0, 2}

    def test_second_aligned_comment_is_an_error(self):
        text = "#x\n#aligned: 1\n#aligned: 1 2\n1\ta\ta\tN\t-\t-\t_\n2\tb\tb\tN\t-\t-\t_\n"
        with pytest.raises(FormatError, match="line 3: second #aligned: comment"):
            read_sdp(io.StringIO(text))

    def test_missing_header_is_error(self):
        with pytest.raises(FormatError, match="header"):
            read_sdp(io.StringIO("1\ta\ta\tN\t-\t-\t_\n"))

    def test_ragged_columns_error_with_line_number(self):
        text = "#x\n1\ta\ta\tN\t-\t-\t_\n2\tb\tb\tN\t-\t-\n"
        with pytest.raises(FormatError, match="line 3"):
            read_sdp(io.StringIO(text))

    def test_extra_arg_column_references_non_predicate(self):
        text = "#x\n1\ta\ta\tN\t-\t-\t_\tPAT\n"
        with pytest.raises(FormatError, match="non-predicate"):
            read_sdp(io.StringIO(text))

    def test_non_contiguous_ids(self):
        text = "#x\n1\ta\ta\tN\t-\t-\t_\n3\tb\tb\tN\t-\t-\t_\n"
        with pytest.raises(FormatError, match="contiguous"):
            read_sdp(io.StringIO(text))

    def test_duplicate_sentence_ids(self):
        text = "#x\n1\ta\ta\tN\t-\t-\t_\n\n#x\n1\ta\ta\tN\t-\t-\t_\n"
        with pytest.raises(FormatError, match="duplicate"):
            read_sdp(io.StringIO(text))


class TestWriteSdp:
    def test_empty_document(self):
        buf = io.StringIO()
        write_sdp(SdpDocument(()), buf)
        assert buf.getvalue() == ""

    def test_one_top_one_edge_shape(self):
        g = random_graph(np.random.default_rng(0), n=1)  # placeholder to appease lint
        from sdpkit.graph import SemanticGraph
        g = SemanticGraph(make_sentence(["a", "b"]),
                          frozenset({(0, 1, "TOP"), (1, 2, "X")}))
        buf = io.StringIO()
        write_sdp(SdpDocument((("s", g),)), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "#s"
        assert lines[1].split("\t") == ["1", "a", "a", "_", "+", "+", "_", "_"]
        assert lines[2].split("\t") == ["2", "b", "b", "_", "-", "-", "_", "X"]

    def test_tab_in_label_rejected(self):
        from sdpkit.graph import SemanticGraph
        g = SemanticGraph(make_sentence(["a", "b"]), frozenset({(1, 2, "bad\tlabel")}))
        with pytest.raises(FormatError, match="tab"):
            write_sdp(SdpDocument((("s", g),)), io.StringIO())

    @pytest.mark.parametrize("sid", ["aligned: 1", "aligned:", " x", "x ", "\tx"])
    def test_sentence_id_that_would_not_read_back_rejected(self, sid):
        from sdpkit.graph import SemanticGraph
        g = SemanticGraph(make_sentence(["a"]), frozenset())
        with pytest.raises(FormatError, match=re.escape(repr(sid))):
            write_sdp(SdpDocument(((sid, g),)), io.StringIO())

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=6))
    def test_written_sentence_id_reads_back(self, sid):
        from sdpkit.graph import SemanticGraph
        doc = SdpDocument(((sid, SemanticGraph(make_sentence(["a"]), frozenset())),))
        buf = io.StringIO()
        try:
            write_sdp(doc, buf)
        except FormatError:
            return
        assert read_sdp(io.StringIO(buf.getvalue())) == doc

    def test_cyclic_graph_not_writable(self):
        from sdpkit.graph import SemanticGraph
        g = SemanticGraph(make_sentence(["a", "b"]),
                          frozenset({(1, 2, "A"), (2, 1, "B")}))
        with pytest.raises(FormatError, match="cycle"):
            write_sdp(SdpDocument((("s", g),)), io.StringIO())

    def test_fifty_random_graphs_roundtrip(self):
        rng = np.random.default_rng(7)
        doc = SdpDocument(tuple((f"g{i}", random_graph(rng, acyclic=True)) for i in range(50)))
        assert sdp_roundtrip(doc) == doc

    def test_partial_graphs_roundtrip_with_masks(self):
        rng = np.random.default_rng(8)
        doc = SdpDocument(tuple((f"p{i}", random_partial(rng)) for i in range(30)))
        back = sdp_roundtrip(doc)
        assert back == doc
        for (_, a), (_, b) in zip(doc, back):
            assert a.aligned == b.aligned

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 15))
    def test_roundtrip_property(self, seed, n):
        rng = np.random.default_rng(seed)
        doc = SdpDocument((("one", random_graph(rng, n=n, acyclic=True)),
                           ("two", random_partial(rng, n=n))))
        assert sdp_roundtrip(doc) == doc


CONLLU_BLOCK = """# sent_id = fig-tree
1\tRok\trok\tNOUN\t_\t_\t2\tamod\t_\t_
2\tkoncici\tkoncit\tVERB\t_\t_\t0\troot\t_\t_
3\t31\t31\tNUM\t_\t_\t5\tnummod\t_\t_
4\t.\t.\tPUNCT\t_\t_\t3\tpunct\t_\t_
5\tprosince\tprosinec\tNOUN\t_\t_\t2\tobl\t_\t_
6\t1988\t1988\tNUM\t_\t_\t5\tnummod\t_\t_
"""


class TestConllu:
    def test_single_token(self):
        trees = read_conllu(io.StringIO("1\ta\ta\tN\t_\t_\t0\troot\t_\t_\n"))
        assert len(trees) == 1
        assert trees[0].heads == (0,)
        assert trees[0].deprels == ("root",)

    def test_paper_figure_tree_roundtrips(self):
        trees = read_conllu(io.StringIO(CONLLU_BLOCK))
        t = trees[0]
        assert t.heads == (2, 0, 5, 3, 2, 5)
        assert t.deprels == ("amod", "root", "nummod", "punct", "obl", "nummod")
        assert t.comments == ("# sent_id = fig-tree",)
        buf = io.StringIO()
        write_conllu(trees, buf)
        assert read_conllu(io.StringIO(buf.getvalue())) == trees

    def test_head_out_of_range(self):
        text = "1\ta\ta\tN\t_\t_\t99\tdep\t_\t_\n" * 1
        with pytest.raises(FormatError, match="out of range"):
            read_conllu(io.StringIO(text + "2\tb\tb\tN\t_\t_\t0\troot\t_\t_\n"
                                    "3\tc\tc\tN\t_\t_\t1\tdep\t_\t_\n"
                                    "4\td\td\tN\t_\t_\t1\tdep\t_\t_\n"
                                    "5\te\te\tN\t_\t_\t1\tdep\t_\t_\n"))

    def test_multiword_and_empty_nodes_skipped(self):
        text = ("1-2\tdu\t_\t_\t_\t_\t_\t_\t_\t_\n"
                "1\tde\tde\tADP\t_\t_\t2\tcase\t_\t_\n"
                "1.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_\n"
                "2\tle\tle\tDET\t_\t_\t0\troot\t_\t_\n")
        trees = read_conllu(io.StringIO(text))
        assert trees[0].n == 2

    def test_non_numeric_head(self):
        with pytest.raises(FormatError, match="non-numeric"):
            read_conllu(io.StringIO("1\ta\ta\tN\t_\t_\tx\tdep\t_\t_\n"))

    @pytest.mark.parametrize("block", ["# sent_id = empty\n# text =\n",
                                       "1-2\tdu\t_\t_\t_\t_\t_\t_\t_\t_\n"],
                             ids=["comments", "multiword-only"])
    def test_block_without_token_lines_is_an_error(self, block):
        text = "1\ta\ta\tN\t_\t_\t0\troot\t_\t_\n\n" + block
        with pytest.raises(FormatError, match="line 3: sentence has no token lines"):
            read_conllu(io.StringIO(text))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 15))
    def test_roundtrip_property(self, seed, n):
        trees = [random_tree(np.random.default_rng(seed), n=n)]
        buf = io.StringIO()
        write_conllu(trees, buf)
        assert read_conllu(io.StringIO(buf.getvalue())) == trees


class TestAlignments:
    def test_zero_based_to_one_based(self):
        af = read_alignments(io.StringIO("0-2 3-3\n"))
        assert af.links[0] == {(1, 3), (4, 4)}

    def test_empty_line_is_empty_set(self):
        af = read_alignments(io.StringIO("\n0-0\n"))
        assert af.links[0] == frozenset()
        assert af.links[1] == {(1, 1)}

    def test_duplicates_collapse(self):
        af = read_alignments(io.StringIO("1-1 1-1\n"))
        assert af.links[0] == {(2, 2)}

    def test_malformed_pair(self):
        for bad in ("a-b\n", "3\n", "1-2-3\n", "-1-2\n"):
            with pytest.raises(FormatError, match="line 1"):
                read_alignments(io.StringIO(bad))

    def test_roundtrip_on_sets(self):
        rng = np.random.default_rng(3)
        links = []
        for _ in range(40):
            links.append(frozenset((int(s), int(t))
                                   for s, t in rng.integers(1, 20, size=(10, 2))))
        buf = io.StringIO()
        write_alignments(AlignmentFile(tuple(links)), buf)
        assert read_alignments(io.StringIO(buf.getvalue())).links == tuple(links)


class TestContextVectors:
    def test_two_tokens_dim_four(self):
        text = "1 2 3 4\n5 6 7 8\n"
        sents = read_context_vectors(io.StringIO(text), 4)
        assert len(sents) == 1
        np.testing.assert_array_equal(sents[0], [[1, 2, 3, 4], [5, 6, 7, 8]])

    def test_dim_mismatch(self):
        with pytest.raises(FormatError, match="expected 4"):
            read_context_vectors(io.StringIO("1 2 3 4 5\n"), 4)

    def test_zero_vectors_are_valid(self):
        sents = read_context_vectors(io.StringIO("0 0\n\n0 0\n"), 2)
        assert len(sents) == 2
        assert not sents[0].any()

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_component_rejected_at_its_line(self, value):
        with pytest.raises(FormatError, match=f"line 3: non-finite vector component '{value}'"):
            read_context_vectors(io.StringIO(f"1 2\n\n3 {value}\n"), 2)

    def test_roundtrip(self):
        rng = np.random.default_rng(4)
        sents = [rng.standard_normal((n, 3)) for n in (2, 5, 1)]
        buf = io.StringIO()
        write_context_vectors(sents, buf)
        back = read_context_vectors(io.StringIO(buf.getvalue()), 3)
        for a, b in zip(sents, back):
            np.testing.assert_array_equal(a, b)


class TestWordVectors:
    def test_basic_and_header(self):
        text = "2 3\nrok 1 2 3\nzprava 4 5 6\n"
        vecs = read_word_vectors(io.StringIO(text), 3)
        assert set(vecs) == {"rok", "zprava"}
        np.testing.assert_array_equal(vecs["rok"], [1, 2, 3])
        # at dimension 1 a first line "10 3" is the vector of the word "10", not
        # a header: a header's second field is the dimension
        vecs = read_word_vectors(io.StringIO("10 3\n20 4\n"), 1)
        assert {word: list(vec) for word, vec in vecs.items()} == {"10": [3.0], "20": [4.0]}
        assert set(read_word_vectors(io.StringIO("2 1\n10 3\n20 4\n"), 1)) == {"10", "20"}

    def test_bad_width(self):
        with pytest.raises(FormatError):
            read_word_vectors(io.StringIO("rok 1 2\n"), 3)

    @pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "1e999"])
    def test_non_finite_component_rejected_at_its_line(self, value):
        with pytest.raises(FormatError, match=f"line 2: non-finite vector component '{value}'"):
            read_word_vectors(io.StringIO(f"rok 1 2\nzprava {value} 3\n"), 2)
