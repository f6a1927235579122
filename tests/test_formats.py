import io
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_graph, random_partial, random_tree
from sdpkit.errors import FormatError
from sdpkit.formats import (AlignmentFile, SdpDocument, atomic_open, check_sentence_ids, conllu_id,
                            read_alignments, read_conllu, read_sdp, read_word_vectors,
                            write_alignments, write_conllu, write_sdp)
from sdpkit.graph import PartialGraph, SemanticGraph, SyntacticTree, make_sentence


def sdp_roundtrip(doc: SdpDocument) -> SdpDocument:
    buf = io.StringIO()
    write_sdp(doc, buf)
    return read_sdp(io.StringIO(buf.getvalue()))


SIMPLE_BLOCK = """#s1
1\tRok\trok\tN\t-\t-\t_\t_
2\tkoncici\tkoncit\tV\t+\t+\t_\t_
3\tprosinec\tprosinec\tN\t-\t-\t_\tPAT-arg
"""


# two sentences in the SemEval 2015 layout: the file header, then blocks
# whose seventh column is FRAME
SDP_2015_FILE = """#SDP 2015
#20001001
1\tPierre\tPierre\tNNP\t-\t-\t_\tcompound
2\tVinken\tVinken\tNNP\t+\t+\tnamed:x-c\t_

#20001002
1\tMr.\tMr.\tNNP\t-\t+\tn:x\t_
2\tVinken\tVinken\tNNP\t+\t-\t_\tcompound
"""


class TestReadSdp:
    def test_the_2015_file_header_is_skipped_and_not_written_back(self):
        doc = read_sdp(io.StringIO(SDP_2015_FILE))
        assert [sid for sid, _ in doc] == ["20001001", "20001002"]
        first, second = doc.graphs()
        assert first.edges == {(0, 2, "TOP"), (2, 1, "compound")}
        assert [t.frame for t in first.sentence] == ["", "named:x-c"]
        assert second.edges == {(0, 2, "TOP"), (1, 2, "compound")}
        buf = io.StringIO()
        write_sdp(doc, buf)
        assert buf.getvalue() == SDP_2015_FILE.split("\n", 1)[1]

    @pytest.mark.parametrize("text,sentences", [("#SDP 2015\n", 0),
                                                ("#SDP 2015\n\n" + SIMPLE_BLOCK, 1)])
    def test_the_2015_header_alone_or_before_a_blank_line(self, text, sentences):
        assert len(read_sdp(io.StringIO(text))) == sentences

    @pytest.mark.parametrize("text,message", [
        (SIMPLE_BLOCK + "\n" + SDP_2015_FILE, "line 6: sentence id 'SDP 2015' would not read back"),
        ("\n" + SDP_2015_FILE, "line 2: sentence id 'SDP 2015' would not read back"),
        ("#x\n" + SDP_2015_FILE, "line 2: unexpected extra comment '#SDP 2015'"),
        ("#SDP 2015 \n#x\n1\ta\ta\tN\t-\t-\t_\n", "line 1: sentence id 'SDP 2015' would not"),
    ], ids=["later-block", "after-a-blank-line", "after-an-id", "trailing-space"])
    def test_the_2015_header_anywhere_else_is_refused(self, text, message):
        with pytest.raises(FormatError, match=message):
            read_sdp(io.StringIO(text))

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

    def test_non_numeric_aligned_index_is_an_error_at_its_line(self):
        text = "#x\n#aligned: 1 a\n1\ta\ta\tN\t-\t-\t_\n"
        with pytest.raises(FormatError, match="line 2: non-numeric aligned index 'a'"):
            read_sdp(io.StringIO(text))

    def test_second_aligned_comment_is_an_error(self):
        text = "#x\n#aligned: 1\n#aligned: 1 2\n1\ta\ta\tN\t-\t-\t_\n2\tb\tb\tN\t-\t-\t_\n"
        with pytest.raises(FormatError, match="line 3: second #aligned: comment"):
            read_sdp(io.StringIO(text))

    def test_missing_header_is_error(self):
        with pytest.raises(FormatError, match="header"):
            read_sdp(io.StringIO("1\ta\ta\tN\t-\t-\t_\n"))

    def test_second_header_is_an_error_at_its_line(self):
        with pytest.raises(FormatError, match="line 2: unexpected extra comment '#y'"):
            read_sdp(io.StringIO("#x\n#y\n1\ta\ta\tN\t-\t-\t_\n"))

    def test_comment_after_token_lines_is_an_error_at_its_line(self):
        with pytest.raises(FormatError, match="line 3: comment after token lines"):
            read_sdp(io.StringIO("#x\n1\ta\ta\tN\t-\t-\t_\n#y\n"))

    def test_header_without_token_lines_is_an_error_at_the_block(self):
        with pytest.raises(FormatError, match="line 4: sentence 'y' has no token lines"):
            read_sdp(io.StringIO("#x\n1\ta\ta\tN\t-\t-\t_\n\n#y\n"))

    def test_ragged_columns_error_with_line_number(self):
        text = "#x\n1\ta\ta\tN\t-\t-\t_\n2\tb\tb\tN\t-\t-\n"
        with pytest.raises(FormatError, match="line 3"):
            read_sdp(io.StringIO(text))

    def test_extra_arg_column_references_non_predicate(self):
        text = "#x\n1\ta\ta\tN\t-\t-\t_\tPAT\n"
        with pytest.raises(FormatError, match="^line 2: 1 argument columns but 0 predicates; "
                                              "an argument column would reference a "
                                              "non-predicate$"):
            read_sdp(io.StringIO(text))

    def test_non_contiguous_ids(self):
        text = "#x\n1\ta\ta\tN\t-\t-\t_\n3\tb\tb\tN\t-\t-\t_\n"
        with pytest.raises(FormatError, match="line 3: token ids must be contiguous from 1, "
                                              "got '3'"):
            read_sdp(io.StringIO(text))

    def test_duplicate_sentence_ids(self):
        text = "#x\n1\ta\ta\tN\t-\t-\t_\n\n#x\n1\ta\ta\tN\t-\t-\t_\n"
        with pytest.raises(FormatError, match="occur more than once"):
            read_sdp(io.StringIO(text))

    @pytest.mark.parametrize("header,sid", [("# aligned: 1", "aligned: 1"),
                                            ("#a\tb", "a\tb"), ("#a\rb", "a\rb")])
    def test_unreadable_header_id_is_an_error_at_its_line(self, header, sid):
        text = f"#x\n1\ta\ta\tN\t-\t-\t_\n\n{header}\n1\ta\ta\tN\t-\t-\t_\n"
        with pytest.raises(FormatError, match=re.escape(f"line 4: sentence id {sid!r} would "
                                                        "not read back")):
            read_sdp(io.StringIO(text))

    def test_empty_form_is_an_error_at_its_line(self):
        text = "#x\n#aligned: 1\n1\ta\ta\tN\t-\t-\t_\n2\t\tb\tN\t-\t-\t_\n"
        with pytest.raises(FormatError, match="line 4: token 2 has an empty form"):
            read_sdp(io.StringIO(text))

    @pytest.mark.parametrize("column,name", [(4, "TOP"), (5, "PRED")])
    def test_flag_column_must_be_plus_or_minus(self, column, name):
        row = ["2", "b", "b", "N", "-", "-", "_"]
        row[column] = "x"
        text = "#x\n1\ta\ta\tN\t-\t-\t_\n" + "\t".join(row) + "\n"
        with pytest.raises(FormatError, match=f"line 3: {name} column must be '\\+' or '-', "
                                              "got 'x'"):
            read_sdp(io.StringIO(text))

    @pytest.mark.parametrize("block,message", [
        ("#x\n#aligned: 9\n1\ta\ta\tN\t-\t-\t_\n", r"aligned index 9 out of range 0\.\.1"),
        ("#x\n1\ta\ta\tN\t-\t+\t_\tA\n", "self-loop at token 1"),
    ], ids=["aligned-index", "self-loop"])
    def test_graph_error_is_an_error_at_the_block(self, block, message):
        with pytest.raises(FormatError, match=f"line 2: {message}"):
            read_sdp(io.StringIO("\n" + block))


class TestSentenceIds:
    @pytest.mark.parametrize("ids", [[], ["s1", "s2"], ["a b", "", "x aligned:", "#y"],
                                     ["SDP 20150", "x SDP 2015"]])
    def test_ids_that_read_back_pass(self, ids):
        check_sentence_ids(ids)
        doc = SdpDocument(tuple((sid, SemanticGraph(make_sentence(["a"]), frozenset()))
                                for sid in ids))
        assert sdp_roundtrip(doc) == doc

    @pytest.mark.parametrize("ids,message", [
        (["a", "b", "a", "b", "c"], "sentence ids ['a', 'b'] occur more than once"),
        (["ok", "a\nb"], "sentence id 'a\\nb' would not read back"),
        (["a\rb"], "sentence id 'a\\rb' would not read back"),
        (["a\tb"], "sentence id 'a\\tb' would not read back"),
        (["\u00a0x"], "sentence id '\\xa0x' would not read back"),
        (["aligned:x"], "sentence id 'aligned:x' would not read back"),
        (["SDP 2015"], "sentence id 'SDP 2015' would not read back"),
    ], ids=["repeated", "newline", "carriage-return", "tab", "leading-space", "aligned",
            "sdp-2015-header"])
    def test_ids_that_would_not_read_back_are_refused(self, ids, message):
        with pytest.raises(FormatError, match=f"^line 7: {re.escape(message)}$"):
            check_sentence_ids(ids, 7)
        graph = SemanticGraph(make_sentence(["a"]), frozenset())
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            SdpDocument(tuple((sid, graph) for sid in ids))


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

    def test_empty_cell_label_rejected(self):
        g = SemanticGraph(make_sentence(["a", "b"]), frozenset({(1, 2, "_")}))
        with pytest.raises(FormatError, match="label '_' cannot be written"):
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
        buf = io.StringIO()
        try:
            doc = SdpDocument(((sid, SemanticGraph(make_sentence(["a"]), frozenset())),))
        except FormatError:
            return
        write_sdp(doc, buf)
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

    def test_head_out_of_range_is_an_error_at_its_line(self):
        text = ("1\ta\ta\tN\t_\t_\t0\troot\t_\t_\n2\tb\tb\tN\t_\t_\t1\tdep\t_\t_\n"
                "3\tc\tc\tN\t_\t_\t9\tdep\t_\t_\n")
        with pytest.raises(FormatError, match=r"^line 3: head 9 out of range 0\.\.3$"):
            read_conllu(io.StringIO(text))

    def test_multiword_and_empty_nodes_skipped(self):
        text = ("1-2\tdu\t_\t_\t_\t_\t_\t_\t_\t_\n"
                "1\tde\tde\tADP\t_\t_\t2\tcase\t_\t_\n"
                "1.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_\n"
                "2\tle\tle\tDET\t_\t_\t0\troot\t_\t_\n")
        trees = read_conllu(io.StringIO(text))
        assert trees[0].n == 2

    def test_empty_form_is_an_error_at_its_line(self):
        text = "# sent_id = x\n1\ta\ta\tN\t_\t_\t0\troot\t_\t_\n2\t\tb\tN\t_\t_\t1\tdep\t_\t_\n"
        with pytest.raises(FormatError, match="line 3: token 2 has an empty form"):
            read_conllu(io.StringIO(text))

    def test_an_underscore_form_round_trips(self):
        tree = SyntacticTree(make_sentence(["_"], lemmas=[""]), (0,), ("root",),
                             ("# sent_id = u",))
        buf = io.StringIO()
        write_conllu([tree], buf)
        assert buf.getvalue() == "# sent_id = u\n1\t_\t_\t_\t_\t_\t0\troot\t_\t_\n"
        assert read_conllu(io.StringIO(buf.getvalue())) == [tree]
        assert conllu_id(tree) == "u"

    def test_own_head_is_an_error_at_the_block(self):
        with pytest.raises(FormatError, match="line 2: token 1 is its own head"):
            read_conllu(io.StringIO("\n1\ta\ta\tN\t_\t_\t1\tdep\t_\t_\n"))

    def test_comment_after_token_lines_is_an_error_at_its_line(self):
        with pytest.raises(FormatError, match="line 2: comment after token lines"):
            read_conllu(io.StringIO("1\ta\ta\tN\t_\t_\t0\troot\t_\t_\n# c\n"))

    def test_non_numeric_head(self):
        with pytest.raises(FormatError, match="line 1: non-numeric head 'x'"):
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


class TestAtomicOpen:
    def test_new_file_gets_the_mode_open_gives_it(self, tmp_path):
        with atomic_open(str(tmp_path / "atomic")) as f:
            f.write("x")
        with open(tmp_path / "plain", "w", encoding="utf-8") as f:
            f.write("x")
        assert os.stat(tmp_path / "atomic").st_mode == os.stat(tmp_path / "plain").st_mode


class TestWordVectors:
    def test_basic_and_header(self):
        text = "2 3\nrok 1 2 3\nzprava 4 5 6\n"
        vecs = read_word_vectors(io.StringIO(text), 3, {"rok", "zprava"})
        assert set(vecs) == {"rok", "zprava"}
        np.testing.assert_array_equal(vecs["rok"], [1, 2, 3])
        # at dimension 1 a first line "10 3" is the vector of the word "10", not
        # a header: a header's second field is the dimension
        vecs = read_word_vectors(io.StringIO("10 3\n20 4\n"), 1, {"10", "20"})
        assert {word: list(vec) for word, vec in vecs.items()} == {"10": [3.0], "20": [4.0]}
        assert set(read_word_vectors(io.StringIO("2 1\n10 3\n20 4\n"), 1,
                                     {"2", "10", "20"})) == {"10", "20"}

    def test_bad_width(self):
        with pytest.raises(FormatError):
            read_word_vectors(io.StringIO("rok 1 2\n"), 3, {"rok"})

    def test_non_numeric_component_rejected_at_its_line(self):
        with pytest.raises(FormatError, match="line 2: non-numeric vector component"):
            read_word_vectors(io.StringIO("rok 1 2\nzprava 3 x\n"), 2, {"rok", "zprava"})

    @pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "-Infinity", "1e999"])
    def test_non_finite_component_rejected_at_its_line(self, value):
        with pytest.raises(FormatError, match=f"line 2: non-finite vector component '{value}'"):
            read_word_vectors(io.StringIO(f"rok 1 2\nzprava {value} 3\n"), 2, {"rok", "zprava"})

    def test_blank_lines_are_skipped_and_keep_the_line_count(self):
        vecs = read_word_vectors(io.StringIO("\nrok 1 2\n  \nzprava 0 0\n"), 2, {"rok", "zprava"})
        assert {word: list(vec) for word, vec in vecs.items()} == {"rok": [1.0, 2.0],
                                                                  "zprava": [0.0, 0.0]}
        with pytest.raises(FormatError, match="line 3: expected a word and 2 values, got 2"):
            read_word_vectors(io.StringIO("rok 1 2\n\nzprava 3\n"), 2, {"rok", "zprava"})

    def test_a_header_is_read_on_the_first_line_only(self):
        with pytest.raises(FormatError, match="line 2: expected a word and 2 values, got 2"):
            read_word_vectors(io.StringIO("rok 1 2\n1 2\n"), 2, {"rok", "1"})

    def test_only_the_given_words_are_kept(self):
        vecs = read_word_vectors(io.StringIO("rok 1 2\nzprava 3 4\nden 5 6\n"), 2, {"zprava"})
        assert {word: list(vec) for word, vec in vecs.items()} == {"zprava": [3.0, 4.0]}

    @pytest.mark.parametrize("line,message", [
        ("den 5", "expected a word and 2 values, got 2 fields"),
        ("den 5 x", "non-numeric vector component"),
        ("den 5 inf", "non-finite vector component 'inf'")])
    def test_a_malformed_line_is_refused_though_its_word_is_not_kept(self, line, message):
        with pytest.raises(FormatError, match=f"line 2: {message}"):
            read_word_vectors(io.StringIO(f"rok 1 2\n{line}\nzprava 3 4\n"), 2, {"rok"})
