import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdpkit.errors import SynthError
from sdpkit.graph import ROOT, is_acyclic
from sdpkit.projection import intersect_alignments
from sdpkit.synth import (_POS_CLASSES, CORPUS_FILES, SynthConfig, _sample_pos_sequence,
                          _weighted_pick, synth_corpus, write_corpus)

CONFIGS = {
    "A": SynthConfig(sentences=80, seed=1),
    # one- to three-token sentences: single-candidate picks, label noise
    "B": SynthConfig(sentences=40, seed=7, min_len=1, max_len=3, reentrancy=1.0,
                     agreement=0.0, density=0.3, edge_noise=0.5),
    # picks over 8 or more candidates, where numpy sums pairwise
    "C": SynthConfig(sentences=20, seed=11, min_len=13, max_len=25, reentrancy=0.5,
                     agreement=0.5, edge_noise=0.2),
}

# sha256 over the five written files, in CORPUS_FILES order. The draws come from
# numpy's Generator streams, which numpy does not promise to keep across
# versions; these were taken with numpy 2.4.6.
GOLDEN = {
    "A": "23c206da842c895db3a14e373e3e9d3525831a37e96bc2166e10c507946d1753",
    "B": "54dcb633068bbd21a48d3d9e5b4e90be93d56745bc55e13d8e3148d189bd24c8",
    "C": "92c6806f95851995e246e0d3ebc3e9e138f1a60f05a26ea3987125d9c29372ec",
}


def corpus_bytes(cfg: SynthConfig, outdir) -> list[bytes]:
    paths = write_corpus(synth_corpus(cfg), str(outdir))
    assert [p.rsplit("/", 1)[-1] for p in paths] == list(CORPUS_FILES)
    contents = []
    for path in paths:
        with open(path, "rb") as f:
            contents.append(f.read())
    return contents


@pytest.mark.parametrize("settings,message", [
    ({"sentences": 0}, "sentences must be >= 1"),
    ({"min_len": 0}, r"invalid length range \[0,12\]"),
    ({"min_len": 4, "max_len": 3}, r"invalid length range \[4,3\]"),
    ({"density": 1.5}, r"density must be in \[0,1\], got 1.5"),
    ({"reentrancy": -0.5}, r"reentrancy must be in \[0,1\], got -0.5"),
], ids=["sentences", "min_len", "min-above-max", "density", "reentrancy"])
def test_config_refuses_infeasible_settings(settings, message):
    with pytest.raises(SynthError, match=message):
        SynthConfig(**{"sentences": 1, **settings})


def test_equal_min_and_max_length_give_that_length():
    corpus = synth_corpus(SynthConfig(sentences=3, min_len=4, max_len=4))
    assert [len(s) for s in corpus.target_sentences] == [4, 4, 4]


@pytest.fixture(scope="module")
def corpora():
    return {name: synth_corpus(cfg) for name, cfg in CONFIGS.items()}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_corpus_digest(name, tmp_path):
    digest = hashlib.sha256(b"".join(corpus_bytes(CONFIGS[name], tmp_path))).hexdigest()
    assert digest == GOLDEN[name], f"numpy {np.__version__}"


def test_equal_configs_give_equal_files(tmp_path):
    cfg = SynthConfig(sentences=15, seed=4, edge_noise=0.3)
    assert corpus_bytes(cfg, tmp_path / "a") == corpus_bytes(cfg, tmp_path / "b")


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       weights=st.lists(st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=30),
                        min_size=1, max_size=4))
def test_weighted_pick_matches_generator_choice(seed, weights):
    ours, numpy_ = np.random.default_rng(seed), np.random.default_rng(seed)
    for w in weights:
        p = np.array(w)
        p /= p.sum()
        assert _weighted_pick(ours, w) == int(numpy_.choice(len(w), p=p))
        assert ours.bit_generator.state == numpy_.bit_generator.state


class GivenUniforms(np.random.Generator):
    """A generator whose uniforms are given, so that a draw can fall exactly on
    the edge between two outcomes. `Generator.choice` draws through `random`."""

    def __init__(self, uniforms):
        super().__init__(np.random.PCG64(0))
        self.uniforms = list(uniforms)

    def random(self, size=None, dtype=np.float64, out=None):
        values = [self.uniforms.pop(0) for _ in range(int(np.prod(size or 1)))]
        return values[0] if size is None else np.reshape(values, size)


@settings(max_examples=100, deadline=None)
@given(weights=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=30))
def test_weighted_pick_matches_generator_choice_on_the_edges(weights):
    p = np.array(weights)
    p /= p.sum()
    cdf = p.cumsum()
    # the edges as choice finds them, and as a pick would that skipped the
    # rescale by the last entry or normalised with Python's sum
    edges = set(cdf / cdf[-1]) | set(cdf) | set(np.cumsum(np.array(weights) / sum(weights)))
    for u in sorted(e for e in edges if e < 1.0):
        expected = int(GivenUniforms([u]).choice(len(weights), p=p))
        assert _weighted_pick(GivenUniforms([u]), weights) == expected


def test_pos_sequence_matches_generator_choice_on_the_edges():
    probs = [0.45, 0.2, 0.2, 0.15]
    cdf = np.cumsum(probs)
    uniforms = [0.0, *(cdf[:-1] / cdf[-1]), *cdf[:-1], 0.5]
    expected = GivenUniforms(uniforms).choice(4, size=len(uniforms), p=probs)
    assert "V" in [_POS_CLASSES[i] for i in expected]  # so no integer is drawn
    assert _sample_pos_sequence(GivenUniforms(uniforms), len(uniforms)) == \
        [_POS_CLASSES[i] for i in expected]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_gold_graph_is_acyclic_with_one_top(corpora, name):
    for _, g in corpora[name].target_gold:
        assert is_acyclic(g)
        assert len(g.tops) == 1


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_every_tree_has_one_root_and_reaches_it(corpora, name):
    for tree in corpora[name].trees:
        assert tree.heads.count(ROOT) == 1
        for j in range(1, tree.n + 1):
            steps = 0
            while j != ROOT:
                j = tree.head_of(j)
                steps += 1
                assert steps <= tree.n


def test_full_agreement_puts_each_syntactic_head_among_the_semantic_heads():
    corpus = synth_corpus(SynthConfig(sentences=20, seed=2, agreement=1.0, reentrancy=0.5))
    for (_, g), tree in zip(corpus.target_gold, corpus.trees):
        for j in range(1, g.n + 1):
            assert tree.head_of(j) in {e.head for e in g.edges if e.dependent == j}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_alignment_intersection_is_the_backward_one_to_one_map(corpora, name):
    corpus = corpora[name]
    assert len(corpus.forward) == len(corpus.backward) == len(corpus.trees)
    for fwd, bwd in zip(corpus.forward, corpus.backward):
        assert bwd <= fwd
        assert intersect_alignments(fwd, bwd).links == bwd
        assert all(s == t for s, t in bwd)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_source_edges_are_gold_edges_on_aligned_cells(corpora, name):
    corpus = corpora[name]
    noisy = CONFIGS[name].edge_noise > 0
    relabelled = 0
    for (_, gold), (_, source), links in zip(corpus.target_gold, corpus.source,
                                             corpus.backward):
        aligned = {ROOT} | {t for _, t in links}
        kept = {e for e in gold.edges if e.head in aligned and e.dependent in aligned}
        assert source.unlabeled() == {(e.head, e.dependent) for e in kept}
        if not noisy:
            assert source.edges == kept
        relabelled += len(source.edges - kept)
    assert (relabelled > 0) == noisy
