"""Cross-lingual semantic dependency parsing toolkit.

Projects semantic graph annotations from a source language onto a target
language through intersected word alignments, then trains a biaffine graph
parser on the projected partial data, optionally sharing encoder layers with
a syntactic dependency parsing auxiliary task.
"""

from .graph import (Edge, PartialGraph, SemanticGraph, SyntacticTree, Token, is_acyclic,
                    make_sentence)
from .formats import (AlignmentFile, SdpDocument, read_alignments, read_conllu,
                      read_sdp, write_alignments, write_conllu, write_sdp)
from .projection import (IntersectedAlignment, density_sample, heldout_split,
                         intersect_alignments, project_graph)
from .evaluation import ScoreReport, head_match_stats, label_contribution, length_buckets, score_graphs

__version__ = "0.1.0"
