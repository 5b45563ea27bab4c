"""GAPBS-style graph processing (Figure 9): CSR graphs, PageRank, BC."""

from repro.apps.gapbs.graph import CsrGraph
from repro.apps.gapbs.generator import generate_power_law_graph
from repro.apps.gapbs.pagerank import PageRankWorkload
from repro.apps.gapbs.bc import BetweennessWorkload
from repro.apps.gapbs.guide import BcFrontierGuide

__all__ = [
    "BcFrontierGuide",
    "BetweennessWorkload",
    "CsrGraph",
    "PageRankWorkload",
    "generate_power_law_graph",
]
