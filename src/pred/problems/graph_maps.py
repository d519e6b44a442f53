"""The forward maps that keep the graph and change the question: MIS to VC
and back (a cover is an independent set's complement), and unit to integer
vertex weights.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .graph import GraphData, IndependentSet, VertexCover

if TYPE_CHECKING:
    from ..model import Problem


def forward_mis_to_vc(instance: IndependentSet) -> tuple[Problem, dict]:
    return VertexCover(instance.graph), {"num_vertices": instance.graph.num_vertices}


def forward_vc_to_mis(instance: VertexCover) -> tuple[Problem, dict]:
    return IndependentSet(instance.graph), {"num_vertices": instance.graph.num_vertices}


def forward_mis_unit_to_integer(instance: IndependentSet) -> tuple[Problem, dict]:
    g = instance.graph
    weighted = GraphData(g.num_vertices, g.edges, (1,) * g.num_vertices)
    return IndependentSet(weighted), {"scale": 1, "offset": 0}
