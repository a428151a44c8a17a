"""The one-pass cycle analysis against the component-list scan it replaced.

On every sowing graph of up to three vertices (each edge set, self-loops
included, by each nonempty Ruma set: 3,634 graphs) the single Tarjan
pass must give the finiteness witness and the on-cycle marks that the
two-pass oracle reads off the sorted strongly connected components.
"""

import itertools

import tchoukaillon.graph as graph_module
from tchoukaillon import SowingGraph, has_finite_game_graph

from graph_oracle import cycles_by_components


def small_graphs(max_vertices):
    for n in range(1, max_vertices + 1):
        pairs = list(itertools.product(range(n), repeat=2))
        for mask in range(1 << len(pairs)):
            edges = frozenset(p for bit, p in enumerate(pairs) if mask >> bit & 1)
            for size in range(1, n + 1):
                for ruma in itertools.combinations(range(n), size):
                    yield SowingGraph(n, edges, frozenset(ruma))


def test_cycle_pass_on_every_graph_of_three_vertices():
    count = 0
    for graph in small_graphs(3):
        witness, on_cycle = cycles_by_components(graph)
        assert graph_module._cycles(graph) == (witness, on_cycle), graph
        assert has_finite_game_graph(graph) == (witness is None, witness), graph
        count += 1
    assert count == 3634
