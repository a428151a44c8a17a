"""The one-pass cycle analysis against the component-list scan it replaced.

On every sowing graph of up to three vertices (each edge set, self-loops
included, by each nonempty Ruma set: 3,634 graphs) and on 3,200 seeded
random graphs of 4-12 vertices, the single Tarjan pass must give the
finiteness witness and the on-cycle marks that the two-pass oracle reads
off the sorted strongly connected components.
"""

import itertools
import random

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


def test_cycle_pass_on_seeded_random_graphs():
    # Drawn as the benchmark's finiteness ops draw theirs: each edge,
    # self-loops included, with probability 0.25, and one or two Rumas.
    rng = random.Random(31)
    finite = 0
    for _ in range(3200):
        n = rng.randint(4, 12)
        edges = frozenset((a, b) for a in range(n) for b in range(n) if rng.random() < 0.25)
        graph = SowingGraph(n, edges, frozenset(rng.sample(range(n), rng.randint(1, 2))))
        witness, on_cycle = cycles_by_components(graph)
        assert graph_module._cycles(graph) == (witness, on_cycle), graph
        assert has_finite_game_graph(graph) == (witness is None, witness), graph
        finite += witness is None
    # both answers, about one game in three called finite
    assert 500 <= finite <= 2700
