"""The contract of the ten value classes, as a caller sees it.

Construction (positional, keyword, defaults), equality and hashing, the
repr text, immutability, ``__match_args__`` and the pickle and copy round
trips.  Each class is checked through the same table of samples.
"""

import copy
import pickle

import pytest

from tchoukaillon import (
    Board,
    Congruence,
    GameEdge,
    GameGraph,
    GraphBoard,
    IncreasingRemainderBoard,
    Move,
    PartialConstraint,
    RemainderBoard,
    SowingGraph,
    make_path,
)

MOVE = Move(1, 0, (1, 0))


class Case:
    """One value class: two unequal samples, keyword arguments that rebuild
    the first, the first's repr and the class's field names."""

    def __init__(self, make, other, kwargs, text, fields):
        self.make, self.other, self.kwargs, self.text, self.fields = make, other, kwargs, text, fields

    @property
    def cls(self):
        return type(self.make())


CASES = {
    "Board": Case(
        lambda: Board((1, 2)), lambda: Board((1,)), {"bins": (1, 2)}, "Board(bins=(1, 2))", ("bins",)
    ),
    "Congruence": Case(
        lambda: Congruence(1, 3),
        lambda: Congruence(2, 3),
        {"residue": 1, "modulus": 3},
        "Congruence(residue=1, modulus=3)",
        ("residue", "modulus"),
    ),
    "RemainderBoard": Case(
        lambda: RemainderBoard((1, 0), 3),
        lambda: RemainderBoard((1, 0)),
        {"residues": (1, 0), "n": 3},
        "RemainderBoard(residues=(1, 0), n=3)",
        ("residues", "n"),
    ),
    "IncreasingRemainderBoard": Case(
        lambda: IncreasingRemainderBoard((1, 3)),
        lambda: IncreasingRemainderBoard((1,)),
        {"values": (1, 3)},
        "IncreasingRemainderBoard(values=(1, 3))",
        ("values",),
    ),
    "PartialConstraint": Case(
        lambda: PartialConstraint({7: 2, 3: 1}),
        lambda: PartialConstraint({3: 1}),
        {"entries": ((3, 1), (7, 2))},
        "PartialConstraint(entries=((3, 1), (7, 2)))",
        ("entries",),
    ),
    "SowingGraph": Case(
        lambda: SowingGraph(2, frozenset({(1, 0)}), frozenset({0})),
        lambda: SowingGraph(2, frozenset({(1, 0), (0, 0)}), frozenset({0})),
        {"vertex_count": 2, "edges": frozenset({(1, 0)}), "ruma": frozenset({0})},
        "SowingGraph(vertex_count=2, edges=frozenset({(1, 0)}), ruma=frozenset({0}))",
        ("vertex_count", "edges", "ruma"),
    ),
    "GraphBoard": Case(
        lambda: GraphBoard((0, 1)),
        lambda: GraphBoard((1, 0)),
        {"labels": (0, 1)},
        "GraphBoard(labels=(0, 1))",
        ("labels",),
    ),
    "Move": Case(
        lambda: Move(1, 0, (1, 0)),
        lambda: Move(2, 0, (2, 1, 0)),
        {"vertex": 1, "ruma": 0, "path": (1, 0)},
        "Move(vertex=1, ruma=0, path=(1, 0))",
        ("vertex", "ruma", "path"),
    ),
    "GameEdge": Case(
        lambda: GameEdge(0, 1, (MOVE,)),
        lambda: GameEdge(1, 0, (MOVE,)),
        {"source": 0, "target": 1, "moves": (MOVE,)},
        "GameEdge(source=0, target=1, moves=(Move(vertex=1, ruma=0, path=(1, 0)),))",
        ("source", "target", "moves"),
    ),
    "GameGraph": Case(
        lambda: GameGraph((GraphBoard((0, 0)),), (), False),
        lambda: GameGraph((GraphBoard((0, 0)),), (), True),
        {"boards": (GraphBoard((0, 0)),), "edges": ()},
        "GameGraph(boards=(GraphBoard(labels=(0, 0)),), edges=(), truncated=False)",
        ("boards", "edges", "truncated"),
    ),
}

NAMESPACE = {name: case.cls for name, case in CASES.items()}

cases = pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())


@cases
def test_keyword_construction_equals_positional(case):
    assert case.cls(**case.kwargs) == case.make()


@cases
def test_equal_values_hash_alike(case):
    a, b = case.make(), case.make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b, case.other()}) == 2


@cases
def test_unequal_values(case):
    assert case.make() != case.other()


@cases
def test_other_classes_are_not_implemented(case):
    value = case.make()
    assert value.__eq__(object()) is NotImplemented
    assert value != object()
    assert value != tuple(getattr(value, name) for name in case.fields)
    for other in CASES.values():
        if other is not case:
            assert value.__eq__(other.make()) is NotImplemented
            assert value != other.make()


@cases
def test_repr(case):
    value = case.make()
    assert repr(value) == case.text
    assert eval(repr(value), NAMESPACE) == value


@cases
def test_fields_are_read_only(case):
    value = case.make()
    for name in case.fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == case.make()


def positional_parts(value, cls, arity):
    # A class pattern may name no more positions than __match_args__ has.
    match arity, value:
        case 1, cls(a):
            return (a,)
        case 2, cls(a, b):
            return (a, b)
        case 3, cls(a, b, c):
            return (a, b, c)
    return None


@cases
def test_match_args(case):
    value = case.make()
    assert case.cls.__match_args__ == case.fields
    assert positional_parts(value, case.cls, len(case.fields)) == tuple(getattr(value, n) for n in case.fields)


@cases
@pytest.mark.parametrize(
    "roundtrip",
    [
        lambda v: pickle.loads(pickle.dumps(v)),
        lambda v: pickle.loads(pickle.dumps(v, protocol=0)),
        copy.copy,
        copy.deepcopy,
    ],
    ids=["pickle", "pickle-0", "copy", "deepcopy"],
)
def test_round_trips(case, roundtrip):
    value = case.make()
    again = roundtrip(value)
    assert type(again) is case.cls
    assert again == value and hash(again) == hash(value)
    assert repr(again) == repr(value)


@cases
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy], ids=["copy", "deepcopy"])
def test_a_copy_is_the_value(case, clone):
    value = case.make()
    assert clone(value) is value


def test_defaults():
    assert Board() == Board(())
    assert RemainderBoard((1, 0)).n is None
    assert PartialConstraint() == PartialConstraint(())
    assert GameGraph((), ()).truncated is False


def test_sowing_graph_derived_attributes_survive_round_trips():
    graph = make_path(3)
    for again in (pickle.loads(pickle.dumps(graph)), copy.copy(graph), copy.deepcopy(graph)):
        assert again.successors == graph.successors == {0: (), 1: (0,), 2: (1,), 3: (2,)}
        assert again.bins == graph.bins == (1, 2, 3)


def test_sowing_graph_identity_is_its_three_fields():
    graph = make_path(3)
    graph.successors, graph.bins  # noqa: B018
    assert graph == make_path(3) and hash(graph) == hash(make_path(3))
    assert repr(graph).count("=") == 3


MOVES = [
    Move(2, 0, (2, 1, 0)),
    Move(1, 3, (1, 3)),
    Move(1, 0, (1, 2, 0)),
    Move(1, 0, (1, 0)),
    Move(0, 5, (0, 5)),
    Move(1, 0, (1, 0)),
]


def test_moves_sort_as_their_tuples():
    as_tuple = lambda m: (m.vertex, m.ruma, m.path)  # noqa: E731
    assert [as_tuple(m) for m in sorted(MOVES)] == sorted(map(as_tuple, MOVES))


def test_move_orderings():
    low, high = Move(1, 0, (1, 0)), Move(1, 0, (1, 2, 0))
    assert low < high and low <= high and high > low and high >= low
    assert not high < low and not high <= low and not low > high and not low >= high
    same = Move(1, 0, (1, 0))
    assert low <= same and low >= same and not low < same and not low > same
    for method in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(low, method)((1, 0, (1, 0))) is NotImplemented
    with pytest.raises(TypeError):
        low < (1, 0, (1, 0))  # noqa: B015
