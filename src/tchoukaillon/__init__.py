"""Exact toolkit for the Tchoukaillon solitaire sowing game.

Board construction and play for the linear game, enumeration by board
length, the first-played-bin sieve, partial-board reconstruction through
congruence solving, and the generalization to sowing games on directed
graphs.

Every public name is importable from here.  Each one resolves on first
use, so ``import tchoukaillon`` loads none of the modules, and a caller
loads only the ones whose names it uses.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it.
_MODULE_OF = {
    "UINT128_MAX": "checked",
    "Board": "core",
    "EMPTY_BOARD": "core",
    "board_from_stones": "core",
    "first_played_bin": "core",
    "is_winning": "core",
    "leftmost_empty": "core",
    "minimal_period": "core",
    "play": "core",
    "play_sequence": "core",
    "unplay": "core",
    "Congruence": "crt",
    "IncreasingRemainderBoard": "crt",
    "Infeasible": "crt",
    "PartialConstraint": "crt",
    "RemainderBoard": "crt",
    "allowable_check": "crt",
    "board_from_increasing": "crt",
    "board_from_shifted": "crt",
    "complete_constraints": "crt",
    "consistency_conditions": "crt",
    "crt_solve": "crt",
    "increasing_remainder_board": "crt",
    "prime_reconstruct": "crt",
    "reconstruct": "crt",
    "reconstruct_minimal": "crt",
    "remainder_board": "crt",
    "shifted_prefix": "crt",
    "GameEdge": "graph",
    "GameGraph": "graph",
    "GraphBoard": "graph",
    "IllegalMoveError": "graph",
    "Move": "graph",
    "SowingGraph": "graph",
    "cycle_attained_counts": "graph",
    "enumerate_winning_boards": "graph",
    "game_graph_to_dot": "graph",
    "game_graph_to_json": "graph",
    "has_finite_game_graph": "graph",
    "make_cycle": "graph",
    "make_path": "graph",
    "make_star": "graph",
    "sow_move": "graph",
    "unplay_move": "graph",
    "check_bounds": "length",
    "enumerate_boards": "length",
    "min_stones": "length",
    "min_stones_sequence": "length",
    "sieve_stage": "sieve",
    "sieve_step": "sieve",
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # Called only for names not bound here yet: load the defining module
    # and bind the name, so later lookups skip this function.  The
    # modules themselves resolve too: `tchoukaillon.crt` works after a
    # bare `import tchoukaillon`.
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    elif name in _MODULE_OF.values():
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
