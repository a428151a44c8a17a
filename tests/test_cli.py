import contextlib
import io
import json
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from tchoukaillon import UINT128_MAX, Board, board_from_stones, make_star
from tchoukaillon.cli import entry, main

from golden import INITIAL_BOARDS

TABLE_17 = """\
 n l b1 b2 b3 b4 b5 b6
 0 0  0  0  0  0  0  0
 1 1  1  0  0  0  0  0
 2 2  0  2  0  0  0  0
 3 2  1  2  0  0  0  0
 4 3  0  1  3  0  0  0
 5 3  1  1  3  0  0  0
 6 4  0  0  2  4  0  0
 7 4  1  0  2  4  0  0
 8 4  0  2  2  4  0  0
 9 4  1  2  2  4  0  0
10 5  0  1  1  3  5  0
11 5  1  1  1  3  5  0
12 6  0  0  0  2  4  6
13 6  1  0  0  2  4  6
14 6  0  2  0  2  4  6
15 6  1  2  0  2  4  6
16 6  0  1  3  2  4  6
17 6  1  1  3  2  4  6
"""


class Sink:
    """A stdout that counts the characters written and keeps none."""

    size = 0

    def write(self, text):
        self.size += len(text)

    def flush(self):
        pass


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoardCommand:
    def test_fifteen(self, capsys):
        code, out, _ = run(capsys, "board", "15")
        assert code == 0
        assert out == "[1,2,0,2,4,6]\n"

    def test_zero(self, capsys):
        assert run(capsys, "board", "0")[1] == "[]\n"

    def test_twentynine(self, capsys):
        assert run(capsys, "board", "29")[1] == "[1,1,3,4,2,4,6,8]\n"

    def test_moves(self, capsys):
        code, out, _ = run(capsys, "board", "4", "--moves")
        assert out == "[0,1,3]\n3 1 2 1\n"

    def test_json(self, capsys):
        _, out, _ = run(capsys, "board", "15", "--format", "json")
        assert json.loads(out) == {"bins": [1, 2, 0, 2, 4, 6], "stones": 15, "length": 6}

    def test_negative_is_usage_error(self, capsys):
        code, _, err = run(capsys, "board", "-5")
        assert code == 2
        assert "error" in err

    def test_beyond_bin_budget_is_usage_error(self, capsys):
        code, out, err = run(capsys, "board", str(UINT128_MAX))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "budget" in err


class TestTableCommand:
    def test_golden_table_17(self, capsys):
        code, out, _ = run(capsys, "table", "17")
        assert code == 0
        assert out == TABLE_17

    def test_values_match_published_rows(self, capsys):
        _, out, _ = run(capsys, "table", "17")
        rows = [line.split() for line in out.splitlines()[1:]]
        parsed = [(int(r[0]), int(r[1]), tuple(int(c) for c in r[2:])) for r in rows]
        assert parsed == INITIAL_BOARDS

    def test_zero_row(self, capsys):
        _, out, _ = run(capsys, "table", "0")
        assert out == "n l\n0 0\n"

    def test_csv_round_trip(self, capsys):
        _, out, _ = run(capsys, "table", "100", "--format", "csv")
        lines = out.splitlines()
        assert lines[0].startswith("n,l,b1")
        for line in lines[1:]:
            cells = [int(c) for c in line.split(",")]
            assert Board(tuple(cells[2:])) == board_from_stones(cells[0])

    def test_bins_override(self, capsys):
        _, out, _ = run(capsys, "table", "1", "--bins", "3")
        assert out == "n l b1 b2 b3\n0 0  0  0  0\n1 1  1  0  0\n"

    def test_negative_n_max_rejected(self, capsys):
        code, _, err = run(capsys, "table", "-1")
        assert code == 2
        assert "n_max" in err

    def test_bins_too_small_rejected(self, capsys):
        code, _, err = run(capsys, "table", "17", "--bins", "2")
        assert code == 2
        assert "hide" in err

    @pytest.mark.parametrize(
        "argv", [("10000000",), ("3", "--bins", "1000000000"), ("70000000000000",), (str(UINT128_MAX),)]
    )
    def test_beyond_bin_budget_is_usage_error(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, "table", *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "budget" in err

    @pytest.mark.parametrize("n_max", [0, 1, 2, 40, 300])
    def test_json_is_the_whole_list_dumped_at_once(self, capsys, n_max):
        _, out, _ = run(capsys, "table", str(n_max), "--format", "json")
        rows = [{"n": n, "length": board_from_stones(n).length, "bins": list(board_from_stones(n).bins)}
                for n in range(n_max + 1)]
        assert out == json.dumps(rows) + "\n"

    def test_json_holds_one_board_at_a_time(self, monkeypatch):
        # The 2,001 rows of the list take about 2 MB; one row, a few KB.
        sink = Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            assert main(["table", "2000", "--format", "json"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.size > 400_000
        assert peak < 200_000

    def test_negative_bins_rejected(self, capsys):
        code, out, err = run(capsys, "table", "0", "--bins", "-1")
        assert code == 2
        assert out == ""
        assert "--bins must be non-negative" in err


class TestEnumerateCommand:
    def test_length_six(self, capsys):
        _, out, _ = run(capsys, "enumerate", "6")
        assert out.splitlines() == [
            "[0,0,0,2,4,6]",
            "[1,0,0,2,4,6]",
            "[0,2,0,2,4,6]",
            "[1,2,0,2,4,6]",
            "[0,1,3,2,4,6]",
            "[1,1,3,2,4,6]",
        ]

    @pytest.mark.parametrize("length", ["100000", "1000000000000"])
    def test_beyond_bin_budget_is_usage_error(self, capsys, length):
        code, out, err = run(capsys, "enumerate", length)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "budget" in err

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_refused_length_prints_nothing(self, capsys, fmt):
        # 4000 has 5,026 boards, 20.1M bins: refused before json's "["
        code, out, err = run(capsys, "enumerate", "4000", "--format", fmt)
        assert code == 2
        assert out == ""
        assert "the boards of length 4000 pass the budget" in err

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_holds_one_board_at_a_time(self, monkeypatch, fmt):
        # Length 300 has 190 boards: 0.65 MB (csv) to 4.8 MB (json) when
        # all are held, 60-80 KB one at a time.
        sink = Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(["enumerate", "1", "--format", fmt]) == 0  # loads what the format imports
        tracemalloc.start()
        try:
            assert main(["enumerate", "300", "--format", fmt]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.size > 200_000
        assert peak < 250_000


class TestNfCommand:
    def test_sequence(self, capsys):
        code, out, _ = run(capsys, "nf", "--sequence", "7")
        assert code == 0
        assert out == "1 2 4 6 10 12 18\n"

    def test_single(self, capsys):
        assert run(capsys, "nf", "6")[1] == "12\n"

    def test_bounds(self, capsys):
        assert run(capsys, "nf", "6", "--bounds")[1] == "12 12 21\n"

    def test_requires_an_argument(self, capsys):
        assert run(capsys, "nf")[0] == 2

    @pytest.mark.parametrize(
        "argv, message",
        [(("5", "--sequence", "5"), "give either a single length or --sequence, not both"),
         (("--sequence", "5", "--bounds"), "--bounds applies to a single length, not to --sequence")],
        ids=["length", "bounds"],
    )
    def test_sequence_refuses_a_single_length_option(self, capsys, argv, message):
        assert run(capsys, "nf", *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("extra", [(), ("--bounds",)])
    def test_beyond_length_budget_is_usage_error(self, capsys, extra):
        code, out, err = run(capsys, "nf", "1000000000000", *extra)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "budget" in err

    def test_sequence_beyond_length_budget_is_usage_error(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "nf", "--sequence", "1000000000000")
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err == f"error: board length 1000000000000 is beyond the budget of {2**24} bins\n"

    def test_sequence_beyond_term_cap_is_usage_error(self, capsys):
        # Inside the length budget, but about three days of terms.
        start = time.perf_counter()
        code, out, err = run(capsys, "nf", "--sequence", str(2**24))
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err == f"error: min_stones_sequence refuses max_length={2**24} above the cap of {2**15} terms\n"


class TestSieveCommand:
    def test_stage_three(self, capsys):
        code, out, _ = run(capsys, "sieve", "3", "9")
        assert code == 0
        assert out == "4 6 10 12 16 18 22 24 28\n"

    def test_beyond_scan_cap_is_usage_error(self, capsys):
        # the head of stage 1800, min_stones(1800), lies past the default cap of 10^6
        start = time.perf_counter()
        code, out, err = run(capsys, "sieve", "1800", "1")
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err == "error: scan cap 1000000 exceeded after 0 of 1 elements of stage 1800\n"


class TestReconstructCommand:
    def test_minimal(self, capsys):
        code, out, _ = run(capsys, "reconstruct", "m3=1", "m7=2", "--minimal")
        assert code == 0
        assert out.splitlines()[0] == "n=34"
        assert out.splitlines()[1] == "[0,1,1,2,0,2,4,6,8,10]"

    def test_first_completion(self, capsys):
        _, out, _ = run(capsys, "reconstruct", "m3=1", "m7=2")
        assert out.splitlines()[0] == "n=202"

    def test_infeasible_exit_code(self, capsys):
        code, out, _ = run(capsys, "reconstruct", "m5=1", "m6=2")
        assert code == 1
        assert out.startswith("infeasible")

    def test_broken_high_window_is_infeasible_promptly(self, capsys):
        # m_41 + m_42 is odd, which breaks the window (42, 2)
        start = time.perf_counter()
        code, out, _ = run(capsys, "reconstruct", "m40=0", "m41=0", "m42=1")
        assert time.perf_counter() - start < 0.5
        assert code == 1
        assert out.startswith("infeasible:")

    def test_search_past_node_budget_is_usage_error(self, capsys):
        # the unbounded search ran past 120 s; the budget refuses in about 2 s
        start = time.perf_counter()
        code, out, err = run(capsys, "reconstruct", "m16=3", "m34=10")
        assert time.perf_counter() - start < 20
        assert code == 2
        assert out == ""
        assert err.startswith("error: the completion search exceeded its budget of 1048576 nodes")

    def test_from_file(self, capsys, tmp_path):
        doc = {"indexing": "paper-section-4", "3": 1, "7": 2}
        path = tmp_path / "pc.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "reconstruct", "--file", str(path), "--minimal")
        assert code == 0
        assert out.splitlines()[0] == "n=34"

    def test_file_with_non_integer_count(self, capsys, tmp_path):
        path = tmp_path / "pc.json"
        path.write_text('{"indexing": "paper-section-4", "3": 1.7, "7": 2}')
        code, out, err = run(capsys, "reconstruct", "--file", str(path))
        assert code == 2
        assert out == ""
        assert "count at index 3" in err

    def test_file_with_repeated_index(self, capsys, tmp_path):
        for pairs, key in [
            # json.load alone would keep the last value, m3 = 2 (n = 2)
            ('"3": 1, "3": 2', "3"),
            # the first key, in document order, that occurs twice
            ('"7": 1, "8": 1, "8": 1, "7": 1', "7"),
            # one late repeat among 50,000 keys: each key is counted once
            (", ".join(f'"{i}": 0' for i in [*range(2, 50_001), 40_000]), "40000"),
        ]:
            path = tmp_path / "pc.json"
            path.write_text('{"indexing": "paper-section-4", ' + pairs + "}")
            start = time.perf_counter()
            code, out, err = run(capsys, "reconstruct", "--file", str(path))
            assert time.perf_counter() - start < 5
            assert code == 2
            assert out == ""
            assert err == f"error: duplicate key '{key}' in a JSON object\n"

    def test_repeated_inline_index(self, capsys):
        code, out, err = run(capsys, "reconstruct", "m3=1", "m3=2")
        assert code == 2
        assert out == ""
        assert "duplicate constraint for index 3" in err

    def test_bad_pair_syntax(self, capsys):
        code, _, err = run(capsys, "reconstruct", "3=1")
        assert code == 2
        assert "m<i>=<v>" in err

    # Inline pairs take ASCII decimal digits only, as constraint files do.
    @pytest.mark.parametrize("pair", ["m3=\u0661", "m\u0663=1", "m3=1\n"])
    def test_pair_digits_are_ascii(self, capsys, pair):
        code, out, err = run(capsys, "reconstruct", pair)
        assert code == 2
        assert out == ""
        assert "m<i>=<v>" in err

    def test_json_format(self, capsys):
        _, out, _ = run(capsys, "reconstruct", "m3=1", "m7=2", "--minimal", "--format", "json")
        doc = json.loads(out)
        assert doc["n"] == 34
        assert doc["minimal"] is True

    @pytest.mark.parametrize(
        "argv",
        [("m1500=0",), ("m88=0", "m89=0", "m90=1"), ("m100=0", "--minimal")],
    )
    def test_period_beyond_128_bits_is_usage_error(self, capsys, argv):
        # the search stops at index 89, where lcm(2..89) leaves 128 bits
        start = time.perf_counter()
        code, out, err = run(capsys, "reconstruct", *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert out == ""
        assert err.startswith("error: congruence system period exceeds the 128-bit limit")


class TestGraphCommand:
    @pytest.fixture
    def cycle4(self, tmp_path):
        path = tmp_path / "cycle4.json"
        path.write_text(
            json.dumps({"vertices": 4, "edges": [[1, 0], [2, 1], [3, 2], [0, 3]], "ruma": [0]})
        )
        return str(path)

    @pytest.fixture
    def path3(self, tmp_path):
        path = tmp_path / "path3.json"
        path.write_text(json.dumps({"vertices": 4, "edges": [[1, 0], [2, 1], [3, 2]], "ruma": [0]}))
        return str(path)

    def test_check_finite_on_path(self, capsys, path3):
        code, out, _ = run(capsys, "graph", path3, "check-finite")
        assert code == 0
        assert out == "finite\n"

    def test_check_finite_on_cycle(self, capsys, cycle4):
        code, out, _ = run(capsys, "graph", cycle4, "check-finite")
        assert code == 1
        assert out.startswith("infinite")

    def test_enumerate_cycle_cap(self, capsys, cycle4):
        code, out, err = run(capsys, "graph", cycle4, "enumerate", "--cap", "9")
        assert code == 1
        assert out.splitlines() == [
            "[0,0,0]",
            "[1,0,0]",
            "[0,2,0]",
            "[1,2,0]",
            "[0,1,3]",
            "[1,1,3]",
            "[5,0,2]",
            "[4,2,2]",
            "[1,10,0]",
        ]
        assert "truncated" in err

    def test_enumerate_path(self, capsys, path3):
        code, out, _ = run(capsys, "graph", path3, "enumerate")
        assert code == 0
        assert len(out.splitlines()) == 6

    def test_dot_output(self, capsys, path3):
        code, out, _ = run(capsys, "graph", path3, "dot")
        assert code == 0
        assert out.startswith("digraph sowing_game {")
        assert out.rstrip().endswith("}")

    def test_json_output(self, capsys, path3):
        _, out, _ = run(capsys, "graph", path3, "enumerate", "--format", "json")
        doc = json.loads(out)
        assert doc["truncated"] is False
        assert len(doc["boards"]) == 6

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "graph", str(tmp_path / "nope.json"), "check-finite")
        assert code == 2

    @pytest.mark.parametrize("action", ["check-finite", "enumerate", "dot"])
    def test_file_with_repeated_key(self, capsys, tmp_path, action):
        path = tmp_path / "graph.json"
        path.write_text('{"vertices": 2, "edges": [[1, 0]], "ruma": [0], "ruma": [1]}')
        code, out, err = run(capsys, "graph", str(path), action)
        assert code == 2
        assert out == ""
        assert "duplicate key 'ruma'" in err

    def test_finite_game_beyond_cap_names_the_cap(self, capsys, tmp_path):
        path = tmp_path / "star.json"
        path.write_text(json.dumps(make_star(3, 2).to_json()))  # 64 boards
        code, out, err = run(capsys, "graph", str(path), "enumerate", "--cap", "10")
        assert code == 2
        assert out == ""
        assert "more than 10 boards" in err and "--cap" in err

    def test_walk_budget_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "blowup.json"
        doc = {"vertices": 3, "edges": [[0, 0], [0, 2], [1, 0], [2, 0], [2, 1], [2, 2]], "ruma": [1, 2]}
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "graph", str(path), "enumerate", "--cap", "12")
        assert code == 2
        assert "walk search exceeded its budget" in err

    def test_vertex_budget_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"vertices": 1_000_000_000, "edges": [[1, 0]], "ruma": [0]}))
        code, _, err = run(capsys, "graph", str(path), "check-finite")
        assert code == 2
        assert "exceeds the budget" in err


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("board", "29", "--moves"),
            ("table", "17"),
            ("enumerate", "7"),
            ("nf", "--sequence", "12"),
            ("sieve", "5", "9"),
            ("reconstruct", "m3=1", "m7=2", "--minimal"),
        ],
    )
    def test_identical_invocations_byte_identical(self, capsys, argv):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


class TestEntry:
    """The ``tchouk`` console script: ``entry`` exits with ``main``'s code."""

    @pytest.mark.parametrize(
        "argv,code,out",
        [
            (["board", "15"], 0, "[1,2,0,2,4,6]\n"),
            (["reconstruct", "m40=0", "m41=0", "m42=1"], 1, "infeasible"),
            (["board", "--", "-5"], 2, ""),
        ],
    )
    def test_exit_code(self, capsys, monkeypatch, argv, code, out):
        monkeypatch.setattr(sys, "argv", ["tchouk", *argv])
        with pytest.raises(SystemExit) as exc_info:
            entry()
        assert exc_info.value.code == code
        assert capsys.readouterr().out.startswith(out)


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["frobnicate"])
        assert exc_info.value.code == 2

    def test_non_integer(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["board", "x"])
        assert exc_info.value.code == 2


# JSON scalars of every kind: ints below, inside and above the 128-bit
# range, and the non-integers that must never be read as counts.
SMALL_INTS = st.integers(min_value=0, max_value=8)
NON_INTEGERS = st.one_of(st.floats(), st.booleans(), st.text(max_size=3), st.none())
SCALARS = st.one_of(
    SMALL_INTS,
    st.integers(max_value=-1),
    st.integers(min_value=UINT128_MAX + 1, max_value=2 * UINT128_MAX),
    NON_INTEGERS,
)


def non_integer(value) -> bool:
    return not isinstance(value, int) or isinstance(value, bool)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def main_quietly(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


class TestInputFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        values=st.dictionaries(st.integers(min_value=2, max_value=8), SCALARS, min_size=1, max_size=4),
        minimal=st.booleans(),
    )
    def test_constraint_files(self, fuzz_dir, values, minimal):
        doc = {"indexing": "paper-section-4", **{str(i): v for i, v in values.items()}}
        path = fuzz_dir / "pc.json"
        path.write_text(json.dumps(doc))
        code = main_quietly(["reconstruct", "--file", str(path)] + (["--minimal"] if minimal else []))
        assert code in (0, 1, 2)
        if any(non_integer(v) for v in values.values()):
            assert code == 2

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        vertices=st.one_of(SCALARS, st.integers(min_value=9, max_value=UINT128_MAX)),
        edges=st.lists(st.tuples(SCALARS, SCALARS), max_size=8),
        ruma=st.lists(SCALARS, max_size=3),
        cap=st.integers(min_value=0, max_value=8),
    )
    def test_graph_files(self, fuzz_dir, vertices, edges, ruma, cap):
        doc = {"vertices": vertices, "edges": [list(e) for e in edges], "ruma": ruma}
        path = fuzz_dir / "graph.json"
        path.write_text(json.dumps(doc))
        for argv in (["check-finite"], ["enumerate", "--cap", str(cap)]):
            code = main_quietly(["graph", str(path), *argv])
            assert code in (0, 1, 2)
            if any(non_integer(v) for v in [vertices, *ruma, *(x for e in edges for x in e)]):
                assert code == 2
