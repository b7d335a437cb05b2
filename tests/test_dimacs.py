import re

import numpy as np
import pytest

from sepflow import ParseError, load_dimacs, random_capacity_grid, save_dimacs

TWO_SOURCES = "p max 3 2\nn 1 s\nn 2 s\na 1 2 1.0\na 2 3 1.0\n"
SOURCE_IS_SINK = "p max 3 2\nn 1 s\nn 1 t\na 1 2 1.0\na 2 3 1.0\n"


class TestDimacs:
    def test_round_trip(self, tmp_path):
        g = random_capacity_grid(5, 5, seed=3)
        path = tmp_path / "g.dimacs"
        save_dimacs(g, path, s=0, t=24)
        g2, s, t = load_dimacs(path)
        assert (s, t) == (0, 24)
        assert g2.n == g.n and g2.m == g.m
        assert np.array_equal(g2.tails, g.tails)
        assert np.array_equal(g2.heads, g.heads)
        assert np.array_equal(g2.capacity, g.capacity)

    def test_parse_basic(self, tmp_path):
        path = tmp_path / "g.dimacs"
        path.write_text("c comment\np max 3 2\nn 1 s\nn 3 t\na 1 2 4.5\na 2 3 2.0\n")
        g, s, t = load_dimacs(path)
        assert g.n == 3 and g.m == 2 and (s, t) == (0, 2)
        assert g.capacity.tolist() == [4.5, 2.0]
        assert np.all(g.weight == 1.0)  # absent weights default to 1

    def test_header_line_numbered_errors(self, tmp_path):
        path = tmp_path / "bad.dimacs"
        path.write_text("p max 2 1\na 1 2\n")
        with pytest.raises(ParseError, match="line 2"):
            load_dimacs(path)

    @pytest.mark.parametrize("text, line", [("p max x 1\n", 1),
                                            ("p max 2 1\na 1 x 3\n", 2),
                                            ("p max 2 1\nn x s\n", 2),
                                            # vertex ids outside 1..n, also before the p line
                                            ("p max 2 1\nn 9 s\n", 2),
                                            ("p max 2 1\nn 0 s\n", 2),
                                            ("p max 2 1\na 1 9 3.0\n", 2),
                                            ("c p comes last\na 1 3 1.0\np max 2 1\n", 2),
                                            # records that WeightedGraph would reject unnamed
                                            ("p max 2 1\na 1 1 2.0\n", 2),
                                            ("p max 0 0\n", 1),
                                            ("p max 2 -1\n", 1),
                                            ("p max 2 1\np max 2 1\na 1 2 1.0\n", 2),
                                            ("p max 2 1\na 1 2 1.0\np max 3 1\n", 3),
                                            # a terminal given twice, or one vertex as both
                                            (TWO_SOURCES, 3), (SOURCE_IS_SINK, 3)])
    def test_bad_number_names_its_line(self, tmp_path, text, line):
        path = tmp_path / "bad.dimacs"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"line {line}: "):
            load_dimacs(path)

    @pytest.mark.parametrize("text, message", [
        (TWO_SOURCES, "line 3: 'n 2 s' conflicts with 'n 1 s' on line 2"),
        (SOURCE_IS_SINK, "line 3: 'n 1 t' conflicts with 'n 1 s' on line 2")])
    def test_repeated_terminal_names_both_lines(self, tmp_path, text, message):
        path = tmp_path / "bad.dimacs"
        path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(message)):
            load_dimacs(path)

    @pytest.mark.parametrize("text, message", [
        ("p max 3\n", "line 1: expected 'p max <n> <m>'"),
        ("p max 2 1\nn 1\na 1 2 1.0\n", "line 2: expected 'n <id> s|t'"),
        ("p max 2 1\nx 1 2\na 1 2 1.0\n", "line 2: unknown record 'x'"),
        ("c no header\na 1 2 1.0\n", "missing 'p max' header"),
    ], ids=["short-header", "short-terminal", "unknown-record", "no-header"])
    def test_malformed_file_message(self, tmp_path, text, message):
        path = tmp_path / "bad.dimacs"
        path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(message)):
            load_dimacs(path)

    def test_arc_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.dimacs"
        path.write_text("p max 2 2\na 1 2 1.0\n")
        with pytest.raises(ParseError, match="line 1: header declares 2 arcs"):
            load_dimacs(path)

    def test_nonpositive_capacity(self, tmp_path):
        path = tmp_path / "bad.dimacs"
        path.write_text("p max 2 1\na 1 2 0\n")
        with pytest.raises(ParseError, match="line 2.*positive"):
            load_dimacs(path)

    @pytest.mark.parametrize("capacity", ["nan", "inf", "-inf", "NaN", "Infinity", "-1.5"])
    def test_capacity_that_is_not_finite_names_its_line(self, tmp_path, capacity):
        path = tmp_path / "bad.dimacs"
        path.write_text(f"p max 3 2\na 1 2 1.0\na 2 3 {capacity}\n")
        with pytest.raises(ParseError, match="line 3: capacity must be positive and finite"):
            load_dimacs(path)
