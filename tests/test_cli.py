"""CLI surface tests: exact output strings, exit codes, determinism."""

from __future__ import annotations

import io
import itertools
import json
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, strategies as st

from ucfreq import cli, setfam
from ucfreq.cli import MAX_OUTPUT, main
from ucfreq.setfam import family, family_to_json, family_to_text, union_closure


@pytest.fixture
def chain_family_json(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(family_to_json(family(2, [[], [1], [1, 2]])))
    return str(path)


@pytest.fixture
def flex_family_text(tmp_path):
    fam = family(5, [[2], [2, 4], [3], [1]])
    from ucfreq.setfam import union_closure

    path = tmp_path / "flex.txt"
    path.write_text(family_to_text(union_closure(fam)))
    return str(path)


TABLE_CSV = (
    "s,|C|=0,|C|=1,|C|=2,|C|=3+\n"
    "4,81,81,114,infeasible\n"
    "5,237/2,231/2,122,114\n"
)


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("ucfreq: ") and err.count("\n") == 1


class TestTable:
    def test_csv_matches_expected(self, capsys):
        assert main(["table"]) == 0
        out = capsys.readouterr().out
        assert out == TABLE_CSV

    def test_deterministic(self, capsys):
        main(["table"])
        first = capsys.readouterr().out
        main(["table"])
        assert capsys.readouterr().out == first

    def test_json_with_certificates(self, capsys):
        assert main(["table", "--format", "json", "--certificates"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        assert len(doc["cells"]) == 8
        assert all("certificate" in cell for cell in doc["cells"])

    def test_approx_csv(self, capsys):
        assert main(["table", "--approx"]) == 0
        assert capsys.readouterr().out == (
            "s,|C|=0,|C|=1,|C|=2,|C|=3+\n"
            "4,81.0,81.0,114.0,infeasible\n"
            "5,118.5,115.5,122.0,114.0\n"
        )

    def test_certificates_need_json(self, capsys):
        assert main(["table", "--certificates"]) == 2

    def test_approx_needs_csv(self, capsys):
        assert main(["table", "--format", "json", "--approx"]) == 2
        assert_one_line_error(capsys)

    def test_jobs_is_a_usage_error(self, capsys):
        # the cells are solved serially; there is no worker pool to size
        assert main(["table", "--jobs", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --jobs 2" in captured.err

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        assert main(["table", "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text().startswith("s,")


class TestSolveCommands:
    def test_solve_base_5(self, capsys):
        assert main(["solve-base", "--s", "5"]) == 0
        assert capsys.readouterr().out == "141/2\n"

    def test_solve_base_4_approx(self, capsys):
        assert main(["solve-base", "--s", "4", "--approx"]) == 0
        assert capsys.readouterr().out == "45.0\n"

    def test_solve_case_cells(self, capsys):
        assert main(["solve-case", "--s", "4", "--c", "3"]) == 0
        assert capsys.readouterr().out == "infeasible\n"
        assert main(["solve-case", "--s", "5", "--c", "1"]) == 0
        assert capsys.readouterr().out == "231/2\n"

    def test_solve_case_approx(self, capsys):
        assert main(["solve-case", "--s", "4", "--c", "3", "--approx"]) == 0
        assert capsys.readouterr().out == "infeasible\n"
        assert main(["solve-case", "--s", "5", "--c", "0", "--approx"]) == 0
        assert capsys.readouterr().out == "118.5\n"

    def test_solve_case_aux(self, capsys):
        assert main(["solve-case", "--s", "5", "--c", "aux"]) == 0
        assert capsys.readouterr().out == "129\n"

    def test_aux_needs_s5(self, capsys):
        assert main(["solve-case", "--s", "4", "--c", "aux"]) == 2

    def test_dump_lp(self, capsys):
        assert main(["solve-case", "--s", "4", "--c", "0", "--dump-lp"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("min: q_empty + q_a")
        assert "cap_a:" in out
        assert "floor_q_a: q_a >= 2" in out
        assert "status: optimal" in out
        assert "value: 81" in out

    def test_dump_lp_refuses_approx(self, capsys):
        assert main(["solve-case", "--s", "4", "--c", "0", "--dump-lp", "--approx"]) == 2
        assert_one_line_error(capsys)

    def test_min_objective_tokens(self, capsys):
        assert main(["min-objective", "--s", "4", "--objective", "q_singleton"]) == 0
        assert capsys.readouterr().out == "8\n"
        assert main(["min-objective", "--s", "5", "--objective", "sum_singletons"]) == 0
        assert capsys.readouterr().out == "85/2\n"
        assert main(["min-objective", "--s", "4", "--objective", "q_a+q_b"]) == 0
        assert capsys.readouterr().out == "16\n"

    def test_min_objective_approx(self, capsys):
        assert main(["min-objective", "--s", "5", "--objective", "sum_singletons", "--approx"]) == 0
        assert capsys.readouterr().out == "42.5\n"

    def test_min_objective_bad_term(self, capsys):
        assert main(["min-objective", "--s", "4", "--objective", "q_abcde"]) == 2


class TestAnalyze:
    def test_chain_family(self, chain_family_json, capsys):
        assert main(["analyze", chain_family_json]) == 0
        out = capsys.readouterr().out
        assert "m = 3\n" in out
        assert "frequencies: 1=2 2=1\n" in out
        assert "f_1 = 2/3\n" in out
        assert "f_2 = 1/3\n" in out
        assert "  {2} incidence=1" in out

    def test_approx_frequencies(self, chain_family_json, capsys):
        assert main(["analyze", chain_family_json, "--approx"]) == 0
        out = capsys.readouterr().out
        assert "f_1 = 0.6666666666666666\nf_2 = 0.3333333333333333\n" in out

    def test_trace_block(self, chain_family_json, capsys):
        assert main(["analyze", chain_family_json, "--base", "2"]) == 0
        out = capsys.readouterr().out
        assert "trace counts for S = {2}:\n  {} -> 2\n  {2} -> 1\n" in out

    def test_rejects_non_union_closed(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1\n2\n")
        assert main(["analyze", str(path)]) == 2

    def test_add_empty_changes_m(self, tmp_path, capsys):
        path = tmp_path / "f.txt"
        path.write_text("1\n1 2\n")
        assert main(["analyze", str(path)]) == 0
        assert "m = 2" in capsys.readouterr().out
        assert main(["analyze", str(path), "--add-empty"]) == 0
        assert "m = 3" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/f.json"]) == 2

    @pytest.mark.parametrize("text", [
        '{"n": 3, "sets": [1]}',
        '{"n": 3, "sets": [[1.5]]}',
        '{"n": 3, "sets": "12"}',
        '{"n": true, "sets": [[1]]}',
        '{"n": 3, "sets": [[true]]}',
        '{"n": 3, "sets": [[1, 99999999999999999999]]}',
        "[" * 100_000 + "]" * 100_000,
    ], ids=["int-member", "float-element", "string-sets", "bool-n", "bool-element",
            "huge-element", "deep-nesting"])
    def test_malformed_json_is_bad_family(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ucfreq: ") and err.count("\n") == 1

    def test_wide_chain_finishes(self, tmp_path, capsys):
        path = tmp_path / "chain24.json"
        path.write_text('{"n": 24, "sets": [[1], [24], [1, 24]]}')
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.endswith("minimal 2-good sets:\n  {24} incidence=2\n")

    def test_output_cap(self, tmp_path, capsys):
        # the unions of nine disjoint 4-blocks have 3 * 4^8 minimal 2-good sets
        path = tmp_path / "blocks36.json"
        blocks = [range(first, first + 4) for first in range(1, 37, 4)]
        path.write_text(family_to_json(union_closure(family(36, blocks))))
        start = time.perf_counter()
        assert main(["analyze", str(path)]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == ("", f"ucfreq: {path}: more than {MAX_OUTPUT} minimal 2-good sets\n")


class TestCovers:
    def test_two_edges(self, tmp_path, capsys):
        path = tmp_path / "edges.txt"
        path.write_text("1 2\n2 3\n")
        assert main(["covers", str(path)]) == 0
        out = capsys.readouterr().out
        assert out == (
            "minimal covers:\n"
            "  {1,3}\n"
            "  {2}\n"
            "input is antichain: yes\n"
            "MC(MC(F)) == F: yes\n"
        )

    def test_non_antichain_reports_reduction(self, tmp_path, capsys):
        path = tmp_path / "nest.txt"
        path.write_text("1\n1 2\n")
        assert main(["covers", str(path)]) == 0
        out = capsys.readouterr().out
        assert "input is antichain: no" in out
        assert "minimal elements" in out

    def test_four_blocks_of_five(self, tmp_path, capsys):
        blocks = [list(range(first, first + 5)) for first in (1, 6, 11, 16)]
        path = tmp_path / "blocks.json"
        path.write_text(family_to_json(family(20, blocks)))
        assert main(["covers", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "minimal covers:"
        covers = lines[1:-2]
        assert len(covers) == len(set(covers)) == 5**4
        assert covers[0] == "  {1,6,11,16}" and covers[-1] == "  {5,10,15,20}"
        assert lines[-2:] == ["input is antichain: yes", "MC(MC(F)) == F: yes"]

    def test_empty_member_rejected(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("-\n1\n")
        assert main(["covers", str(path)]) == 2

    def test_output_cap_refuses_before_the_involution_check(self, tmp_path, capsys, monkeypatch):
        # 21 disjoint 3-blocks on n = 63 have 3^21 (about 10^10) minimal covers
        path = tmp_path / "blocks63.json"
        path.write_text(family_to_json(family(63, [range(first, first + 3) for first in range(1, 64, 3)])))
        calls = []
        real = setfam.minimal_covers
        monkeypatch.setattr(setfam, "minimal_covers", lambda *args, **kw: calls.append(args) or real(*args, **kw))
        start = time.perf_counter()
        assert main(["covers", str(path)]) == 2
        assert time.perf_counter() - start < 1
        assert len(calls) == 1
        assert capsys.readouterr() == ("", f"ucfreq: {path}: more than {MAX_OUTPUT} minimal covers\n")


# Any JSON value, and family-shaped objects over n <= 8 with at most 12 sets
# (elements may fall outside 1..n, n may be any JSON value).
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
family_objects = st.fixed_dictionaries({
    "n": st.integers(-1, 8) | json_values,
    "sets": st.lists(st.lists(st.integers(-1, 9), max_size=8), max_size=12) | json_values,
})


class TestFamilyFileInput:
    """Whatever a family file holds, `analyze` and `covers` answer or refuse
    it in one line: exit code 0 or 2, never a traceback."""

    @pytest.mark.parametrize("command", ["analyze", "covers"])
    def test_empty_sets_is_bad_family(self, tmp_path, capsys, command):
        path = tmp_path / "empty.json"
        path.write_text('{"n": 3, "sets": []}')
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == f"ucfreq: {path}: no sets in family input\n"

    @pytest.fixture(scope="class")
    def folder(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    def check(self, command, path):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, str(path)])
        if code == 0:
            assert out.getvalue() and not err.getvalue()
        else:
            assert code == 2 and not out.getvalue()
            assert err.getvalue().startswith("ucfreq: ") and err.getvalue().count("\n") == 1

    @pytest.mark.parametrize("command", ["analyze", "covers"])
    @given(value=json_values | family_objects)
    def test_any_json(self, folder, command, value):
        path = folder / "family.json"
        path.write_text(json.dumps(value))
        self.check(command, path)

    @pytest.mark.parametrize("command", ["analyze", "covers"])
    @given(text=st.text(max_size=40) | st.lists(
        st.lists(st.integers(-1, 9).map(str), max_size=8).map(" ".join), max_size=12
    ).map("\n".join))
    def test_any_text(self, folder, command, text):
        path = folder / "family.txt"
        path.write_text(text)
        self.check(command, path)


class TestSearchNagel:
    def test_n2_report(self, capsys):
        assert main(["search-nagel", "--n", "2", "--quiet"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["families_checked"] == 8
        assert doc["min_f2"] == "1/3"
        assert doc["passed"] is True

    def test_usage_error_on_n1(self, capsys):
        assert main(["search-nagel", "--n", "1", "--quiet"]) == 2

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_max_family_size_below_one_is_usage_error(self, capsys, size):
        # a cap below one would check no family and report a pass
        assert main(["search-nagel", "--n", "3", "--quiet", "--max-family-size", size]) == 1
        assert capsys.readouterr().out == ""

    def test_negative_max_witnesses_is_usage_error(self, capsys):
        assert main(["search-nagel", "--n", "3", "--quiet", "--max-witnesses", "-1"]) == 1
        assert capsys.readouterr().out == ""

    def test_max_witnesses_caps_the_list(self, capsys):
        assert main(["search-nagel", "--n", "3", "--quiet", "--max-witnesses", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["witnesses"]) == 2 and doc["witnesses_total"] == 3

    def test_progress_at_most_one_line_per_interval(self, capsys):
        ticks = iter([0.0, 0.1, 0.4, 0.5, 0.6, 0.99, 1.0, 5.0])
        progress = cli._progress_lines(clock=lambda: next(ticks))
        for k in range(1, 8):
            progress(4096 * k)
        assert capsys.readouterr().err.splitlines() == [
            "checked 12288 families", "checked 24576 families", "checked 28672 families",
        ]

    def test_progress_reaches_stderr(self, capsys, monkeypatch):
        real = cli._progress_lines
        seconds = itertools.count()  # a clock that moves one second per reading
        monkeypatch.setattr(cli, "_progress_lines", lambda: real(clock=lambda: next(seconds)))
        assert main(["search-nagel", "--n", "4"]) == 0
        # 4542 families, polled once at 4096
        assert capsys.readouterr().err == "checked 4096 families\n"

    def test_help_names_the_enumeration_limit(self, capsys):
        assert main(["search-nagel", "--help"]) == 0
        assert "(2..5 exhaustive)" in capsys.readouterr().out


class TestCheckLemmas:
    def test_fixture(self, flex_family_text, capsys):
        assert main(["check-lemmas", flex_family_text, "--base", "2,3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True

    def test_bad_base(self, flex_family_text, capsys):
        assert main(["check-lemmas", flex_family_text, "--base", "2"]) == 2


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_unknown_command(self, capsys):
        assert main(["bogus"]) == 1

    def test_bad_flag_value(self, capsys):
        assert main(["solve-base", "--s", "6"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
