"""CLI surface tests: exact output strings, exit codes, determinism."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from ucfreq import cli, lpmodel, search, setfam
from ucfreq.cli import MAX_OUTPUT, main
from ucfreq.setfam import family, union_closure

from oracle_models import family_to_json, family_to_text, is_minimal_two_good
from test_reach import FAMILY as REACH_FAMILY
from test_search import FLOOR_TIGHT, INCIDENCE_CASE, count_calls
from test_setfam import closed_families


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


# `solve-case --dump-lp` output of the eight cells and aux: the programs and
# certificates byte for byte
DUMP_LP_PINNED = Path(__file__).resolve().parent / "demo_output" / "dump_lp"
# `search-nagel --n N` reports, byte for byte
SEARCH_NAGEL_PINNED = Path(__file__).resolve().parent / "demo_output" / "search_nagel"
# `table --format json --certificates`: every cell's certificate byte for byte
TABLE_JSON_PINNED = Path(__file__).resolve().parent / "demo_output" / "table_certificates.json"
# `--help` of the top level (ucfreq.txt) and of each subcommand at COLUMNS=80
HELP_PINNED = Path(__file__).resolve().parent / "demo_output" / "help"
SUBCOMMANDS = (
    "table", "solve-case", "solve-base", "min-objective",
    "analyze", "covers", "search-nagel", "check-lemmas",
)

TABLE_CSV = (
    "s,|C|=0,|C|=1,|C|=2,|C|=3+\n"
    "4,81,81,114,infeasible\n"
    "5,237/2,231/2,122,114\n"
)


def block_family_file(tmp_path, k):
    """The k-block family and its base S = {2, 5, ..., 3k - 1}: the union
    closure of the 3-blocks {3i+2, 3i+3, 3i+4} for i < k, with x = 3k + 2
    added to the second block, and of {2, x}.  S meets every block once."""
    x = 3 * k + 2
    blocks = [[3 * i + 2, 3 * i + 3, 3 * i + 4] for i in range(k)]
    blocks[1].append(x)
    path = tmp_path / f"blocks{k}.txt"
    path.write_text(family_to_text(union_closure(family(x, blocks + [[2, x]]))))
    return str(path), ",".join(str(3 * i + 2) for i in range(k))


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
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert len(doc["cells"]) == 8
        assert all("certificate" in cell for cell in doc["cells"])
        assert out == TABLE_JSON_PINNED.read_text()

    def test_approx_csv(self, capsys):
        assert main(["table", "--approx"]) == 0
        assert capsys.readouterr().out == (
            "s,|C|=0,|C|=1,|C|=2,|C|=3+\n"
            "4,81.0,81.0,114.0,infeasible\n"
            "5,118.5,115.5,122.0,114.0\n"
        )

    def test_certificates_need_json(self, capsys):
        assert main(["table", "--certificates"]) == 1

    def test_approx_needs_csv(self, capsys):
        assert main(["table", "--format", "json", "--approx"]) == 1
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

    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, where):
        target = tmp_path if where == "directory" else tmp_path / "missing" / "table.csv"
        assert main(["table", "--out", str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"ucfreq: cannot write {target}: ")
        assert captured.err.count("\n") == 1


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
        assert main(["solve-case", "--s", "4", "--c", "aux"]) == 1

    def test_dump_lp(self, capsys):
        assert main(["solve-case", "--s", "4", "--c", "0", "--dump-lp"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("min: q_empty + q_a")
        assert "cap_a:" in out
        assert "floor_q_a: q_a >= 2" in out
        assert "status: optimal" in out
        assert "value: 81" in out

    @pytest.mark.parametrize(
        "s, c", [(s, c) for s in ("4", "5") for c in ("0", "1", "2", "3")] + [("5", "aux")]
    )
    def test_dump_lp_is_pinned(self, capsys, s, c):
        assert main(["solve-case", "--s", s, "--c", c, "--dump-lp"]) == 0
        assert capsys.readouterr().out == (DUMP_LP_PINNED / f"s{s}_c{c}.txt").read_text()

    def test_dump_lp_refuses_approx(self, capsys):
        assert main(["solve-case", "--s", "4", "--c", "0", "--dump-lp", "--approx"]) == 1
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
        assert main(["min-objective", "--s", "4", "--objective", "q_abcde"]) == 1

    def test_min_objective_refuses_a_value_off_its_certificate(self, capsys, off_by_one_value):
        assert main(["min-objective", "--s", "4", "--objective", "q_singleton"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "ucfreq: internal consistency failure: produced optimality certificate failed verification\n"


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

    def test_normalize_relabels_the_top_element(self, tmp_path, capsys):
        # element 3 is in every member; --normalize swaps labels 1 and 3
        path = tmp_path / "f.txt"
        path.write_text("3\n2 3\n3 4\n2 3 4\n1 2 3 4\n")
        assert main(["analyze", str(path), "--normalize", "--base", "2,4"]) == 0
        assert capsys.readouterr().out == (
            "m = 5\n"
            "frequencies: 1=5 2=3 3=1 4=3\n"
            "f_1 = 1\n"
            "f_2 = 3/5\n"
            "minimal 2-good sets:\n"
            "  {2,4} incidence=6\n"
            "trace counts for S = {2,4}:\n"
            "  {} -> 1\n"
            "  {2} -> 1\n"
            "  {4} -> 1\n"
            "  {2,4} -> 2\n"
        )

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

    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    def test_unwritable_out_is_usage_error(self, chain_family_json, tmp_path, capsys, where):
        target = tmp_path if where == "directory" else tmp_path / "missing" / "report.txt"
        assert main(["analyze", chain_family_json, "--out", str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"ucfreq: cannot write {target}: ")
        assert captured.err.count("\n") == 1

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

    def test_wide_base_is_refused(self, tmp_path, capsys):
        # its trace counts would list all 2^40 subsets of the base
        path = tmp_path / "chain40.json"
        path.write_text('{"n": 40, "sets": [[1], [40], [1, 40]]}')
        base = ",".join(str(e) for e in range(1, 41))
        start = time.perf_counter()
        assert main(["analyze", str(path), "--base", base]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == ("", f"ucfreq: base set {base!r} has more than {MAX_OUTPUT} subsets to list\n")

    def test_wide_chain_finishes(self, tmp_path, capsys):
        path = tmp_path / "chain24.json"
        path.write_text('{"n": 24, "sets": [[1], [24], [1, 24]]}')
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.endswith("minimal 2-good sets:\n  {24} incidence=2\n")

    def test_singleton_closure_is_fast(self, tmp_path, capsys):
        # 16 383 members, all unions of the 14 singletons: the closure check
        # is |F| per singleton, not one test per pair of members
        path = tmp_path / "singletons14.txt"
        path.write_text(family_to_text(union_closure(family(14, [[e] for e in range(1, 15)]))))
        start = time.perf_counter()
        assert main(["analyze", str(path)]) == 0
        assert time.perf_counter() - start < 1
        out = capsys.readouterr().out
        assert out.startswith("m = 16383\nfrequencies: 1=8192 ")
        assert out.endswith("minimal 2-good sets:\n  {2,3,4,5,6,7,8,9,10,11,12,13,14} incidence=106496\n")

    def test_output_cap(self, tmp_path, capsys):
        # the unions of nine disjoint 4-blocks have 3 * 4^8 minimal 2-good sets
        path = tmp_path / "blocks36.json"
        blocks = [range(first, first + 4) for first in range(1, 37, 4)]
        path.write_text(family_to_json(union_closure(family(36, blocks))))
        start = time.perf_counter()
        assert main(["analyze", str(path)]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == ("", f"ucfreq: {path}: more than {MAX_OUTPUT} minimal 2-good sets\n")

    def test_block_family_is_fast(self, tmp_path, capsys):
        # 1 791 members and 39 366 minimal 2-good sets: each incidence is
        # read from the frequencies, not from a pass over the members
        path, _ = block_family_file(tmp_path, 10)
        start = time.perf_counter()
        assert main(["analyze", path]) == 0
        assert time.perf_counter() - start < 1.5
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "m = 1791"
        assert len(lines) == 5 + 39366


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
    """Whatever a family file holds, `analyze`, `covers` and `check-lemmas`
    answer or refuse it in one line: exit code 0 or 2, never a traceback."""

    @pytest.mark.parametrize("command", ["analyze", "covers"])
    def test_empty_sets_is_bad_family(self, tmp_path, capsys, command):
        path = tmp_path / "empty.json"
        path.write_text('{"n": 3, "sets": []}')
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == f"ucfreq: {path}: no sets in family input\n"

    @pytest.mark.parametrize("command", ["analyze", "covers", "check-lemmas --base 2"])
    def test_non_utf8_file_is_bad_family(self, tmp_path, capsys, command):
        path = tmp_path / "family.txt"
        path.write_bytes(bytes.fromhex("fffe3120320a"))
        name, *flags = command.split()
        assert main([name, str(path), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"ucfreq: cannot read {path}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["analyze", "covers", "check-lemmas --base 2"])
    def test_member_cap_refuses_before_other_work(self, tmp_path, capsys, monkeypatch, command):
        # four singletons: not union-closed, and {2} is not 2-good, so only
        # the cap can be the refusal
        monkeypatch.setattr(cli, "MAX_OUTPUT", 3)
        path = tmp_path / "four.txt"
        path.write_text("1\n2\n3\n4\n")
        name, *flags = command.split()
        assert main([name, str(path), *flags]) == 2
        assert capsys.readouterr() == ("", f"ucfreq: {path}: more than 3 member sets\n")

    def test_member_cap_admits_a_file_at_the_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_OUTPUT", 3)
        path = tmp_path / "three.txt"
        path.write_text("1\n2\n1 2\n")
        assert main(["analyze", str(path)]) == 0
        assert capsys.readouterr().out.startswith("m = 3\n")

    @pytest.fixture(scope="class")
    def folder(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    def check(self, command, path):
        name, *flags = command.split()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([name, str(path), *flags])
        if code == 0:
            assert out.getvalue() and not err.getvalue()
        else:
            assert code == 2 and not out.getvalue()
            assert err.getvalue().startswith("ucfreq: ") and err.getvalue().count("\n") == 1

    @pytest.mark.parametrize("command", ["analyze", "covers", "check-lemmas --base 2"])
    @given(value=json_values | family_objects)
    def test_any_json(self, folder, command, value):
        path = folder / "family.json"
        path.write_text(json.dumps(value))
        self.check(command, path)

    @pytest.mark.parametrize("command", ["analyze", "covers", "check-lemmas --base 2"])
    @given(text=st.text(max_size=40) | st.lists(
        st.lists(st.integers(-1, 9).map(str), max_size=8).map(" ".join), max_size=12
    ).map("\n".join))
    def test_any_text(self, folder, command, text):
        path = folder / "family.txt"
        path.write_text(text)
        self.check(command, path)


class TestSearchNagel:
    def test_n2_report(self, capsys):
        assert main(["search-nagel", "--n", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["families_checked"] == 8
        assert doc["min_f2"] == "1/3"
        assert doc["passed"] is True

    def test_usage_error_on_n1(self, capsys):
        assert main(["search-nagel", "--n", "1"]) == 1

    @pytest.mark.parametrize("n", ["0", "-1", "6"])
    def test_n_off_the_choices_is_usage_error(self, capsys, n):
        # the parser refuses it before `search` can raise on the size
        assert main(["search-nagel", "--n", n]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith(
            f"ucfreq search-nagel: error: argument --n: invalid choice: {n}"
        )

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_max_family_size_below_one_is_usage_error(self, capsys, size):
        # a cap below one would check no family and report a pass
        assert main(["search-nagel", "--n", "3", "--max-family-size", size]) == 1
        assert capsys.readouterr().out == ""

    def test_negative_max_witnesses_is_usage_error(self, capsys):
        assert main(["search-nagel", "--n", "3", "--max-witnesses", "-1"]) == 1
        assert capsys.readouterr().out == ""

    def test_max_witnesses_caps_the_list(self, capsys):
        assert main(["search-nagel", "--n", "3", "--max-witnesses", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["witnesses"]) == 2 and doc["witnesses_total"] == 3

    @pytest.mark.parametrize("n", ["2", "3", "4"])
    def test_report_is_pinned(self, capsys, n):
        # and nothing goes to stderr: there is no progress output
        assert main(["search-nagel", "--n", n]) == 0
        captured = capsys.readouterr()
        assert captured.out == (SEARCH_NAGEL_PINNED / f"n{n}.txt").read_text()
        assert captured.err == ""

    def test_quiet_is_a_usage_error(self, capsys):
        assert main(["search-nagel", "--n", "2", "--quiet"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if "error" in line] == [
            "ucfreq: error: unrecognized arguments: --quiet"
        ]

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

    def test_block_family_is_fast(self, tmp_path, capsys):
        # |S| = 10 with one covered element: the incidence block ranks S
        # among the 39 366 minimal 2-good sets
        path, base = block_family_file(tmp_path, 10)
        start = time.perf_counter()
        assert main(["check-lemmas", path, "--base", base]) == 0
        assert time.perf_counter() - start < 1.5
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_output_cap(self, tmp_path, capsys):
        # 118 098 minimal 2-good sets
        path, base = block_family_file(tmp_path, 11)
        start = time.perf_counter()
        assert main(["check-lemmas", path, "--base", base]) == 2
        assert time.perf_counter() - start < 1.5
        assert capsys.readouterr() == ("", f"ucfreq: {path}: more than {MAX_OUTPUT} minimal 2-good sets\n")

    def test_output_cap_refuses_before_the_spot_check(self, tmp_path, capsys, monkeypatch):
        # the 5-block family has 162 minimal 2-good sets
        path, base = block_family_file(tmp_path, 5)
        monkeypatch.setattr(cli, "MAX_OUTPUT", 100)
        monkeypatch.setattr(search, "spot_check_lemmas", lambda fam, s, good, pairs: pytest.fail("spot check ran"))
        assert main(["check-lemmas", path, "--base", base]) == 2
        assert capsys.readouterr() == ("", f"ucfreq: {path}: more than 100 minimal 2-good sets\n")

    def test_non_union_closed_is_refused_like_analyze(self, tmp_path, capsys, monkeypatch):
        # 11 disjoint 3-blocks {2,3,4}, ..., {32,33,34}: not union-closed, and
        # with 3^11 minimal 2-good sets, which the refusal comes before
        path = tmp_path / "blocks.txt"
        path.write_text("".join(f"{3 * i + 2} {3 * i + 3} {3 * i + 4}\n" for i in range(11)))
        monkeypatch.setattr(setfam, "minimal_two_good_sets", lambda *a, **kw: pytest.fail("enumerated"))
        for argv in (["analyze"], ["check-lemmas", "--base", "2,5"]):
            assert main(argv + [str(path)]) == 2
            assert capsys.readouterr() == ("", f"ucfreq: {path}: family is not union-closed\n")

    def test_floor_fault_exits_3_with_the_report(self, tmp_path, capsys, monkeypatch):
        fam, s, violation = FLOOR_TIGHT[0]
        path = tmp_path / "tight.txt"
        path.write_text(family_to_text(fam))
        monkeypatch.setattr(search, "frequency_cap_constant", lambda size, c: lpmodel.frequency_cap_constant(size, c) + 1)
        assert main(["check-lemmas", str(path), "--base", setfam.format_mask(s)[1:-1]]) == 3
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = json.loads(captured.out)
        assert doc["passed"] is False and doc["violations"] == [violation]

    def test_minimal_two_good_sets_enumerated_once(self, tmp_path, capsys, monkeypatch):
        # the incidence block runs here, and ranks S among the sets that the
        # output cap already enumerated
        fam, s = INCIDENCE_CASE
        path = tmp_path / "incidence.txt"
        path.write_text(family_to_text(fam))
        enumerate_sets, calls = setfam.minimal_two_good_sets, []

        def counted(*args, **kwargs):
            calls.append(args)
            return enumerate_sets(*args, **kwargs)

        monkeypatch.setattr(setfam, "minimal_two_good_sets", counted)
        monkeypatch.setattr(search, "minimal_two_good_sets", counted)
        assert main(["check-lemmas", str(path), "--base", setfam.format_mask(s)[1:-1]]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True
        assert len(calls) == 1

    def test_non_minimal_base_refused_before_the_recount(self, tmp_path, capsys, monkeypatch):
        # {2, 3, 4} is 2-good but holds the minimal 2-good {2, 3}
        path = tmp_path / "family.txt"
        path.write_text("".join(" ".join(map(str, s)) + "\n" for s in REACH_FAMILY))
        monkeypatch.setattr(search, "spot_check_lemmas", lambda *args: pytest.fail("recounted"))
        monkeypatch.setattr(setfam, "flexible_pairs", lambda *args: pytest.fail("flexible pairs found"))
        assert main(["check-lemmas", str(path), "--base", "2,3,4"]) == 2
        assert capsys.readouterr() == ("", f"ucfreq: {path}: base set {{2,3,4}} is not minimal 2-good\n")

    @pytest.fixture(scope="class")
    def folder(self, tmp_path_factory):
        return tmp_path_factory.mktemp("bases")

    @given(closed_families(max_n=6))
    def test_refuses_exactly_the_non_minimal_bases(self, folder, f):
        # every S of the ground set against the oracle, and one base with an
        # element above n; the JSON file states n
        path = folder / "family.json"
        path.write_text(family_to_json(f))

        def run(base):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["check-lemmas", str(path), "--base", base])
            return code, out.getvalue(), err.getvalue()

        minimal = []
        for s in range(1 << f.n):
            elements = [e for e in range(1, f.n + 1) if s >> (e - 1) & 1]
            base = ",".join(map(str, elements))
            code, out, err = run(base)
            if is_minimal_two_good(f, s):
                minimal.append(elements)
                assert (code, err) == (0, "") and json.loads(out)["passed"] is True
            else:
                assert (code, out, err) == (2, "", f"ucfreq: {path}: base set {{{base}}} is not minimal 2-good\n")
        wide = ",".join(map(str, minimal[0] + [f.n + 1]))
        assert run(wide) == (2, "", f"ucfreq: base set {wide!r} leaves the ground set 1..{f.n}\n")

    def test_union_closure_checked_once(self, tmp_path, capsys, monkeypatch):
        # the CLI checks the family file; the spot check takes it as given
        fam, s = INCIDENCE_CASE
        path = tmp_path / "incidence.txt"
        path.write_text(family_to_text(fam))
        calls = count_calls(monkeypatch, "is_union_closed", setfam, search)
        assert main(["check-lemmas", str(path), "--base", setfam.format_mask(s)[1:-1]]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True
        assert len(calls) == 1


class TestBaseSet:
    """A --base that is not a set of 1..n is refused in one line, exit 2."""

    @pytest.mark.parametrize("command", ["analyze", "check-lemmas"])
    @pytest.mark.parametrize("base, message", [
        ("x", "bad base set 'x'"),
        # the fixture's text file mentions elements 1..4 only
        ("2,5", "base set '2,5' leaves the ground set 1..4"),
    ])
    def test_refused(self, flex_family_text, capsys, command, base, message):
        assert main([command, flex_family_text, "--base", base]) == 2
        assert capsys.readouterr() == ("", f"ucfreq: {message}\n")


class TestConsistencyFaults:
    """Each internal check that can fail a command does so with exit 3."""

    @pytest.mark.parametrize("argv, spec", [
        (["table"], "CaseSpec(s=4, scenario=<Scenario.C0: 'c0'>)"),
        (["table", "--format", "json"], "CaseSpec(s=4, scenario=<Scenario.C0: 'c0'>)"),
        (["solve-case", "--s", "4", "--c", "0"], "CaseSpec(s=4, scenario=<Scenario.C0: 'c0'>)"),
        (["solve-base", "--s", "4"], "CaseSpec(s=4, scenario=<Scenario.BASE: 'base'>)"),
    ])
    def test_recheck_failure(self, capsys, monkeypatch, argv, spec):
        monkeypatch.setattr(lpmodel, "recheck", lambda res: False)
        assert main(argv) == 3
        assert capsys.readouterr() == (
            "", f"ucfreq: internal consistency failure: certificate for {spec} failed re-verification\n"
        )

    def test_cover_involution_failure(self, tmp_path, capsys, monkeypatch):
        # the covers of the two edges are right; only the covers of those
        # covers, the involution re-check, lose their last member
        path = tmp_path / "edges.txt"
        path.write_text("1 2\n2 3\n")
        real, calls = setfam.minimal_covers, []

        def second_call_short(fam, limit=None):
            calls.append(fam)
            out = real(fam, limit)
            return setfam.SetFamily(out.n, out.sets[:-1]) if len(calls) == 2 else out

        monkeypatch.setattr(setfam, "minimal_covers", second_call_short)
        assert main(["covers", str(path)]) == 3
        assert len(calls) == 2
        assert capsys.readouterr() == (
            "", "ucfreq: internal consistency failure: MC(MC(F)) differs from the minimal elements of F\n"
        )

    def test_census_floor_violation(self, capsys, monkeypatch):
        monkeypatch.setattr(search, "F2_FLOOR", Fraction(1, 2))
        assert main(["search-nagel", "--n", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = json.loads(captured.out)
        assert doc["passed"] is False and doc["families_checked"] == 8
        assert doc["violations"] == [
            "f_2 = 1/3 < 1/2 for SetFamily(n=2, {{}, {1}, {1,2}})",
            "f_2 = 1/3 < 1/2 for SetFamily(n=2, {{}, {2}, {1,2}})",
        ]


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_unknown_command(self, capsys):
        assert main(["bogus"]) == 1

    def test_bad_flag_value(self, capsys):
        assert main(["solve-base", "--s", "6"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


class TestHelp:
    @pytest.mark.parametrize("command", ("ucfreq",) + SUBCOMMANDS)
    def test_help_is_pinned(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        assert main(["--help"] if command == "ucfreq" else [command, "--help"]) == 0
        assert capsys.readouterr() == ((HELP_PINNED / f"{command}.txt").read_text(), "")


# Per subcommand, the tails after its name: -h, a missing required option,
# an invalid choice, a bad integer, an unknown flag and a stray positional
# (each where the subcommand has such an option), then one valid call.
PARITY_TAILS = {
    "table": ([["-h"], ["--format", "xml"], ["--bogus"], ["x"]],
              ["--format", "json", "--certificates", "--out", "t.json"]),
    "solve-case": ([["-h"], ["--s", "4"], ["--s", "4", "--c", "9"], ["--s", "four", "--c", "1"],
                    ["--s", "4", "--c", "1", "--bogus"], ["--s", "4", "--c", "1", "x"]],
                   ["--s", "5", "--c", "aux", "--dump-lp"]),
    "solve-base": ([["-h"], [], ["--s", "3"], ["--s", "x"], ["--s", "4", "--bogus"], ["--s", "4", "x"]],
                   ["--s", "5", "--approx"]),
    "min-objective": ([["-h"], ["--s", "4"], ["--s", "6", "--objective", "q_a"],
                       ["--s", "x", "--objective", "q_a"], ["--s", "4", "--objective", "q_a", "--bogus"],
                       ["--s", "4", "--objective", "q_a", "x"]],
                      ["--s", "4", "--objective", "q_a+q_ab"]),
    "analyze": ([["-h"], [], ["f.txt", "--format", "yaml"], ["f.txt", "--bogus"], ["f.txt", "x"]],
                ["f.txt", "--format", "text", "--base", "2,3", "--add-empty", "--normalize", "--approx"]),
    "covers": ([["-h"], [], ["f.txt", "--format", "yaml"], ["f.txt", "--bogus"], ["f.txt", "x"]],
               ["f.json"]),
    "search-nagel": ([["-h"], [], ["--n", "1"], ["--n", "x"], ["--n", "3", "--max-witnesses", "-1"],
                      ["--n", "3", "--bogus"], ["--n", "3", "x"]],
                     ["--n", "3", "--require-empty", "--max-family-size", "6", "--max-witnesses", "2"]),
    "check-lemmas": ([["-h"], ["f.txt"], ["f.txt", "--base", "2", "--format", "yaml"],
                      ["f.txt", "--base", "2", "--bogus"], ["f.txt", "--base", "2", "x"]],
                     ["f.txt", "--base", "2,3", "--add-empty"]),
}


def tree_parse(capsys, argv):
    """(exit code, stdout, stderr) of the full tree refusing `argv`, or
    printing its help."""
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    return exc.value.code, *capsys.readouterr()


class TestParserParity:
    """A call that names its subcommand first is parsed by that subcommand's
    parser alone; its help, refusals and namespace are the full tree's."""

    @pytest.mark.parametrize("argv", [
        [command, *tail] for command, (tails, _) in PARITY_TAILS.items() for tail in tails
    ] + [[], ["--help"], ["tabel"]], ids=lambda argv: " ".join(argv) or "(none)")
    def test_refusals_and_help_match_the_full_tree(self, capsys, argv):
        code = main(argv)
        assert (code, *capsys.readouterr()) == tree_parse(capsys, argv)

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_valid_call_parses_as_the_full_tree(self, command):
        argv = [command, *PARITY_TAILS[command][1]]
        args = cli.parse_args(argv)
        assert args.command == command
        assert vars(args) == vars(cli.build_parser().parse_args(argv))

    def test_every_subcommand_is_covered(self):
        assert tuple(PARITY_TAILS) == SUBCOMMANDS == tuple(cli._COMMANDS)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


class TestRepeatedCalls:
    """`main` shares its parsers across calls; no call may leave anything
    behind that changes the next one's output or exit code."""

    @pytest.mark.parametrize("first, first_code, second, expected", [
        (["table", "--format", "json"], 0, ["table"], (0, TABLE_CSV)),
        (["solve-case", "--s", "5", "--c", "0", "--approx"], 0, ["solve-case", "--s", "5", "--c", "0"], (0, "237/2\n")),
        (["table", "--jobs", "2"], 1, ["solve-base", "--s", "4"], (0, "45\n")),
        (["table"], 0, ["solve-case", "--s", "5", "--c", "2", "--dump-lp"],
         (0, (DUMP_LP_PINNED / "s5_c2.txt").read_text())),
        (["solve-base", "--s", "4"], 0, ["min-objective", "--s", "4", "--objective", "q_singleton"], (0, "8\n")),
    ])
    def test_second_call_is_unaffected(self, capsys, first, first_code, second, expected):
        assert run(capsys, second) == expected
        assert run(capsys, first)[0] == first_code
        assert run(capsys, second) == expected

    def test_add_empty_does_not_stick(self, flex_family_text, capsys):
        alone = run(capsys, ["analyze", flex_family_text])
        with_empty = run(capsys, ["analyze", "--add-empty", flex_family_text])
        assert alone[0] == with_empty[0] == 0 and alone[1] != with_empty[1]
        assert run(capsys, ["analyze", flex_family_text]) == alone

    def test_help_twice_is_identical(self, capsys):
        first = run(capsys, ["--help"])
        assert first[0] == 0 and first[1].startswith("usage: ucfreq")
        assert run(capsys, ["--help"]) == first


# Counts parsers built: importing cli must build none, and each `main` call
# only what no earlier call built: its own subcommand's parser, or the full
# tree (the top level and its eight subparsers) for the top-level help and
# for arguments that the subcommand's parser leaves over.  Prints the count
# after import, then (exit code, count) after each call of `calls`.
BUILD_COUNT_SCRIPT = """
import argparse, contextlib, io
built = 0
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    global built
    built += 1
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
from ucfreq import cli
print(built)
counts = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in {calls!r}:
        counts.append((cli.main(argv), built))
print(counts)
"""


def run_fresh(script: str) -> list[str]:
    """The stdout lines of `script` run in a fresh interpreter, so no other
    test's imports or calls count."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_parser_is_built_once_per_process():
    # a lone subcommand builds its own parser, once
    assert run_fresh(BUILD_COUNT_SCRIPT.format(calls=[["table"], ["table"]])) == ["0", "[(0, 1), (0, 1)]"]
    # solve-base builds 1 and --help the tree's 9; table --jobs 2 builds its
    # own parser, and the cached tree words the refusal; solve-case builds 1,
    # and table again none
    calls = [
        ["solve-base", "--s", "4"], ["--help"], ["table", "--jobs", "2"],
        ["solve-case", "--s", "5", "--c", "0", "--approx"], ["table"],
    ]
    assert run_fresh(BUILD_COUNT_SCRIPT.format(calls=calls)) == [
        "0", "[(0, 1), (0, 10), (1, 11), (0, 12), (0, 12)]"
    ]


# Counts base programs built over the six commands behind the 13 published
# numbers: one per distinct program (eight cells, aux and the two bases), as
# `table`'s recheck and `min-objective` reuse the rows `case_program` built.
BASE_COUNT_SCRIPT = """
import contextlib, io
from ucfreq import cli, lpmodel
built = 0
build_base = lpmodel.build_base
def counting(*args):
    global built
    built += 1
    return build_base(*args)
lpmodel.build_base = counting
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in (
        ["table", "--format", "json", "--certificates"],
        ["solve-base", "--s", "4"], ["solve-base", "--s", "5"], ["solve-case", "--s", "5", "--c", "aux"],
        ["min-objective", "--s", "4", "--objective", "q_singleton"],
        ["min-objective", "--s", "5", "--objective", "sum_singletons"],
    )]
print(codes, built)
"""


def test_each_paper_program_is_built_once_per_process():
    assert run_fresh(BASE_COUNT_SCRIPT) == ["[0, 0, 0, 0, 0, 0] 11"]
