"""Model-builder tests.

The headline optima are cross-checked two independent ways: the simplex
path emits dual/Farkas certificates that `recheck` re-verifies against a
reconstructed program, and the symmetry-reduced companion models from
`oracle_models` (solved by exhaustive basic-point enumeration only) must
agree on the value.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from oracle_models import (
    brute_force_optimum,
    fraction_check_feasible,
    letter_set_doubled_targets,
    reduced_full_symmetry,
    reduced_one_marked_role,
)

from ucfreq import lpmodel, ratlp
from ucfreq.lpmodel import (
    CaseResult,
    CaseSpec,
    Scenario,
    all_subsets,
    bounds_table,
    build_base,
    case_program,
    covered_pair_cap_constraint,
    doubled_pattern,
    doubled_trace_targets,
    frequency_cap_constant,
    frequency_cap_constraint,
    incidence_count_constraints,
    min_objective,
    recheck,
    solve_case,
    subset_name,
    table_to_csv,
    table_to_json,
)
from ucfreq.ratlp import (
    Infeasible,
    LinearConstraint,
    Optimal,
    solve,
    verify_optimality,
)

F = Fraction


def names(*groups: str) -> set[frozenset[str]]:
    """Parse 'a ad bc' style subset lists; '-' is the empty set."""
    return {frozenset(g) if g != "-" else frozenset() for g in groups}


class TestBaseProgram:
    def test_structure_s4(self):
        lp = build_base(4)
        assert len(lp.variables) == 16
        assert len(lp.constraints) == 4 + 16 + 1
        assert lp.variables[0] == "q_empty"
        assert lp.variables[1:5] == ("q_a", "q_b", "q_c", "q_d")
        assert lp.variables[-1] == "q_abcd"

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            build_base(3)

    def test_optimum_s4(self):
        out = solve(build_base(4))
        assert isinstance(out, Optimal) and out.value == 45

    def test_optimum_s5(self):
        out = solve(build_base(5))
        assert isinstance(out, Optimal) and out.value == F(141, 2)

    def test_reduced_model_agrees(self):
        assert brute_force_optimum(reduced_full_symmetry(4)) == 45
        assert brute_force_optimum(reduced_full_symmetry(5)) == F(141, 2)

    def test_reduced_model_oracle_ignores_the_solver_row_test(self, monkeypatch):
        # the oracle decides feasibility with its own row test, not ratlp's
        monkeypatch.setattr(ratlp, "_holds", lambda lhs, relation, rhs: True)
        assert brute_force_optimum(reduced_full_symmetry(4)) == 45
        assert brute_force_optimum(reduced_full_symmetry(5)) == F(141, 2)

    def test_known_tight_point_s4(self):
        lp = build_base(4)
        point = {
            name: F(2) if name == "q_empty" else F(8) if len(name) == 3 else F(1)
            for name in lp.variables
        }
        assert sum(point.values()) == 45
        assert fraction_check_feasible(lp, point)
        out = solve(lp)
        assert verify_optimality(lp, out.assignment, out.dual)
        assert out.value == 45


class TestDoubledTraceTargets:
    def test_s4_one_covered(self):
        got = set(doubled_trace_targets(4, "a", {"b"}))
        assert got == names("a", "ac", "ad", "acd")

    def test_s4_two_covered(self):
        got = set(doubled_trace_targets(4, "a", {"b", "c"}))
        assert got == names("a", "ad", "bc", "bcd", "abc", "abcd")

    def test_s5_two_covered(self):
        got = set(doubled_trace_targets(5, "a", {"b", "c"}))
        assert got == names(
            "a", "ad", "ae", "ade",
            "bc", "bcd", "bce", "bcde",
            "abc", "abcd", "abce", "abcde",
        )

    def test_no_covered_roles(self):
        got = doubled_trace_targets(4, "a", ())
        assert all("a" in t for t in got) and len(got) == 8

    def test_cardinality_formula(self):
        for s in (4, 5):
            for c in range(0, s - 1):
                covered = set("bcde"[:c])
                got = len(doubled_trace_targets(s, "a", covered))
                assert got == 2 ** (s - 1 - c) + (2**c - 1 - c) * 2 ** (s - c)

    def test_covered_flexible_conflict(self):
        with pytest.raises(ValueError):
            doubled_trace_targets(4, "a", {"a"})

    @pytest.mark.parametrize("a, covered", [("e", ()), ("a", {"e"})])
    def test_unknown_role(self, a, covered):
        with pytest.raises(ValueError) as info:
            doubled_trace_targets(4, a, covered)
        assert str(info.value) == "roles must come from 'abcd'"

    @pytest.mark.parametrize("s", [4, 5])
    def test_matches_the_letter_set_rule(self, s):
        # every flexible role, and every covered set of the other roles
        letters = "abcde"[:s]
        for a in letters:
            others = letters.replace(a, "")
            for k in range(len(others) + 1):
                for covered in combinations(others, k):
                    got = doubled_trace_targets(s, a, covered)
                    assert got == letter_set_doubled_targets(s, a, covered), (a, covered)

    @pytest.mark.parametrize("t, pattern", [
        (0b0001, "first"), (0b1001, "first"), (0b0110, "pair"), (0b0111, "pair"),
        (0b1110, "pair"), (0b0011, None), (0b1010, None), (0b0000, None),
    ])
    def test_pattern_names(self, t, pattern):
        # flexible bit 0, covered bits 1 and 2
        assert doubled_pattern(t, 0b0001, 0b0110) == pattern


class TestRaiseTraceFloors:
    """`build_base(s, doubled)` raises the floor rows of the doubled targets to 2."""

    def test_identity_on_empty_targets(self):
        for s in (4, 5):
            lp = build_base(s, ())
            assert lp.constraints == case_program(CaseSpec(s, Scenario.BASE)).constraints
            assert all(c.rhs == 1 for c in lp.constraints if c.label.startswith("floor_"))

    def test_raises_only_targets(self):
        base = build_base(4)
        lp = build_base(4, doubled_trace_targets(4, "a", ()))
        assert [c.label for c in lp.constraints] == [c.label for c in base.constraints]
        raised = {c.label for c, b in zip(lp.constraints, base.constraints) if c != b}
        assert raised == {f"floor_{subset_name(t)}" for t in all_subsets(4) if "a" in t}
        for c, b in zip(lp.constraints, base.constraints):
            assert (c.coeffs, c.relation) == (b.coeffs, b.relation)
            assert c.rhs == (2 if c.label in raised else b.rhs)

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="floor_q_ae"):
            build_base(4, (frozenset("ae"),))


class TestFrequencyCap:
    def test_constants(self):
        assert frequency_cap_constant(4, 2) == 12
        assert frequency_cap_constant(4, 3) == 12
        assert frequency_cap_constant(5, 2) == 26
        assert frequency_cap_constant(5, 3) == 27
        # the full-coverage variant, exposed but unused by the table
        assert frequency_cap_constant(5, 4) == 27

    def test_constant_bounds(self):
        with pytest.raises(ValueError):
            frequency_cap_constant(4, 4)

    @pytest.mark.parametrize("covered", [{"a"}, {"a", "b"}, {"e"}])
    def test_constraint_refuses_a_and_unknown_roles(self, covered):
        with pytest.raises(ValueError) as info:
            frequency_cap_constraint(4, covered)
        assert str(info.value) == "covered roles must be non-a roles"

    def test_constraint_shape(self):
        con = frequency_cap_constraint(4, {"b", "c"})
        assert con.relation == ">=" and con.rhs == 36
        assert con.coeffs["q_b"] == -2 and con.coeffs["q_c"] == -2
        assert con.coeffs["q_bc"] == 1 and con.coeffs["q_empty"] == 1


class TestIncidenceCounts:
    def test_rhs_values(self):
        assert [c.rhs for c in incidence_count_constraints(4)] == [11, 7, 2]
        assert [c.rhs for c in incidence_count_constraints(5)] == [23, 18, 8]

    def test_term_counts(self):
        for s in (4, 5):
            first = incidence_count_constraints(s)[0]
            assert len(first.coeffs) == 2 ** (s - 1) - 1

    def test_unknown_role(self):
        with pytest.raises(ValueError):
            incidence_count_constraints(4, "e")


class TestCoveredPairCap:
    def test_bound_129(self):
        res = solve_case(CaseSpec(5, Scenario.PAIR_CAP))
        assert res.bound == 129
        assert recheck(res)

    def test_constraint_form(self):
        con = covered_pair_cap_constraint()
        assert con.rhs == 75
        assert con.coeffs["q_b"] == -2
        assert con.coeffs["q_bc"] == -2
        assert con.coeffs["q_c"] == -2
        assert con.coeffs["q_d"] == 1

    def test_removing_it_recovers_base(self):
        assert solve(build_base(5)).value == F(141, 2)

    def test_s4_rejected(self):
        with pytest.raises(ValueError):
            CaseSpec(4, Scenario.PAIR_CAP)


EXPECTED_TABLE = {
    (4, Scenario.C0): F(81),
    (4, Scenario.C1): F(81),
    (4, Scenario.C2): F(114),
    (4, Scenario.C3PLUS): None,
    (5, Scenario.C0): F(237, 2),
    (5, Scenario.C1): F(231, 2),
    (5, Scenario.C2): F(122),
    (5, Scenario.C3PLUS): F(114),
}


class TestCases:
    def test_single_cells(self):
        assert solve_case(CaseSpec(4, Scenario.C2)).bound == 114
        assert solve_case(CaseSpec(4, Scenario.C3PLUS)).bound is None
        assert solve_case(CaseSpec(5, Scenario.C1)).bound == F(231, 2)

    def test_full_table_with_certificates(self):
        results = bounds_table()
        assert len(results) == 8
        for res in results:
            assert EXPECTED_TABLE[(res.spec.s, res.spec.scenario)] == res.bound
            assert recheck(res)

    def test_recheck_refuses_a_value_off_the_objective(self):
        # same point and dual, so the certificate itself still verifies
        res = solve_case(CaseSpec(4, Scenario.C0))
        assert res.bound == 81 and recheck(res)
        tampered = CaseResult(res.spec, Optimal(F(82), res.outcome.assignment, res.outcome.dual))
        assert verify_optimality(case_program(res.spec), tampered.outcome.assignment, tampered.outcome.dual)
        assert not recheck(tampered)

    def test_infeasible_cell_has_farkas(self):
        res = solve_case(CaseSpec(4, Scenario.C3PLUS))
        assert isinstance(res.outcome, Infeasible)

    def test_bounds_dominate_base(self):
        base = {s: solve(build_base(s)).value for s in (4, 5)}
        for res in bounds_table():
            if res.bound is not None:
                assert res.bound >= base[res.spec.s]

    def test_role_permutation_leaves_bounds_unchanged(self):
        # |C| = 2 with covered roles {d, e} instead of the positional {b, c}
        lp = build_base(5, doubled_trace_targets(5, "a", {"d", "e"}))
        lp.constraints.append(frequency_cap_constraint(5, {"d", "e"}))
        assert solve(lp).value == F(122)
        # |C| = 1 with covered role c instead of b
        lp = build_base(4, doubled_trace_targets(4, "a", {"c"}))
        lp.constraints.extend(incidence_count_constraints(4, "c"))
        assert solve(lp).value == 81

    def test_base_scenario(self):
        assert solve_case(CaseSpec(4, Scenario.BASE)).bound == 45

    @pytest.mark.parametrize("s, doubled", [(4, 4), (5, 8)])
    def test_published_tally_of_the_one_covered_cell(self, s, doubled):
        # the paper's extra constraints for |C| = 1: 4 + 3 at s = 4, 8 + 3 at s = 5
        rows = case_program(CaseSpec(s, Scenario.C1)).constraints
        by_label = {c.label: c for c in rows}
        # role a is bit 0 and the covered role b is bit 1
        floors = {t: by_label[f"floor_{subset_name(t)}"] for t in all_subsets(s)}
        raised = [t for t in floors if doubled_pattern(sum(1 << "abcde".index(r) for r in t), 0b01, 0b10)]
        assert len(raised) == doubled
        assert all(row.rhs == (2 if t in raised else 1) for t, row in floors.items())
        assert sum(c.label.startswith("count_b_ge") for c in rows) == 3

    @pytest.mark.parametrize("scenario", list(Scenario), ids=lambda sc: sc.value)
    def test_presolve_shrinks_the_s5_tableau(self, scenario):
        # the split tableau of these programs was 38-41 rows x 134-140
        # columns with 32-35 artificials: one row per trace floor
        stats = solve_case(CaseSpec(5, scenario)).outcome.stats
        assert stats.rows <= 10 and stats.columns <= 50 and stats.artificials <= 8


VALID_SPECS = [CaseSpec(s, sc) for s in (4, 5) for sc in Scenario if s == 5 or sc is not Scenario.PAIR_CAP]


def uncached_program(spec: CaseSpec):
    """The program of `spec` built afresh, past the per-process cache."""
    return lpmodel._shared_program.__wrapped__(spec)


class TestCaseProgramCache:
    """`case_program` builds each spec's rows once per process and hands out
    fresh programs over them."""

    def test_calls_give_equal_programs_with_their_own_list_and_dict(self):
        for spec in VALID_SPECS:
            first, second = case_program(spec), case_program(spec)
            assert first == second == uncached_program(spec)
            assert first.constraints is not second.constraints
            assert first.objective is not second.objective
            assert all(a is b for a, b in zip(first.constraints, second.constraints))

    def test_changing_one_program_leaves_the_next_call_unchanged(self):
        spec = CaseSpec(4, Scenario.C1)
        lp = case_program(spec)
        lp.constraints.append(covered_pair_cap_constraint())
        lp.objective = {"q_a": F(1)}
        other = case_program(spec)
        other.objective["q_b"] = F(7)
        assert case_program(spec) == uncached_program(spec)
        assert solve_case(spec).bound == 81

    def test_rows_are_unchanged_by_the_paper_workload(self):
        for res in bounds_table():
            assert recheck(res)
        assert min_objective(4, {"q_a": F(1)}).value == 8
        assert min_objective(5, {f"q_{y}": F(1) for y in "abcde"}).value == F(85, 2)
        for spec in VALID_SPECS:
            assert lpmodel._shared_program(spec) == uncached_program(spec)
        assert case_program(CaseSpec(4, Scenario.BASE)).objective == dict.fromkeys(build_base(4).variables, 1)

    def test_cache_holds_one_entry_per_valid_spec(self):
        assert len(VALID_SPECS) == 11
        for spec in VALID_SPECS:
            case_program(spec)
        assert lpmodel._shared_program.cache_info().currsize == 11
        for s, scenario in ((3, Scenario.BASE), (6, Scenario.C0), (4, Scenario.PAIR_CAP)):
            with pytest.raises(ValueError):
                case_program(CaseSpec(s, scenario))
        # a spec that skipped its own check is refused by the builders
        unchecked = object.__new__(CaseSpec)
        object.__setattr__(unchecked, "s", 4)
        object.__setattr__(unchecked, "scenario", Scenario.PAIR_CAP)
        with pytest.raises(ValueError, match="s = 5 only"):
            case_program(unchecked)
        assert lpmodel._shared_program.cache_info().currsize == 11
        with pytest.raises(ValueError):
            all_subsets(3)
        assert all_subsets.cache_info().currsize <= 2


def role_group(spec: CaseSpec) -> list[dict[str, str]]:
    """The role permutations that cell `spec`'s hypothesis treats alike:
    the covered roles among themselves and the uncovered non-a roles among
    themselves; every role for the base program, b and c for the pair cap."""
    letters = lpmodel.role_letters(spec.s)
    if spec.scenario is Scenario.BASE:
        blocks = [letters]
    elif spec.scenario is Scenario.PAIR_CAP:
        blocks = ["bc"]
    else:
        covered = spec.scenario.covered_roles
        blocks = [covered, [r for r in letters[1:] if r not in covered]]
    group = [{r: r for r in letters}]
    for block in blocks:
        group = [{**g, **dict(zip(block, perm))} for g in group for perm in permutations(block)]
    return group


def trace_renamings(spec: CaseSpec) -> list[dict[str, str]]:
    """Each permutation of `role_group(spec)` as a renaming of the q_T."""
    subsets = all_subsets(spec.s)
    return [{subset_name(t): subset_name(g[r] for r in t) for t in subsets} for g in role_group(spec)]


def row_multiset(rows, rename: dict[str, str]) -> Counter:
    """The rows as a multiset of (coefficients, relation, right-hand side),
    labels dropped and each variable renamed."""
    return Counter(
        (frozenset((rename[v], c) for v, c in row.coeffs.items()), row.relation, row.rhs) for row in rows
    )


def is_role_symmetric(rows, renamings) -> bool:
    """Whether every renaming maps the rows onto themselves."""
    same = row_multiset(rows, {v: v for v in renamings[0]})
    return all(row_multiset(rows, rename) == same for rename in renamings)


def spec_id(spec: CaseSpec) -> str:
    return f"s{spec.s}-{spec.scenario.value}"


# |role_group| per program: s! for the base, |C|! (s - 1 - |C|)! for a cell,
# and 2 for the pair cap
GROUP_ORDERS = dict(zip(VALID_SPECS, (24, 6, 2, 2, 6, 120, 24, 6, 4, 6, 2)))

# Per cell: how many plain floors (q_T >= 1) can be raised to 2 without
# moving its bound (or its infeasibility, at s = 4, |C| = 3+), and the ones
# among them whose trace T every permutation of `role_group` fixes.  Raising
# one of those leaves the program role-symmetric, so no bound and no
# symmetry sees it; only evaluating the rows on families can (ROADMAP item
# 9).  q_empty is fixed by every role permutation and slack in every cell.
SLACK_FLOORS = {
    CaseSpec(4, Scenario.C0): (4, ("q_empty",)),
    CaseSpec(4, Scenario.C1): (11, ("q_empty", "q_b", "q_ab", "q_bcd", "q_abcd")),
    CaseSpec(4, Scenario.C2): (4, ("q_empty", "q_d")),
    CaseSpec(4, Scenario.C3PLUS): (16, ("q_empty", "q_a", "q_bcd", "q_abcd")),
    CaseSpec(5, Scenario.C0): (5, ("q_empty",)),
    CaseSpec(5, Scenario.C1): (19, ("q_empty", "q_b", "q_ab", "q_bcde")),
    CaseSpec(5, Scenario.C2): (5, ("q_empty",)),
    CaseSpec(5, Scenario.C3PLUS): (9, ("q_empty", "q_a", "q_e")),
    CaseSpec(5, Scenario.PAIR_CAP): (16, ("q_empty", "q_a", "q_d", "q_e", "q_bc", "q_abc", "q_bcd", "q_bce")),
}


class TestRoleSymmetry:
    """A cell's hypothesis treats some roles alike, so permuting them must
    map its program's rows onto themselves: a row typed with the wrong
    letter breaks this even where no bound moves."""

    @pytest.mark.parametrize("spec", VALID_SPECS, ids=spec_id)
    def test_each_program_is_invariant_under_its_roles_symmetry(self, spec):
        renamings = trace_renamings(spec)
        assert len(renamings) == GROUP_ORDERS[spec]
        assert is_role_symmetric(case_program(spec).constraints, renamings)

    @pytest.mark.parametrize("spec", list(SLACK_FLOORS), ids=spec_id)
    def test_a_raised_slack_floor_breaks_the_symmetry_exactly_when_its_trace_moves(self, spec):
        renamings = trace_renamings(spec)
        bound = solve_case(spec).bound
        slack, survivors = 0, []
        for i, row in enumerate(case_program(spec).constraints):
            if not (row.label.startswith("floor_") and row.rhs == 1):
                continue
            lp = case_program(spec)
            lp.constraints[i] = LinearConstraint(row.coeffs, row.relation, 2, row.label)
            if CaseResult(spec, solve(lp)).bound != bound:
                continue
            slack += 1
            (name,) = row.coeffs
            fixed = all(rename[name] == name for rename in renamings)
            assert is_role_symmetric(lp.constraints, renamings) == fixed, row.label
            if fixed:
                survivors.append(name)
        assert (slack, tuple(survivors)) == SLACK_FLOORS[spec]

    def test_the_sweep_covers_every_cell_and_the_pair_cap(self):
        table = bounds_table()
        assert list(SLACK_FLOORS) == [res.spec for res in table] + [CaseSpec(5, Scenario.PAIR_CAP)]
        counts = [SLACK_FLOORS[res.spec] for res in table if res.bound is not None]
        # the seven optimal cells hold 57 slack floors; the symmetry catches 40
        assert len(counts) == 7
        assert sum(n for n, _ in counts) == 57 and sum(len(kept) for _, kept in counts) == 17


class TestMinObjective:
    def test_single_trace_s4(self):
        out = min_objective(4, {"q_a": F(1)})
        assert isinstance(out, Optimal)
        assert out.value == 8

    def test_singleton_sum_s5(self):
        out = min_objective(5, {f"q_{y}": F(1) for y in "abcde"})
        assert out.value == F(85, 2)
        assert out.value >= 40

    def test_same_objective_matches_base(self):
        lp = build_base(4)
        out = min_objective(4, {name: F(1) for name in lp.variables})
        assert out.value == 45

    def test_reduced_models_agree(self):
        reduced = reduced_one_marked_role(4)
        reduced.objective = {"z10": F(1)}
        assert brute_force_optimum(reduced) == 8
        reduced5 = reduced_full_symmetry(5)
        reduced5.objective = {"z1": F(5)}
        assert brute_force_optimum(reduced5) == F(85, 2)

    def test_undeclared_variable_rejected(self):
        with pytest.raises(ValueError):
            min_objective(4, {"q_abcde": F(1)})


class TestSerialization:
    def test_csv(self):
        assert table_to_csv(bounds_table()) == (
            "s,|C|=0,|C|=1,|C|=2,|C|=3+\n"
            "4,81,81,114,infeasible\n"
            "5,237/2,231/2,122,114\n"
        )

    def test_json_schema(self):
        doc = table_to_json(bounds_table(), certificates=True)
        assert doc["schema"] == 1
        assert len(doc["cells"]) == 8
        first = doc["cells"][0]
        assert first["s"] == 4 and first["c"] == "0" and first["bound"] == "81"
        assert "dual" in first["certificate"]
        infeasible = [c for c in doc["cells"] if c["status"] == "infeasible"]
        assert len(infeasible) == 1 and "farkas" in infeasible[0]["certificate"]

    def test_subset_names(self):
        assert subset_name(()) == "q_empty"
        assert subset_name(("b", "a")) == "q_ab"
        assert [subset_name(t) for t in all_subsets(4)][:6] == [
            "q_empty", "q_a", "q_b", "q_c", "q_d", "q_ab",
        ]
