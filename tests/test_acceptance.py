"""Acceptance suite: the full-scale exit checks, one test per criterion.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line
per criterion with its runtime.  All comparisons are exact rational
equality; runtimes are informational.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from oracle_models import (
    random_box_program,
    reduced_full_symmetry,
    reduced_one_marked_role,
)

from ucfreq.lpmodel import (
    CaseSpec,
    Scenario,
    bounds_table,
    build_base,
    doubled_trace_targets,
    frequency_cap_constant,
    incidence_count_constraints,
    min_objective,
    recheck,
    solve_case,
)
from ucfreq.ratlp import (
    Infeasible,
    Optimal,
    brute_force_optimum,
    check_feasible,
    solve,
    verify_infeasibility,
    verify_optimality,
)
from ucfreq.search import (
    EnumerationSpec,
    run_lemma_corpus,
    verify_cover_theorem,
    verify_nagel_k2,
)
from ucfreq.setfam import SetFamily, is_antichain, minimal_covers

F = Fraction


@contextmanager
def criterion(number: int, description: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description} [{time.time() - start:.1f}s]")


def test_criterion_1_case_table():
    with criterion(1, "case table reproduced exactly with verified certificates"):
        results = bounds_table()
        by_cell = {(r.spec.s, r.spec.scenario): r for r in results}
        assert by_cell[(4, Scenario.C0)].bound == 81
        assert by_cell[(4, Scenario.C1)].bound == 81
        assert by_cell[(4, Scenario.C2)].bound == 114
        assert by_cell[(4, Scenario.C3PLUS)].bound is None
        assert isinstance(by_cell[(4, Scenario.C3PLUS)].outcome, Infeasible)
        assert by_cell[(5, Scenario.C0)].bound == F(237, 2)
        assert by_cell[(5, Scenario.C1)].bound == F(231, 2)
        assert by_cell[(5, Scenario.C2)].bound == 122
        assert by_cell[(5, Scenario.C3PLUS)].bound == 114
        for res in results:
            assert recheck(res), f"certificate failed for {res.spec}"


def test_criterion_2_base_bounds():
    with criterion(2, "base bounds 45 and 141/2 with the known tight point certified"):
        lp4 = build_base(4)
        out4 = solve(lp4)
        assert isinstance(out4, Optimal) and out4.value == 45
        out5 = solve(build_base(5))
        assert isinstance(out5, Optimal) and out5.value == F(141, 2)
        displayed = {
            name: F(2) if name == "q_empty" else F(8) if len(name) == 3 else F(1)
            for name in lp4.variables
        }
        assert check_feasible(lp4, displayed)
        assert sum(displayed.values()) == 45
        # the solver's dual certifies the displayed point as optimal too
        assert verify_optimality(lp4, displayed, out4.dual)


def test_criterion_3_covered_pair_bound():
    with criterion(3, "covered-pair auxiliary program certifies optimum 129 >= 129"):
        res = solve_case(CaseSpec(5, Scenario.PAIR_CAP))
        assert res.bound == 129
        assert res.bound >= 129
        assert recheck(res)


def test_criterion_4_existence_bounds():
    with criterion(4, "single-trace floor 8 and singleton-sum floor 85/2 >= 40, cross-checked"):
        single = min_objective(4, {"q_a": F(1)})
        assert isinstance(single, Optimal) and single.value == 8
        assert single.value >= 8
        lp = build_base(4)
        lp.objective = {"q_a": F(1)}
        assert verify_optimality(lp, single.assignment, single.dual)

        sums = min_objective(5, {f"q_{y}": F(1) for y in "abcde"})
        assert isinstance(sums, Optimal) and sums.value == F(85, 2)
        assert sums.value >= 40
        lp5 = build_base(5)
        lp5.objective = {f"q_{y}": F(1) for y in "abcde"}
        assert verify_optimality(lp5, sums.assignment, sums.dual)

        # independent route: reduced symmetric models + basic-point enumeration
        marked = reduced_one_marked_role(4)
        marked.objective = {"z10": F(1)}
        assert brute_force_optimum(marked) == 8
        full = reduced_full_symmetry(5)
        full.objective = {"z1": F(5)}
        assert brute_force_optimum(full) == F(85, 2)


def test_criterion_5_generator_constants():
    with criterion(5, "cap constants, counting right-hand sides, doubled-trace lists exact"):
        assert frequency_cap_constant(4, 2) == 12
        assert frequency_cap_constant(4, 3) == 12
        assert frequency_cap_constant(5, 2) == 26
        assert frequency_cap_constant(5, 3) == 27
        assert [c.rhs for c in incidence_count_constraints(4)] == [11, 7, 2]
        assert [c.rhs for c in incidence_count_constraints(5)] == [23, 18, 8]

        def sets(*groups):
            return {frozenset(g) for g in groups}

        assert set(doubled_trace_targets(4, "a", {"b"})) == sets("a", "ac", "ad", "acd")
        assert set(doubled_trace_targets(4, "a", {"b", "c"})) == sets(
            "a", "ad", "bc", "bcd", "abc", "abcd"
        )
        assert set(doubled_trace_targets(5, "a", {"b", "c"})) == sets(
            "a", "ad", "ae", "ade",
            "bc", "bcd", "bce", "bcde",
            "abc", "abcd", "abce", "abcde",
        )


def test_criterion_6_cover_theorem_suite():
    with criterion(6, "cover laws: exhaustive n <= 4 plus 100000 sampled n = 5, zero violations"):
        report = verify_cover_theorem(n_max=4, n5_samples=100_000, seed=2024)
        # exhaustive layers: every nonempty family of nonempty sets, n = 1..4
        assert report.families_checked == (1 + 7 + 127 + 32767) + 2 * 100_000
        assert report.violations == []


def nonempty_antichains(n: int):
    """Every nonempty antichain of nonempty subsets of {1..n}, by depth-first
    search over the subsets in increasing numeric order."""
    chosen: list[int] = []

    def walk(start: int):
        for s in range(start, 1 << n):
            if all(s & ~t and t & ~s for t in chosen):
                chosen.append(s)
                yield SetFamily(n, tuple(chosen))
                yield from walk(s + 1)
                chosen.pop()

    return walk(1)


def test_criterion_6_exhaustive_antichain_involution_n5():
    with criterion(6, "MC(MC(F)) = F on all 7579 nonempty antichains of nonempty subsets of {1..5}"):
        checked = 0
        for fam in nonempty_antichains(5):
            mc = minimal_covers(fam)
            assert is_antichain(mc), fam
            assert minimal_covers(mc) == fam.sorted(), fam
            checked += 1
        # Dedekind number M(5) = 7581, less the empty antichain and the one of the empty set
        assert checked == 7581 - 2


def test_criterion_7_second_frequency_desk_check():
    with criterion(7, "exhaustive n = 2, 3, 4, 5: min f_2 = 1/3 and zero families below"):
        # union-closed families covering {1..n}: with the empty set or without
        # it, twice the 4, 45, 2271 and 1373701 that contain both {} and {1..n}
        expected = {2: 8, 3: 90, 4: 4542}
        for n in (2, 3, 4):
            report = verify_nagel_k2(EnumerationSpec(n, require_ground_coverage=True))
            assert report.min_f2 == F(1, 3), f"n={n}"
            assert report.violations == [], f"n={n}"
            assert report.families_checked == expected[n], f"n={n}"
        report = verify_nagel_k2(EnumerationSpec(5, require_ground_coverage=True))
        assert report.families_checked == 2_747_402
        assert report.min_f2 == F(1, 3)
        assert report.violations == []


def test_criterion_8_lemma_counting_corpus():
    with criterion(8, "1000-instance randomized corpus: all counting bounds hold"):
        report = run_lemma_corpus(instances=1000, seed=7)
        assert report.families_checked == 1000
        assert report.violations == []


def test_criterion_9_lp_oracle_equivalence():
    with criterion(9, "500 random programs: simplex == basic-point enumeration, certificates verify"):
        rng = random.Random(424242)
        optima = infeasible = 0
        for k in range(500):
            lp = random_box_program(rng)
            out = solve(lp)
            expect = brute_force_optimum(lp)
            if isinstance(out, Optimal):
                optima += 1
                assert expect == out.value
                assert verify_optimality(lp, out.assignment, out.dual)
            else:
                infeasible += 1
                assert isinstance(out, Infeasible)
                assert expect is None
                assert verify_infeasibility(lp, out.farkas)
            if k % 25 == 0:
                shuffled = type(lp)(
                    lp.variables, lp.sense, dict(lp.objective),
                    lower=dict(lp.lower), upper=dict(lp.upper),
                )
                order = list(lp.constraints)
                rng.shuffle(order)
                shuffled.constraints = order
                again = solve(shuffled)
                assert type(again) is type(out)
                if isinstance(out, Optimal):
                    assert again.value == out.value
        # both outcome kinds must actually occur for the check to mean anything
        assert optima > 50 and infeasible > 50
