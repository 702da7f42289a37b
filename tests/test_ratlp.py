"""LP solver tests: trivial programs, certificates, and oracle equivalence.

The randomized suites compare simplex output against `brute_force_optimum`
(exhaustive basic-point enumeration over Gaussian-solved row subsets), an
algorithm with no code in common with the simplex path, against the
split-tableau simplex that ran before the presolve, which keeps every bound
as a row, and against the presolved simplex with its presolve and tableau in
`Fraction`s, which must take the same pivots and give equal outcomes and
`SolveStats`.  The integer certificate checks must give the verdicts and
`ValueError`s of the `Fraction` ones on solver certificates and on single
mutations of them, and the tableau shape, pivots and `max_bits` of the 13
paper programs are pinned.
"""

from __future__ import annotations

import gc
import importlib
import random
import sys
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from oracle_models import (
    Unbounded,
    brute_force_optimum,
    fraction_check_feasible,
    fraction_tableau_solve,
    fraction_verify_infeasibility,
    fraction_verify_optimality,
    fraction_verify_ray,
    random_bounded_program,
    random_box_program,
    split_tableau_solve,
)

import ucfreq
from ucfreq import lpmodel, ratlp
from ucfreq.ratlp import (
    CertificateError,
    Infeasible,
    LinearConstraint,
    LinearProgram,
    Optimal,
    SolveStats,
    format_certificate,
    format_lp,
    materialized_rows,
    solve,
    verify_infeasibility,
    verify_optimality,
    verify_ray,
)

F = Fraction


def lp_min_x_ge_1() -> LinearProgram:
    lp = LinearProgram(("x",), "min", {"x": F(1)})
    lp.add({"x": 1}, ">=", 1)
    return lp


def lp_conflicting() -> LinearProgram:
    lp = LinearProgram(("x",), "min", {"x": F(1)})
    lp.add({"x": 1}, ">=", 2)
    lp.add({"x": 1}, "<=", 1)
    return lp


class TestTrivialPrograms:
    def test_min_with_single_lower_bound(self):
        out = solve(lp_min_x_ge_1())
        assert isinstance(out, Optimal)
        assert out.value == 1
        assert out.assignment == {"x": F(1)}
        assert out.dual == {0: F(1)}

    def test_conflicting_bounds_infeasible(self):
        out = solve(lp_conflicting())
        assert isinstance(out, Infeasible)
        assert verify_infeasibility(lp_conflicting(), out.farkas)

    def test_max_flips_conventions(self):
        lp = LinearProgram(("x",), "max", {"x": F(1)})
        lp.add({"x": 1}, "<=", F(7, 2))
        out = solve(lp)
        assert isinstance(out, Optimal)
        assert out.value == F(7, 2)
        assert verify_optimality(lp, out.assignment, out.dual)

    def test_unbounded_gives_verifying_ray(self):
        # `solve` refuses the program; the reference simplex gives its ray
        lp = LinearProgram(("x",), "min", {"x": F(-1)})
        lp.add({"x": 1}, ">=", 0)
        with pytest.raises(ValueError, match="^program is unbounded$"):
            solve(lp)
        out = split_tableau_solve(lp)
        assert isinstance(out, Unbounded)
        assert verify_ray(lp, out.ray)

    def test_equality_row(self):
        lp = LinearProgram(("x", "y"), "min", {"x": F(1), "y": F(2)})
        lp.add({"x": 1, "y": 1}, "==", 4)
        lp.lower = {"x": F(0), "y": F(0)}
        out = solve(lp)
        assert isinstance(out, Optimal)
        assert out.value == 4
        assert out.assignment == {"x": F(4), "y": F(0)}

    def test_free_variable_negative_optimum(self):
        lp = LinearProgram(("x",), "min", {"x": F(1)})
        lp.add({"x": 1}, ">=", -5)
        out = solve(lp)
        assert isinstance(out, Optimal)
        assert out.value == -5

    def test_declared_bounds_materialize_as_rows(self):
        lp = LinearProgram(("x",), "min", {"x": F(1)}, lower={"x": F(2)}, upper={"x": F(9)})
        assert len(materialized_rows(lp)) == 2
        out = solve(lp)
        assert out.value == 2
        assert out.dual == {0: F(1)}


class TestVerifyOptimality:
    def test_unit_weight_certifies(self):
        assert verify_optimality(lp_min_x_ge_1(), {"x": F(1)}, {0: F(1)})

    def test_zero_weight_fails(self):
        assert not verify_optimality(lp_min_x_ge_1(), {"x": F(1)}, {0: F(0)})

    def test_wrong_sign_fails(self):
        lp = LinearProgram(("x",), "min", {"x": F(1)})
        lp.add({"x": 1}, "<=", 5)
        lp.add({"x": 1}, ">=", 1)
        assert not verify_optimality(lp, {"x": F(1)}, {0: F(1), 1: F(0)})

    def test_infeasible_primal_fails(self):
        assert not verify_optimality(lp_min_x_ge_1(), {"x": F(0)}, {0: F(1)})

    def test_bad_key_raises(self):
        with pytest.raises(ValueError):
            verify_optimality(lp_min_x_ge_1(), {"x": F(1)}, {5: F(1)})

    def test_bool_key_raises(self):
        # False == 0, so the weight would otherwise land on row 0 and certify
        with pytest.raises(ValueError, match="must index the materialized rows"):
            verify_optimality(lp_min_x_ge_1(), {"x": F(1)}, {False: F(1)})


class TestVerifyInfeasibility:
    def test_conflicting_pair(self):
        assert verify_infeasibility(lp_conflicting(), {0: F(1), 1: F(1)})

    def test_feasible_program_never_certifies(self):
        lp = LinearProgram(("x",), "min", {"x": F(1)})
        lp.add({"x": 1}, ">=", 0)
        for w in (F(0), F(1), F(3, 2)):
            assert not verify_infeasibility(lp, {0: w})

    def test_negative_weight_on_inequality_rejected(self):
        assert not verify_infeasibility(lp_conflicting(), {0: F(-1), 1: F(1)})

    def test_solver_farkas_verifies(self):
        out = solve(lp_conflicting())
        assert isinstance(out, Infeasible)
        assert verify_infeasibility(lp_conflicting(), out.farkas)

    def test_bool_key_raises(self):
        with pytest.raises(ValueError, match="must index the materialized rows"):
            verify_infeasibility(lp_conflicting(), {False: F(1), True: F(1)})


class TestValidation:
    def test_undeclared_objective_variable(self):
        lp = LinearProgram(("x",), "min", {"y": F(1)})
        with pytest.raises(ValueError, match="undeclared"):
            solve(lp)

    def test_undeclared_constraint_variable(self):
        lp = LinearProgram(("x",), "min", {"x": F(1)})
        lp.add({"x": 1}, ">=", 0)
        lp.constraints.append(LinearConstraint({"z": F(1)}, ">=", F(0)))
        with pytest.raises(ValueError, match="undeclared"):
            solve(lp)

    @pytest.mark.parametrize("lp, message", [
        (LinearProgram(("x",), "minimize", {"x": F(1)}), "sense must be 'min' or 'max', got 'minimize'"),
        (LinearProgram(("x", "x"), "min", {"x": F(1)}), "duplicate variable names"),
        (LinearProgram(("x",), "min", {"x": F(1)}, upper={"y": F(1)}), "bound on undeclared variable 'y'"),
    ], ids=["sense", "duplicate", "bound"])
    def test_program_errors(self, lp, message):
        with pytest.raises(ValueError) as info:
            lp.validate()
        assert str(info.value) == message

    def test_empty_constraint_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            LinearConstraint({"x": F(0)}, ">=", F(0))

    def test_zero_given_as_text_is_dropped(self):
        # the zero test comes after the conversion, so "0" is a zero too
        lp = LinearProgram(("x",), "min", {"x": 1}, lower={"x": 0})
        with pytest.raises(ValueError, match="at least one nonzero coefficient"):
            lp.add({"x": "0"}, "<=", 0)
        assert LinearConstraint({"x": "0", "y": 1}, "<=", 0).coeffs == {"y": F(1)}

    def test_bad_relation_rejected(self):
        with pytest.raises(ValueError):
            LinearConstraint({"x": F(1)}, "<", F(0))


# ---------------------------------------------------------------------------
# randomized oracle equivalence
# ---------------------------------------------------------------------------

def assert_matches_oracle(lp: LinearProgram) -> None:
    out = solve(lp)
    expect = brute_force_optimum(lp)
    if isinstance(out, Optimal):
        assert expect == out.value
        assert fraction_check_feasible(lp, out.assignment)
        assert verify_optimality(lp, out.assignment, out.dual)
    elif isinstance(out, Infeasible):
        assert expect is None
        assert verify_infeasibility(lp, out.farkas)
    else:
        pytest.fail("box program cannot be unbounded")


class TestOracleEquivalence:
    def test_seeded_sample(self):
        rng = random.Random(20240817)
        for _ in range(120):
            assert_matches_oracle(random_box_program(rng))

    def test_row_permutation_invariance(self):
        rng = random.Random(907)
        for _ in range(40):
            lp = random_box_program(rng)
            first = solve(lp)
            shuffled = LinearProgram(
                lp.variables, lp.sense, dict(lp.objective),
                lower=dict(lp.lower), upper=dict(lp.upper),
            )
            order = list(lp.constraints)
            rng.shuffle(order)
            shuffled.constraints = order
            second = solve(shuffled)
            assert type(first) is type(second)
            if isinstance(first, Optimal):
                assert first.value == second.value

    def test_scaling_invariance(self):
        rng = random.Random(31337)
        for _ in range(40):
            lp = random_box_program(rng)
            scaled = LinearProgram(
                lp.variables, lp.sense, dict(lp.objective),
                lower=dict(lp.lower), upper=dict(lp.upper),
            )
            for con in lp.constraints:
                k = F(rng.randint(1, 5), rng.randint(1, 5))
                scaled.add({v: k * c for v, c in con.coeffs.items()}, con.relation, k * con.rhs)
            first, second = solve(lp), solve(scaled)
            assert type(first) is type(second)
            if isinstance(first, Optimal):
                assert first.value == second.value

    def test_resolve_is_deterministic(self):
        rng = random.Random(5)
        for _ in range(20):
            lp = random_box_program(rng)
            assert solve(lp) == solve(lp)


class TestDegenerate:
    def test_many_tight_rows(self):
        lp = LinearProgram(("x", "y"), "min", {"x": F(1), "y": F(1)})
        lp.add({"x": 1}, ">=", 1)
        lp.add({"y": 1}, ">=", 1)
        lp.add({"x": 1, "y": 1}, ">=", 2)
        lp.add({"x": 1, "y": 2}, ">=", 3)
        out = solve(lp)
        assert isinstance(out, Optimal)
        assert out.value == 2
        assert verify_optimality(lp, out.assignment, out.dual)

    def test_redundant_equality_rows(self):
        lp = LinearProgram(("x", "y"), "min", {"x": F(1)})
        lp.add({"x": 1, "y": 1}, "==", 2)
        lp.add({"x": 2, "y": 2}, "==", 4)
        lp.lower = {"x": F(0), "y": F(0)}
        out = solve(lp)
        assert isinstance(out, Optimal)
        assert out.value == 0


class TestTextFormats:
    def test_format_lp(self):
        lp = LinearProgram(("x", "y"), "min", {"x": F(1), "y": F(-3, 2)})
        lp.add({"x": 2, "y": -1}, "<=", F(5, 2), label="roof")
        lp.add({"x": 1}, ">=", 1)
        lp.upper = {"y": F(4)}
        text = format_lp(lp)
        assert text == (
            "min: x - 3/2 y\n"
            "roof: 2 x - y <= 5/2\n"
            "r1: x >= 1\n"
            "ub(y): y <= 4\n"
        )

    def test_format_certificate_optimal(self):
        lp = lp_min_x_ge_1()
        out = solve(lp)
        text = format_certificate(lp, out)
        assert text == "status: optimal\nvalue: 1\nx = 1\ndual r0 = 1\n"

    def test_format_certificate_infeasible(self):
        lp = lp_conflicting()
        out = solve(lp)
        text = format_certificate(lp, out)
        assert text.startswith("status: infeasible\n")
        assert "farkas" in text


# ---------------------------------------------------------------------------
# presolve: one-variable rows as bounds, certificates still over every row
# ---------------------------------------------------------------------------

def assert_certified(lp: LinearProgram, out) -> None:
    if isinstance(out, Optimal):
        assert verify_optimality(lp, out.assignment, out.dual)
    else:
        assert verify_infeasibility(lp, out.farkas)


def solve_or_refuse(lp: LinearProgram):
    """`solve(lp)`, or None when `solve` refuses `lp` as unbounded."""
    try:
        return solve(lp)
    except ValueError as exc:
        if str(exc) != "program is unbounded":
            raise
        return None


def lp_redundant_floors() -> LinearProgram:
    """Three lower bounds on x; only the tightest, -2x <= -6, binds."""
    lp = LinearProgram(("x",), "min", {"x": F(1)}, lower={"x": F(0)})
    lp.add({"x": 1}, ">=", 1)
    lp.add({"x": -2}, "<=", -6)
    lp.add({"x": 1}, "<=", 10)
    return lp


def lp_fixed_by_equality() -> LinearProgram:
    """-3x == -6 fixes x = 2; y is free."""
    lp = LinearProgram(("x", "y"), "max", {"x": F(1), "y": F(2)})
    lp.add({"x": -3}, "==", -6)
    lp.add({"x": 1, "y": 1}, "<=", 5)
    return lp


def lp_crossing_declared_bound() -> LinearProgram:
    """-x <= -5 asks x >= 5 against the declared x <= 2."""
    lp = LinearProgram(("x", "y"), "min", {"x": F(1)}, upper={"x": F(2)})
    lp.add({"x": 1, "y": 1}, ">=", 0)
    lp.add({"x": -1}, "<=", -5)
    return lp


def lp_upper_only_unbounded() -> LinearProgram:
    lp = LinearProgram(("x", "y"), "min", {"x": F(1), "y": F(-1)})
    lp.add({"x": 2}, "<=", 3)
    lp.add({"y": -1}, ">=", -4)
    return lp


def lp_free_unbounded() -> LinearProgram:
    lp = LinearProgram(("x", "y"), "max", {"x": F(1), "y": F(1)})
    lp.add({"x": 1, "y": -1}, "<=", 1)
    return lp


def lp_boxed_with_a_shared_row() -> LinearProgram:
    lp = LinearProgram(
        ("x", "y"), "max", {"x": F(3), "y": F(2)},
        lower={"x": F(-1), "y": F(1)}, upper={"x": F(4), "y": F(7, 2)},
    )
    lp.add({"x": 1, "y": 1}, "<=", 5)
    lp.add({"y": 3}, ">=", 2)
    return lp


HAND_PROGRAMS = {
    "redundant_floors": lp_redundant_floors,
    "fixed_by_equality": lp_fixed_by_equality,
    "crossing_declared_bound": lp_crossing_declared_bound,
    "upper_only_unbounded": lp_upper_only_unbounded,
    "free_unbounded": lp_free_unbounded,
    "boxed_with_a_shared_row": lp_boxed_with_a_shared_row,
    "min_x_ge_1": lp_min_x_ge_1,
    "conflicting": lp_conflicting,
}


class TestPresolve:
    def test_redundant_bound_rows_get_weight_zero(self):
        out = solve(lp_redundant_floors())
        assert isinstance(out, Optimal)
        assert out.value == 3
        assert out.dual == {1: F(-1, 2)}  # -2x <= -6 carries it; rows 0, 2 and lb(x) do not

    def test_equality_row_fixes_its_variable(self):
        lp = lp_fixed_by_equality()
        out = solve(lp)
        assert isinstance(out, Optimal)
        assert out.value == 8 and out.assignment == {"x": F(2), "y": F(3)}
        assert verify_optimality(lp, out.assignment, out.dual)

    def test_crossing_bounds_give_a_two_row_farkas_without_a_tableau(self):
        lp = lp_crossing_declared_bound()
        out = solve(lp)
        assert isinstance(out, Infeasible)
        assert set(out.farkas) == {1, 2}  # the row x >= 5 and ub(x)
        assert verify_infeasibility(lp, out.farkas)
        assert (out.stats.rows, out.stats.columns, out.stats.phase1_pivots) == (0, 0, 0)

    @pytest.mark.parametrize("make", [lp_upper_only_unbounded, lp_free_unbounded])
    def test_unbounded_ray_verifies(self, make):
        # `solve` refuses; both reference simplexes give a ray the public check accepts
        lp = make()
        with pytest.raises(ValueError, match="^program is unbounded$"):
            solve(lp)
        for oracle in (split_tableau_solve, fraction_tableau_solve):
            out = oracle(lp)
            assert isinstance(out, Unbounded)
            assert verify_ray(lp, out.ray)

    def test_bound_rows_leave_the_tableau(self):
        # x and y are boxed: one slack row each, no artificial for either;
        # 3y >= 4 is a lower bound looser than lb(y), so it is absorbed
        out = solve(lp_boxed_with_a_shared_row())
        assert isinstance(out, Optimal)
        assert out.value == 14
        assert (out.stats.rows, out.stats.columns, out.stats.artificials) == (3, 5, 0)

    @pytest.mark.parametrize("name", sorted(HAND_PROGRAMS))
    def test_hand_programs_match_the_split_tableau(self, name):
        lp = HAND_PROGRAMS[name]()
        new, old = solve_or_refuse(lp), split_tableau_solve(lp)
        if new is None:  # refused exactly when the split tableau finds a ray
            assert isinstance(old, Unbounded)
            assert verify_ray(lp, old.ray)
            return
        assert type(new) is type(old)
        if isinstance(new, Optimal):
            assert new.value == old.value
        assert_certified(lp, new)

    def test_random_programs_match_the_split_tableau(self):
        rng = random.Random(5150)
        kinds = Counter()
        for _ in range(400):
            lp = random_bounded_program(rng)
            new, old = solve_or_refuse(lp), split_tableau_solve(lp)
            kinds[type(old)] += 1
            if new is None:  # refused exactly when the split tableau finds a ray
                assert isinstance(old, Unbounded)
                continue
            assert type(new) is type(old)
            if isinstance(new, Optimal):
                assert new.value == old.value
            assert_certified(lp, new)
        # every status must actually occur for the comparison to mean anything
        assert min(kinds[kind] for kind in (Optimal, Infeasible, Unbounded)) >= 40

    def test_box_programs_match_the_split_tableau(self):
        rng = random.Random(8080)
        for _ in range(200):
            lp = random_box_program(rng)
            new, old = solve(lp), split_tableau_solve(lp)
            assert type(new) is type(old)
            if isinstance(new, Optimal):
                assert new.value == old.value


class TestSolveStats:
    @pytest.mark.parametrize("name", sorted(HAND_PROGRAMS))
    def test_every_outcome_carries_stats(self, name):
        # an unbounded program is refused, so it has no outcome to carry stats
        lp = HAND_PROGRAMS[name]()
        out = solve_or_refuse(lp)
        if out is None:
            assert isinstance(split_tableau_solve(lp), Unbounded)
            return
        stats = out.stats
        assert isinstance(stats, SolveStats)
        assert stats.wall_ms >= stats.verify_ms >= 0 and stats.max_bits >= 0
        assert stats.artificials <= stats.rows <= stats.columns

    def test_stats_stay_out_of_equality_repr_and_text(self):
        lp = lp_min_x_ge_1()
        out = solve(lp)
        assert out.stats is not None
        bare = Optimal(out.value, out.assignment, out.dual)
        assert out == bare
        assert repr(out) == repr(bare) and "stats" not in repr(out)
        assert format_certificate(lp, out) == format_certificate(lp, bare)


def test_solve_refuses_a_value_off_its_certificate(off_by_one_value):
    # the assignment and dual still prove the optimum: only the value is wrong
    for lp in (lp_min_x_ge_1(), PAPER_PROGRAMS["s4_min_objective"]):
        with pytest.raises(CertificateError, match="optimality certificate"):
            solve(lp)


def test_reimport_releases_the_previous_module(monkeypatch):
    """`LpOutcome` must not pin the classes of an earlier import of
    `ratlp`, as a cached `typing.Union` alias would."""
    monkeypatch.setattr(ucfreq, "ratlp", sys.modules["ucfreq.ratlp"])
    monkeypatch.setitem(sys.modules, "ucfreq.ratlp", sys.modules["ucfreq.ratlp"])
    first = None
    for _ in range(3):
        del sys.modules["ucfreq.ratlp"]
        module = importlib.import_module("ucfreq.ratlp")
        if first is None:
            first = weakref.ref(module.Optimal)
    del module
    gc.collect()
    assert first() is None


# ---------------------------------------------------------------------------
# integer tableau: the same pivots, outcomes and stats as the Fraction one
# ---------------------------------------------------------------------------

def assert_matches_fraction_tableau(lp: LinearProgram):
    new, ref = solve(lp), fraction_tableau_solve(lp)
    assert new == ref  # status, value, assignment, dual, Farkas weights
    assert new.stats._replace(wall_ms=0, verify_ms=0) == ref.stats._replace(wall_ms=0, verify_ms=0)
    assert_certified(lp, new)
    return new


def assert_matches_or_refuses(lp: LinearProgram):
    """`assert_matches_fraction_tableau(lp)`, except that where the `Fraction`
    tableau finds a ray, `solve` must refuse `lp` and the ray must verify."""
    ref = fraction_tableau_solve(lp)
    if not isinstance(ref, Unbounded):
        return assert_matches_fraction_tableau(lp)
    with pytest.raises(ValueError, match="^program is unbounded$"):
        solve(lp)
    assert verify_ray(lp, ref.ray)
    return ref


def paper_programs() -> dict[str, LinearProgram]:
    """The 13 programs behind the published numbers: eight cells, aux, the
    two base programs and the two `min-objective` ones."""
    out = {
        f"s{spec.s}_{spec.scenario.value}": lpmodel.case_program(spec)
        for spec in [lpmodel.CaseSpec(s, sc) for s in (4, 5) for sc in lpmodel.GRID]
        + [lpmodel.CaseSpec(5, lpmodel.Scenario.PAIR_CAP)]
        + [lpmodel.CaseSpec(s, lpmodel.Scenario.BASE) for s in (4, 5)]
    }
    for s, objective in ((4, {"q_a": F(1)}), (5, {f"q_{y}": F(1) for y in "abcde"})):
        lp = lpmodel.build_base(s)
        lp.objective = objective
        out[f"s{s}_min_objective"] = lp
    return out


PAPER_PROGRAMS = paper_programs()


@pytest.fixture
def tableau_log(monkeypatch):
    """Records every integer tableau `solve` finishes with, each pivot element
    before its pivot, and each entering column `run` returns with no ratio."""
    log = {"tableaus": [], "pivots": [], "unbounded_on": []}
    certified, pivot, run = ratlp._certified, ratlp._Tableau.pivot, ratlp._Tableau.run

    def spy_certified(lp, rows, outcome, t, started):
        log["tableaus"].append(t)
        return certified(lp, rows, outcome, t, started)

    def spy_pivot(t, r, e, costrow):
        log["pivots"].append(t.M[r][e])
        pivot(t, r, e, costrow)

    def spy_run(t, costrow, banned):
        enter = run(t, costrow, banned)
        if enter is not None:
            log["unbounded_on"].append((t, enter))
        return enter

    monkeypatch.setattr(ratlp, "_certified", spy_certified)
    monkeypatch.setattr(ratlp._Tableau, "pivot", spy_pivot)
    monkeypatch.setattr(ratlp._Tableau, "run", spy_run)
    return log


class TestIntegerTableau:
    @pytest.mark.parametrize("name", sorted(HAND_PROGRAMS))
    def test_hand_programs(self, name):
        assert_matches_or_refuses(HAND_PROGRAMS[name]())

    @pytest.mark.parametrize("name", sorted(PAPER_PROGRAMS))
    def test_paper_programs(self, name):
        assert isinstance(assert_matches_fraction_tableau(PAPER_PROGRAMS[name]), Optimal | Infeasible)

    def test_random_bounded_programs(self):
        rng = random.Random(6011)
        kinds = Counter()
        for _ in range(400):
            kinds[type(assert_matches_or_refuses(random_bounded_program(rng)))] += 1
        assert min(kinds[kind] for kind in (Optimal, Infeasible, Unbounded)) >= 40

    def test_random_box_programs(self):
        rng = random.Random(6012)
        for _ in range(200):
            assert_matches_fraction_tableau(random_box_program(rng))

    def test_negative_pivot_driving_out_an_artificial(self, tableau_log):
        # -x/2 - y/3 == 0 leaves its artificial basic at zero after phase 1,
        # with only negative entries to pivot it out on: d flips sign
        lp = LinearProgram(("x", "y"), "max", {"x": F(1), "y": F(1)}, lower={"x": F(0), "y": F(0)})
        lp.add({"x": F(-1, 2), "y": F(-1, 3)}, "==", 0)
        lp.add({"x": 1, "y": 2}, "<=", F(5, 2))
        out = assert_matches_fraction_tableau(lp)
        assert out.value == 0
        assert min(tableau_log["pivots"]) < 0
        (t,) = tableau_log["tableaus"]
        assert t.d > 0

    def test_redundant_equality_keeps_its_artificial(self, tableau_log):
        lp = LinearProgram(("x", "y"), "min", {"x": F(1)}, lower={"x": F(0), "y": F(0)})
        lp.add({"x": F(1, 2), "y": F(1, 3)}, "==", 1)
        lp.add({"x": 3, "y": 2}, "==", 6)
        out = assert_matches_fraction_tableau(lp)
        assert out.value == 0
        (t,) = tableau_log["tableaus"]
        assert any(k in t.artificials for k in t.basis)

    def test_coprime_denominators_in_one_row(self, tableau_log):
        lp = LinearProgram(("x", "y", "z"), "max", {"x": F(1), "y": F(1), "z": F(1)},
                           lower={"x": F(0), "y": F(0), "z": F(0)})
        lp.add({"x": F(1, 2), "y": F(1, 3), "z": F(1, 7)}, "<=", 1)
        lp.add({"x": 1, "z": 1}, ">=", 1)
        out = assert_matches_fraction_tableau(lp)
        assert out.value == 7
        (t,) = tableau_log["tableaus"]
        assert t.scale[t.slack_col[0]] == 42
        assert t.M[0][:3] != [0, 0, 0]
        assert all(isinstance(v, int) for row in t.M for v in row)

    def test_ray_entering_on_a_scaled_slack(self, tableau_log):
        # min -x under x/2 + y/3 >= 1: the surplus of that row (scale 6) enters with no ratio
        lp = LinearProgram(("x", "y"), "min", {"x": F(-1)}, lower={"x": F(0), "y": F(0)})
        lp.add({"x": F(1, 2), "y": F(1, 3)}, ">=", 1)
        with pytest.raises(ValueError, match="^program is unbounded$"):
            solve(lp)
        ((t, enter),) = tableau_log["unbounded_on"]
        assert enter == t.slack_col[0] and t.scale[enter] == 6
        assert fraction_tableau_solve(lp) == Unbounded({"x": F(2)})


# ---------------------------------------------------------------------------
# integer certificate checks: the verdicts and errors of the Fraction ones
# ---------------------------------------------------------------------------

def verdict(check, *args):
    try:
        return check(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def check_pairs(lp: LinearProgram, out):
    """(integer check, `Fraction` check, arguments) for each check of `out`."""
    if isinstance(out, Optimal):
        return [(verify_optimality, fraction_verify_optimality, (lp, out.assignment, out.dual))]
    if isinstance(out, Infeasible):
        return [(verify_infeasibility, fraction_verify_infeasibility, (lp, out.farkas))]
    return [(verify_ray, fraction_verify_ray, (lp, out.ray))]


def single_mutations(lp: LinearProgram, out):
    """Thunks, each giving `(lp, out)` changed in one place: a weight by
    +-1/2, a point or ray entry by +-1/3, an objective coefficient, a row
    coefficient or a right-hand side by +-1, or a key that names no row or
    variable (one past the end, -1, a bool, a string; a missing or an extra
    variable)."""
    thunks = []
    nrows = len(materialized_rows(lp))
    field_name = {Optimal: "dual", Infeasible: "farkas"}.get(type(out))
    if field_name:
        weights = getattr(out, field_name)
        for i in range(nrows):
            for delta in (F(1, 2), F(-1, 2)):
                thunks.append(lambda i=i, delta=delta: (lp, replace(
                    out, **{field_name: {**weights, i: weights.get(i, F(0)) + delta}})))
        for key in (nrows, -1, False, True, "0"):
            thunks.append(lambda key=key: (lp, replace(out, **{field_name: {**weights, key: F(1)}})))
    point_name = {Optimal: "assignment", Unbounded: "ray"}.get(type(out))
    if point_name:
        point = getattr(out, point_name)
        for name in lp.variables:
            for delta in (F(1, 3), F(-1, 3)):
                thunks.append(lambda name=name, delta=delta: (lp, replace(
                    out, **{point_name: {**point, name: point.get(name, F(0)) + delta}})))
        thunks.append(lambda: (lp, replace(out, **{point_name: {**point, "extra": F(0)}})))
        if isinstance(out, Optimal):
            thunks.append(lambda: (lp, replace(out, assignment=dict(list(point.items())[1:]))))
    for name in lp.variables:
        for delta in (1, -1):
            thunks.append(lambda name=name, delta=delta: (replace(
                lp, objective={**lp.objective, name: lp.objective.get(name, F(0)) + delta}), out))

    def with_row(k, con):
        return lambda: (replace(lp, constraints=lp.constraints[:k] + [con] + lp.constraints[k + 1:]), out)

    for k, con in enumerate(lp.constraints):
        for delta in (1, -1):
            thunks.append(with_row(k, replace(con, rhs=con.rhs + delta)))
            for name in lp.variables:
                coeffs = {**con.coeffs, name: con.coeffs.get(name, F(0)) + delta}
                if any(c != 0 for c in coeffs.values()):
                    thunks.append(with_row(k, replace(con, coeffs=coeffs)))
    return thunks


def assert_checks_agree(lp: LinearProgram, out, rng: random.Random, limit: int, seen: Counter) -> None:
    """The integer and `Fraction` checks agree on `out` and on up to `limit`
    of its single mutations, drawn at random; `seen` counts the verdicts."""
    thunks = single_mutations(lp, out)
    cases = [(lp, out)] + [thunk() for thunk in rng.sample(thunks, min(limit, len(thunks)))]
    for case_lp, case_out in cases:
        for check, reference, args in check_pairs(case_lp, case_out):
            got = verdict(check, *args)
            assert got == verdict(reference, *args), (check.__name__, args)
            seen[got if isinstance(got, bool) else "ValueError"] += 1


def rows_divided(lp: LinearProgram, rng: random.Random) -> LinearProgram:
    """`lp` with each declared row divided by 1, 2, 3 or 5: the same program,
    with coefficient denominators that the right-hand side need not share."""
    rows = []
    for con in lp.constraints:
        q = rng.choice((1, 2, 3, 5))
        rows.append(replace(con, coeffs={v: c / q for v, c in con.coeffs.items()}, rhs=con.rhs / q))
    return replace(lp, constraints=rows)


class TestIntegerChecks:
    def test_random_programs_and_their_mutations(self):
        rng = random.Random(7013)
        seen, kinds = Counter(), Counter()
        for k in range(240):
            lp = random_box_program(rng) if k % 3 == 0 else random_bounded_program(rng)
            if k % 2:
                lp = rows_divided(lp, rng)
            out, ref = solve_or_refuse(lp), split_tableau_solve(lp)
            # refused exactly when the split tableau finds a ray, which `verify_ray` then checks
            assert (out is None) == isinstance(ref, Unbounded)
            if out is None:
                out = ref
            kinds[type(out)] += 1
            assert_checks_agree(lp, out, rng, 12, seen)
        assert min(kinds[kind] for kind in (Optimal, Infeasible, Unbounded)) >= 20
        assert min(seen[v] for v in (True, False, "ValueError")) >= 100

    @pytest.mark.parametrize("name", sorted(PAPER_PROGRAMS))
    def test_paper_certificates_and_their_mutations(self, name):
        lp = PAPER_PROGRAMS[name]
        seen = Counter()
        assert_checks_agree(lp, solve(lp), random.Random(name), 24, seen)
        assert seen[True] >= 1 and seen[False] >= 1


# ---------------------------------------------------------------------------
# integer presolve: bounds and shifts on the integer rows, as in `Fraction`s
# ---------------------------------------------------------------------------

@pytest.fixture
def presolve_log(monkeypatch):
    """Records the (lower, upper) bounds `solve` reads off the integer rows
    and every `_Presolved` it builds."""
    log = {"bounds": [], "presolved": []}
    presolve_bounds, presolved = ratlp._presolve_bounds, ratlp._Presolved

    def spy_bounds(nvars, rows):
        log["bounds"].append(presolve_bounds(nvars, rows))
        return log["bounds"][-1]

    class SpyPresolved(presolved):
        def __init__(self, *args):
            super().__init__(*args)
            log["presolved"].append(self)

    monkeypatch.setattr(ratlp, "_presolve_bounds", spy_bounds)
    monkeypatch.setattr(ratlp, "_Presolved", SpyPresolved)
    return log


class TestIntegerPresolve:
    def test_one_variable_rows_with_non_unit_coefficients(self, presolve_log):
        # -2x >= -3 is x <= 3/2 on the integer row itself; x/3 >= 1/2 is the
        # integer row 2y >= 3 (scale 6), so y >= 3/2 with weight factor 6/2
        lp = LinearProgram(("x", "y"), "max", {"x": F(2), "y": F(1)})
        lp.add({"x": -2}, ">=", -3)
        lp.add({"y": F(1, 3)}, ">=", F(1, 2))
        lp.add({"x": 1, "y": 1}, "<=", 4)
        out = assert_matches_fraction_tableau(lp)
        assert out == Optimal(F(11, 2), {"x": F(3, 2), "y": F(5, 2)}, {0: F(-1, 2), 2: F(1)})
        ((lower, upper),) = presolve_log["bounds"]
        # (num, den, row, L, A): 3/2 off row 0 (L = 1, A = -2) and off row 1 (L = 6, A = 2)
        assert upper[0] == (3, 2, 0, 1, -2) and lower[1] == (3, 2, 1, 6, 2)
        (pre,) = presolve_log["presolved"]
        assert pre.column_origin == [(0, -1, -2), (1, 6, 2)]

    def test_coprime_offset_denominators_in_one_row(self, presolve_log):
        # offsets 1/2, 1/3 and 1/7 meet in x + y + z <= 3: the shifted row
        # is multiplied by 42 and stays integer
        lp = LinearProgram(("x", "y", "z"), "max", {"x": F(1), "y": F(2), "z": F(3)},
                           lower={"x": F(1, 2), "y": F(1, 3), "z": F(1, 7)})
        lp.add({"x": 1, "y": 1, "z": 1}, "<=", 3)
        lp.add({"x": 1, "z": -1}, ">=", F(1, 5))
        out = assert_matches_fraction_tableau(lp)
        assert out.value == F(29, 5)
        (pre,) = presolve_log["presolved"]
        assert pre.offset == [(1, 2), (1, 3), (1, 7)]
        assert pre.rows[0] == ({0: 42, 1: 42, 2: 42}, "<=", 3 * 42 - 21 - 14 - 6, 42)

    def test_first_of_equally_tight_bound_rows_is_cited(self, presolve_log):
        # x >= 1, 2x >= 2 and the declared lb(x) = 1 bound x equally tightly
        lp = LinearProgram(("x", "y"), "min", {"x": F(1), "y": F(1)}, lower={"x": F(1), "y": F(0)})
        lp.add({"x": 1}, ">=", 1)
        lp.add({"x": 2}, ">=", 2)
        lp.add({"x": 1, "y": 1}, ">=", F(1, 2))
        out = assert_matches_fraction_tableau(lp)
        assert out.dual == {0: F(1), 4: F(1)}
        ((lower, _),) = presolve_log["bounds"]
        assert lower[0].row == 0

    def test_crossing_fractional_bounds_are_refuted_by_their_rows(self, presolve_log):
        # 3x >= 2 and -5x >= -3: x >= 2/3 > 3/5 >= x, since 2 * 5 > 3 * 3
        lp = LinearProgram(("x", "y"), "min", {"x": F(1)})
        lp.add({"x": 1, "y": 1}, ">=", 0)
        lp.add({"x": 3}, ">=", 2)
        lp.add({"x": -5}, ">=", -3)
        out = assert_matches_fraction_tableau(lp)
        assert out == Infeasible({1: F(1, 3), 2: F(1, 5)})
        assert out.stats.rows == 0 and presolve_log["presolved"] == []
        # 5x >= 3 meets the same upper bound without crossing it
        touching = replace(lp, constraints=lp.constraints[:1] + [LinearConstraint({"x": F(5)}, ">=", F(3))]
                           + lp.constraints[2:])
        assert assert_matches_fraction_tableau(touching).value == F(3, 5)
        assert len(presolve_log["presolved"]) == 1

    def test_free_variable_split_next_to_shifted_ones(self, presolve_log):
        lp = LinearProgram(("x", "y", "z"), "min", {"x": F(1), "y": F(1), "z": F(-1)},
                           lower={"y": F(1, 2)}, upper={"z": F(5, 3)})
        lp.add({"x": 1, "y": -1}, ">=", -2)
        lp.add({"x": 1, "z": 1}, ">=", F(1, 3))
        out = assert_matches_fraction_tableau(lp)
        assert out.value == F(-5, 2)
        (pre,) = presolve_log["presolved"]
        assert pre.columns == [((0, 1), (1, -1)), ((2, 1),), ((3, -1),)]
        # x + z >= 1/3 is 3x + 3z >= 1; with z = 5/3 - z' and times 3 it reads
        assert pre.rows[1] == ({0: 9, 1: -9, 3: -9}, ">=", 3 - 15, 9)

    def test_boxed_variable_with_a_fractional_width(self, presolve_log):
        # x in [1/3, 5/2]: its upper row is x' <= 13/6, written 6x' <= 13
        lp = LinearProgram(("x", "y"), "max", {"x": F(1), "y": F(1)},
                           lower={"x": F(1, 3), "y": F(0)}, upper={"x": F(5, 2), "y": F(1)})
        lp.add({"x": 1, "y": 2}, "<=", 3)
        out = assert_matches_fraction_tableau(lp)
        assert out.value == F(11, 4) and out.dual == {0: F(1, 2), 2: F(1, 2)}
        (pre,) = presolve_log["presolved"]
        assert pre.rows[1] == ({0: 6}, "<=", 13, 6)


# Rows, columns, artificials, phase-1 and phase-2 pivots and max_bits of the
# 13 paper programs, as the solver gave them before the integer presolve.
PAPER_STATS = {
    "s4_base": (5, 25, 4, 5, 0, 3),
    "s4_c0": (5, 25, 4, 5, 0, 4),
    "s4_c1": (7, 29, 6, 7, 0, 5),
    "s4_c2": (6, 27, 5, 6, 0, 5),
    "s4_c3plus": (6, 27, 5, 6, 0, 6),
    "s4_min_objective": (5, 25, 4, 5, 0, 3),
    "s5_base": (6, 43, 5, 6, 0, 4),
    "s5_c0": (6, 43, 5, 6, 0, 5),
    "s5_c1": (9, 49, 8, 9, 0, 6),
    "s5_c2": (7, 45, 6, 9, 1, 6),
    "s5_c3plus": (7, 45, 6, 9, 2, 5),
    "s5_min_objective": (6, 43, 5, 6, 0, 4),
    "s5_pair": (7, 45, 6, 9, 0, 5),
}


@pytest.mark.parametrize("name", sorted(PAPER_PROGRAMS))
def test_paper_program_stats_are_pinned(name):
    stats = solve(PAPER_PROGRAMS[name]).stats
    assert stats[:5] + (stats.max_bits,) == PAPER_STATS[name]
