"""Linear-program models for the second-frequency case analysis.

The base program works over an abstract minimal 2-good set S of size s (4
or 5) whose elements are the roles ``a, b, c, d, e``.  One variable
``q_<subset>`` counts the members tracing to each subset of S, the family
size m is eliminated as the sum of all q variables, and the f_2 <= 1/3
hypothesis becomes, for every role y, the cleared cap

    3 * sum(q_T : y in T)  <=  sum of all q_T.

Extra constraint families tighten the base program per case, indexed by
the set C of covered roles (role ``a`` is the flexible element, covered
roles follow by position):

* doubled trace floors: q_T >= 2 where `doubled_pattern` forces a
  repeated witness;
* a frequency cap on the auxiliary element x counted through C;
* incidence-driven counting rows when exactly one role is covered;
* the covered-pair cap, whose optimum certifies the bound used to rule
  pair-covering configurations out.

`bounds_table` solves the eight (s, |C|) cells and returns certified
results; everything is exact rational arithmetic end to end.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping

from .ratlp import (
    LinearConstraint,
    LinearProgram,
    LpOutcome,
    Infeasible,
    Optimal,
    solve,
    verify_infeasibility,
    verify_optimality,
)

ROLES = "abcde"

Subset = frozenset


def role_letters(s: int) -> str:
    if s not in (4, 5):
        raise ValueError(f"base-set size must be 4 or 5, got {s}")
    return ROLES[:s]


def subset_name(t: Iterable[str]) -> str:
    letters = "".join(sorted(t))
    return f"q_{letters}" if letters else "q_empty"


@functools.cache  # s is 4 or 5: a bad size raises and is not cached
def all_subsets(s: int) -> tuple[Subset, ...]:
    """Every subset of the s roles, smallest first, alphabetical within a size."""
    letters = role_letters(s)
    out: list[Subset] = []
    for k in range(s + 1):
        for combo in combinations(letters, k):
            out.append(frozenset(combo))
    return tuple(out)


# shared by the coefficients and right-hand sides that the row builders write
_ONE, _TWO, _MINUS_ONE = Fraction(1), Fraction(2), Fraction(-1)


def build_base(s: int, doubled: Iterable[Subset] = ()) -> LinearProgram:
    """The base program: minimize the family size under the trace constraints.

    Rows, in order: one cap per role, one q_T >= 1 floor per subset (q_T >= 2
    for each T in `doubled`), and the two-member ceiling q_empty <= 2 (only
    the empty set and the distinguished singleton can miss S).
    """
    subsets = all_subsets(s)
    raised = set(doubled)
    unknown = raised - set(subsets)
    if unknown:
        raise ValueError(f"no floor rows for {sorted(f'floor_{subset_name(t)}' for t in unknown)}")
    names = tuple(subset_name(t) for t in subsets)
    lp = LinearProgram(names, "min", dict.fromkeys(names, _ONE))
    for y in role_letters(s):
        coeffs = {name: _TWO if y in t else _MINUS_ONE for name, t in zip(names, subsets)}
        lp.add(coeffs, "<=", 0, label=f"cap_{y}")
    for name, t in zip(names, subsets):
        lp.add({name: _ONE}, ">=", _TWO if t in raised else _ONE, label=f"floor_{name}")
    lp.add({"q_empty": _ONE}, "<=", _TWO, label="ceil_q_empty")
    return lp


# ---------------------------------------------------------------------------
# constraint generators
# ---------------------------------------------------------------------------

def doubled_pattern(t: int, a: int, cov: int) -> str | None:
    """The pattern forcing q_T >= 2, on bitmasks over one ground: ``"first"``
    when T holds the flexible `a` and avoids the covered `cov`, ``"pair"``
    when T meets `cov` twice, else None.  Each admits a second member with
    trace T, differing in the auxiliary element."""
    if t & a and not t & cov:
        return "first"
    return "pair" if (t & cov).bit_count() >= 2 else None


def doubled_trace_targets(s: int, a: str = "a", covered: Iterable[str] = ()) -> tuple[Subset, ...]:
    """Subsets whose trace count is forced to at least 2 (`doubled_pattern`
    over the role bits)."""
    letters = role_letters(s)
    cov = frozenset(covered)
    if a not in letters or not cov <= set(letters):
        raise ValueError(f"roles must come from {letters!r}")
    if a in cov:
        raise ValueError("the flexible role cannot be covered")
    bit = {r: 1 << i for i, r in enumerate(letters)}
    a_bit, cov_bits = bit[a], sum(map(bit.get, cov))
    return tuple(t for t in all_subsets(s) if doubled_pattern(sum(map(bit.get, t)), a_bit, cov_bits))


def frequency_cap_constant(s: int, covered_size: int) -> int:
    """Sets forced to contain the auxiliary element, minus double counting."""
    if not 0 <= covered_size <= s - 1:
        raise ValueError(f"covered size must be in 0..{s - 1}")
    return 2**s - 2 ** (s - 1 - covered_size) - covered_size


def _aux_frequency_row(s: int, const: int, forced: Iterable[str], label: str) -> LinearConstraint:
    """Cleared form of: the auxiliary element lies in at least `const` +
    sum(q_T : T forced) and at most m/3 members, so
    sum q_T - 3 * sum(q_T : T forced) >= 3 * const."""
    coeffs = {subset_name(t): _ONE for t in all_subsets(s)}
    for t in forced:
        coeffs[subset_name(t)] -= 3
    return LinearConstraint(coeffs, ">=", 3 * const, label=label)


def frequency_cap_constraint(s: int, covered: Iterable[str]) -> LinearConstraint:
    """The auxiliary element's frequency cap, forced through the covered singletons."""
    cov = sorted(set(covered))
    if not set(cov) <= set(role_letters(s)) or "a" in cov:
        raise ValueError("covered roles must be non-a roles")
    return _aux_frequency_row(s, frequency_cap_constant(s, len(cov)), cov, "freq_cap")


INCIDENCE_EXTRA = {2: lambda s: 2 ** (s - 2), 3: lambda s: 2 ** (s - 2) - 1, 4: lambda s: 2 ** (s - 3) - 1}


def incidence_count_constraints(s: int, b: str = "b") -> tuple[LinearConstraint, ...]:
    """Counting rows for the single-covered-role case.

    For j = 2, 3, 4 the members whose trace contains the covered role and
    has size >= j number at least #{T : b in T, |T| >= j} (one per trace,
    all containing the auxiliary element) plus an incidence-forced batch
    without it of size 2^(s-2), 2^(s-2)-1, 2^(s-3)-1 respectively.
    """
    if b not in role_letters(s):
        raise ValueError(f"unknown role {b!r}")
    out = []
    for j in (2, 3, 4):
        terms = [t for t in all_subsets(s) if b in t and len(t) >= j]
        rhs = len(terms) + INCIDENCE_EXTRA[j](s)
        coeffs = {subset_name(t): Fraction(1) for t in terms}
        out.append(LinearConstraint(coeffs, ">=", rhs, label=f"count_{b}_ge{j}"))
    return tuple(out)


def covered_pair_cap_constraint() -> LinearConstraint:
    """Frequency cap when a covered pair's joint trace also forces the
    auxiliary element, over s = 5:  sum q_T - 3 (q_b + q_c + q_bc) >= 75.

    For s = 4 the configuration is ruled out by a size-3 2-good set instead.
    """
    return _aux_frequency_row(5, 25, ("b", "c", "bc"), "pair_cap")


# ---------------------------------------------------------------------------
# case assembly
# ---------------------------------------------------------------------------

class Scenario(enum.Enum):
    BASE = "base"
    C0 = "c0"
    C1 = "c1"
    C2 = "c2"
    C3PLUS = "c3plus"
    PAIR_CAP = "pair"

    @property
    def covered_roles(self) -> tuple[str, ...]:
        return {
            Scenario.C0: (),
            Scenario.C1: ("b",),
            Scenario.C2: ("b", "c"),
            Scenario.C3PLUS: ("b", "c", "d"),
        }.get(self, ())


@dataclass(frozen=True)
class CaseSpec:
    s: int
    scenario: Scenario

    def __post_init__(self):
        role_letters(self.s)
        if self.scenario is Scenario.PAIR_CAP and self.s != 5:
            raise ValueError("the covered-pair cap case exists for s = 5 only")


@dataclass(frozen=True)
class CaseResult:
    spec: CaseSpec
    outcome: LpOutcome

    @property
    def bound(self) -> Fraction | None:
        """The optimum, or None when the cell is infeasible."""
        return self.outcome.value if isinstance(self.outcome, Optimal) else None


def case_program(spec: CaseSpec) -> LinearProgram:
    """The exact program attached to one cell of the case analysis.

    Its rows are built once per process and shared read-only between the
    programs this returns; each call gives a fresh `LinearProgram` with its
    own `constraints` list and `objective` dict, so appending a row or
    replacing the objective changes no other program.
    """
    shared = _shared_program(spec)
    # constructing a `LinearProgram` copies its objective and bound dicts
    return replace(shared, constraints=list(shared.constraints))


@functools.cache  # bounded: `CaseSpec` admits 11 specs and refuses the rest
def _shared_program(spec: CaseSpec) -> LinearProgram:
    s, scenario = spec.s, spec.scenario
    covered = scenario.covered_roles
    targets = ()
    if scenario in (Scenario.C0, Scenario.C1, Scenario.C2):
        targets = doubled_trace_targets(s, "a", covered)
    lp = build_base(s, targets)
    if scenario is Scenario.PAIR_CAP:
        if s != 5:  # a spec built past `CaseSpec`'s own check
            raise ValueError("the covered-pair cap applies to s = 5 only")
        lp.constraints.append(covered_pair_cap_constraint())
    if scenario is Scenario.C1:
        lp.constraints.extend(incidence_count_constraints(s, "b"))
    if scenario in (Scenario.C2, Scenario.C3PLUS):
        lp.constraints.append(frequency_cap_constraint(s, covered))
    return lp


def solve_case(spec: CaseSpec) -> CaseResult:
    """Solve one cell and return its certified outcome."""
    return CaseResult(spec, solve(case_program(spec)))


GRID = (Scenario.C0, Scenario.C1, Scenario.C2, Scenario.C3PLUS)


def bounds_table() -> tuple[CaseResult, ...]:
    """All eight (s, |C|) cells in fixed grid order: s = 4 then 5, |C| = 0,1,2,3+."""
    return tuple(solve_case(CaseSpec(s, sc)) for s in (4, 5) for sc in GRID)


def min_objective(s: int, objective: Mapping[str, Fraction]) -> LpOutcome:
    """Solve the base program under a custom objective (e.g. one trace count)."""
    lp = case_program(CaseSpec(s, Scenario.BASE))
    lp.objective = {v: Fraction(c) for v, c in objective.items()}
    return solve(lp)


# ---------------------------------------------------------------------------
# table serialization
# ---------------------------------------------------------------------------

COLUMN_KEYS = ("0", "1", "2", "3+")


def render_bound(value: Fraction | None, approx: bool = False) -> str:
    """A bound as text: exact, `repr` of its float under `approx`, and
    ``infeasible`` for None."""
    if value is None:
        return "infeasible"
    return repr(float(value)) if approx else str(value)


def table_to_csv(results: Iterable[CaseResult], approx: bool = False) -> str:
    cells: dict[tuple[int, Scenario], CaseResult] = {
        (r.spec.s, r.spec.scenario): r for r in results
    }
    lines = ["s," + ",".join(f"|C|={k}" for k in COLUMN_KEYS)]
    for s in (4, 5):
        row = [render_bound(cells[(s, sc)].bound, approx) for sc in GRID]
        lines.append(f"{s}," + ",".join(row))
    return "\n".join(lines) + "\n"


def _rat_map(m: Mapping) -> dict[str, str]:
    return {str(k): str(v) for k, v in sorted(m.items())}


def table_to_json(results: Iterable[CaseResult], certificates: bool = False) -> dict:
    cells = []
    for r in results:
        cell: dict = {
            "s": r.spec.s,
            "c": COLUMN_KEYS[GRID.index(r.spec.scenario)],
            "status": "infeasible" if r.bound is None else "optimal",
            "bound": render_bound(r.bound),
        }
        if certificates:
            if isinstance(r.outcome, Optimal):
                cell["certificate"] = {
                    "assignment": _rat_map(r.outcome.assignment),
                    "dual": _rat_map(r.outcome.dual),
                }
            else:
                cell["certificate"] = {"farkas": _rat_map(r.outcome.farkas)}
        cells.append(cell)
    return {"schema": 1, "cells": cells}


def recheck(result: CaseResult) -> bool:
    """Re-verify a case result's certificate against the program of its
    spec, and an optimum's value against the objective at its point.

    The program comes from `case_program`, whose rows are built once per
    process and shared read-only, so a recheck costs the check alone.
    """
    lp = case_program(result.spec)
    if isinstance(result.outcome, Optimal):
        x = result.outcome.assignment
        return verify_optimality(lp, x, result.outcome.dual) and result.outcome.value == sum(
            (c * x[v] for v, c in lp.objective.items()), Fraction(0)
        )
    if isinstance(result.outcome, Infeasible):
        return verify_infeasibility(lp, result.outcome.farkas)
    return False
