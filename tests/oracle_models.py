"""Shared test oracles: symmetry-reduced LP models, the role groups of the
cell programs (`role_group`, `trace_renamings`), the letter-set rule for
doubled traces, random program generators, the row layout
`loop_materialized_rows`, the certificate checks in `Fraction` arithmetic
(`fraction_check_feasible` and the three `fraction_verify_*`), the
basic-point enumerator `brute_force_optimum`, the split-tableau simplex,
the presolved simplex with its presolve and tableau in `Fraction`s
(`fraction_presolve_bounds`, `fraction_tableau_solve`), the `Unbounded`
outcome with its ray that both of those simplexes return where
`ratlp.solve` raises `ValueError`, the shift loop of
`elements_of`, the element scan for frequencies, the subset scan for
minimal transversals, the private-target test for a minimal transversal
and a minimal 2-good set, the target test for a 2-good set (`is_two_good`),
the pairwise scans for minimal elements, antichains
and union closure, the frontier union closure, the member scans for
2-goodness, covered sets and flexible pairs, the two-bit swap of
`normalize`, the family JSON and text writers, the recursive
union-closed enumerator with its f_2 check, and the cover-law suite on
`SetFamily` values with its canonical member order (`sorted_family`).

The reduced models are companions to the full base program, solved only by
`brute_force_optimum` (basic-point enumeration, in this file), never by the
simplex path, so agreement between the two is a genuine cross-check.  The
reduction is sound because program and objective are invariant under
permuting the collapsed roles: averaging an optimal point over the orbit
preserves feasibility and objective, so some optimum is orbit-constant.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import comb
from typing import Iterator, Mapping, NamedTuple

from ucfreq import lpmodel
from ucfreq.lpmodel import CaseSpec, Scenario, all_subsets, subset_name
from ucfreq.ratlp import (
    ONE,
    ZERO,
    CertificateError,
    Infeasible,
    LinearProgram,
    LpOutcome,
    Optimal,
    Row,
    _certified,
    _farkas,
    _integer_rows,
    _rat,
    materialized_rows,
)
from ucfreq.search import (
    ENUMERATION_LIMIT,
    F2_FLOOR,
    EnumerationSpec,
    VerificationReport,
)
from ucfreq.setfam import (
    FlexibleWitness,
    SetFamily,
    canonical_key,
    elements_of,
    format_mask,
    kth_frequency,
    minimal_covers,
    minimal_elements,
    submasks,
)

F = Fraction


def reduced_full_symmetry(s: int) -> LinearProgram:
    """Orbit model under all role permutations: one variable per trace size."""
    sizes = [comb(s, k) for k in range(s + 1)]
    zs = tuple(f"z{k}" for k in range(s + 1))
    lp = LinearProgram(zs, "min", {zs[k]: F(sizes[k]) for k in range(s + 1)})
    cap = {zs[k]: 3 * comb(s - 1, k - 1) - sizes[k] for k in range(s + 1) if k}
    cap[zs[0]] = -sizes[0]
    lp.add(cap, "<=", 0)
    for k in range(s + 1):
        lp.add({zs[k]: 1}, ">=", 1)
    lp.add({zs[0]: 1}, "<=", 2)
    return lp


def reduced_one_marked_role(s: int) -> LinearProgram:
    """Orbit model fixing one role: variables z<in><k> with `in` marking
    membership of the fixed role and k counting the other elements."""
    zs = tuple(f"z{m}{k}" for m in (0, 1) for k in range(s))
    size = {f"z{m}{k}": comb(s - 1, k) for m in (0, 1) for k in range(s)}
    lp = LinearProgram(zs, "min", {})
    m_coeffs = {z: F(size[z]) for z in zs}
    cap = {z: -m_coeffs[z] for z in zs}
    for k in range(s):
        cap[f"z1{k}"] += 3 * comb(s - 1, k)
    lp.add(cap, "<=", 0)
    cap2 = {z: -m_coeffs[z] for z in zs}
    for m in (0, 1):
        for k in range(1, s):
            cap2[f"z{m}{k}"] += 3 * comb(s - 2, k - 1)
    lp.add(cap2, "<=", 0)
    for z in zs:
        lp.add({z: 1}, ">=", 1)
    lp.add({"z00": 1}, "<=", 2)
    return lp


def letter_set_doubled_targets(s: int, a: str, covered) -> tuple[frozenset, ...]:
    """The subsets T of the s roles with q_T >= 2 forced: the flexible role
    in T and no covered role, or T meeting the covered roles twice.

    This is the rule `lpmodel.doubled_trace_targets` stated on letter sets
    before both it and the recount read `lpmodel.doubled_pattern`; it stays
    as the reference.
    """
    letters = "abcde"[:s]
    cov = frozenset(covered)
    return tuple(
        frozenset(t)
        for k in range(s + 1)
        for t in combinations(letters, k)
        if (a in t and not set(t) & cov) or len(set(t) & cov) >= 2
    )


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


def random_box_program(rng: random.Random) -> LinearProgram:
    """Box-constrained program with a few extra rows: always a polytope,
    so the basic-point oracle is sound and unboundedness is impossible."""
    n = rng.randint(1, 4)
    names = tuple(f"x{j}" for j in range(n))
    lp = LinearProgram(names, rng.choice(("min", "max")))
    lp.objective = {name: F(rng.randint(-3, 3)) for name in names}
    for name in names:
        lo = F(rng.randint(-6, 4), rng.choice((1, 2)))
        lp.lower[name] = lo
        lp.upper[name] = lo + F(rng.randint(0, 8), rng.choice((1, 2)))
    for _ in range(rng.randint(0, 4)):
        coeffs = {name: F(rng.randint(-3, 3)) for name in names}
        if all(c == 0 for c in coeffs.values()):
            coeffs[names[0]] = F(1)
        rel = rng.choice(("<=", ">=", "<=", ">=", "=="))
        lp.add(coeffs, rel, F(rng.randint(-8, 8), rng.choice((1, 2))))
    return lp


# `ratlp.materialized_rows` as it was before it divided `_integer_rows` back:
# the reference for the row order, values and key order that it must keep.

def loop_materialized_rows(lp: LinearProgram) -> list[Row]:
    index = {name: j for j, name in enumerate(lp.variables)}
    rows: list[Row] = []
    for con in lp.constraints:
        rows.append(({index[v]: c for v, c in con.coeffs.items()}, con.relation, con.rhs))
    for j, name in enumerate(lp.variables):
        if name in lp.lower:
            rows.append(({j: ONE}, ">=", lp.lower[name]))
        if name in lp.upper:
            rows.append(({j: ONE}, "<=", lp.upper[name]))
    return rows


# The certificate checks as they were before `ratlp` scaled rows to
# integers: the same conditions summed in `Fraction`s.  They stay as the
# reference for the integer checks' verdicts and `ValueError`s.

def _row_value(coeffs: dict[int, Fraction], x: list[Fraction]) -> Fraction:
    return sum((c * x[j] for j, c in coeffs.items()), ZERO)


def _holds(lhs: Fraction, relation: str, rhs: Fraction) -> bool:
    if relation == "<=":
        return lhs <= rhs
    if relation == ">=":
        return lhs >= rhs
    return lhs == rhs


def fraction_check_feasible(lp: LinearProgram, assignment: dict[str, Fraction]) -> bool:
    lp.validate()
    missing = set(lp.variables) - set(assignment)
    extra = set(assignment) - set(lp.variables)
    if missing or extra:
        raise ValueError(f"assignment must cover exactly the variables (missing {sorted(missing)}, extra {sorted(extra)})")
    x = [_rat(assignment[name]) for name in lp.variables]
    return all(_holds(_row_value(coeffs, x), rel, rhs) for coeffs, rel, rhs in materialized_rows(lp))


def _are_row_indices(keys, rows: list[Row]) -> bool:
    return all(isinstance(i, int) and not isinstance(i, bool) and 0 <= i < len(rows) for i in keys)


def fraction_verify_optimality(lp: LinearProgram, primal: dict[str, Fraction], dual: dict[int, Fraction]) -> bool:
    if not fraction_check_feasible(lp, primal):
        return False
    rows = materialized_rows(lp)
    if not _are_row_indices(dual, rows):
        raise ValueError("dual keys must index the materialized rows")
    combined = [ZERO] * len(lp.variables)
    dual_value = ZERO
    for i, (coeffs, rel, rhs) in enumerate(rows):
        y = _rat(dual.get(i, ZERO))
        if y == 0:
            continue
        geq_sign = 1 if lp.sense == "min" else -1
        if rel == ">=" and geq_sign * y < 0:
            return False
        if rel == "<=" and geq_sign * y > 0:
            return False
        for j, c in coeffs.items():
            combined[j] += y * c
        dual_value += y * rhs
    objective = [lp.objective.get(name, ZERO) for name in lp.variables]
    if combined != objective:
        return False
    primal_value = sum((objective[j] * _rat(primal[name]) for j, name in enumerate(lp.variables)), ZERO)
    return primal_value == dual_value


def fraction_verify_infeasibility(lp: LinearProgram, farkas: dict[int, Fraction]) -> bool:
    lp.validate()
    rows = materialized_rows(lp)
    if not _are_row_indices(farkas, rows):
        raise ValueError("farkas keys must index the materialized rows")
    combined = [ZERO] * len(lp.variables)
    total_rhs = ZERO
    for i, (coeffs, rel, rhs) in enumerate(rows):
        w = _rat(farkas.get(i, ZERO))
        if w == 0:
            continue
        if rel != "==" and w < 0:
            return False
        flip = -1 if rel == ">=" else 1
        for j, c in coeffs.items():
            combined[j] += w * flip * c
        total_rhs += w * flip * rhs
    return all(c == 0 for c in combined) and total_rhs < 0


@dataclass(frozen=True)
class Unbounded:
    """A feasible program whose objective improves forever along `ray`: the
    third outcome of the reference simplexes, which `ratlp.solve` refuses."""

    ray: dict[str, Fraction]


def fraction_verify_ray(lp: LinearProgram, ray: dict[str, Fraction]) -> bool:
    lp.validate()
    if set(ray) - set(lp.variables):
        raise ValueError("ray keys must be declared variables")
    d = [_rat(ray.get(name, ZERO)) for name in lp.variables]
    if all(v == 0 for v in d):
        return False
    for coeffs, rel, _ in materialized_rows(lp):
        drift = _row_value(coeffs, d)
        if rel == "<=" and drift > 0:
            return False
        if rel == ">=" and drift < 0:
            return False
        if rel == "==" and drift != 0:
            return False
    gain = sum((lp.objective.get(name, ZERO) * d[j] for j, name in enumerate(lp.variables)), ZERO)
    return gain < 0 if lp.sense == "min" else gain > 0


# The basic-point enumerator, the reference optimum for small polytopes.
# It tests rows with this module's `_holds` and `_row_value`, so no code of
# the solver or of its certificate checks decides its answers.

def _solve_square(rows: list[dict[int, Fraction]], rhs: list[Fraction], n: int) -> list[Fraction] | None:
    mat = [[rows[i].get(j, ZERO) for j in range(n)] + [rhs[i]] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if piv is None:
            return None
        mat[col], mat[piv] = mat[piv], mat[col]
        pv = mat[col][col]
        mat[col] = [v / pv for v in mat[col]]
        for r in range(n):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    return [mat[i][n] for i in range(n)]


def brute_force_optimum(lp: LinearProgram) -> Fraction | None:
    """Best objective value over all basic feasible points, or None if there are none.

    Independent reference oracle: intersect every size-n subset of rows as
    equalities (Gaussian elimination) and keep the feasible points.  Sound
    whenever the feasible region is a polytope (every nonempty bounded
    polyhedron attains its optimum at such a point), e.g. box-constrained
    programs.  Exponential; intended for small programs only.
    """
    lp.validate()
    rows = materialized_rows(lp)
    n = len(lp.variables)
    best: Fraction | None = None
    for subset in combinations(range(len(rows)), n):
        point = _solve_square([rows[i][0] for i in subset], [rows[i][2] for i in subset], n)
        if point is None or not all(_holds(_row_value(coeffs, point), rel, rhs) for coeffs, rel, rhs in rows):
            continue
        val = sum((lp.objective.get(name, ZERO) * point[j] for j, name in enumerate(lp.variables)), ZERO)
        if best is None or (val < best if lp.sense == "min" else val > best):
            best = val
    return best


# The exact simplex as it was before `ratlp.solve` folded one-variable rows
# into bounds: every variable split into u - v, every bound a full row.  It
# stays as the reference for the presolved solver's statuses and values.

class _Tableau:
    """Dense equality-form tableau. Columns: variable splits u/v, slacks, artificials."""

    def __init__(self, lp: LinearProgram):
        rows = materialized_rows(lp)
        self.nvars = len(lp.variables)
        self.nrows = len(rows)
        self.minimize = lp.sense == "min"
        sign = ONE if self.minimize else -ONE
        self.cost_orig = [lp.objective.get(name, ZERO) for name in lp.variables]
        cost_internal = [sign * c for c in self.cost_orig]

        self.sigma: list[int] = []
        self.slack_col: list[int | None] = []
        self.art_col: list[int | None] = []
        self.relations = [rel for _, rel, _ in rows]

        ncols = 2 * self.nvars
        for coeffs, rel, rhs in rows:
            self.sigma.append(1 if rhs >= 0 else -1)
            if rel == "==":
                self.slack_col.append(None)
            else:
                self.slack_col.append(ncols)
                ncols += 1
        for i, (coeffs, rel, rhs) in enumerate(rows):
            slack_sign = 1 if rel == "<=" else -1
            identity = self.slack_col[i] is not None and self.sigma[i] * slack_sign == 1
            if identity:
                self.art_col.append(None)
            else:
                self.art_col.append(ncols)
                ncols += 1
        self.ncols = ncols

        self.A = [[ZERO] * ncols for _ in range(self.nrows)]
        self.b = [ZERO] * self.nrows
        self.basis = [0] * self.nrows
        for i, (coeffs, rel, rhs) in enumerate(rows):
            sg = self.sigma[i]
            for j, c in coeffs.items():
                self.A[i][j] = sg * c
                self.A[i][self.nvars + j] = -sg * c
            if self.slack_col[i] is not None:
                self.A[i][self.slack_col[i]] = sg * (ONE if rel == "<=" else -ONE)
            if self.art_col[i] is not None:
                self.A[i][self.art_col[i]] = ONE
                self.basis[i] = self.art_col[i]
            else:
                self.basis[i] = self.slack_col[i]
            self.b[i] = sg * rhs

        self.artificials = {c for c in self.art_col if c is not None}
        # internal (min-form) phase-2 costs per column
        self.cost2 = [ZERO] * ncols
        for j in range(self.nvars):
            self.cost2[j] = cost_internal[j]
            self.cost2[self.nvars + j] = -cost_internal[j]

    def price(self, cost: list[Fraction]) -> list[Fraction]:
        costrow = list(cost)
        for i in range(self.nrows):
            cb = cost[self.basis[i]]
            if cb != 0:
                row = self.A[i]
                for j in range(self.ncols):
                    if row[j] != 0:
                        costrow[j] -= cb * row[j]
        return costrow

    def objective_value(self, cost: list[Fraction]) -> Fraction:
        return sum((cost[self.basis[i]] * self.b[i] for i in range(self.nrows)), ZERO)

    def pivot(self, r: int, e: int, costrow: list[Fraction]) -> None:
        row = self.A[r]
        piv = row[e]
        if piv != 1:
            inv = ONE / piv
            self.A[r] = row = [v * inv for v in row]
            self.b[r] *= inv
        nz = [j for j, v in enumerate(row) if v != 0]
        br = self.b[r]
        for i in range(self.nrows):
            if i == r:
                continue
            f = self.A[i][e]
            if f != 0:
                target = self.A[i]
                for j in nz:
                    target[j] -= f * row[j]
                self.b[i] -= f * br
        f = costrow[e]
        if f != 0:
            for j in nz:
                costrow[j] -= f * row[j]
        self.basis[r] = e

    def run(self, costrow: list[Fraction], banned: frozenset[int]) -> int | None:
        """Bland pivoting to optimality; returns an entering column on unboundedness."""
        # Bland's rule terminates; the cap only turns a would-be bug into a
        # loud failure instead of a hang
        budget = 1000 * (self.nrows + self.ncols) + 10_000
        for _ in range(budget):
            enter = None
            for j in range(self.ncols):
                if j not in banned and costrow[j] < 0:
                    enter = j
                    break
            if enter is None:
                return None
            best = None
            for i in range(self.nrows):
                aij = self.A[i][enter]
                if aij > 0:
                    key = (self.b[i] / aij, self.basis[i])
                    if best is None or key < best[0]:
                        best = (key, i)
            if best is None:
                return enter
            self.pivot(best[1], enter, costrow)
        raise CertificateError("pivot budget exceeded; anti-cycling rule violated")

    def initial_identity_column(self, i: int) -> int:
        col = self.art_col[i]
        return col if col is not None else self.slack_col[i]


def split_tableau_solve(lp: LinearProgram) -> LpOutcome | Unbounded:
    """Exact optimum with certificate, Farkas infeasibility proof, or a ray.

    Deterministic for a fixed program (Bland's rule over a fixed column
    order).  Every certificate is re-verified before being returned.
    Under degeneracy the assignment is whichever optimal basic point
    Bland's ordering reaches first: the value is the contract, the
    particular optimal assignment is incidental.
    """
    lp.validate()
    t = _Tableau(lp)

    if t.artificials:
        cost1 = [ONE if j in t.artificials else ZERO for j in range(t.ncols)]
        costrow = t.price(cost1)
        enter = t.run(costrow, banned=frozenset())
        if enter is not None:
            raise CertificateError("phase 1 cannot be unbounded")
        if t.objective_value(cost1) > 0:
            farkas = _extract_farkas(lp, t, cost1, costrow)
            if not fraction_verify_infeasibility(lp, farkas):
                raise CertificateError("produced farkas certificate failed verification")
            return Infeasible(farkas)
        _drive_out_artificials(t)

    costrow = t.price(t.cost2)
    enter = t.run(costrow, banned=frozenset(t.artificials))
    if enter is not None:
        ray = _extract_ray(lp, t, enter)
        if not fraction_verify_ray(lp, ray):
            raise CertificateError("produced ray failed verification")
        return Unbounded(ray)

    assignment = _extract_assignment(lp, t)
    dual = _extract_dual(lp, t, costrow)
    internal = t.objective_value(t.cost2)
    value = internal if t.minimize else -internal
    if not fraction_verify_optimality(lp, assignment, dual):
        raise CertificateError("produced optimality certificate failed verification")
    return Optimal(value, assignment, dual)


def _drive_out_artificials(t: _Tableau) -> None:
    for i in range(t.nrows):
        if t.basis[i] in t.artificials:
            # at phase-1 optimum zero, so any nonzero real entry pivots at ratio 0
            row = t.A[i]
            enter = next(
                (j for j in range(t.ncols) if j not in t.artificials and row[j] != 0),
                None,
            )
            if enter is not None:
                dummy = [ZERO] * t.ncols
                t.pivot(i, enter, dummy)
            # else: redundant row; the artificial stays basic at value 0


def _extract_assignment(lp: LinearProgram, t: _Tableau) -> dict[str, Fraction]:
    value = {t.basis[i]: t.b[i] for i in range(t.nrows)}
    return {
        name: value.get(j, ZERO) - value.get(t.nvars + j, ZERO)
        for j, name in enumerate(lp.variables)
    }


def _restricted_duals(t: _Tableau, cost: list[Fraction], costrow: list[Fraction]) -> list[Fraction]:
    """Equality-form duals y_i = c[identity col of row i] - reduced cost of it."""
    out = []
    for i in range(t.nrows):
        col = t.initial_identity_column(i)
        out.append(cost[col] - costrow[col])
    return out


def _extract_dual(lp: LinearProgram, t: _Tableau, costrow: list[Fraction]) -> dict[int, Fraction]:
    y = _restricted_duals(t, t.cost2, costrow)
    dual = {}
    for i in range(t.nrows):
        z = t.sigma[i] * y[i]
        if not t.minimize:
            z = -z
        if z != 0:
            dual[i] = z
    return dual


def _extract_farkas(
    lp: LinearProgram, t: _Tableau, cost1: list[Fraction], costrow: list[Fraction]
) -> dict[int, Fraction]:
    y = _restricted_duals(t, cost1, costrow)
    farkas = {}
    for i in range(t.nrows):
        z = t.sigma[i] * y[i]
        w = z if t.relations[i] == ">=" else -z
        if w != 0:
            farkas[i] = w
    return farkas


def _extract_ray(lp: LinearProgram, t: _Tableau, enter: int) -> dict[str, Fraction]:
    delta = {enter: ONE}
    for i in range(t.nrows):
        step = t.A[i][enter]
        if step != 0:
            delta[t.basis[i]] = -step
    return {
        name: delta.get(j, ZERO) - delta.get(t.nvars + j, ZERO)
        for j, name in enumerate(lp.variables)
        if delta.get(j, ZERO) != delta.get(t.nvars + j, ZERO)
    }


# The presolve as it was before `ratlp.solve` kept one integer row form
# from the presolve to the check: bounds read off the `Fraction` rows as
# `Fraction`s, and shifted rows summed in `Fraction`s.  It feeds the
# `Fraction` tableau below, the reference for the integer presolve.

class _FractionBound(NamedTuple):
    """A one-variable row read as a bound on its variable."""

    value: Fraction
    row: int  # index into `materialized_rows`
    coeff: Fraction  # the row's coefficient on the variable


def fraction_presolve_bounds(nvars: int, rows: list[Row]):
    """The tightest lower and upper bound of each variable, read off the
    one-variable rows; the first of equally tight rows wins."""
    lower: list[_FractionBound | None] = [None] * nvars
    upper: list[_FractionBound | None] = [None] * nvars
    for i, (coeffs, rel, rhs) in enumerate(rows):
        if len(coeffs) > 1:
            continue
        ((j, a),) = coeffs.items()
        bound = _FractionBound(rhs / a, i, a)
        if rel != ("<=" if a > 0 else ">="):  # x_j >= rhs / a
            if lower[j] is None or bound.value > lower[j].value:
                lower[j] = bound
        if rel != (">=" if a > 0 else "<="):  # x_j <= rhs / a
            if upper[j] is None or bound.value < upper[j].value:
                upper[j] = bound
    return lower, upper


class _FractionPresolved:
    """The program over columns x' >= 0, with the bounds folded in.

    A variable with a lower bound l is x = l + x' (an upper bound u as well
    adds the row x' <= u - l, whose slack needs no artificial); one with
    only an upper bound is x = u - x'; a free one is x = x'+ - x'-.  The
    tableau gets the rows with two or more variables and those upper rows.

    Every tableau row and every bounded column keeps the materialized row
    it stands for and the factor that turns its dual (for a column: its
    reduced cost, the dual of x' >= 0) into that row's weight, so the
    certificates come back keyed to `materialized_rows`.
    """

    def __init__(self, lp: LinearProgram, rows: list[Row], lower, upper):
        sign = ONE if lp.sense == "min" else -ONE
        self.nmaterialized = len(rows)
        self.columns: list[tuple[tuple[int, int], ...]] = []  # per variable: (column, sign)
        self.offset: list[Fraction] = []
        self.column_origin: list[tuple[int, Fraction] | None] = []
        self.cost: list[Fraction] = []
        for j, name in enumerate(lp.variables):
            lo, hi = lower[j], upper[j]
            c = len(self.cost)
            if lo is not None:
                cols, offset, origins = ((c, 1),), lo.value, [(lo.row, ONE / lo.coeff)]
            elif hi is not None:
                cols, offset, origins = ((c, -1),), hi.value, [(hi.row, -ONE / hi.coeff)]
            else:
                cols, offset, origins = ((c, 1), (c + 1, -1)), ZERO, [None, None]
            self.columns.append(cols)
            self.offset.append(offset)
            self.column_origin += origins
            self.cost += [sign * lp.objective.get(name, ZERO) * s for _, s in cols]

        boxed = {
            hi.row: j for j, (lo, hi) in enumerate(zip(lower, upper))
            if lo is not None and hi is not None
        }
        self.rows: list[Row] = []  # in materialized order
        self.row_origin: list[tuple[int, Fraction]] = []
        for i, (coeffs, rel, rhs) in enumerate(rows):
            if i in boxed:
                j = boxed[i]
                col = self.columns[j][0][0]
                self.rows.append(({col: ONE}, "<=", upper[j].value - lower[j].value))
                self.row_origin.append((i, ONE / upper[j].coeff))
            elif len(coeffs) > 1:
                shifted: dict[int, Fraction] = {}
                for j, a in coeffs.items():
                    rhs -= a * self.offset[j]
                    for c, sg in self.columns[j]:
                        shifted[c] = a * sg
                self.rows.append((shifted, rel, rhs))
                self.row_origin.append((i, ONE))

    def point(self, values: Mapping[int, Fraction], shifted: bool = True) -> list[Fraction]:
        """x from the column values x' (absent columns are 0); with
        `shifted` False, the direction of x along a direction of x'."""
        return [
            (offset if shifted else ZERO) + sum((s * values.get(c, ZERO) for c, s in cols), ZERO)
            for offset, cols in zip(self.offset, self.columns)
        ]

    def weights(self, t: _FractionTableau, cost: list[Fraction], costrow: list[Fraction]) -> list[Fraction]:
        """Min-form dual weights on the materialized rows from a tableau priced by `cost`."""
        y = [ZERO] * self.nmaterialized
        for r, (i, factor) in enumerate(self.row_origin):
            col = t.initial_identity_column(r)
            y[i] += t.sigma[r] * (cost[col] - costrow[col]) * factor
        for c, origin in enumerate(self.column_origin):
            if origin is not None and costrow[c] != 0:
                i, factor = origin
                y[i] += costrow[c] * factor
        return y


# The presolved simplex as it was before `ratlp._Tableau` went integer: the
# same presolve, two phases and Bland's rule on a dense `Fraction` tableau.
# It stays as the reference for the integer tableau's outcomes and stats.

class _FractionTableau:
    """Dense equality-form `Fraction` tableau. Columns: the presolved x', slacks, artificials."""

    def __init__(self, rows: list[Row], cost: list[Fraction]):
        self.nrows = len(rows)
        self.sigma: list[int] = [1 if rhs >= 0 else -1 for _, _, rhs in rows]
        self.slack_col: list[int | None] = []
        self.art_col: list[int | None] = []

        ncols = len(cost)
        for _, rel, _ in rows:
            if rel == "==":
                self.slack_col.append(None)
            else:
                self.slack_col.append(ncols)
                ncols += 1
        for i, (_, rel, _) in enumerate(rows):
            slack_sign = 1 if rel == "<=" else -1
            if self.slack_col[i] is not None and self.sigma[i] * slack_sign == 1:
                self.art_col.append(None)
            else:
                self.art_col.append(ncols)
                ncols += 1
        self.ncols = ncols

        self.A = [[ZERO] * ncols for _ in range(self.nrows)]
        self.b = [ZERO] * self.nrows
        self.basis = [0] * self.nrows
        for i, (coeffs, rel, rhs) in enumerate(rows):
            sg = self.sigma[i]
            for j, c in coeffs.items():
                self.A[i][j] = sg * c
            if self.slack_col[i] is not None:
                self.A[i][self.slack_col[i]] = sg * (ONE if rel == "<=" else -ONE)
            if self.art_col[i] is not None:
                self.A[i][self.art_col[i]] = ONE
            self.basis[i] = self.initial_identity_column(i)
            self.b[i] = sg * rhs

        self.artificials = {c for c in self.art_col if c is not None}
        self.cost2 = list(cost) + [ZERO] * (ncols - len(cost))  # phase-2 costs, min form
        self.phase = 0  # index into `pivots`: 0 for phase 1, 1 for phase 2
        self.pivots = [0, 0]

    def price(self, cost: list[Fraction]) -> list[Fraction]:
        costrow = list(cost)
        for i in range(self.nrows):
            cb = cost[self.basis[i]]
            if cb != 0:
                row = self.A[i]
                for j in range(self.ncols):
                    if row[j] != 0:
                        costrow[j] -= cb * row[j]
        return costrow

    def objective_value(self, cost: list[Fraction]) -> Fraction:
        return sum((cost[self.basis[i]] * self.b[i] for i in range(self.nrows)), ZERO)

    def pivot(self, r: int, e: int, costrow: list[Fraction]) -> None:
        self.pivots[self.phase] += 1
        row = self.A[r]
        piv = row[e]
        if piv != 1:
            inv = ONE / piv
            self.A[r] = row = [v * inv for v in row]
            self.b[r] *= inv
        nz = [j for j, v in enumerate(row) if v != 0]
        br = self.b[r]
        for i in range(self.nrows):
            if i == r:
                continue
            f = self.A[i][e]
            if f != 0:
                target = self.A[i]
                for j in nz:
                    target[j] -= f * row[j]
                self.b[i] -= f * br
        f = costrow[e]
        if f != 0:
            for j in nz:
                costrow[j] -= f * row[j]
        self.basis[r] = e

    def run(self, costrow: list[Fraction], banned: frozenset[int]) -> int | None:
        """Bland pivoting to optimality; returns an entering column on unboundedness."""
        # Bland's rule terminates; the cap only turns a would-be bug into a
        # loud failure instead of a hang
        budget = 1000 * (self.nrows + self.ncols) + 10_000
        for _ in range(budget):
            enter = None
            for j in range(self.ncols):
                if j not in banned and costrow[j] < 0:
                    enter = j
                    break
            if enter is None:
                return None
            best = None
            for i in range(self.nrows):
                aij = self.A[i][enter]
                if aij > 0:
                    key = (self.b[i] / aij, self.basis[i])
                    if best is None or key < best[0]:
                        best = (key, i)
            if best is None:
                return enter
            self.pivot(best[1], enter, costrow)
        raise CertificateError("pivot budget exceeded; anti-cycling rule violated")

    def initial_identity_column(self, i: int) -> int:
        col = self.art_col[i]
        return col if col is not None else self.slack_col[i]

    def max_bits(self) -> int:
        # the bit-length of |p| | q is the larger of those of p and q
        return max(
            (abs(v.numerator) | v.denominator for row in self.A + [self.b] for v in row),
            default=0,
        ).bit_length()


def fraction_tableau_solve(lp: LinearProgram) -> LpOutcome | Unbounded:
    """`ratlp.solve` on the `Fraction` tableau: the same presolve, pivots,
    certificates and `SolveStats` (but wall time), and an `Unbounded` ray,
    checked by `fraction_verify_ray`, where `solve` raises `ValueError`."""
    started = time.perf_counter()
    lp.validate()
    rows = materialized_rows(lp)
    lower, upper = fraction_presolve_bounds(len(lp.variables), rows)
    for lo, hi in zip(lower, upper):
        if lo is not None and hi is not None and lo.value > hi.value:
            # x >= l and x <= u add up to 0 <= u - l < 0
            y = [ZERO] * len(rows)
            y[lo.row] += ONE / lo.coeff
            y[hi.row] -= ONE / hi.coeff
            return _certified(lp, _integer_rows(lp), Infeasible, (_farkas(rows, y),), None, started)
    pre = _FractionPresolved(lp, rows, lower, upper)
    t = _FractionTableau(pre.rows, pre.cost)
    outcome = _fraction_simplex(lp, rows, pre, t)
    if isinstance(outcome, Unbounded):
        if not fraction_verify_ray(lp, outcome.ray):
            raise CertificateError("produced ray failed verification")
        return outcome
    fields = (outcome.value, outcome.assignment, outcome.dual) if isinstance(outcome, Optimal) else (outcome.farkas,)
    return _certified(lp, _integer_rows(lp), type(outcome), fields, t, started)


def _fraction_simplex(lp: LinearProgram, rows: list[Row], pre: _FractionPresolved, t: _FractionTableau) -> LpOutcome | Unbounded:
    """Two phases on the presolved tableau; outcomes are stated over `lp`."""
    if t.artificials:
        cost1 = [ONE if j in t.artificials else ZERO for j in range(t.ncols)]
        costrow = t.price(cost1)
        if t.run(costrow, banned=frozenset()) is not None:
            raise CertificateError("phase 1 cannot be unbounded")
        if t.objective_value(cost1) > 0:
            return Infeasible(_farkas(rows, pre.weights(t, cost1, costrow)))
        _fraction_drive_out_artificials(t)
    t.phase = 1

    costrow = t.price(t.cost2)
    enter = t.run(costrow, banned=frozenset(t.artificials))
    if enter is not None:
        step = {enter: ONE}
        for i in range(t.nrows):
            if t.A[i][enter] != 0:
                step[t.basis[i]] = -t.A[i][enter]
        direction = pre.point(step, shifted=False)
        return Unbounded({name: d for name, d in zip(lp.variables, direction) if d != 0})

    x = pre.point({t.basis[i]: t.b[i] for i in range(t.nrows)})
    sign = ONE if lp.sense == "min" else -ONE
    dual = {i: sign * w for i, w in enumerate(pre.weights(t, t.cost2, costrow)) if w != 0}
    value = sum((lp.objective.get(name, ZERO) * v for name, v in zip(lp.variables, x)), ZERO)
    return Optimal(value, dict(zip(lp.variables, x)), dual)


def _fraction_drive_out_artificials(t: _FractionTableau) -> None:
    for i in range(t.nrows):
        if t.basis[i] in t.artificials:
            # at phase-1 optimum zero, so any nonzero real entry pivots at ratio 0
            row = t.A[i]
            enter = next(
                (j for j in range(t.ncols) if j not in t.artificials and row[j] != 0),
                None,
            )
            if enter is not None:
                dummy = [ZERO] * t.ncols
                t.pivot(i, enter, dummy)
            # else: redundant row; the artificial stays basic at value 0


def random_bounded_program(rng: random.Random) -> LinearProgram:
    """Program whose variables end up free, lower-bounded, upper-bounded,
    boxed or fixed: declared bounds plus zero to three one-variable rows per
    variable, with coefficients of either sign and any relation, then a few
    rows over several variables.  Optimal, infeasible (often through two
    crossing bounds) and unbounded outcomes all occur."""
    n = rng.randint(1, 4)
    names = tuple(f"x{j}" for j in range(n))
    lp = LinearProgram(names, rng.choice(("min", "max")))
    lp.objective = {name: F(rng.randint(-3, 3)) for name in names}
    relations = ("<=", ">=", "<=", ">=", "==")
    for name in names:
        if rng.random() < 0.3:
            lp.lower[name] = F(rng.randint(-4, 4), rng.choice((1, 2)))
        if rng.random() < 0.3:
            lp.upper[name] = F(rng.randint(-2, 8), rng.choice((1, 2)))
        for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
            coeff = F(rng.choice((-3, -2, -1, 1, 2, 3)))
            relation = rng.choice(("<=", ">=") * 4 + ("==",))
            lp.add({name: coeff}, relation, F(rng.randint(-8, 8), rng.choice((1, 2))))
    for _ in range(rng.randint(0, 3)):
        coeffs = {name: F(rng.randint(-3, 3)) for name in names}
        if all(c == 0 for c in coeffs.values()):
            coeffs[names[0]] = F(1)
        lp.add(coeffs, rng.choice(relations), F(rng.randint(-8, 8), rng.choice((1, 2))))
    return lp


def shift_elements_of(mask: int) -> tuple[int, ...]:
    """Ascending elements of a bitmask, one shift per bit up to the highest.

    This is the loop `setfam.elements_of` ran before it stepped over the set
    bits only; it stays as the reference.
    """
    out = []
    e = 1
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return tuple(out)


def family_to_json(fam: SetFamily) -> str:
    """Canonical JSON: {"n": n, "sets": [[sorted ints], ...]}."""
    return json.dumps({"n": fam.n, "sets": [list(elements_of(s)) for s in fam.sets]})


def family_to_text(fam: SetFamily) -> str:
    """Plain text: one set per line, elements ascending, '-' for the empty set."""
    lines = []
    for s in fam.sets:
        lines.append(" ".join(str(e) for e in elements_of(s)) if s else "-")
    return "\n".join(lines) + "\n"


def scan_element_frequencies(fam: SetFamily) -> dict[int, int]:
    """For each element of 1..n, the number of members containing it, read
    off each member's `elements_of` tuple.

    This is the body `setfam.element_frequencies` had before it stepped over
    each member's set bits inline; it stays as the reference.
    """
    freqs = dict.fromkeys(range(1, fam.n + 1), 0)
    for s in fam.sets:
        for e in elements_of(s):
            freqs[e] += 1
    return freqs


def scan_minimal_transversals(targets, allowed: int) -> tuple[int, ...]:
    """Minimal transversals by scanning all 2^|allowed| subsets of `allowed`,
    each tested against every target with one element dropped at a time.

    This is the scan `minimal_covers` and `minimal_two_good_sets` ran before
    `setfam.minimal_transversals` replaced it; it stays as the reference.
    """
    out = []
    for s in submasks(allowed):
        if all(s & a for a in targets):
            if all(not all((s & ~(1 << (e - 1))) & a for a in targets) for e in elements_of(s)):
                out.append(s)
    return tuple(sorted(out, key=elements_of))


def is_minimal_transversal(s: int, targets) -> bool:
    """True iff `s` meets every target and each element of `s` has a private
    target, one that `s` meets in that element alone.

    A transversal is inclusion-minimal exactly when this holds: dropping an
    element leaves its private target unmet, and an element without one can
    be dropped.
    """
    private = 0
    for t in targets:
        hit = t & s
        if not hit:
            return False
        if hit & (hit - 1) == 0:
            private |= hit
    return private == s


def is_minimal_two_good(fam: SetFamily, s: int) -> bool:
    """True iff `s` is 2-good and no proper subset of it is.

    This and `is_minimal_transversal` are the private-target test that
    `setfam` kept beside `minimal_two_good_sets` until `spot_check_lemmas`
    read minimality off the sets its callers list; they stay as the
    reference.  The 2-good problem is restated here, not read from
    `setfam`: targets A - {1} over the members A outside {empty, {1}},
    candidates 2..n.
    """
    targets = [t for a in fam.sets if (t := a & ~1)]
    return s & ~(fam.ground & ~1) == 0 and is_minimal_transversal(s, targets)


def is_two_good(fam: SetFamily, s: int) -> bool:
    """True iff `s` lies in 2..n and meets every member but the empty set and {1}.

    This is the test `setfam` kept until `flexible_pairs` and `covered_set`
    took a 2-good base as a precondition they do not check; it stays as the
    reference.  The 2-good problem is restated here, not read from `setfam`:
    targets A - {1} over the members A outside {empty, {1}}, candidates 2..n.
    """
    targets, allowed = [t for a in fam.sets if (t := a & ~1)], fam.ground & ~1
    return s & ~allowed == 0 and all(t & s for t in targets)


def scan_minimal_elements(masks) -> tuple[int, ...]:
    """The masks with no proper subset among `masks`, each tested against
    every other, in canonical order.

    This is the body `setfam.minimal_elements` had before it shared the
    reduction of `setfam.minimal_transversals`; it stays as the reference.
    """
    members = set(masks)
    out = [
        s
        for s in members
        if not any(t != s and t & ~s == 0 for t in members)
    ]
    return tuple(sorted(out, key=elements_of))


def scan_is_antichain(masks) -> bool:
    """True iff no two of the distinct `masks` are nested, each pair tested.

    This is the body `setfam.is_antichain` had before it counted the
    minimal members with `setfam._minimal_masks`; it stays as the reference.
    """
    masks = tuple(masks)
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            if a & ~b == 0 or b & ~a == 0:
                return False
    return True


def pairwise_is_union_closed(fam: SetFamily) -> bool:
    """True iff the union of every pair of members is a member, each pair tried.

    This is the body `setfam.is_union_closed` had before it shared the
    incremental closure of `setfam.union_closure`; it stays as the reference.
    """
    members = fam.member_set()
    sets = fam.sets
    for i, a in enumerate(sets):
        for b in sets[i:]:
            if a | b not in members:
                return False
    return True


def frontier_union_closure(generators: SetFamily) -> SetFamily:
    """Union closure grown from a frontier, each new set joined with every
    set found so far, in canonical order.

    This is the body `setfam.union_closure` had before it took the
    generators fewest elements first; it stays as the reference.
    """
    if not generators.sets:
        raise ValueError("union_closure requires at least one generator")
    closed = set(generators.sets)
    frontier = list(closed)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(closed):
                u = a | b
                if u not in closed:
                    closed.add(u)
                    nxt.append(u)
        frontier = nxt
    return SetFamily(generators.n, tuple(sorted(closed, key=elements_of)))


# The enumerator and the f_2 check as they were before `search` walked the
# families with one explicit-stack DFS and incremental element counts; they
# stay as the reference for its families, their order and its reports.

def scan_is_two_good(fam: SetFamily, s: int) -> bool:
    """True iff `s` avoids element 1 and meets every member other than the
    empty set and {1}, one member at a time.

    This is the body `is_two_good` had in `setfam` before it read the
    targets of the transversal problem behind `minimal_two_good_sets`; it
    stays as the reference for `s` inside 2..n.
    """
    if s & 1:
        return False
    for a in fam.sets:
        if a == 0 or a == 1:
            continue
        if a & s == 0:
            return False
    return True


def _require_two_good(fam: SetFamily, s: int) -> None:
    if not scan_is_two_good(fam, s):
        raise ValueError(f"base set {format_mask(s)} is not 2-good")


def scan_covered_set(fam: SetFamily, s: int, x: int) -> tuple[int, ...]:
    """The y of the 2-good `s` with s + x - y 2-good, one `scan_is_two_good`
    scan of the members per y.

    This is the body `setfam.covered_set` had before it read the members
    grouped by trace; it stays as the reference, and unlike `setfam` it
    still refuses an `s` that is not 2-good.
    """
    _require_two_good(fam, s)
    sx = s | 1 << (x - 1)
    return tuple(y for y in elements_of(s) if scan_is_two_good(fam, sx & ~(1 << (y - 1))))


def scan_flexible_pairs(fam: SetFamily, s: int) -> tuple[FlexibleWitness, ...]:
    """The flexible pairs (a, x) of the 2-good `s`, in (a, x) order, each
    with its least member of trace {a} and of trace {a, x} on s + x, both
    found by scanning all members.

    This is the body `setfam.flexible_pairs` had before it read the members
    grouped by trace; it stays as the reference.
    """
    _require_two_good(fam, s)
    out = []
    for a in elements_of(s):
        abit = 1 << (a - 1)
        for x in range(2, fam.n + 1):
            xbit = 1 << (x - 1)
            if s & xbit:
                continue
            sx = s | xbit
            plain = [f for f in fam.sets if f & sx == abit]
            with_x = [f for f in fam.sets if f & sx == abit | xbit]
            if plain and with_x:
                out.append(FlexibleWitness(a, x, min(plain, key=elements_of), min(with_x, key=elements_of)))
    return tuple(out)


def swap_normalize(fam: SetFamily) -> SetFamily:
    """Swap the labels of element 1 and the most frequent element (smallest
    id on ties), one bit at a time.

    This is the body `setfam.normalize` had before it swapped the two bits
    with one delta swap; it stays as the reference.
    """
    top, _, _ = kth_frequency(fam, 1)
    if top == 1:
        return fam
    bit1, bitt = 1, 1 << (top - 1)

    def swap(mask: int) -> int:
        has1, hast = bool(mask & bit1), bool(mask & bitt)
        mask &= ~(bit1 | bitt)
        if has1:
            mask |= bitt
        if hast:
            mask |= bit1
        return mask

    return SetFamily(fam.n, tuple(swap(s) for s in fam.sets))


def recursive_enumerate_union_closed(spec: EnumerationSpec) -> Iterator[SetFamily]:
    """Every nonempty union-closed family matching the spec, exactly once.

    Candidate sets are examined in descending bitmask order, so any union
    of an accepted set with earlier members already had its fate decided;
    a branch survives only if those unions were all accepted, which keeps
    every interior state union-closed and prunes early.
    """
    n = spec.n
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"full enumeration is limited to n <= {ENUMERATION_LIMIT}")
    ground = (1 << n) - 1

    chosen: list[int] = []
    members: set[int] = set()

    def admissible() -> bool:
        if spec.require_empty and 0 not in members:
            return False
        if spec.require_ground_coverage:
            union = 0
            for s in chosen:
                union |= s
            if union != ground:
                return False
        return True

    def walk(s: int) -> Iterator[SetFamily]:
        if s < 0:
            if chosen and admissible():
                yield SetFamily(n, tuple(sorted(chosen)))
            return
        yield from walk(s - 1)
        room = spec.max_family_size is None or len(chosen) < spec.max_family_size
        if room and all(s | t in members for t in chosen):
            chosen.append(s)
            members.add(s)
            yield from walk(s - 1)
            chosen.pop()
            members.remove(s)

    yield from walk(ground)


def recursive_verify_nagel_k2(spec: EnumerationSpec) -> VerificationReport:
    """Check f_2 >= 1/3 over every enumerated family.

    Requires ground coverage and n >= 2, so each family's ground set
    really has two elements to rank.  Violations would contradict a
    proved statement at these sizes, so any entry in `violations` means
    an implementation bug.
    """
    if spec.n < 2 or not spec.require_ground_coverage:
        raise ValueError("the k=2 check needs require_ground_coverage and n >= 2")
    report = VerificationReport()
    for fam in recursive_enumerate_union_closed(spec):
        report.families_checked += 1
        value = kth_frequency(fam, 2)[2]
        if report.min_f2 is None or value < report.min_f2:
            report.min_f2 = value
            report.witnesses = [fam]
        elif value == report.min_f2:
            report.witnesses.append(fam)
        if value < F2_FLOOR:
            report.violations.append(f"f_2 = {value} < 1/3 for {fam!r}")
    return report


# The cover-law suite as it was before `search` checked it on mask tuples
# with one memoised answer per antichain: every law recomputed from scratch
# on `SetFamily` values for every family.  It stays as the reference for the
# suite's counts and violations.

def setfamily_nonempty_subfamilies(n: int) -> Iterator[SetFamily]:
    masks = list(range(1, 1 << n))
    for bits in range(1, 1 << len(masks)):
        yield SetFamily(n, tuple(masks[i] for i in range(len(masks)) if bits >> i & 1))


def setfamily_random_nonempty_family(rng: random.Random, n: int) -> SetFamily:
    ground = (1 << n) - 1
    count = rng.randint(1, min(12, ground))
    picks = rng.sample(range(1, ground + 1), count)
    return SetFamily(n, tuple(picks))


def sorted_family(fam: SetFamily) -> SetFamily:
    """The same family with members in canonical order, as the method
    `SetFamily.sorted` gave it before only tests used it."""
    return SetFamily(fam.n, tuple(sorted(fam.sets, key=canonical_key)))


def setfamily_check_cover_laws(fam: SetFamily, report: VerificationReport) -> None:
    report.families_checked += 1
    mc = minimal_covers(fam)
    if not scan_is_antichain(mc.sets):
        report.violations.append(f"MC not an antichain for {fam!r}")
    if minimal_covers(minimal_elements(fam)) != mc:
        report.violations.append(f"MC differs from MC of minimal elements for {fam!r}")
    if scan_is_antichain(fam.sets):
        if minimal_covers(mc) != sorted_family(fam):
            report.violations.append(f"MC(MC(F)) != F for antichain {fam!r}")


def setfamily_verify_cover_theorem(n_max: int, n5_samples: int, seed: int) -> VerificationReport:
    """`search.verify_cover_theorem` on `SetFamily` values: exhaustive on
    n <= n_max, then `n5_samples` seeded families at n = 5, each checked
    with its minimal elements."""
    report = VerificationReport()
    for n in range(1, n_max + 1):
        for fam in setfamily_nonempty_subfamilies(n):
            setfamily_check_cover_laws(fam, report)
    rng = random.Random(seed)
    for _ in range(n5_samples):
        fam = setfamily_random_nonempty_family(rng, 5)
        setfamily_check_cover_laws(fam, report)
        setfamily_check_cover_laws(minimal_elements(fam), report)
    return report
