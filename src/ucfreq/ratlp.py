"""Exact rational linear programming with machine-checkable certificates.

No float enters: programs, results and certificates are `fractions.Fraction`
values and the solver computes on integers, so optima like 141/2 are exact,
and re-solving after row permutations gives identical values.

Declared per-variable bounds are materialized as ordinary rows, appended
after the declared constraints (for each variable in declaration order:
lower bound row, then upper bound row).  `materialized_rows` exposes that
row list; certificate maps are keyed by indices into it.

`solve` reads that list off `lp` once as integer rows, row i times the lcm
L_i of its denominators, and uses them from the presolve to the certificate
check.  Presolve reads every one-variable row (declared or a bound, either
coefficient sign, any relation) as the bound B/A on its variable and keeps
the tightest, compared by cross-multiplying (the first of equally tight
rows wins); crossing bounds are refuted by their two rows alone.  Every
variable must have a lower bound l, declared or read off such a row, and
becomes the column x' = x - l >= 0; an upper bound u as well is the row x'
<= u - l, which needs no artificial.  A row after the shift times the lcm D
of its offsets' denominators is integer, with scale L_i * D; a two-phase
primal simplex with Bland's rule takes it into its dense integer tableau as
it is, and its fraction-free pivots are those rational arithmetic would
take.  Offsets and the factors that give each absorbed row its weight back
from the final reduced costs (phase 1's for a Farkas certificate) are
integer pairs: only the costs come in, once a phase, and the point, weights
and value go out, as `Fraction`s.  Every outcome is built with its
`SolveStats`, left out of outcome equality and the text and JSON formats.

Certificate conventions
-----------------------
For ``Optimal(value, assignment, dual)`` of a *minimization* program, the
dual weights y satisfy

* y_i >= 0 on ``>=`` rows, y_i <= 0 on ``<=`` rows, free on ``==`` rows,
* sum_i y_i * a_i == c  (componentwise over the variables), and
* sum_i y_i * b_i == value == c . x*,

which by weak duality proves x* optimal.  For maximization the row-sign
conventions flip (y_i >= 0 on ``<=`` rows), everything else is unchanged.

For ``Infeasible(farkas)``, orient every inequality as ``<=`` (negating
``>=`` rows); the weights are >= 0 on inequality rows, free on equality
rows, combine the left-hand sides to zero, and combine the right-hand
sides to a negative number: 0 <= negative, a contradiction.

`verify_optimality` and `verify_infeasibility` check exactly these
conditions and are independent of the solver internals.  They run on the
integer rows, with a point as integers over one positive denominator
and each weight y_i / L_i over one common denominator, so every condition is
an integer dot product compared by cross-multiplying or by its sign; nothing
is rounded.  `solve` re-checks every certificate it emits, and an optimum's
value against c . x*, on the integer rows it solved, every materialized row
included, and raises `CertificateError` if its own output fails (which would
be a bug, never a property of the input).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from math import gcd, lcm
from typing import Iterable, Mapping, NamedTuple, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

RELATIONS = ("<=", ">=", "==")


class CertificateError(RuntimeError):
    """A solver-produced certificate failed re-verification (internal bug)."""


def _rat(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class LinearConstraint:
    """A row: sum of coeffs[v] * v, related to rhs by <=, >= or ==."""

    coeffs: dict[str, Fraction]
    relation: str
    rhs: Fraction
    label: str = ""

    def __post_init__(self):
        if self.relation not in RELATIONS:
            raise ValueError(f"relation must be one of {RELATIONS}, got {self.relation!r}")
        # convert before the zero test, so a zero given as text ("0") goes too
        clean = {v: q for v, c in self.coeffs.items() if (q := _rat(c))}
        if not clean:
            raise ValueError("constraint needs at least one nonzero coefficient")
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "rhs", _rat(self.rhs))


@dataclass
class LinearProgram:
    """Constraint system over named variables with exact coefficients."""

    variables: tuple[str, ...]
    sense: str  # "min" or "max"
    objective: dict[str, Fraction] = field(default_factory=dict)
    constraints: list[LinearConstraint] = field(default_factory=list)
    lower: dict[str, Fraction] = field(default_factory=dict)
    upper: dict[str, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        self.variables = tuple(self.variables)
        self.objective = {v: _rat(c) for v, c in self.objective.items()}
        self.lower = {v: _rat(c) for v, c in self.lower.items()}
        self.upper = {v: _rat(c) for v, c in self.upper.items()}

    def validate(self) -> None:
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        declared = set(self.variables)
        for v in self.objective:
            if v not in declared:
                raise ValueError(f"objective references undeclared variable {v!r}")
        for con in self.constraints:
            for v in con.coeffs:
                if v not in declared:
                    raise ValueError(f"constraint references undeclared variable {v!r}")
        for v in list(self.lower) + list(self.upper):
            if v not in declared:
                raise ValueError(f"bound on undeclared variable {v!r}")

    def add(self, coeffs: Mapping[str, Fraction], relation: str, rhs, label: str = "") -> None:
        self.constraints.append(LinearConstraint(dict(coeffs), relation, rhs, label))


Row = tuple[dict[int, Fraction], str, Fraction]

# A materialized row times the positive lcm L of its denominators:
# (integer coefficients A, relation, integer right-hand side B, L).
IntRow = tuple[dict[int, int], str, int, int]


def _integer_rows(lp: LinearProgram) -> list[IntRow]:
    """`materialized_rows`, each times its L, read straight off `lp`: the one
    place that lays the rows out.  A bound p / q is the row q x rel p, L = q."""
    index = {name: j for j, name in enumerate(lp.variables)}
    out: list[IntRow] = []
    for con in lp.constraints:
        # numerator and denominator are properties: read each one once
        b, bq = con.rhs.as_integer_ratio()
        nums = {index[v]: c.numerator for v, c in con.coeffs.items()}
        dens = [c.denominator for c in con.coeffs.values()]
        scale = lcm(bq, *dens)
        if scale > 1:
            nums = {j: a * (scale // q) for (j, a), q in zip(nums.items(), dens)}
        out.append((nums, con.relation, b * (scale // bq), scale))
    for j, name in enumerate(lp.variables):
        for bounds, rel in ((lp.lower, ">="), (lp.upper, "<=")):
            if name in bounds:
                b, q = bounds[name].as_integer_ratio()
                out.append(({j: q}, rel, b, q))
    return out


def materialized_rows(lp: LinearProgram) -> list[Row]:
    """Constraints plus bound rows, with variables replaced by indices.

    Certificate maps (dual, farkas) are keyed by positions in this list:
    the declared constraints first, then for each variable in declaration
    order its lower-bound row and then its upper-bound row, when declared.
    It is `_integer_rows` over each row's L; labels and `format_lp` derive from it.
    """
    return [({j: Fraction(a, scale) for j, a in coeffs.items()}, rel, Fraction(rhs, scale))
            for coeffs, rel, rhs, scale in _integer_rows(lp)]


# ---------------------------------------------------------------------------
# outcomes
# ---------------------------------------------------------------------------

class SolveStats(NamedTuple):
    """The work behind one `solve` call, as an immutable record.

    `rows`, `columns` and `artificials` give the shape of the tableau after
    presolve (all 0 when presolve alone decides the program), and
    `max_bits` the largest numerator or denominator bit-length in its
    final matrix and right-hand side.  `verify_ms` is the time spent
    re-verifying the certificate, and `wall_ms` the whole call including it.
    """

    rows: int
    columns: int
    artificials: int
    phase1_pivots: int
    phase2_pivots: int
    wall_ms: float
    verify_ms: float
    max_bits: int


# `stats` is left out of equality and repr: two solves of one program are
# equal outcomes, and the certificate text and JSON never carry it.
@dataclass(frozen=True)
class Optimal:
    value: Fraction
    assignment: dict[str, Fraction]
    dual: dict[int, Fraction]
    stats: SolveStats | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Infeasible:
    farkas: dict[int, Fraction]
    stats: SolveStats | None = field(default=None, compare=False, repr=False)


# A `types.UnionType`, not `typing.Union`: typing caches its aliases, and a
# cached alias would keep every re-imported copy of this module alive.
LpOutcome = Optimal | Infeasible


# ---------------------------------------------------------------------------
# feasibility / certificate checking (independent of the solver internals)
# ---------------------------------------------------------------------------

def _row_value(coeffs: dict[int, int], x: Sequence[int]) -> int:
    return sum(c * x[j] for j, c in coeffs.items())


def _holds(lhs: int, relation: str, rhs: int) -> bool:
    return lhs <= rhs if relation == "<=" else lhs >= rhs if relation == ">=" else lhs == rhs


# The sign of a min-form dual weight on a row of each relation (any on ``==``).
_ORIENTATION = {">=": 1, "<=": -1, "==": 0}


def _over_one_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers X and one positive D with values[j] == X[j] / D."""
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def _weights_over_rows(rows: list[IntRow], weights: Mapping[int, Fraction], what: str) -> tuple[dict[int, int], int]:
    """Integers Z and one positive E with weights[i] / L_i == Z[i] / E, so
    that sum_i weights[i] * (row i) is sum_i Z[i] * (integer row i) / E.

    Weights are read in row order and zeros are dropped."""
    if any(isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < len(rows) for i in weights):
        raise ValueError(f"{what} keys must index the materialized rows")
    nonzero = [(i, w) for i in sorted(weights) if (w := _rat(weights[i])) != 0]
    e = lcm(*(w.denominator * rows[i][3] for i, w in nonzero))
    return {i: w.numerator * (e // (w.denominator * rows[i][3])) for i, w in nonzero}, e


def _point(lp: LinearProgram, assignment: Mapping[str, Fraction]) -> list[Fraction]:
    missing = set(lp.variables) - set(assignment)
    extra = set(assignment) - set(lp.variables)
    if missing or extra:
        raise ValueError(f"assignment must cover exactly the variables (missing {sorted(missing)}, extra {sorted(extra)})")
    return [_rat(assignment[name]) for name in lp.variables]


def _satisfies(rows: list[IntRow], x: list[int], d: int) -> bool:
    """Every row holds at the point x / d: sum_j A_j * x_j rel B * d."""
    return all(_holds(_row_value(coeffs, x), rel, rhs * d) for coeffs, rel, rhs, _ in rows)


def _combine(rows: list[IntRow], z: Mapping[int, int], nvars: int) -> tuple[list[int], int]:
    """sum_i Z[i] * A_i and sum_i Z[i] * B_i."""
    combined = [0] * nvars
    total = 0
    for i, zi in z.items():
        coeffs, _, rhs, _ = rows[i]
        for j, a in coeffs.items():
            combined[j] += zi * a
        total += zi * rhs
    return combined, total


# The checks on integer rows, as `solve` runs them on the rows it solved.

def _proven_value(lp: LinearProgram, rows: list[IntRow], primal, dual) -> tuple[int, int] | None:
    """The objective value at `primal` as integers (N, D), D > 0, when `dual`
    proves `primal` optimal; None when it does not."""
    x, d = _over_one_denominator(_point(lp, primal))
    if not _satisfies(rows, x, d):
        return None
    z, e = _weights_over_rows(rows, dual, "dual")
    # Z[i] has the sign of dual[i]: for min, >= 0 on >= rows and <= 0 on <= rows
    geq_sign = 1 if lp.sense == "min" else -1
    if any(geq_sign * _ORIENTATION[rows[i][1]] * zi < 0 for i, zi in z.items()):
        return None
    combined, dual_value = _combine(rows, z, len(lp.variables))
    c, g = _over_one_denominator([lp.objective.get(name, ZERO) for name in lp.variables])
    # combined / e == c / g componentwise, and (c . x) / (g * d) == dual_value / e
    if any(cz * g != cj * e for cz, cj in zip(combined, c)):
        return None
    primal_value = sum(cj * xj for cj, xj in zip(c, x))
    return (primal_value, g * d) if primal_value * e == dual_value * g * d else None


def _proves_infeasibility(lp: LinearProgram, rows: list[IntRow], farkas) -> bool:
    z, _ = _weights_over_rows(rows, farkas, "farkas")
    if any(rows[i][1] != "==" and zi < 0 for i, zi in z.items()):
        return False
    # a >= row enters negated; scaling by the positive 1 / e changes neither zero nor a sign
    oriented = {i: -zi if rows[i][1] == ">=" else zi for i, zi in z.items()}
    combined, total_rhs = _combine(rows, oriented, len(lp.variables))
    return all(v == 0 for v in combined) and total_rhs < 0


def verify_optimality(lp: LinearProgram, primal: Mapping[str, Fraction], dual: Mapping[int, Fraction]) -> bool:
    """Strong-duality check in exact arithmetic.

    True iff `primal` is feasible, `dual` satisfies the sign conventions and
    combines the rows exactly to the objective, and both objective values
    coincide.  A True result proves optimality of the primal point.
    """
    lp.validate()
    return _proven_value(lp, _integer_rows(lp), primal, dual) is not None


def verify_infeasibility(lp: LinearProgram, farkas: Mapping[int, Fraction]) -> bool:
    """True iff the weights combine the rows into the contradiction 0 <= negative.

    Inequality rows are oriented as ``<=`` (a ``>=`` row enters negated);
    weights must be nonnegative on inequality rows and may have any sign on
    equality rows.
    """
    lp.validate()
    return _proves_infeasibility(lp, _integer_rows(lp), farkas)


def verify_ray(lp: LinearProgram, ray: Mapping[str, Fraction]) -> bool:
    """True iff `ray` is a feasible direction that improves the objective forever."""
    lp.validate()
    if set(ray) - set(lp.variables):
        raise ValueError("ray keys must be declared variables")
    # the direction is x / d with d > 0: moving along it keeps every row
    # true iff every row holds at x with its right-hand side set to zero
    x, _ = _over_one_denominator([_rat(ray.get(name, ZERO)) for name in lp.variables])
    if all(v == 0 for v in x) or not _satisfies(_integer_rows(lp), x, 0):
        return False
    c, _ = _over_one_denominator([lp.objective.get(name, ZERO) for name in lp.variables])
    gain = sum(cj * xj for cj, xj in zip(c, x))
    return gain < 0 if lp.sense == "min" else gain > 0


# ---------------------------------------------------------------------------
# presolve: one-variable rows become bounds, bounds become column offsets
# ---------------------------------------------------------------------------

class _Bound(NamedTuple):
    """A one-variable row a x rel b, scaled by L to A x rel B, read as the
    bound num / den (den > 0) on x; its weight 1 / a is L / A."""

    num: int
    den: int
    row: int  # index into `materialized_rows`
    scale: int  # L
    coeff: int  # A

    def exceeds(self, other: _Bound) -> bool:
        return self.num * other.den > other.num * self.den


def _presolve_bounds(nvars: int, rows: list[IntRow]):
    """The tightest lower and upper bound of each variable, read off the
    one-variable rows; the first of equally tight rows wins."""
    lower: list[_Bound | None] = [None] * nvars
    upper = list(lower)
    for i, (coeffs, rel, rhs, scale) in enumerate(rows):
        if len(coeffs) > 1:
            continue
        ((j, a),) = coeffs.items()
        g = gcd(rhs, a) if a > 0 else -gcd(rhs, a)
        bound = _Bound(rhs // g, a // g, i, scale, a)
        if rel != ("<=" if a > 0 else ">="):  # x_j >= rhs / a
            if lower[j] is None or bound.exceeds(lower[j]):
                lower[j] = bound
        if rel != (">=" if a > 0 else "<="):  # x_j <= rhs / a
            if upper[j] is None or upper[j].exceeds(bound):
                upper[j] = bound
    return lower, upper


class _Presolved:
    """The program over the columns x'_j = x_j - l_j >= 0, one per variable,
    with the bounds folded in.

    `lower[j]` gives the offset l_j; an upper bound u_j as well adds the row
    x'_j <= u_j - l_j, whose slack needs no artificial.  The tableau gets
    those upper rows and the rows with two or more variables, as integer
    rows with their scales.  Every tableau row and every column keeps the
    materialized row it stands for and the factor p / q that turns its dual
    (for a column: its reduced cost, the dual of x'_j >= 0) into that row's
    weight, so certificates are keyed to `materialized_rows`.
    """

    def __init__(self, lp: LinearProgram, rows: list[IntRow], lower: list[_Bound], upper: list[_Bound | None]):
        self.nmaterialized = len(rows)
        self.lower = lower
        cost = [lp.objective.get(name, ZERO) for name in lp.variables]
        self.cost: list[Fraction] = cost if lp.sense == "min" else [-c for c in cost]

        boxed = {hi.row: j for j, hi in enumerate(upper) if hi is not None}
        self.rows: list[IntRow] = []  # in materialized order
        self.row_origin: list[tuple[int, int, int]] = []
        for i, (coeffs, rel, rhs, scale) in enumerate(rows):
            if i in boxed:
                j = boxed[i]
                lo, hi = lower[j], upper[j]
                self.rows.append(({j: lo.den * hi.den}, "<=", hi.num * lo.den - lo.num * hi.den, lo.den * hi.den))
                self.row_origin.append((i, hi.scale, hi.coeff))
            elif len(coeffs) > 1:
                d = lcm(*(lower[j].den for j in coeffs))
                rhs = rhs * d - sum(a * lower[j].num * (d // lower[j].den) for j, a in coeffs.items())
                self.rows.append(({j: a * d for j, a in coeffs.items()}, rel, rhs, scale * d))
                self.row_origin.append((i, 1, 1))

    def point(self, values: Mapping[int, int], d: int) -> list[Fraction]:
        """x from the column values x'_j = values[j] / d (absent columns are 0)."""
        return [Fraction(lo.num * d + lo.den * values.get(j, 0), lo.den * d) for j, lo in enumerate(self.lower)]

    def weights(self, t: _Tableau, priced: tuple[list[int], int], costrow: list[int]) -> list[Fraction]:
        """Min-form dual weights on the materialized rows, from `costrow` and the (C, den) `price` gave."""
        C, den = priced
        # column c's reduced cost is costrow[c] * scale[c] / (den * d), and every
        # factor p / q of row i has the row's own coefficient (or 1) as q
        y, q_of = [0] * self.nmaterialized, [1] * self.nmaterialized
        for r, (i, p, q) in enumerate(self.row_origin):
            col = t.initial_identity_column(r)
            y[i] += t.sigma[r] * p * t.scale[col] * (C[col] * t.d - costrow[col])
            q_of[i] = q
        for j, lo in enumerate(self.lower):
            if costrow[j] != 0:  # the column of x'_j, scale 1
                y[lo.row], q_of[lo.row] = y[lo.row] + lo.scale * costrow[j], lo.coeff
        return [Fraction(v, q * den * t.d) if v else ZERO for v, q in zip(y, q_of)]


def _farkas(rows: list[IntRow], y: list[Fraction]) -> dict[int, Fraction]:
    """Min-form weights that prove 0 < 0, oriented as `verify_infeasibility`
    reads them: every inequality as ``<=``."""
    return {i: w if rows[i][1] == ">=" else -w for i, w in enumerate(y) if w != 0}


# ---------------------------------------------------------------------------
# the simplex solver
# ---------------------------------------------------------------------------

class _Tableau:
    """Dense equality-form integer tableau. Columns: the presolved x', slacks, artificials.

    Row i comes as integers with the `scale` it was multiplied by, and its
    slack and artificial count in units of one over that scale, so the start
    is an integer matrix on the identity basis.  Row i reads ``M[i] / d``
    with ``b[i] / d`` on the right; pivots are integer-preserving Gauss-Jordan
    (Edmonds 1967), whose divisions by d are exact.  Scaling a column divides
    its reduced cost and its ratios by one positive constant, so Bland's rule
    takes the pivots the unscaled tableau would.  A cost row is integer over
    ``den * d``, with the den that `price` finds for its phase's cost.
    """

    def __init__(self, rows: list[IntRow], cost: list[Fraction]):
        self.nrows = len(rows)
        self.sigma: list[int] = [1 if rhs >= 0 else -1 for _, _, rhs, _ in rows]
        cols = count(len(cost))
        self.slack_col = [None if rel == "==" else next(cols) for _, rel, _, _ in rows]
        # a row that reads <= once oriented has its slack as identity column
        self.art_col = [None if rel == ("<=" if sg == 1 else ">=") else next(cols)
                        for sg, (_, rel, _, _) in zip(self.sigma, rows)]
        self.ncols = ncols = next(cols)

        self.M = [[0] * ncols for _ in rows]
        self.b, self.d, self.scale = [0] * self.nrows, 1, [1] * ncols
        self.basis = [self.initial_identity_column(i) for i in range(self.nrows)]
        for i, (sg, row, (coeffs, rel, rhs, scale)) in enumerate(zip(self.sigma, self.M, rows)):
            for j, c in coeffs.items():
                row[j] = sg * c
            for col, entry in ((self.slack_col[i], sg if rel == "<=" else -sg), (self.art_col[i], 1)):
                if col is not None:
                    row[col], self.scale[col] = entry, scale
            self.b[i] = sg * rhs

        self.artificials = {c for c in self.art_col if c is not None}
        self.cost2 = list(cost) + [ZERO] * (ncols - len(cost))  # phase-2 costs, min form
        self.phase = 0  # index into `pivots`: 0 for phase 1, 1 for phase 2
        self.pivots = [0, 0]

    def price(self, cost: list[Fraction]) -> tuple[list[int], tuple[list[int], int]]:
        """The reduced costs of `cost` (given per unscaled column) over ``den * d``,
        and the integers (C, den) with cost[j] / scale[j] == C[j] / den."""
        terms = [(j, c.numerator, c.denominator * self.scale[j]) for j, c in enumerate(cost) if c]
        den = lcm(*(q for _, _, q in terms))
        C = [0] * len(cost)
        for j, p, q in terms:  # a zero cost stays 0 whatever its scale
            C[j] = p * (den // q)
        costrow = [c * self.d for c in C]
        for k, row in zip(self.basis, self.M):
            if C[k] != 0:
                costrow = [z - C[k] * v for z, v in zip(costrow, row)]
        return costrow, (C, den)

    def pivot(self, r: int, e: int, costrow: list[int]) -> None:
        self.pivots[self.phase] += 1
        M, b, d = self.M, self.b, self.d
        row, br = M[r], b[r]
        p = row[e]
        if p < 0:  # the pivot row negated keeps d > 0
            M[r] = row = [-v for v in row]
            b[r] = br = -br
            p = -p
        for i in range(self.nrows):
            f = M[i][e]
            if i == r or (f == 0 and p == d):
                continue
            M[i] = [(p * v - f * w) // d for v, w in zip(M[i], row)]
            b[i] = (p * b[i] - f * br) // d
        f = costrow[e]
        if f != 0 or p != d:
            costrow[:] = [(p * v - f * w) // d for v, w in zip(costrow, row)]
        self.d = p
        self.basis[r] = e

    def run(self, costrow: list[int], banned: frozenset[int]) -> int | None:
        """Bland pivoting to optimality; returns an entering column that has no ratio."""
        # Bland's rule terminates; the cap only turns a would-be bug into a
        # loud failure instead of a hang
        budget = 1000 * (self.nrows + self.ncols) + 10_000
        M, b, basis = self.M, self.b, self.basis
        for _ in range(budget):
            enter = next((j for j, z in enumerate(costrow) if z < 0 and j not in banned), None)
            if enter is None:
                return None
            # least ratio b[i] / a, compared crosswise; ties to the lower basis index
            best, bb, ba = None, 0, 1
            for i in range(self.nrows):
                a = M[i][enter]
                if a > 0:
                    lhs, rhs = b[i] * ba, bb * a
                    if best is None or lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                        best, bb, ba = i, b[i], a
            if best is None:
                return enter
            self.pivot(best, enter, costrow)
        raise CertificateError("pivot budget exceeded; anti-cycling rule violated")

    def initial_identity_column(self, i: int) -> int:
        col = self.art_col[i]
        return col if col is not None else self.slack_col[i]

    def max_bits(self) -> int:
        # entry j of row i, unscaled, is M[i][j] * scale[j] / (d * scale[basis[i]]);
        # the bit-length of an OR is the largest of its operands'
        best, scales = 0, self.scale + [1]
        for row, b, k in zip(self.M, self.b, self.basis):
            q = self.d * self.scale[k]
            for v, s in zip(row + [b], scales):
                if v:  # a zero is 0/1, and row i holds d over its basic column
                    g = gcd(v * s, q)
                    best |= abs(v * s) // g | q // g
        return best.bit_length()


def solve(lp: LinearProgram) -> LpOutcome:
    """Exact optimum with certificate, or Farkas infeasibility proof.

    Deterministic for a fixed program (presolve, then Bland's rule over a
    fixed column order).  Every certificate is re-verified against `lp`
    before being returned, and every outcome carries its `SolveStats`.
    Under degeneracy the assignment is whichever optimal basic point
    Bland's ordering reaches first: the value is the contract, the
    particular optimal assignment is incidental.

    Every variable needs a lower bound, declared or read off a one-variable
    row; `ValueError("variable 'x' has no lower bound")` names the first
    one without, before feasibility is looked at.  Raises
    `ValueError("program is unbounded")` when the objective of a feasible
    program improves without limit.  No program of the paper does either.
    """
    started = time.perf_counter()
    lp.validate()
    rows = _integer_rows(lp)
    lower, upper = _presolve_bounds(len(lp.variables), rows)
    if None in lower:
        raise ValueError(f"variable {lp.variables[lower.index(None)]!r} has no lower bound")
    for lo, hi in zip(lower, upper):
        if hi is not None and lo.exceeds(hi):
            # x >= l and x <= u add up to 0 <= u - l < 0
            y = [ZERO] * len(rows)  # lo.row != hi.row: one row gives equal bounds
            y[lo.row], y[hi.row] = Fraction(lo.scale, lo.coeff), Fraction(-hi.scale, hi.coeff)
            return _certified(lp, rows, Infeasible, (_farkas(rows, y),), None, started)
    pre = _Presolved(lp, rows, lower, upper)
    t = _Tableau(pre.rows, pre.cost)
    return _certified(lp, rows, *_simplex(lp, rows, pre, t), t, started)


def _simplex(lp: LinearProgram, rows: list[IntRow], pre: _Presolved, t: _Tableau) -> tuple[type, tuple]:
    """Two phases on the presolved tableau: the outcome's class and fields, over `lp`."""
    if t.artificials:
        cost1 = [ONE if j in t.artificials else ZERO for j in range(t.ncols)]
        costrow, priced = t.price(cost1)
        if t.run(costrow, banned=frozenset()) is not None:
            raise CertificateError("phase 1 cannot be unbounded")
        if any(v > 0 for k, v in zip(t.basis, t.b) if k in t.artificials):  # phase-1 value > 0
            return Infeasible, (_farkas(rows, pre.weights(t, priced, costrow)),)
        _drive_out_artificials(t)
    t.phase = 1

    costrow, priced = t.price(t.cost2)
    if t.run(costrow, banned=frozenset(t.artificials)) is not None:
        raise ValueError("program is unbounded")

    x = pre.point(dict(zip(t.basis, t.b)), t.d)  # a column of x' has scale 1
    dual = {i: w if lp.sense == "min" else -w for i, w in enumerate(pre.weights(t, priced, costrow)) if w}
    c, g = _over_one_denominator([lp.objective.get(name, ZERO) for name in lp.variables])
    xs, xd = _over_one_denominator(x)
    value = Fraction(sum(cj * xj for cj, xj in zip(c, xs)), g * xd)
    return Optimal, (value, dict(zip(lp.variables, x)), dual)


def _drive_out_artificials(t: _Tableau) -> None:
    for i in range(t.nrows):
        if t.basis[i] in t.artificials:
            # at phase-1 optimum zero, so any nonzero real entry pivots at ratio 0
            enter = next((j for j, v in enumerate(t.M[i]) if v != 0 and j not in t.artificials), None)
            if enter is not None:
                t.pivot(i, enter, [0] * t.ncols)
            # else: redundant row; the artificial stays basic at value 0


def _certified(lp: LinearProgram, rows: list[IntRow], kind: type, fields: tuple, t: _Tableau | None, started) -> LpOutcome:
    """`kind(*fields, stats)`, `Optimal` or `Infeasible`, once its certificate
    verifies against `rows`, the integer rows of `lp`; `t` is the final tableau."""
    verifying = time.perf_counter()
    if kind is Optimal:
        value, assignment, dual = fields
        # the value is what gets printed: it must be c . x = N / D, cross-multiplied
        proven = _proven_value(lp, rows, assignment, dual)
        ok = proven is not None and value.numerator * proven[1] == proven[0] * value.denominator
        what = "optimality certificate"
    else:
        ok, what = _proves_infeasibility(lp, rows, *fields), "farkas certificate"
    if not ok:
        raise CertificateError(f"produced {what} failed verification")
    done = time.perf_counter()
    wall_ms, verify_ms = (done - started) * 1000, (done - verifying) * 1000
    if t is None:  # presolve alone decided the program
        stats = SolveStats(0, 0, 0, 0, 0, wall_ms, verify_ms, 0)
    else:
        stats = SolveStats(t.nrows, t.ncols, len(t.artificials), *t.pivots, wall_ms, verify_ms, t.max_bits())
    return kind(*fields, stats)


# ---------------------------------------------------------------------------
# text serialization (audit / replay format)
# ---------------------------------------------------------------------------

def _format_terms(coeffs: Mapping[str, Fraction], order: Iterable[str]) -> str:
    parts: list[str] = []
    for name in order:
        c = coeffs.get(name, ZERO)
        if c == 0:
            continue
        mag = abs(c)
        body = name if mag == 1 else f"{mag} {name}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def row_labels(lp: LinearProgram) -> list[str]:
    """Stable names of the materialized rows, in order: a constraint's label
    (``r<i>`` when it has none), then ``lb(x)`` or ``ub(x)`` for a bound row."""
    labels = [con.label or f"r{i}" for i, con in enumerate(lp.constraints)]
    for coeffs, relation, _ in materialized_rows(lp)[len(labels):]:
        (j,) = coeffs  # a bound row has the one variable it bounds
        labels.append(f"{'lb' if relation == '>=' else 'ub'}({lp.variables[j]})")
    return labels


def format_lp(lp: LinearProgram) -> str:
    """One line per materialized row, exact rationals, deterministic order."""
    rel_text = {"<=": "<=", ">=": ">=", "==": "="}
    lines = [f"{lp.sense}: {_format_terms(lp.objective, lp.variables)}"]
    for label, (coeffs, relation, rhs) in zip(row_labels(lp), materialized_rows(lp)):
        terms = _format_terms({lp.variables[j]: c for j, c in coeffs.items()}, lp.variables)
        lines.append(f"{label}: {terms} {rel_text[relation]} {rhs}")
    return "\n".join(lines) + "\n"


def format_certificate(lp: LinearProgram, outcome: LpOutcome) -> str:
    """Audit text for an outcome; pairs with `format_lp` for replay elsewhere."""
    lines: list[str] = []
    labels = row_labels(lp)
    if isinstance(outcome, Optimal):
        lines += ["status: optimal", f"value: {outcome.value}"]
        for name in lp.variables:
            lines.append(f"{name} = {outcome.assignment[name]}")
        for i in sorted(outcome.dual):
            lines.append(f"dual {labels[i]} = {outcome.dual[i]}")
    else:
        lines.append("status: infeasible")
        for i in sorted(outcome.farkas):
            lines.append(f"farkas {labels[i]} = {outcome.farkas[i]}")
    return "\n".join(lines) + "\n"
