"""Shared test oracles: symmetry-reduced LP models, random program generators,
the split-tableau simplex, the subset scan for minimal transversals, the
pairwise scan for minimal elements, the recursive union-closed
enumerator with its f_2 check, and the cover-law suite on `SetFamily`
values.

The reduced models are companions to the full base program, solved only by
`brute_force_optimum` (basic-point enumeration), never by the simplex path,
so agreement between the two is a genuine cross-check.  The reduction is
sound because program and objective are invariant under permuting the
collapsed roles: averaging an optimal point over the orbit preserves
feasibility and objective, so some optimum is orbit-constant.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb
from typing import Iterator

from ucfreq.ratlp import (
    ONE,
    ZERO,
    CertificateError,
    Infeasible,
    LinearProgram,
    LpOutcome,
    Optimal,
    Unbounded,
    materialized_rows,
    verify_infeasibility,
    verify_optimality,
    verify_ray,
)
from ucfreq.search import (
    ENUMERATION_LIMIT,
    F2_FLOOR,
    PROGRESS_STRIDE,
    EnumerationSpec,
    Progress,
    VerificationReport,
)
from ucfreq.setfam import (
    SetFamily,
    elements_of,
    is_antichain,
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


def split_tableau_solve(lp: LinearProgram) -> LpOutcome:
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
            if not verify_infeasibility(lp, farkas):
                raise CertificateError("produced farkas certificate failed verification")
            return Infeasible(farkas)
        _drive_out_artificials(t)

    costrow = t.price(t.cost2)
    enter = t.run(costrow, banned=frozenset(t.artificials))
    if enter is not None:
        ray = _extract_ray(lp, t, enter)
        if not verify_ray(lp, ray):
            raise CertificateError("produced ray failed verification")
        return Unbounded(ray)

    assignment = _extract_assignment(lp, t)
    dual = _extract_dual(lp, t, costrow)
    internal = t.objective_value(t.cost2)
    value = internal if t.minimize else -internal
    if not verify_optimality(lp, assignment, dual):
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


# The enumerator and the f_2 check as they were before `search` walked the
# families with one explicit-stack DFS and incremental element counts; they
# stay as the reference for its families, their order and its reports.

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


def recursive_verify_nagel_k2(spec: EnumerationSpec, progress: Progress = None) -> VerificationReport:
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
        if progress and report.families_checked % PROGRESS_STRIDE == 0:
            progress(report.families_checked)
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


def setfamily_check_cover_laws(fam: SetFamily, report: VerificationReport) -> None:
    report.families_checked += 1
    mc = minimal_covers(fam)
    if not is_antichain(mc):
        report.violations.append(f"MC not an antichain for {fam!r}")
    if minimal_covers(minimal_elements(fam)) != mc:
        report.violations.append(f"MC differs from MC of minimal elements for {fam!r}")
    if is_antichain(fam):
        if minimal_covers(mc) != fam.sorted():
            report.violations.append(f"MC(MC(F)) != F for antichain {fam!r}")


def setfamily_verify_cover_theorem(n_max: int, n5_samples: int, seed: int) -> VerificationReport:
    """`search.verify_cover_theorem` without progress: exhaustive on
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
