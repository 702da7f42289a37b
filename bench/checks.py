"""Output checks for the benchmark, written apart from the ucfreq sources.

Nothing here imports ucfreq: programs, families and outputs are read only
through their public fields and printed text, and every property is
recomputed with plain loops over bitmasks and `Fraction`s.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# LP certificates
# ---------------------------------------------------------------------------

def program_rows(lp) -> list[tuple[dict, str, Fraction]]:
    """Rows as certificates number them: the declared constraints in order,
    then for each variable its lower-bound row and then its upper-bound row."""
    rows = [(dict(c.coeffs), c.relation, Fraction(c.rhs)) for c in lp.constraints]
    for v in lp.variables:
        if v in lp.lower:
            rows.append(({v: Fraction(1)}, ">=", Fraction(lp.lower[v])))
        if v in lp.upper:
            rows.append(({v: Fraction(1)}, "<=", Fraction(lp.upper[v])))
    return rows


def _weights(rows, weights) -> dict[int, Fraction]:
    out = {int(i): Fraction(w) for i, w in weights.items()}
    require(all(0 <= i < len(rows) for i in out), "certificate names a row that does not exist")
    return out


def check_optimal(lp, value, assignment, dual) -> None:
    """Weak duality, exactly: a feasible point, dual weights with the right
    signs that combine the rows into the objective, and equal values."""
    rows = program_rows(lp)
    require(set(assignment) == set(lp.variables), "assignment does not cover the variables")
    x = {v: Fraction(assignment[v]) for v in lp.variables}
    for i, (coeffs, rel, rhs) in enumerate(rows):
        lhs = sum((Fraction(c) * x[v] for v, c in coeffs.items()), ZERO)
        holds = lhs <= rhs if rel == "<=" else lhs >= rhs if rel == ">=" else lhs == rhs
        require(holds, f"row {i} is violated by the reported point")
    ge_sign = 1 if lp.sense == "min" else -1
    combined = dict.fromkeys(lp.variables, ZERO)
    dual_value = ZERO
    for i, y in _weights(rows, dual).items():
        coeffs, rel, rhs = rows[i]
        require(not (rel == ">=" and ge_sign * y < 0), f"dual weight of row {i} has the wrong sign")
        require(not (rel == "<=" and ge_sign * y > 0), f"dual weight of row {i} has the wrong sign")
        for v, c in coeffs.items():
            combined[v] += y * Fraction(c)
        dual_value += y * rhs
    objective = {v: Fraction(lp.objective.get(v, 0)) for v in lp.variables}
    require(combined == objective, "dual combination differs from the objective")
    primal_value = sum((objective[v] * x[v] for v in lp.variables), ZERO)
    require(primal_value == dual_value, "primal and dual values differ")
    require(Fraction(value) == primal_value, "reported value differs from the point's value")


def check_infeasible(lp, farkas) -> None:
    """Farkas: nonnegative weights on rows oriented as <= that cancel every
    variable and leave 0 <= (a negative number)."""
    rows = program_rows(lp)
    combined = dict.fromkeys(lp.variables, ZERO)
    total = ZERO
    for i, w in _weights(rows, farkas).items():
        coeffs, rel, rhs = rows[i]
        require(rel == "==" or w >= 0, f"Farkas weight of row {i} is negative")
        flip = -1 if rel == ">=" else 1
        for v, c in coeffs.items():
            combined[v] += w * flip * Fraction(c)
        total += w * flip * rhs
    require(all(c == 0 for c in combined.values()), "Farkas combination leaves a variable")
    require(total < 0, "Farkas combination is not a contradiction")


# ---------------------------------------------------------------------------
# set families as bitmasks (element e is bit e-1)
# ---------------------------------------------------------------------------

def mask(elements) -> int:
    m = 0
    for e in elements:
        m |= 1 << (e - 1)
    return m


def elements(m: int) -> list[int]:
    return [e + 1 for e in range(m.bit_length()) if m >> e & 1]


def parse_set(text: str) -> int:
    """'{2,3}' -> bitmask; '{}' -> 0."""
    text = text.strip()
    require(text.startswith("{") and text.endswith("}"), f"not a set: {text!r}")
    body = text[1:-1]
    return mask(int(tok) for tok in body.split(",")) if body else 0


def is_union_closed(members) -> bool:
    present = set(members)
    return all(a | b in present for a in present for b in present)


def closure(generators) -> list[int]:
    """Smallest union-closed family containing the generators, sorted."""
    out = set()
    for g in generators:
        out |= {g} | {c | g for c in out}
    return sorted(out)


def kth_frequency(n: int, members, k: int) -> Fraction:
    """Share of members holding the k-th most frequent element."""
    counts = sorted((sum(1 for a in members if a >> e & 1) for e in range(n)), reverse=True)
    return Fraction(counts[k - 1], len(members))


def meets_all(s: int, members) -> bool:
    return all(s & a for a in members)


def check_minimal_transversal(s: int, targets, what: str) -> None:
    """`s` meets every target, and dropping any one element breaks that."""
    require(meets_all(s, targets), f"{what} {elements(s)} misses a set")
    for e in elements(s):
        require(not meets_all(s & ~(1 << (e - 1)), targets),
                f"{what} {elements(s)} stays one without element {e}")
