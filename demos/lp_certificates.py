"""Exact LP solving with certificates you can re-check by hand.

A tiny diet-style program is solved to a fractional optimum; its dual
weights reproduce the objective row exactly, which is the whole proof of
optimality.  An infeasible variant yields Farkas weights that combine
the rows into 0 <= negative.
"""

from fractions import Fraction as F

from ucfreq.ratlp import (
    Infeasible,
    LinearProgram,
    format_certificate,
    format_lp,
    solve,
    verify_infeasibility,
    verify_optimality,
)

lp = LinearProgram(("bread", "milk"), "min", {"bread": F(3), "milk": F(2)})
lp.add({"bread": 1, "milk": 2}, ">=", 8, label="protein")
lp.add({"bread": 2, "milk": 1}, ">=", 7, label="iron")
lp.lower = {"bread": F(0), "milk": F(0)}

print(format_lp(lp), end="")
out = solve(lp)
print()
print(format_certificate(lp, out), end="")
print()
print(f"dual re-verified:      {verify_optimality(lp, out.assignment, out.dual)}")
print()

lp.add({"bread": 1, "milk": 1}, "<=", 2, label="budget")
bad = solve(lp)
assert isinstance(bad, Infeasible)
print("after adding 'budget: bread + milk <= 2':")
print(format_certificate(lp, bad), end="")
print(f"farkas re-verified:    {verify_infeasibility(lp, bad.farkas)}")
