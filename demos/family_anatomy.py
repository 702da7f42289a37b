"""Tour of the set-family engine on small concrete families.

Shows union closure, element frequencies, 2-good sets, trace counts,
covered elements and flexible pairs - the raw material the linear
programs are built from.
"""

from ucfreq.setfam import (
    covered_set,
    element_frequencies,
    family,
    flexible_pairs,
    format_mask,
    incidence,
    kth_frequency,
    mask_of,
    minimal_two_good_sets,
    trace_counts,
    union_closure,
)

fam = union_closure(family(5, [[2, 5], [3], [4], [1]]))
print(f"Closure of {{2,5}}, {{3}}, {{4}}, {{1}} has {len(fam)} members:")
print(" ", " ".join(format_mask(s) for s in fam.sets))
print()

freqs = element_frequencies(fam)
print("Element frequencies:", " ".join(f"{e}:{c}" for e, c in sorted(freqs.items())))
for k in (1, 2):
    element, count, ratio = kth_frequency(fam, k)
    print(f"  f_{k} = {ratio}  (element {element} in {count} of {len(fam)} sets)")
print()

print("Minimal 2-good sets (hit every member except {} and {1}, avoid 1):")
for s in minimal_two_good_sets(fam):
    print(f"  {format_mask(s)} with incidence {incidence(freqs, s)}")
print()

base = mask_of([2, 3, 4])
# covered_set and flexible_pairs take a 2-good base without checking it
assert base in minimal_two_good_sets(fam)
counts = trace_counts(fam, base)
print(f"Trace counts over S = {format_mask(base)} (q_T = members meeting S exactly in T):")
for t, q in counts.items():
    print(f"  q_{format_mask(t)} = {q}")
weighted = sum(q * t.bit_count() for t, q in counts.items())
print(f"  total = {sum(counts.values())} = |F|, weighted = {weighted} = incidence")
print()

print(f"Covered elements of S by x=5: {covered_set(fam, base, 5)}")
print("  (2 is covered: every member meeting S exactly in {2} also contains 5)")
print()

# a family where an element is flexible: two witnesses differing exactly at x
flex = union_closure(family(5, [[2], [2, 4], [3], [1]]))
flex_base = mask_of([2, 3])
assert flex_base in minimal_two_good_sets(flex)
print("Flexible pairs of S = {2,3} in the closure of {2}, {2,4}, {3}, {1}:")
for w in flexible_pairs(flex, flex_base):
    print(
        f"  a={w.a}, x={w.x}: witnesses {format_mask(w.fa)} and {format_mask(w.fa_prime)}"
    )
print("  (both meet S+x in {a} resp. {a,x}, so q-floors double along a's traces)")
