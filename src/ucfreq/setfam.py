"""Exact combinatorics of finite set families over small ground sets.

Sets are bitmasks over a ground set {1..n} (element i is bit i-1), so
intersection, union and subset tests are single machine-word operations.
All family-level operations are pure functions; `SetFamily` values are
immutable and safe to share.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

Mask = int

MAX_GROUND = 63


def mask_of(elements: Iterable[int]) -> Mask:
    """Bitmask of a collection of elements (1-based)."""
    m = 0
    for e in elements:
        if not 1 <= e <= MAX_GROUND:
            raise ValueError(f"element ids must be in 1..{MAX_GROUND}, got {e}")
        m |= 1 << (e - 1)
    return m


def elements_of(mask: Mask) -> tuple[int, ...]:
    """Ascending tuple of the elements in a bitmask."""
    out = []
    while mask:  # one step per set bit, lowest first
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


_KEY_LETTERS = str.maketrans("10", "ab")


def canonical_key(mask: Mask) -> str:
    """A sort key that orders masks exactly as `elements_of` does.

    Character i is ``a`` when element i + 1 is in the set and ``b`` when it
    is not, up to the largest element; the empty set is ``""``.  Two keys
    first differ at the smallest element in only one of the two sets, where
    the set holding it has the smaller tuple and reads ``a`` against ``b``
    or against the end of the other key.  A string compares in C, where the
    tuple key costs a Python loop per mask.
    """
    return bin(mask)[:1:-1].translate(_KEY_LETTERS) if mask else ""


def format_mask(mask: Mask) -> str:
    """Render a set as '{2,3}' ('{}' for the empty set)."""
    return "{" + ",".join(str(e) for e in elements_of(mask)) + "}"


def submasks(mask: Mask) -> Iterator[Mask]:
    """All subsets of `mask`, in increasing numeric order."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


@dataclass(frozen=True)
class SetFamily:
    """An ordered collection of distinct subsets of {1..n}."""

    n: int
    sets: tuple[Mask, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_GROUND:
            raise ValueError(f"ground-set size must be in 1..{MAX_GROUND}, got {self.n}")
        ground = (1 << self.n) - 1
        seen = set()
        for s in self.sets:
            if s < 0 or s & ~ground:
                raise ValueError(f"set {format_mask(s)} has elements outside 1..{self.n}")
            if s in seen:
                raise ValueError(f"duplicate set {format_mask(s)}")
            seen.add(s)

    def __len__(self) -> int:
        return len(self.sets)

    def __contains__(self, mask: Mask) -> bool:
        return mask in self.sets

    @property
    def ground(self) -> Mask:
        return (1 << self.n) - 1

    def member_set(self) -> frozenset[Mask]:
        return frozenset(self.sets)

    def __repr__(self) -> str:
        body = ", ".join(format_mask(s) for s in self.sets)
        return f"SetFamily(n={self.n}, {{{body}}})"


def family(n: int, sets: Iterable[Iterable[int]]) -> SetFamily:
    """Build a SetFamily from element collections, e.g. family(2, [[], [1], [1, 2]])."""
    return SetFamily(n, tuple(mask_of(s) for s in sets))


# ---------------------------------------------------------------------------
# closure and frequency structure
# ---------------------------------------------------------------------------

def _closing(masks: Iterable[Mask]) -> Iterator[set[Mask]]:
    """The union closure of `masks`, lazily, as the sets each step adds.  By
    size, a mask g outside the closure C of the masks before it adds {g} and
    {g | c : c in C} minus C, a step of |C| work; C stays union-closed."""
    closed: set[Mask] = set()
    for g in sorted(masks, key=int.bit_count):
        if g not in closed:
            new = {g | c for c in closed}
            new.add(g)
            new -= closed
            closed |= new
            yield new


def is_union_closed(fam: SetFamily) -> bool:
    """True iff A, B in the family implies A | B is too."""
    members = fam.member_set()
    return all(new <= members for new in _closing(fam.sets))


def union_closure(generators: SetFamily) -> SetFamily:
    """Smallest union-closed family containing the generators.

    The result is in canonical order.  Raises on an empty generator
    collection (there is no least union-closed superfamily to speak of).
    """
    if not generators.sets:
        raise ValueError("union_closure requires at least one generator")
    closed = (u for new in _closing(generators.sets) for u in new)
    return SetFamily(generators.n, tuple(sorted(closed, key=canonical_key)))


def element_frequencies(fam: SetFamily) -> dict[int, int]:
    """For each element of 1..n, the number of member sets containing it."""
    freqs = dict.fromkeys(range(1, fam.n + 1), 0)
    for s in fam.sets:
        while s:  # one step per set bit, lowest first
            freqs[(s & -s).bit_length()] += 1
            s &= s - 1
    return freqs


def kth_frequency(fam: SetFamily, k: int) -> tuple[int, int, Fraction]:
    """The k-th most frequent element, its count, and count/|F| exactly.

    Ties are broken toward the smallest element id.  Requires k <= n and a
    nonempty family.
    """
    if not 1 <= k <= fam.n:
        raise ValueError(f"k must be in 1..{fam.n}, got {k}")
    if not fam.sets:
        raise ValueError("kth_frequency of an empty family")
    ranked = sorted(element_frequencies(fam).items(), key=lambda kv: (-kv[1], kv[0]))
    element, count = ranked[k - 1]
    return element, count, Fraction(count, len(fam.sets))


def normalize(fam: SetFamily) -> SetFamily:
    """Relabel so the most frequent element (smallest id on ties) becomes 1.

    Swaps the labels of element 1 and the top-frequency element; all other
    labels are untouched.  Frequencies and every label-invariant quantity
    are preserved.
    """
    top, _, _ = kth_frequency(fam, 1)
    d = top - 1
    # delta swap of bits 0 and d: flip both exactly when they differ (d = 0 flips none)
    return SetFamily(fam.n, tuple(s ^ ((s ^ s >> d) & 1) * (1 | 1 << d) for s in fam.sets))


# ---------------------------------------------------------------------------
# minimal transversals
# ---------------------------------------------------------------------------

def _minimal_masks(masks: Iterable[Mask]) -> list[Mask]:
    """The inclusion-minimal masks among `masks`, without repeats, fewest
    elements first and ties by value, whatever order `masks` come in.

    In that order a mask can contain only masks with fewer elements, all of
    which come before it (two distinct masks of one size never contain each
    other), so one pass against those kept so far decides each.
    """
    kept: list[Mask] = []
    fewer: list[Mask] = []  # the kept masks with fewer elements than t
    size = 0
    for t in sorted(sorted(set(masks)), key=int.bit_count):
        if (k := t.bit_count()) > size:
            size, fewer = k, kept[:]
        for e in fewer:
            if t & e == e:
                break
        else:
            kept.append(t)
    return kept


def minimal_transversals(targets: Iterable[Mask], allowed: Mask, limit: int | None = None) -> tuple[Mask, ...]:
    """The inclusion-minimal subsets of `allowed` that meet every target, in
    canonical order.  With a `limit` it stops at the `limit + 1`-th and returns
    those found, unsorted, so `len(result) > limit` means there are more.

    No targets give `(0,)` (the empty set meets them all); a target with no
    element in `allowed` gives `()`.  Meeting a target meets its supersets,
    so `_mmcs` searches only the inclusion-minimal targets inside `allowed`,
    fewest elements first and ties by value, and the answer does not depend
    on the order or repeats of `targets`.  Over a ground set of at most 4
    elements one pass folds the targets into a 16-bit word, the antichain
    of minimal ones (bit m for mask m), and the search is memoized on that
    word: one of at most 168 antichains.  Over {1..5} with element 5
    allowed, a call that no `limit` below 10 can stop (a 5-set has at most
    C(5, 2) = 10 minimal transversals) is answered with neither a search
    nor a memo: one pass ANDs, over the targets, the word of the subsets of
    `allowed` that meet each; of those transversals it keeps the ones from
    which no element can go, and reads them off the word in canonical
    order.  Other inputs reduce the targets with `_minimal_masks` and are
    searched every time.
    """
    if 0 <= allowed < 1 << 4:
        fold = 0
        for t in targets:
            fold |= _FOLD[t & allowed]
        # a 4-set has at most 6 minimal transversals (an antichain, Sperner),
        # so a limit below 0 or of 6 or more stops nothing: one key for all
        return _small_mmcs(fold & ~(fold >> 16) & 0xFFFF, allowed,
                           limit if limit is not None and 0 <= limit < 6 else None)
    if 1 << 4 <= allowed < 1 << 5 and (limit is None or not 0 <= limit < 10):
        hit = _INSIDE[allowed]
        for t in targets:
            hit &= _MEETS[t & allowed]
        # a transversal that stays one without some element is not minimal
        l1, l2, l3, l4, l5 = _LACKS
        word = hit & ~((hit & l1) << 16 | (hit & l2) << 8 | (hit & l3) << 4 | (hit & l4) << 2 | (hit & l5) << 1)
        out = []
        while word:  # one step per set bit of a 32-bit word, highest first
            top = word.bit_length() - 1
            out.append(_AT[top])
            word ^= 1 << top
        return tuple(out)
    return _mmcs(tuple(_minimal_masks(t & allowed for t in targets)), allowed, limit)


# _ABOVE[m]: the proper supersets of m among the subsets of {1..4}, bit s for mask s;
# _FOLD[m] marks m itself in the low 16 bits and those supersets in the high 16
_ABOVE = tuple(sum(1 << s for s in range(16) if s & m == m != s) for m in range(16))
_FOLD = tuple(1 << m | above << 16 for m, above in enumerate(_ABOVE))

# The 32 subsets of {1..5} as the bits of one word: subset s sits at the
# position of its mask read backwards (element 1 the highest bit), so
# adding element i moves a subset up 16 >> (i - 1) places, and the sets of
# an antichain, highest first, come in canonical order: of two such sets,
# the one holding the smallest element of only one of them comes first.
# _INSIDE[a] marks the subsets of mask a: by doubling, those of a plus
# element i are those of a and each of them moved up for i.
_INSIDE = [1]
for _shift in (16, 8, 4, 2, 1):
    _INSIDE += [w | w << _shift for w in _INSIDE]
# _MEETS[m]: the subsets that meet m, those not inside its complement;
# _LACKS[i - 1]: the subsets without element i; _AT[p]: the subset at place p
_MEETS = tuple(_INSIDE[31] ^ _INSIDE[31 ^ m] for m in range(32))
_LACKS = tuple(_INSIDE[31 ^ 1 << i] for i in range(5))
_AT = tuple(sorted(range(32), key=_INSIDE.__getitem__))
_INSIDE = tuple(_INSIDE)


@functools.cache  # bounded: at most 168 antichains of a 4-set times 16 `allowed` times 7 limits
def _small_mmcs(antichain: int, allowed: Mask, limit: int | None) -> tuple[Mask, ...]:
    """`_mmcs` of the masks marked in `antichain` (bit m for mask m), fewest
    elements first and ties by value."""
    edges = sorted((m for m in range(16) if antichain >> m & 1), key=int.bit_count)
    return _mmcs(tuple(edges), allowed, limit)


def _mmcs(edges: tuple[Mask, ...], allowed: Mask, limit: int | None) -> tuple[Mask, ...]:
    """`minimal_transversals` of the inclusion-minimal targets `edges`, fewest
    elements first.

    The search branches on an unmet edge with the fewest candidates left,
    adding each of them in turn (the root, with every edge unmet, branches
    on a smallest edge), and keeps a branch only while every chosen element
    has a private edge (Murakami & Uno 2014, "Efficient algorithms for
    dualizing large-scale hypergraphs", the MMCS algorithm).  Once tried, a
    candidate is released to the later branches, so a set holding several
    candidates of the edge is reached only in the branch of the last of
    them.  Each minimal transversal is reached once and the work grows with
    the output, not with 2^|allowed|.
    """
    if not edges:
        return (0,)
    if not edges[0]:
        return ()
    # hits[e]: the edges that contain element bit e, as a set of index bits
    hits: dict[Mask, int] = {}
    bit = 1
    for t in edges:
        while t:
            e = t & -t
            hits[e] = hits.get(e, 0) | bit
            t ^= e
        bit <<= 1
    out: list[Mask] = []
    stop = -1 if limit is None else limit + 1
    # a branch: (chosen, private, cand, unmet), where private[j] holds the
    # edges met only by the j-th chosen element; the root is expanded first
    stack, chosen, private, cand, unmet, pick = [], 0, [], allowed, bit - 1, edges[0]
    while True:
        cand &= ~pick
        while pick:
            e = pick & -pick
            pick ^= e
            hit = hits[e]
            kept = [p & ~hit for p in private]
            if 0 not in kept:
                left = unmet & ~hit
                if left:
                    kept.append(unmet & hit)
                    stack.append((chosen | e, kept, cand, left))
                else:
                    out.append(chosen | e)
                    if len(out) == stop:
                        return tuple(out)
            cand |= e
        if not stack:
            break
        chosen, private, cand, unmet = stack.pop()
        pick, fewest = 0, cand.bit_count() + 1
        rest = unmet
        while rest:
            low = rest & -rest
            c = edges[low.bit_length() - 1] & cand
            k = c.bit_count()
            if k < fewest:
                pick, fewest = c, k
                if k <= 1:
                    break
            rest ^= low
    return tuple(out) if len(out) < 2 else tuple(sorted(out, key=canonical_key))


# ---------------------------------------------------------------------------
# 2-good sets, traces, incidence
# ---------------------------------------------------------------------------

def minimal_two_good_sets(fam: SetFamily, limit: int | None = None) -> tuple[Mask, ...]:
    """All inclusion-minimal 2-good sets, in canonical order (`limit` as in
    `minimal_transversals`).

    S is 2-good when it lies in 2..n and meets A - {1} for each member A
    outside {empty, {1}}: this is the one statement of it.  The empty set
    is returned when it is (vacuously) 2-good.
    """
    return minimal_transversals([t for a in fam.sets if (t := a & ~1)], fam.ground & ~1, limit)


def incidence(freqs: dict[int, int], s: Mask) -> int:
    """Total intersection weight, the sum of |A & s| over members A, from the
    family's `element_frequencies`: that sum is the sum of freq(e) over e in s."""
    return sum(freqs[e] for e in elements_of(s))


def members_by_trace(fam: SetFamily, s: Mask) -> dict[Mask, list[Mask]]:
    """Group the members by their trace on `s` in one pass: T -> the members
    A with A & s == T, in family order, for every subset T of `s` (2^|s|
    entries; at most |F| + 1 for a minimal 2-good `s` of a union-closed F)."""
    groups: dict[Mask, list[Mask]] = {t: [] for t in submasks(s)}
    for a in fam.sets:
        groups[a & s].append(a)
    return groups


def trace_counts(fam: SetFamily, s: Mask) -> dict[Mask, int]:
    """Count members by their trace on `s`: T -> #{A in F : A & s == T}, with
    an entry for every subset T of `s`."""
    return {t: len(group) for t, group in members_by_trace(fam, s).items()}


def keeps_two_good(groups: dict[Mask, list[Mask]], r: Mask, xbit: Mask) -> bool:
    """True iff S + x - R is 2-good, from the `members_by_trace` groups of a
    2-good S, for R inside S and x (bit `xbit`) outside S + {1}: every member
    with a nonempty trace inside R, so missing S - R, must hold x."""
    return all(a & xbit for t in submasks(r) if t for a in groups[t])


# ---------------------------------------------------------------------------
# covered elements and flexible pairs
# ---------------------------------------------------------------------------

def covered_set(fam: SetFamily, s: Mask, x: int) -> tuple[int, ...]:
    """Elements y of a 2-good `s` with `s + x - y` still 2-good.

    (Equivalently: every member whose trace on `s` is exactly {y} contains
    x; the equivalence needs `s` 2-good, a precondition not checked here.)
    Requires x in 2..n outside `s`.
    """
    if not 2 <= x <= fam.n or s >> (x - 1) & 1:
        raise ValueError(f"x must be in 2..{fam.n} outside the base set, got x={x}")
    groups = members_by_trace(fam, s)
    return tuple(y for y in elements_of(s) if keeps_two_good(groups, 1 << (y - 1), 1 << (x - 1)))


@dataclass(frozen=True)
class FlexibleWitness:
    """Witness that `a` is x-flexible for a base set S.

    `fa` and `fa_prime` are members whose traces on S + x are exactly {a}
    and {a, x}.
    """

    a: int
    x: int
    fa: Mask
    fa_prime: Mask


def flexible_pairs(fam: SetFamily, s: Mask) -> tuple[FlexibleWitness, ...]:
    """All (a, x) with a in the 2-good set `s` (a precondition not checked
    here), x outside s and not 1, such that some member meets s + x exactly
    in {a} and another in {a, x}.

    One witness per pair, with both member sets chosen canonically (least
    under the element-tuple order).  Pairs are ordered by (a, x).
    """
    groups = members_by_trace(fam, s)
    out = []
    for a in elements_of(s):
        alone = groups[1 << (a - 1)]
        some, every = 0, -1
        for f in alone:
            some |= f
            every &= f
        alone.sort(key=canonical_key)
        # x is in some member of the group and missing from another; no bit of s is
        for x in elements_of(some & ~every & ~1):
            xbit = 1 << (x - 1)
            plain = next(f for f in alone if not f & xbit)
            with_x = next(f for f in alone if f & xbit)
            out.append(FlexibleWitness(a, x, plain, with_x))
    return tuple(out)


# ---------------------------------------------------------------------------
# covers
# ---------------------------------------------------------------------------

def minimal_covers(fam: SetFamily, limit: int | None = None) -> SetFamily:
    """The family of all inclusion-minimal sets meeting every member.

    Raises if the empty set is a member (nothing can meet it).  The result
    is an antichain, in canonical order (`limit` as in `minimal_transversals`).
    """
    if 0 in fam:
        raise ValueError("family contains the empty set and has no covers")
    return SetFamily(fam.n, minimal_transversals(fam.sets, fam.ground, limit))


def minimal_elements(fam: SetFamily) -> SetFamily:
    """Members with no proper subset in the family, in canonical order."""
    return SetFamily(fam.n, tuple(sorted(_minimal_masks(fam.sets), key=canonical_key)))


def is_antichain(fam: SetFamily) -> bool:
    """True iff no member properly contains another."""
    return len(_minimal_masks(fam.sets)) == len(fam.sets)


# ---------------------------------------------------------------------------
# family file readers
# ---------------------------------------------------------------------------

def family_from_json(text: str) -> SetFamily:
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "n" not in obj or "sets" not in obj:
        raise ValueError('family JSON must be an object with "n" and "sets"')
    n, sets = obj["n"], obj["sets"]
    # `type(...) is int` turns away JSON true and false, which Python reads as 1 and 0
    if type(n) is not int:
        raise ValueError('"n" must be an integer')
    if not isinstance(sets, list) or not all(
        isinstance(s, list) and all(type(e) is int for e in s) for s in sets
    ):
        raise ValueError('"sets" must be a list of lists of integers')
    if not sets:
        raise ValueError("no sets in family input")
    return SetFamily(n, tuple(mask_of(s) for s in sets))


def family_from_text(text: str) -> SetFamily:
    """Parse the plain-text format; blank lines and '#' comments are skipped.

    The ground-set size is the largest element mentioned (at least 1).
    """
    sets = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "-":
            sets.append(0)
            continue
        try:
            els = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise ValueError(f"bad family line {line!r}") from exc
        sets.append(mask_of(els))
    if not sets:
        raise ValueError("no sets in family input")
    # the largest mask holds the largest element
    return SetFamily(max(max(sets).bit_length(), 1), tuple(sets))
