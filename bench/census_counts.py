"""Expected family counts for the census workload, made apart from ucfreq.

`ucfreq.search.enumerate_union_closed` walks candidate sets in descending
order and keeps every interior state union-closed.  This counter takes
another road: a union-closed family is determined by its union-irreducible
members (those that are not the union of the members below them), so it
walks sets of irreducible generators in ascending order, each family
exactly once, and prunes a branch as soon as its closure outgrows the cap.
For n <= 4 the counts are also checked by filtering every subfamily of the
power set.

    python3 bench/census_counts.py          # recount and compare with the file
    python3 bench/census_counts.py --write  # recount and rewrite the file
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from checks import is_union_closed

COUNTS_FILE = Path(__file__).with_name("census_counts.json")

# (n, largest family size or None); the census covers n = 2..4 in full and
# n = 5 capped, since the uncapped n = 5 census takes minutes.
CENSUS_SIZES = ((2, None), (3, None), (4, None), (5, 8))


def size_key(n: int, cap: int | None) -> str:
    return f"n={n}" if cap is None else f"n={n},cap={cap}"


def count_by_generators(n: int, cap: int | None) -> int:
    """Nonempty union-closed families on {1..n} whose members cover {1..n}
    and number at most `cap`, counted through their irreducible members."""
    ground = (1 << n) - 1
    total = 0

    def grow(last: int, gens: list[int], members: frozenset[int], union: int) -> None:
        nonlocal total
        for g in range(last + 1, ground + 1):
            below = 0
            for h in gens:
                if h & ~g == 0:
                    below |= h
            if g and below == g:
                continue  # g would be the union of generators below it
            grown = members | {g} | {c | g for c in members}
            if cap is not None and len(grown) > cap:
                continue
            if union | g == ground:
                total += 1
            gens.append(g)
            grow(g, gens, grown, union | g)
            gens.pop()

    grow(-1, [], frozenset(), 0)
    return total


def count_by_filtering(n: int, cap: int | None) -> int:
    """The same count by testing every subfamily of the power set (n <= 4)."""
    ground = (1 << n) - 1
    subsets = range(ground + 1)
    total = 0
    for bits in range(1, 1 << (ground + 1)):
        members = [s for s in subsets if bits >> s & 1]
        if cap is not None and len(members) > cap:
            continue
        union = 0
        for s in members:
            union |= s
        if union == ground and is_union_closed(members):
            total += 1
    return total


def recount() -> dict[str, int]:
    counts = {}
    for n, cap in CENSUS_SIZES:
        counts[size_key(n, cap)] = count_by_generators(n, cap)
    for n in (2, 3, 4):
        for cap in (None, 8):
            by_gens, by_filter = count_by_generators(n, cap), count_by_filtering(n, cap)
            if by_gens != by_filter:
                raise SystemExit(f"counters disagree at {size_key(n, cap)}: {by_gens} != {by_filter}")
    return counts


def load() -> dict[str, int]:
    return json.loads(COUNTS_FILE.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite census_counts.json")
    args = parser.parse_args()
    counts = recount()
    print(json.dumps(counts))
    if args.write:
        COUNTS_FILE.write_text(json.dumps(counts, indent=2) + "\n")
        return 0
    if counts != load():
        print(f"{COUNTS_FILE.name} differs from the recount", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
