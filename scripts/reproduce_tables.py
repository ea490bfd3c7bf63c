#!/usr/bin/env python3
"""Recompute the homology tables for all 3- and 4-element shelves.

Enumerates every isomorphism class, computes the free ranks of the shelf
homology in low degrees, and groups the classes by rank profile.  The
3-element profiles should be (r-1)*3^d for r = 1, 2, 3 plus one exceptional
type, and the 4-element ones (r-1)*4^d for r = 1..4 plus five exceptional
types.

Usage: python scripts/reproduce_tables.py [--size N] [--maxdeg K]
"""

import argparse
import time
from collections import Counter

from shelfhom import enumerate_shelves, left_orbits, preset_homology


def profile_table(size, maxdeg):
    t0 = time.time()
    shelves = enumerate_shelves(size)
    print(f"size {size}: {len(shelves)} isomorphism classes "
          f"(enumerated in {time.time() - t0:.1f}s)")
    t0 = time.time()
    profiles = Counter()
    orbit_counts = {}
    for shelf in shelves:
        ranks = tuple(g["rank"] for g in preset_homology(shelf, "shelf", maxdeg))
        profiles[ranks] += 1
        orbit_counts.setdefault(ranks, len(left_orbits(shelf)))
    print(f"homology through degree {maxdeg} in {time.time() - t0:.1f}s")
    width = max((len(str(list(p))) for p in profiles), default=0)
    for ranks, count in sorted(profiles.items()):
        r = orbit_counts[ranks]
        regular = tuple((r - 1) * size ** d for d in range(maxdeg + 1))
        tag = "regular (r-1)n^d" if ranks == regular else "exceptional"
        print(f"  {str(list(ranks)):<{width}}  x{count:<4d} orbits={r}  {tag}")
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=None,
                        help="only this carrier size (default: 3 then 4)")
    parser.add_argument("--maxdeg", type=int, default=3)
    args = parser.parse_args()
    sizes = [args.size] if args.size is not None else [3, 4]
    for size in sizes:
        profile_table(size, args.maxdeg)


if __name__ == "__main__":
    main()
