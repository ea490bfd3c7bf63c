#!/usr/bin/env python3
"""Survey torsion in the shelf homology of all small shelves.

Runs the torsion hunt for carriers up to 4 and prints every class with a
nontrivial invariant factor, its degrees, and whether the class has the
pointed-map shape (one distinguished row, all other rows the identity).

Usage: python scripts/torsion_survey.py [--size N] [--maxdeg K]
"""

import argparse

from shelfhom.scans import torsion_hunt


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=4)
    parser.add_argument("--maxdeg", type=int, default=2)
    args = parser.parse_args()
    for size in range(1, args.size + 1):
        report = torsion_hunt(size, args.maxdeg)
        found = report["summary"]["classes_with_torsion"]
        print(f"size {size}: {report['summary']['classes_scanned']} classes, "
              f"{found} with torsion through degree {args.maxdeg}")
        for point in report["points"]:
            shape = "pointed-map" if point["observed"]["pointed_map_type"] else "other"
            print(f"  table {point['params']['class']}  "
                  f"torsion {point['observed']['torsion_by_degree']}  [{shape}]")


if __name__ == "__main__":
    main()
