"""Conjecture scans and the torsion hunt.

Scans only ever produce verdicts ("consistent" / "inconsistent" /
"not-computed" per grid point): the statements being probed are conjectures,
so a failed point is a reportable observation, never an assertion failure.
Only theorem-backed checks elsewhere in the package may fail a run.

Each scan returns its report as the JSON document itself:
{"conjecture", "params", "points", "summary"}, each point a
{"params", "observed", "conjectured", "verdict"} dict from ``_point``, and
the summary the verdict counts plus the scan's own keys.

The scans over iso classes (growth, example4, torsion hunt) share one path,
``_class_groups``: the caps, then the classes of one source (the shelf census
or the pointed-map family), each with its groups H_0..H_maxdeg.  Independent
(structure, coefficient, degree) jobs can fan out to a process pool; reports
are assembled in grid order, so results do not depend on completion order.
"""

from __future__ import annotations

import math
import os
import random
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from itertools import product

from .census import canonical_form, enumerate_shelves
from .chain import preset_homology
from .errors import CapExceeded, DegreeNegative, EmptyList, OutOfRange, PracticalSizeLimit
from .families import boolean_multishelf, pointed_map
from .orbits import left_orbits
from .tables import BinaryOpTable, validate_multishelf

CONSISTENT = "consistent"
INCONSISTENT = "inconsistent"
NOT_COMPUTED = "not-computed"


def _point(params: dict, observed: dict, conjectured, holds: bool) -> dict:
    return {"params": params, "observed": observed, "conjectured": conjectured,
            "verdict": CONSISTENT if holds else INCONSISTENT}


def _report(conjecture: str, params: dict, points: list, **extra) -> dict:
    """The report document; its summary is the verdict counts plus ``extra``."""
    counts = Counter(p["verdict"] for p in points)
    summary = {"points": len(points)}
    for verdict in (CONSISTENT, INCONSISTENT, NOT_COMPUTED):
        summary[verdict] = counts[verdict]
    summary["all_consistent"] = counts[INCONSISTENT] == 0
    summary.update(extra)
    return {"conjecture": conjecture, "params": params, "points": points,
            "summary": summary}


def _usable_cpus():
    # the CPUs this process may run on (taskset, cpusets), where the OS says
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_map(fn, items, jobs):
    # never more workers than items or usable CPUs, whatever --jobs asks for
    workers = min(jobs, len(items), _usable_cpus())
    if workers <= 1:
        return [fn(item) for item in items]
    # At most 16 items per task: a round trip per item is a large share of a
    # ~2 ms class, and a fixed cap keeps a 33 425-class hunt's tasks small.
    # Short lists get about four tasks per worker, so one slow task is not
    # the whole tail.
    chunksize = min(16, math.ceil(len(items) / (4 * workers)))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


def _groups(job):
    # job = preset_homology's positional arguments
    return preset_homology(*job)


def _ranks(job_list, jobs):
    return [[g["rank"] for g in groups]
            for groups in _pool_map(_groups, job_list, jobs)]


def _class_groups(name: str, source, size: int, maxdeg: int, jobs: int) -> list:
    """Each class of ``source(size)`` with its groups H_0..H_maxdeg, in class
    order; the caps are checked before any class is built."""
    if size > 4:
        raise CapExceeded(f"{name} capped at size 4, got {size}")
    if maxdeg < 0:
        raise DegreeNegative(f"maxdeg {maxdeg} < 0")
    classes = source(size)
    groups = _pool_map(_groups, [(s, "shelf", maxdeg) for s in classes], jobs)
    return list(zip(classes, groups))


def scan_growth(size: int, maxdeg: int = 4, jobs: int = 1) -> dict:
    """rank H_{d+1} = |X| * rank H_d for d >= |X| - 2, over all iso classes.

    The summary also records how rank H_1 of each shelf compares with
    rank H_1 of its orbit quotient (the r-element x*y = y shelf, whose
    degree-1 rank is (r-1)*r): an excess in either direction witnesses the
    induced map on homology failing to be injective resp. surjective.
    """
    classes = _class_groups("growth scan", enumerate_shelves, size, maxdeg, jobs)
    start = max(size - 2, 0)
    points = []
    quotient_cmp = {"greater": 0, "equal": 0, "less": 0}
    witnesses = {}
    for shelf, groups in classes:
        ranks = [g["rank"] for g in groups]
        for d in range(start, maxdeg):
            expected = size * ranks[d]
            points.append(_point(
                {"class": list(shelf.table.flat()), "degree": d},
                {"rank": ranks[d], "rank_next": ranks[d + 1]},
                {"rank_next": expected}, ranks[d + 1] == expected,
            ))
        if maxdeg >= 1:
            r = len(left_orbits(shelf))
            quotient_h1 = (r - 1) * r
            side = (
                "greater" if ranks[1] > quotient_h1
                else "less" if ranks[1] < quotient_h1
                else "equal"
            )
            quotient_cmp[side] += 1
            witnesses.setdefault(side, list(shelf.table.flat()))
    extra = {}
    if maxdeg >= 1:
        extra = {"quotient_h1_comparison": quotient_cmp,
                 "quotient_h1_witnesses": witnesses}
    return _report("growth", {"size": size, "maxdeg": maxdeg}, points, **extra)


def pointed_map_shelves(size: int):
    """One shelf per iso class of the pointed-map family on the carrier.

    Relabelling b <-> 0 maps the family onto itself, so b = 0 already
    meets every class.  Sizes over 7, the largest measured to finish, are
    refused: size 8 would take 7^7 = 823 543 canonical forms.
    """
    if size < 0:
        raise OutOfRange(f"carrier size {size} < 0")
    if size > 7:
        raise PracticalSizeLimit(
            f"pointed-map enumeration of size {size} exceeds the guard 7"
        )
    if size == 0:
        return []
    out = {}
    # g(0) = 0 and g(x) != 0 elsewhere
    for g in product([0], *[range(1, size)] * (size - 1)):
        shelf = pointed_map(0, g)
        out.setdefault(canonical_form(shelf.table).flat(), shelf)
    return [out[k] for k in sorted(out)]


def is_pointed_map_type(table: BinaryOpTable) -> bool:
    """Is the table a :func:`pointed_map` shelf, x*y = (g(y) if x=b else y)
    for some b, with g its row b?

    It is when every row but at most one row b is the identity map and
    g^-1(b) = {b}; such a table is always a shelf.  The shape test is
    isomorphism-invariant, so it can be applied to any class representative
    directly.
    """
    rows = table.entries
    identity = tuple(range(len(rows)))
    moved = [b for b, row in enumerate(rows) if row != identity]
    # with no moved row, every b fits with g = id
    return len(moved) <= 1 and all(
        rows[b][b] == b and rows[b].count(b) == 1 for b in moved
    )


def scan_example4(size: int, maxdeg: int = 3, jobs: int = 1) -> dict:
    """Pointed-map family rank formula |X|^(d-1)*(2+(|X|+1)*(r-2)), d >= 1."""
    classes = _class_groups("example4 scan", pointed_map_shelves, size, maxdeg, jobs)
    points = []
    for shelf, groups in classes:
        r = len(left_orbits(shelf))
        for d in range(1, maxdeg + 1):
            rank = groups[d]["rank"]
            expected = size ** (d - 1) * (2 + (size + 1) * (r - 2))
            points.append(_point(
                {"class": list(shelf.table.flat()), "orbits": r, "degree": d},
                {"rank": rank}, {"rank": expected}, rank == expected,
            ))
    return _report("example4", {"size": size, "maxdeg": maxdeg}, points)


def _boolean_conjectured(omega: int, coeffs, degree: int):
    a0, a1, a2 = coeffs
    is_zero = coeffs == (0, 0, 0)
    is_ray = a0 != 0 and a1 == -a0 and a2 == -a0
    if degree == 0:
        if is_zero:
            return 2 ** omega - 1
        if is_ray:
            return omega
        return 0
    if is_zero:
        return 2 ** (omega * (degree + 1))
    if is_ray:
        return omega * 2 ** degree
    if a0 + a1 + a2 == 0:
        return 1
    return 0


def scan_boolean(omega: int, radius: int = 1, maxdeg: int = 3,
                 augmented: bool = True, jobs: int = 1) -> dict:
    """The subset multi-shelf (identity, meet, join) over a coefficient grid."""
    if omega > 2:
        raise CapExceeded(f"boolean scan capped at |Omega| = 2, got {omega}")
    if radius < 0:
        raise EmptyList(f"the coefficient grid needs radius >= 0, got {radius}")
    points = (2 * radius + 1) ** 3
    if points > 1000:
        raise CapExceeded(
            f"radius {radius} gives {points} coefficient vectors, over the cap 1000"
        )
    four = boolean_multishelf(omega)
    ms = validate_multishelf(four.ops[:3])
    grid = list(product(range(-radius, radius + 1), repeat=3))
    rank_lists = _ranks(
        [(ms, "multi", maxdeg, coeffs, augmented) for coeffs in grid], jobs
    )
    points = []
    for coeffs, ranks in zip(grid, rank_lists):
        conjectured = [
            _boolean_conjectured(omega, coeffs, d) for d in range(maxdeg + 1)
        ]
        points.append(_point({"coefficients": list(coeffs)}, {"ranks": ranks},
                             {"ranks": conjectured}, ranks == conjectured))
    return _report(
        "boolean",
        {"omega": omega, "radius": radius, "maxdeg": maxdeg, "augmented": augmented},
        points,
    )


def scan_hyperplane(ms, samples: int = 25, bound: int = 2, maxdeg: int = 2,
                    seed: int = 0, augmented: bool = True,
                    jobs: int = 1) -> dict:
    """Probe whether the rank sequence is generically coefficient-independent.

    Draws nonzero integer coefficient vectors from a box, computes the rank
    sequence for each, takes the most common sequence as the generic one,
    and flags the samples that deviate ("inconsistent" = exceptional; such
    points do not refute anything, they are the conjectured thin set).
    """
    if samples > 200:
        raise CapExceeded(f"sample count {samples} exceeds the cap 200")
    if samples < 1 or bound < 1:
        raise EmptyList(
            f"the probe needs samples >= 1 and bound >= 1, "
            f"got samples {samples} and bound {bound}"
        )
    nops = len(ms.ops)
    rng = random.Random(seed)
    # distinct nonzero draws in draw order; the box holds (2b+1)^nops - 1
    wanted = min(samples, (2 * bound + 1) ** nops - 1)
    vectors = {}
    while len(vectors) < wanted:
        vec = tuple(rng.randint(-bound, bound) for _ in range(nops))
        if any(vec):
            vectors[vec] = None
    rank_lists = _ranks(
        [(ms, "multi", maxdeg, vec, augmented) for vec in vectors], jobs
    )
    counts = Counter(tuple(r) for r in rank_lists)
    top = max(counts.values())
    generic = sorted(seq for seq, c in counts.items() if c == top)[0]
    points = [
        _point({"coefficients": list(vec)}, {"ranks": ranks},
               {"ranks": list(generic)}, tuple(ranks) == generic)
        for vec, ranks in zip(vectors, rank_lists)
    ]
    return _report(
        "hyperplane",
        {
            "size": ms.size,
            "operations": nops,
            "samples": len(vectors),
            "bound": bound,
            "maxdeg": maxdeg,
            "seed": seed,
            "augmented": augmented,
        },
        points,
        generic_ranks=list(generic),
        exceptional_fraction=(len(vectors) - top) / len(vectors),
    )


def torsion_hunt(size: int, maxdeg: int = 1, jobs: int = 1) -> dict:
    """List every iso class with torsion in degrees <= maxdeg.

    Each find is flagged when the class has the pointed-map shape of the
    known torsion examples.
    """
    classes = _class_groups("torsion hunt", enumerate_shelves, size, maxdeg, jobs)
    points = []
    for shelf, groups in classes:
        torsions = [g["torsion"] for g in groups]
        if not any(torsions):
            continue
        # a find conjectures nothing, so it is consistent
        points.append(_point(
            {"class": list(shelf.table.flat())},
            {"torsion_by_degree": {str(d): t for d, t in enumerate(torsions) if t},
             "pointed_map_type": is_pointed_map_type(shelf.table)},
            None, True,
        ))
    return _report(
        "torsion-hunt", {"size": size, "maxdeg": maxdeg}, points,
        classes_scanned=len(classes), classes_with_torsion=len(points),
    )
