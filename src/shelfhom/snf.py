"""Smith normal form of sparse integer matrices, exactly over Z.

The boundary matrices this package produces are large but very sparse with
almost all entries +-1, so the computation is one elimination loop.  While a
unit entry remains, it pivots on the unit of least Markowitz cost
(row length - 1) * (column length - 1), which bounds the fill-in the pivot
can cause; a unit alone in its row or column costs 0 and causes none.  A unit
divides everything, so it can be committed in any order without breaking the
invariant-factor chain.  The unit candidates are a heap of rows with one
live entry per row, keyed by the cost of its cheapest unit when queued; a row
is queued again when a row operation creates a cheaper unit in it, and it is
rescanned when popped.  Once no unit is left, the pivot of least absolute
value is reduced instead, with divisibility of the whole remaining submatrix
enforced before it is committed, so the committed pivots form the
invariant-factor chain directly.

Only the factors are produced; the unimodular transforms are never needed
here.  All arithmetic is on Python ints, so nothing overflows.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .intmat import SparseIntMatrix


@dataclass(frozen=True)
class SmithForm:
    """Invariant factors s1 | s2 | ... | sr of an integer matrix."""

    factors: tuple[int, ...]

    def __post_init__(self):
        prev = None
        for f in self.factors:
            if f <= 0:
                raise ValueError(f"invariant factor {f} must be positive")
            if prev is not None and f % prev:
                raise ValueError(
                    f"factors {prev}, {f} break the divisibility chain"
                )
            prev = f

    @property
    def rank(self) -> int:
        return len(self.factors)

    def torsion(self) -> tuple[int, ...]:
        return tuple(f for f in self.factors if f > 1)


@dataclass(frozen=True)
class HomologyGroup:
    """Free rank plus torsion invariant factors in one degree."""

    degree: int
    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError(f"negative free rank {self.rank}")
        prev = None
        for f in self.torsion:
            if f <= 1:
                raise ValueError(f"torsion coefficient {f} must exceed 1")
            if prev is not None and f % prev:
                raise ValueError("torsion breaks the divisibility chain")
            prev = f

    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def describe(self) -> str:
        parts = []
        if self.rank:
            parts.append(f"Z^{self.rank}" if self.rank > 1 else "Z")
        parts.extend(f"Z/{f}" for f in self.torsion)
        return " + ".join(parts) if parts else "0"


def homology_from_boundaries(boundaries) -> list[HomologyGroup]:
    """H_0..H_{k-1} of the complex with boundaries d_0..d_k.

    rank H_d = dim C_d - rank d_d - rank d_{d+1}, where dim C_d is the column
    count of d_d, and the torsion of H_d is that of d_{d+1}.  Each boundary
    is reduced exactly once.
    """
    forms = [smith_normal_form(mat) for mat in boundaries]
    return [
        HomologyGroup(d, boundaries[d].ncols - forms[d].rank - forms[d + 1].rank,
                      forms[d + 1].torsion())
        for d in range(len(forms) - 1)
    ]


def smith_normal_form(mat: SparseIntMatrix) -> SmithForm:
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for (i, j), v in mat.data.items():
        rows.setdefault(i, {})[j] = v
        cols.setdefault(j, set()).add(i)
    return SmithForm(tuple(_eliminate(rows, cols)))


def _cheapest_unit(r, cols):
    """(cost, column) of the unit of least Markowitz cost in row r, or None."""
    best = None
    for j, v in r.items():
        if (v == 1 or v == -1) and (best is None or len(cols[j]) < best[0]):
            best = len(cols[j]), j
    if best is not None:
        return (len(r) - 1) * (best[0] - 1), best[1]


def _queue(units, live, i, cost):
    """Push (cost, i) on the unit heap unless row i is already queued no
    higher; live holds each row's live key, and its other entries are stale."""
    if cost < live.get(i, cost + 1):
        live[i] = cost
        heappush(units, (cost, i))


def _row_axpy(rows, cols, dst, src, c, units, live):
    """rows[dst] += c * src for a row dict src; drops dst if it becomes zero.

    If some entry became +-1, dst is queued once, at the least cost among
    those new units."""
    rdst = rows[dst]
    fresh = []
    for j, v in src.items():
        old = rdst.get(j)
        nv = (old or 0) + c * v
        if nv:
            if old is None:
                cols[j].add(dst)
            rdst[j] = nv
            if (nv == 1 or nv == -1) and old != 1 and old != -1:
                fresh.append(j)
        elif old is not None:
            del rdst[j]
            cols[j].discard(dst)
    if not rdst:
        del rows[dst]
    elif fresh:
        n = len(rdst) - 1
        _queue(units, live, dst, min(n * (len(cols[j]) - 1) for j in fresh))


def _next_unit(rows, cols, units, live):
    """Pop the unit of least Markowitz cost, or None when no unit is left.

    The heap holds rows, keyed by a cost that was true when queued.  A
    popped row is rescanned: it is dropped when it is gone or has no unit
    left, and queued again when its cheapest unit now costs more."""
    while units:
        cost, i = heappop(units)
        if live.get(i) != cost:
            continue
        del live[i]
        r = rows.get(i)
        if r is None:
            continue
        best = _cheapest_unit(r, cols)
        if best is None:
            continue
        if best[0] > cost:
            _queue(units, live, i, best[0])
            continue
        return i, best[1]
    return None


def _eliminate(rows, cols):
    """Eliminate the matrix completely; returns the pivots."""
    pivots = []
    units = []
    live = {}
    for i, r in rows.items():
        best = _cheapest_unit(r, cols)
        if best is not None:
            _queue(units, live, i, best[0])
    while rows:
        unit = _next_unit(rows, cols, units, live)
        if unit is not None:
            # clear column pj with row operations; then column pj is the
            # pivot alone, and the column operations that clear row pi
            # touch nothing else
            pi, pj = unit
            rp = rows.pop(pi)
            pv = rp.pop(pj)
            for j in rp:
                cols[j].discard(pi)
            for k in cols.pop(pj):
                if k != pi:
                    _row_axpy(rows, cols, k, rp, -rows[k].pop(pj) * pv, units, live)
            pivots.append(1)
            continue
        best = None
        for i, r in rows.items():
            for j, v in r.items():
                cand = (v if v > 0 else -v, i, j)
                if best is None or cand < best:
                    best = cand
        _, pi, pj = best
        while True:
            rp = rows[pi]
            pv = rp[pj]
            if pv < 0:
                for j in rp:
                    rp[j] = -rp[j]
                pv = -pv
            # column pass: clear column pj with row operations
            smallest = None
            for k in sorted(cols[pj]):
                if k == pi:
                    continue
                q = rows[k][pj] // pv
                if q:
                    _row_axpy(rows, cols, k, rp, -q, units, live)
                res = rows.get(k, {}).get(pj, 0)
                if res and (smallest is None or (res, k) < smallest):
                    smallest = (res, k)
            if smallest is not None:
                pi = smallest[1]
                continue
            # row pass: column pj is now the pivot alone, so column
            # operations only touch row pi
            smallest = None
            for j in [j for j in rp if j != pj]:
                q = rp[j] // pv
                if q:
                    nb = rp[j] - q * pv
                    if nb:
                        rp[j] = nb
                    else:
                        del rp[j]
                        cols[j].discard(pi)
                nb = rp.get(j, 0)
                if nb and (smallest is None or (nb, j) < smallest):
                    smallest = (nb, j)
            if smallest is not None:
                pj = smallest[1]
                continue
            if pv != 1:
                offender = None
                for i2 in sorted(rows):
                    if i2 == pi:
                        continue
                    if any(v % pv for v in rows[i2].values()):
                        offender = i2
                        break
                if offender is not None:
                    _row_axpy(rows, cols, pi, rows[offender], 1, units, live)
                    continue
            break
        pivots.append(rows[pi][pj])
        del rows[pi]
        del cols[pj]
    return pivots
