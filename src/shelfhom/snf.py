"""Smith normal form of sparse integer matrices, exactly over Z.

The boundary matrices this package produces are large but very sparse with
almost all entries +-1, so the computation is one elimination loop.  While a
unit entry remains, it pivots on the unit of least Markowitz cost
(row length - 1) * (column length - 1), which bounds the fill-in the pivot
can cause; a unit alone in its row or column costs 0 and causes none.  The
unit candidates are a heap of rows with one live entry per row, keyed by the
cost of its cheapest unit when queued; a row is queued again when a row
operation creates a cheaper unit in it, and it is rescanned when popped.
Once no unit is left, Euclid's algorithm moves from an entry of least
absolute value to a pivot that divides its row and column.  Both kinds of
pivot leave the matrix through the same step, which puts the pivot's
absolute value on a diagonal equivalent to the matrix; a pairwise gcd/lcm
pass over the diagonal's entries above 1 then gives the invariant factors
(Newman, Integral Matrices, 1972, ch. II).

Each unit pivot (s, t) of a boundary d_k taken before the first Euclid step
is an elementary reduction of the chain complex (Kaczynski, Mrozek and
Slusarek 1998): the column operations that clear row s change only row t of
the next boundary d_{k+1}, and d_k o d_{k+1} = 0 makes that row zero in the
new basis.  So homology_from_boundaries walks d_0, d_1, ... upward and,
before reducing d_{k+1}, drops the rows that d_k's unit pivots paired; the
factors do not change.  The column operations of a Euclid step also change
rows of d_{k+1} that stay, so the pairing stops at the first such step.

Only the factors are produced; the unimodular transforms are never needed
here.  All arithmetic is on Python ints, so nothing overflows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from math import gcd, lcm

from .intmat import SparseIntMatrix


@dataclass(frozen=True)
class SmithForm:
    """Invariant factors s1 | s2 | ... | sr of an integer matrix.

    paired holds the columns of the unit pivots taken before the first
    Euclid step; it is a by-product of the elimination, not part of the
    form, so it takes no part in == or repr."""

    factors: tuple[int, ...]
    paired: frozenset = field(default=frozenset(), compare=False, repr=False)

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
    is reduced exactly once, from d_0 upward, and before its reduction
    d_{d+1} loses the rows that d_d's unit pivots paired (see the module
    docstring); it keeps its shape, so its factors and the formula are
    unchanged.  This needs d_d o d_{d+1} = 0, which the chain builders check
    and a face-closed simplicial complex satisfies by construction.
    """
    forms = []
    paired = frozenset()
    for mat in boundaries:
        if paired:
            mat = SparseIntMatrix._raw(mat.nrows, mat.ncols, {
                ij: v for ij, v in mat.data.items() if ij[0] not in paired
            })
        forms.append(smith_normal_form(mat))
        paired = forms[-1].paired
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
    diag, paired = _eliminate(rows, cols)
    # (a, b) -> (gcd, lcm) on pairs of the diagonal keeps it equivalent, and
    # one pass over all pairs leaves the invariant-factor chain; units stay 1
    rest = [d for d in diag if d > 1]
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            rest[i], rest[j] = gcd(rest[i], rest[j]), lcm(rest[i], rest[j])
    return SmithForm((1,) * (len(diag) - len(rest)) + tuple(rest), frozenset(paired))


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


def _euclid(rows, cols, units, live):
    """The pivot of a step with no unit left: from an entry of least
    absolute value, move to the least remainder in the pivot's column, then
    in its row, until the pivot divides both (Euclid's algorithm, run by row
    and column operations).  Returns it with its column cleared."""
    _, pi, pj = min((abs(v), i, j) for i, r in rows.items() for j, v in r.items())
    while True:
        rp = rows[pi]
        pv = rp[pj]
        for k in cols[pj] - {pi}:
            q = rows[k][pj] // pv
            if q:
                _row_axpy(rows, cols, k, rp, -q, units, live)
        rest = [(abs(rows[k][pj]), k) for k in cols[pj] if k != pi]
        if rest:
            pi = min(rest)[1]
            continue
        # column pj is the pivot alone now, so the column operations that
        # reduce row pi modulo the pivot touch nothing else
        for j in [j for j in rp if j != pj]:
            nb = rp[j] % pv
            if nb:
                rp[j] = nb
            else:
                del rp[j]
                cols[j].discard(pi)
        rest = [(abs(v), j) for j, v in rp.items() if j != pj]
        if not rest:
            return pi, pj
        pj = min(rest)[1]


def _eliminate(rows, cols):
    """Eliminate the matrix completely; returns the absolute values of the
    pivots, a diagonal matrix equivalent to it, and the columns of the unit
    pivots taken before the first Euclid step."""
    diag = []
    paired = []
    pairing = True
    units = []
    live = {}
    for i, r in rows.items():
        best = _cheapest_unit(r, cols)
        if best is not None:
            _queue(units, live, i, best[0])
    while rows:
        unit = _next_unit(rows, cols, units, live)
        if unit is not None:
            pi, pj = unit
            if pairing:
                paired.append(pj)
        else:
            # Euclid's column operations change rows of the next boundary
            # outside the paired ones
            pairing = False
            pi, pj = _euclid(rows, cols, units, live)
        # the pivot divides its row and column: clear column pj with row
        # operations; then column pj is the pivot alone, and the column
        # operations that clear row pi touch nothing else
        rp = rows.pop(pi)
        pv = rp.pop(pj)
        for j in rp:
            cols[j].discard(pi)
        for k in cols.pop(pj):
            if k != pi:
                _row_axpy(rows, cols, k, rp, -(rows[k].pop(pj) // pv), units, live)
        diag.append(abs(pv))
    return diag, paired
