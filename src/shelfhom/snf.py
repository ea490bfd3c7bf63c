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
new basis.  So homology_from_boundaries walks d_0, d_1, ... upward and
reduces d_{k+1} without the rows that d_k's unit pivots paired: the SNF
skips them as it reads the matrix, and the factors do not change.  The
column operations of a Euclid step also change rows of d_{k+1} that stay,
so the pairing stops at the first such step.

Only the factors are produced; the unimodular transforms are never needed
here.  All arithmetic is on Python ints, so nothing overflows.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import gcd, lcm

from .intmat import SparseIntMatrix
from .value import Value


class SmithForm(Value):
    """Invariant factors s1 | s2 | ... | sr of an integer matrix.

    paired holds the columns of the unit pivots taken before the first
    Euclid step; it is a by-product of the elimination, not part of the
    form, so it takes no part in ==, hash or repr."""

    __slots__ = ("factors", "paired")

    def __init__(self, factors: tuple[int, ...], paired: frozenset = frozenset()):
        self._set(factors, paired)
        prev = 1
        for f in factors:
            if f < 1:
                raise ValueError(f"factor {f} is below 1")
            if f % prev:
                raise ValueError(f"factors {prev}, {f} break the divisibility chain")
            prev = f

    def _key(self):
        return (self.factors,)

    def __repr__(self):
        return f"SmithForm(factors={self.factors!r})"

    @property
    def rank(self) -> int:
        return len(self.factors)

    def torsion(self) -> tuple[int, ...]:
        return tuple(f for f in self.factors if f > 1)


def homology_from_boundaries(boundaries) -> list[dict]:
    """H_0..H_{k-1} of the complex with boundaries d_0..d_k, as the records
    reports print: {"degree": d, "rank": free rank, "torsion": [factors]}.

    rank H_d = dim C_d - rank d_d - rank d_{d+1}, where dim C_d is the column
    count of d_d, and the torsion of H_d is that of d_{d+1}.  Each boundary
    is reduced exactly once, from d_0 upward, and the rows of d_{d+1} that
    d_d's unit pivots paired are handed to the SNF, which skips them (see
    the module docstring); the matrix keeps its shape, so its factors and
    the formula are unchanged.  This needs d_d o d_{d+1} = 0, which the
    chain builders check and a face-closed simplicial complex satisfies by
    construction.
    """
    forms = []
    paired = frozenset()
    for mat in boundaries:
        forms.append(smith_normal_form(mat, paired))
        paired = forms[-1].paired
    groups = []
    for d in range(len(forms) - 1):
        rank = boundaries[d].ncols - forms[d].rank - forms[d + 1].rank
        assert rank >= 0, f"negative free rank {rank} in degree {d}"
        groups.append({"degree": d, "rank": rank,
                       "torsion": list(forms[d + 1].torsion())})
    return groups


def smith_normal_form(mat: SparseIntMatrix, drop=frozenset()) -> SmithForm:
    """The invariant factors of mat with the rows in ``drop`` zeroed: those
    rows are skipped as the entries are read, in stored order."""
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    # no throwaway dict or set per entry
    for (i, j), v in mat.items():
        if i in drop:
            continue
        r = rows.get(i)
        if r is None:
            rows[i] = {j: v}
        else:
            r[j] = v
        c = cols.get(j)
        if c is None:
            cols[j] = {i}
        else:
            c.add(i)
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
    least = best = 0
    for j, v in r.items():
        if v == 1 or v == -1:
            m = len(cols[j])
            if not least or m < least:
                least, best = m, j
    if least:
        return (len(r) - 1) * (least - 1), best


def _queue(units, live, i, cost):
    """Push (cost, i) on the unit heap unless row i is already queued no
    higher; live holds each row's live key, and its other entries are stale."""
    if cost < live.get(i, cost + 1):
        live[i] = cost
        heappush(units, (cost, i))


def _row_axpy(rows, cols, dst, src, c, units, live):
    """rows[dst] += c * src for a row dict src; drops dst if it becomes zero.

    If some entry became +-1, dst is queued once, at the least cost among
    those new units: least is the shortest of their columns, read as each
    unit appears, since no later step of the loop changes that column."""
    rdst = rows[dst]
    least = 0
    for j, v in src.items():
        old = rdst.get(j)
        nv = (old or 0) + c * v
        if nv:
            if old is None:
                cols[j].add(dst)
            rdst[j] = nv
            if (nv == 1 or nv == -1) and old != 1 and old != -1:
                m = len(cols[j])
                if not least or m < least:
                    least = m
        elif old is not None:
            del rdst[j]
            cols[j].discard(dst)
    if not rdst:
        del rows[dst]
    elif least:
        _queue(units, live, dst, (len(rdst) - 1) * (least - 1))


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
