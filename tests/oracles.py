"""Independent reference implementations used only to cross-check results.

Everything here is deliberately written from scratch against the defining
formulas: dense matrices, naive pivoting, exhaustive filters.  None of it
shares code paths with the library it checks, apart from the conversions
between dense rows and the library's SparseIntMatrix at the top.
"""

from itertools import combinations, permutations, product
from math import gcd

from shelfhom.intmat import SparseIntMatrix


def from_dense(rows, ncols=None):
    """The SparseIntMatrix of a dense list of rows; ncols is needed when
    there are no rows."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged dense matrix")
    return SparseIntMatrix(len(rows), ncols, {
        (i, j): int(v) for i, row in enumerate(rows) for j, v in enumerate(row) if v})


def to_dense(mat):
    rows = [[0] * mat.ncols for _ in range(mat.nrows)]
    for (i, j), v in mat.items():
        rows[i][j] = v
    return rows


def identity_matrix(n):
    return SparseIntMatrix(n, n, {(i, i): 1 for i in range(n)})


def dense_smith_factors(rows):
    """Textbook Smith normal form on a dense list-of-lists.

    Pivots are brought to position (t, t) by swaps, rows/columns are cleared
    by repeated Euclidean steps, and the divisibility chain is repaired in a
    final pass of pairwise gcd/lcm normalization.
    """
    a = [list(map(int, row)) for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    diag = []
    t = 0
    while t < nrows and t < ncols:
        while True:
            # bring the submatrix entry of least magnitude to (t, t); doing
            # this every round keeps the coefficients from exploding
            piv = None
            for i in range(t, nrows):
                for j in range(t, ncols):
                    if a[i][j] and (
                        piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])
                    ):
                        piv = (i, j)
            if piv is None:
                break
            i, j = piv
            a[t], a[i] = a[i], a[t]
            for row in a:
                row[t], row[j] = row[j], row[t]
            dirty = False
            for i in range(t + 1, nrows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        for j in range(ncols):
                            a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, ncols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        for i in range(nrows):
                            a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        dirty = True
            if not dirty:
                break
        if a[t][t] == 0:
            break
        diag.append(abs(a[t][t]))
        t += 1
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            x, y = diag[i], diag[i + 1]
            if y % x:
                g = gcd(x, y)
                diag[i], diag[i + 1] = g, x * y // g
                changed = True
    return tuple(diag)


def det(rows):
    """Integer determinant by fraction-free Gaussian elimination (Bareiss)."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(map(int, row)) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def minor_gcd(rows, k):
    """gcd of all k x k minors (0 when every minor vanishes)."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    g = 0
    for ris in combinations(range(nrows), k):
        for cjs in combinations(range(ncols), k):
            sub = [[rows[i][j] for j in cjs] for i in ris]
            g = gcd(g, abs(det(sub)))
    return g


def brute_force_is_shelf(rows):
    n = len(rows)
    for x, y, z in product(range(n), repeat=3):
        if rows[rows[x][y]][z] != rows[rows[x][z]][rows[y][z]]:
            return False
    return True


def brute_force_is_mutually_distributive(rows_k, rows_l):
    """(x *k y) *l z == (x *l z) *k (y *l z) for one ordered pair."""
    n = len(rows_k)
    for x, y, z in product(range(n), repeat=3):
        if rows_l[rows_k[x][y]][z] != rows_k[rows_l[x][z]][rows_l[y][z]]:
            return False
    return True


def left_normed_fold(rows, xs):
    """((x_0 * x_1) * x_2) * ... * x_k on a table given by its rows."""
    acc = xs[0]
    for x in xs[1:]:
        acc = rows[acc][x]
    return acc


def all_shelf_tables_by_filter(n):
    """Every self-distributive table on n elements, by raw exhaustion."""
    tables = []
    for flat in product(range(n), repeat=n * n):
        rows = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
        if brute_force_is_shelf(rows):
            tables.append(tuple(flat))
    return tables


def relabel_flat(flat, n, perm):
    rows = [flat[i * n:(i + 1) * n] for i in range(n)]
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[perm[x]][perm[y]] = perm[rows[x][y]]
    return tuple(v for row in out for v in row)


def iso_classes_by_orbit(flats, n):
    """Partition labelled tables into iso classes by permutation orbits."""
    remaining = set(flats)
    reps = []
    perms = list(permutations(range(n)))
    while remaining:
        seed = min(remaining)
        orbit = {relabel_flat(seed, n, p) for p in perms}
        remaining -= orbit
        reps.append(min(orbit))
    return sorted(reps)


def dense_tuple_boundary(ops, coefficients, d, augmented):
    """Dense d_d of the tuple complex of sum_k c_k d^k, straight from the
    face formula: column (x_0..x_d) gets (-1)^i c_k at the row of
    (x_0 *k x_i, ..., x_{i-1} *k x_i, x_{i+1}, ..., x_d), each face folded
    from its tuple.  Rows and columns are the tuples in lexicographic order;
    degree 0 is the all-ones row when augmented and has no rows otherwise.
    ``ops`` are lists of rows."""
    n = len(ops[0])
    if d == 0:
        return [[1] * n] if augmented else []
    row_of = {tup: i for i, tup in enumerate(product(range(n), repeat=d))}
    cols = list(product(range(n), repeat=d + 1))
    mat = [[0] * len(cols) for _ in row_of]
    for j, tup in enumerate(cols):
        for rows, c in zip(ops, coefficients):
            for i in range(d + 1):
                face = tuple(rows[tup[a]][tup[i]] for a in range(i)) + tup[i + 1:]
                mat[row_of[face]][j] += c if i % 2 == 0 else -c
    return mat


def _is_degenerate(tup):
    return any(tup[i] == tup[i + 1] for i in range(len(tup) - 1))


def _nondegenerate(n, d):
    return [tup for tup in product(range(n), repeat=d + 1) if not _is_degenerate(tup)]


def dense_degeneracy_blocks(ops, coefficients, d, augmented):
    """:func:`dense_tuple_boundary`'s d_d cut by degeneracy: a tuple is
    degenerate when two adjacent entries are equal.  Returns
    {(row tuples degenerate, column tuples degenerate): (block, column
    count)}, rows and columns in lexicographic order.  Degree 0's rows (the
    augmentation's empty tuple) and columns (the 1-tuples) are all
    nondegenerate."""
    n = len(ops[0])
    full = dense_tuple_boundary(ops, coefficients, d, augmented)
    row_tuples = list(product(range(n), repeat=d)) if full else []
    col_tuples = list(product(range(n), repeat=d + 1))
    blocks = {}
    for row_deg, col_deg in product((False, True), repeat=2):
        rows = [i for i, tup in enumerate(row_tuples) if _is_degenerate(tup) == row_deg]
        cols = [j for j, tup in enumerate(col_tuples) if _is_degenerate(tup) == col_deg]
        blocks[row_deg, col_deg] = [[full[i][j] for j in cols] for i in rows], len(cols)
    return blocks


def dense_quandle_boundary(rows, d):
    """Dense d_d (d >= 1) of the quotient-by-degenerate-chains complex of a
    spindle for the differential (op - identity), on the nondegenerate
    tuples in lexicographic order."""
    n = len(rows)
    src = _nondegenerate(n, d)
    dst = {tup: i for i, tup in enumerate(_nondegenerate(n, d - 1))}
    mat = [[0] * len(src) for _ in range(len(dst))]
    for j, tup in enumerate(src):
        for i in range(d + 1):
            sign = 1 if i % 2 == 0 else -1
            starred = tuple(rows[tup[a]][tup[i]] for a in range(i)) + tup[i + 1:]
            kept = tup[:i] + tup[i + 1:]
            for target, coeff in ((starred, sign), (kept, -sign)):
                row = dst.get(target)
                if row is not None:
                    mat[row][j] += coeff
    return mat


def dense_quandle_groups(rows, maxdeg):
    """Quandle-style homology of a spindle via dense matrices.

    Reduces the :func:`dense_quandle_boundary` matrices with the dense
    Smith oracle.  Returns [(rank, torsion), ...] for degrees 0..maxdeg - 1
    (unaugmented).
    """
    n = len(rows)
    mats = [None] + [dense_quandle_boundary(rows, d) for d in range(1, maxdeg + 1)]
    out = []
    for d in range(maxdeg):
        lower_rank = (
            len(dense_smith_factors(mats[d])) if d >= 1 else 0
        )
        upper = dense_smith_factors(mats[d + 1])
        rank = len(_nondegenerate(n, d)) - lower_rank - len(upper)
        out.append((rank, tuple(f for f in upper if f > 1)))
    return out


def dense_simplicial_groups(simplices, size):
    """Unreduced simplicial homology from the sorted simplices, densely.

    ``simplices[d]`` lists the d-simplices as sorted vertex tuples, and
    (v_0..v_d) has boundary sum_i (-1)^i (v_0..v_d without v_i).  Each
    boundary is reduced with the dense Smith oracle.  Returns
    [(rank, torsion), ...] for every degree whose upper boundary is known:
    all of them when the simplices reach dimension size - 1 (a simplex on
    size vertices is the largest), else all but the top one.
    """
    factors = [()]  # degree 0 maps to nothing
    for d in range(1, len(simplices)):
        row_of = {s: i for i, s in enumerate(simplices[d - 1])}
        mat = [[0] * len(simplices[d]) for _ in simplices[d - 1]]
        for j, s in enumerate(simplices[d]):
            for i in range(d + 1):
                mat[row_of[s[:i] + s[i + 1:]]][j] += -1 if i % 2 else 1
        factors.append(dense_smith_factors(mat))
    if len(simplices) >= size:
        factors.append(())  # nothing lies above the top
    return [
        (len(simplices[d]) - len(factors[d]) - len(factors[d + 1]),
         tuple(f for f in factors[d + 1] if f > 1))
        for d in range(len(factors) - 1)
    ]
