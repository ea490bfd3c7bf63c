import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import shelfhom.snf
from shelfhom.chain import (
    boundary_matrix,
    build_complex,
    preset_homology,
    quandle_quotient_complex,
)
from shelfhom.errors import OutOfRange, SizeMismatch
from shelfhom.intmat import SparseIntMatrix
from shelfhom.snf import SmithForm, homology_from_boundaries, smith_normal_form
from shelfhom.tables import BinaryOpTable, MultiShelf, Shelf, identity_op


def snf_dense(rows):
    return smith_normal_form(oracles.from_dense(rows))


def test_worked_example():
    # gcd of entries 2 and |det| = 8 force the chain (2, 4); the dense
    # oracle agrees
    assert snf_dense([[2, 4], [6, 8]]).factors == (2, 4)
    assert oracles.dense_smith_factors([[2, 4], [6, 8]]) == (2, 4)


def test_identity_and_zero():
    assert snf_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).factors == (1, 1, 1)
    assert smith_normal_form(SparseIntMatrix(4, 7, {})).factors == ()
    assert smith_normal_form(SparseIntMatrix(0, 5, {})).factors == ()


def test_identity_matrix_helper():
    assert smith_normal_form(oracles.identity_matrix(5)).rank == 5


def test_divisibility_chain_is_enforced():
    sf = snf_dense([[2, 0], [0, 3]])
    assert sf.factors == (1, 6)
    sf = snf_dense([[4, 0, 0], [0, 6, 0], [0, 0, 10]])
    assert sf.factors == (2, 2, 60)
    sf = snf_dense([[4, 0, 0, 0], [0, 6, 0, 0], [0, 0, 10, 0], [0, 0, 0, 9]])
    assert sf.factors == (1, 2, 6, 180)


def test_smith_form_validates_chain():
    with pytest.raises(ValueError):
        SmithForm((2, 3))
    with pytest.raises(ValueError):
        SmithForm((0,))
    assert SmithForm((1, 2, 4)).torsion() == (2, 4)


def test_random_matrices_against_dense_oracle():
    rng = random.Random(20240817)
    for _ in range(120):
        nrows = rng.randint(0, 8)
        ncols = rng.randint(0, 8)
        rows = [
            [rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(ncols)]
            for _ in range(nrows)
        ]
        assert snf_dense(rows).factors == oracles.dense_smith_factors(rows), rows
    # mostly +-1 entries in competing rows and columns: many units of equal
    # Markowitz cost, and many heap entries gone stale by the time they pop
    for _ in range(120):
        nrows = rng.randint(1, 10)
        ncols = rng.randint(1, 10)
        density = rng.choice((0.3, 0.6, 0.9))
        rows = [
            [rng.choice((1, -1, 1, -1, 2, -3)) if rng.random() < density else 0
             for _ in range(ncols)]
            for _ in range(nrows)
        ]
        assert snf_dense(rows).factors == oracles.dense_smith_factors(rows), rows
    # mostly +-1 entries with copies of random rows and columns, some of them
    # negated, and zero rows and columns, all inserted at random places: the
    # elimination meets duplicate lines and empty lines as they come
    for _ in range(120):
        ncols = rng.randint(1, 7)
        rows = [
            [rng.choice((1, -1, 1, -1, 2)) if rng.random() < 0.6 else 0
             for _ in range(ncols)]
            for _ in range(rng.randint(1, 7))
        ]
        for _ in range(rng.randint(1, 3)):
            sign = rng.choice((1, -1))
            copy = [sign * v for v in rng.choice(rows)]
            rows.insert(rng.randint(0, len(rows)), copy)
        for _ in range(rng.randint(1, 3)):
            sign, j, at = rng.choice((1, -1)), rng.randrange(ncols), rng.randint(0, ncols)
            for r in rows:
                r.insert(at, sign * r[j])
            ncols += 1
        for _ in range(rng.randint(0, 2)):
            rows.insert(rng.randint(0, len(rows)), [0] * ncols)
        for _ in range(rng.randint(0, 2)):
            at = rng.randint(0, ncols)
            for r in rows:
                r.insert(at, 0)
            ncols += 1
        assert snf_dense(rows).factors == oracles.dense_smith_factors(rows), rows
    # no entry is +-1, so every pivot comes from Euclid and the unit pairing
    # never starts
    for _ in range(120):
        nrows = rng.randint(1, 12)
        ncols = rng.randint(1, 12)
        density = rng.choice((0.2, 0.5, 0.9))
        rows = [
            [rng.choice((2, 3, 4, 6, 9, 10)) * rng.choice((1, -1))
             if rng.random() < density else 0 for _ in range(ncols)]
            for _ in range(nrows)
        ]
        sf = snf_dense(rows)
        assert sf.factors == oracles.dense_smith_factors(rows), rows
        assert not sf.paired
    # a diagonal whose entries do not divide each other, with its rows and
    # columns shuffled: the pivots are the entries, and only the gcd/lcm
    # pass over them gives the invariant factors
    for entries in [(4, 6, 10, 9), (9, 4, 25, 6, 15), (2, 3, 5, 7, 10, 12)]:
        for _ in range(5):
            n = len(entries)
            at = rng.sample(range(n), n)
            rows = [[0] * n for _ in range(n)]
            for i, v in enumerate(entries):
                rows[at[i]][i] = v * rng.choice((1, -1))
            assert snf_dense(rows).factors == oracles.dense_smith_factors(rows), rows


def test_minor_gcd_products():
    # the product of the first k invariant factors is the gcd of the k x k
    # minors
    rng = random.Random(7)
    for _ in range(40):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        rows = [
            [rng.randint(-6, 6) if rng.random() < 0.8 else 0 for _ in range(ncols)]
            for _ in range(nrows)
        ]
        factors = snf_dense(rows).factors
        prod = 1
        for k, f in enumerate(factors, start=1):
            prod *= f
            assert prod == oracles.minor_gcd(rows, k), (rows, factors)
        if len(factors) < min(nrows, ncols):
            assert oracles.minor_gcd(rows, len(factors) + 1) == 0


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_rank_bounded_and_transpose_invariant(data):
    nrows = data.draw(st.integers(1, 6))
    ncols = data.draw(st.integers(1, 6))
    rows = [
        [data.draw(st.integers(-5, 5)) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    m = oracles.from_dense(rows)
    sf = smith_normal_form(m)
    assert sf.rank <= min(nrows, ncols)
    transposed = oracles.from_dense([list(col) for col in zip(*rows)])
    assert smith_normal_form(transposed).factors == sf.factors


def _unit_heavy(data, nrows, ncols):
    return [
        [data.draw(st.sampled_from((0, 0, 1, -1, 1, -1, 2)))
         for _ in range(ncols)]
        for _ in range(nrows)
    ]


def _scramble(rows, ops):
    """Apply unimodular row and column operations to a dense matrix."""
    a = [list(r) for r in rows]
    for axis, kind, s, t, c in ops:
        if axis == "col":
            a = [list(r) for r in zip(*a)]
        s, t = s % len(a), t % len(a)
        if kind == "add" and s != t:
            a[t] = [x + c * y for x, y in zip(a[t], a[s])]
        elif kind == "swap":
            a[s], a[t] = a[t], a[s]
        elif kind == "negate":
            a[s] = [-x for x in a[s]]
        if axis == "col":
            a = [list(r) for r in zip(*a)]
    return a


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_factors_invariant_under_unimodular_operations(data):
    nrows = data.draw(st.integers(1, 9))
    ncols = data.draw(st.integers(1, 9))
    rows = _unit_heavy(data, nrows, ncols)
    ops = data.draw(st.lists(
        st.tuples(
            st.sampled_from(("row", "col")),
            st.sampled_from(("add", "swap", "negate")),
            st.integers(0, 8),
            st.integers(0, 8),
            st.integers(-2, 2),
        ),
        max_size=30,
    ))
    factors = snf_dense(rows).factors
    assert snf_dense(_scramble(rows, ops)).factors == factors
    assert factors == oracles.dense_smith_factors(rows)


def _dihedral_rack_boundary(n, degree):
    table = BinaryOpTable.from_function(n, lambda x, y: (2 * y - x) % n)
    return boundary_matrix(
        MultiShelf((table, identity_op(n))), (1, -1), degree, False
    )


@pytest.mark.parametrize("n, degree, rank, torsion", [
    (7, 3, 300, (7,)),     # the 343 x 2401 top boundary of rack-r7
    (5, 4, 520, (5, 5)),   # the 625 x 3125 top boundary of rack-r5
])
def test_bench_size_rack_boundaries(n, degree, rank, torsion):
    sf = smith_normal_form(_dihedral_rack_boundary(n, degree))
    assert (sf.rank, sf.torsion()) == (rank, torsion)


@pytest.mark.parametrize("degree, rank", [
    (4, 205),   # 256 x 1024
    (5, 819),   # 1024 x 4096
])
def test_bench_size_shelf_boundaries(degree, rank):
    # W2, the shelf 0000 1011 2202 3330: large, and free of torsion
    table = BinaryOpTable.from_rows(
        [[0, 0, 0, 0], [1, 0, 1, 1], [2, 2, 0, 2], [3, 3, 3, 0]]
    )
    sf = smith_normal_form(boundary_matrix(MultiShelf((table,)), (1,), degree))
    assert (sf.rank, sf.torsion()) == (rank, ())


def test_factors_invariant_under_unimodular_operations_on_a_boundary():
    # R_3's rack d_3 (27 x 81), scrambled by seeded unimodular row and column
    # operations into a denser matrix with many entries beyond +-1
    rows = oracles.to_dense(_dihedral_rack_boundary(3, 3))
    factors = snf_dense(rows).factors
    assert factors == oracles.dense_smith_factors(rows)
    assert (len(factors), factors[-1]) == (20, 3)
    for seed in range(4):
        rng = random.Random(seed)
        ops = [
            (rng.choice(("row", "col")), rng.choice(("add", "swap", "negate")),
             rng.randrange(81), rng.randrange(81), rng.choice((-2, -1, 1, 2)))
            for _ in range(300)
        ]
        scrambled = _scramble(rows, ops)
        assert snf_dense(scrambled).factors == factors, seed
        assert oracles.dense_smith_factors(scrambled) == factors, seed


# sha256 of repr([(shape, factors), ...]) over the SNF calls of the homology
# walk, in call order.  Invariant factors do not depend on how an SNF finds
# them, so every correct SNF keeps these digests.
@pytest.mark.parametrize("structures, kind, maxdeg, digest", [
    ("R7", "rack", 2,
     "12920e7ed7044ccea9569208e53a3a49752c949f0bae84eaa0da0a12842602ff"),
    ("R3", "quandle", 7,
     "862a29318a80a3ca0b55169a08c2aadbf1a2c6a9149dab55e46956bd8f27933a"),
    ("R5", "rack", 3,
     "977368d93d4543d31d7ad2170d2702a203ae38408841cd561706479ab2079a0b"),
    ("classes4", "shelf", 2,
     "a3ccfead94e66f15f928e80660bd65213c8ee8411558b79a35fa00548bf6d296"),
])
def test_walk_factor_digests_are_pinned(structures, kind, maxdeg, digest,
                                        monkeypatch, request):
    if structures == "classes4":
        shelves = request.getfixturevalue("classes4")
    else:
        n = int(structures[1:])
        shelves = [Shelf(BinaryOpTable.from_function(n, lambda x, y: (2 * y - x) % n))]
    calls = []

    def recorded(mat, drop):
        sf = smith_normal_form(mat, drop)
        calls.append((mat.shape, sf.factors))
        return sf

    monkeypatch.setattr(shelfhom.snf, "smith_normal_form", recorded)
    for shelf in shelves:
        preset_homology(shelf, kind, maxdeg)
    assert hashlib.sha256(repr(calls).encode()).hexdigest() == digest


def test_unit_queue_and_pivot_order_is_pinned(monkeypatch):
    # sha256 of repr of every ("queue", row, cost) handed to _queue and every
    # ("pivot", row, column) that _next_unit returns, in call order, over the
    # walks of R7's rack d_0..d_3 and R3's quotient d_0..d_8.  The factors do
    # not depend on the pivot order, but the fill-in, the time and the rows
    # the walk pairs do: a change of pivot order must update this digest and
    # say so in CHANGES.md.
    record = []
    queue, next_unit = shelfhom.snf._queue, shelfhom.snf._next_unit

    def recorded_queue(units, live, i, cost):
        record.append(("queue", i, cost))
        queue(units, live, i, cost)

    def recorded_next_unit(rows, cols, units, live):
        unit = next_unit(rows, cols, units, live)
        if unit is not None:
            record.append(("pivot",) + unit)
        return unit

    monkeypatch.setattr(shelfhom.snf, "_queue", recorded_queue)
    monkeypatch.setattr(shelfhom.snf, "_next_unit", recorded_next_unit)
    for n, kind, maxdeg in [(7, "rack", 2), (3, "quandle", 7)]:
        shelf = Shelf(BinaryOpTable.from_function(n, lambda x, y: (2 * y - x) % n))
        preset_homology(shelf, kind, maxdeg)
    assert len(record) == 4500
    assert hashlib.sha256(repr(record).encode()).hexdigest() == \
        "f9f55b782a2039f9ac842dffefe71c939122c23c6003aff1b982be49f91254e3"


def _invariant_factors(orders):
    """The invariant factors of the direct sum of the Z/m for m in orders."""
    exponents = {}
    for m in orders:
        p = 2
        while m > 1:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e:
                exponents.setdefault(p, []).append(e)
            p += 1
    length = max(map(len, exponents.values()), default=0)
    factors = [1] * length
    for p, es in exponents.items():
        for i, e in enumerate(sorted(es)):
            factors[length - len(es) + i] *= p ** e
    return tuple(factors)


def _random_complex(rng, top):
    """Boundaries d_0..d_top of a direct sum of elementary complexes, Z in
    one degree or Z --m--> Z between two, with every C_k conjugated by a
    random unimodular matrix; and the groups H_0..H_{top-1} it must have.

    C_{-1} is the target of d_0, so a block there makes d_0 nonzero."""
    dims = {k: 0 for k in range(-1, top + 1)}
    free = [0] * top
    orders = [[] for _ in range(top)]
    maps = []  # (k, row in C_{k-1}, column in C_k, m)
    for _ in range(rng.randint(1, 9)):
        if rng.random() < 0.3:
            k = rng.randint(-1, top)
            if 0 <= k < top:
                free[k] += 1
            dims[k] += 1
        else:
            k = rng.randint(0, top)
            m = rng.choice((1, 1, 2, 3, 4, 6))
            maps.append((k, dims[k - 1], dims[k], m))
            if m > 1 and k >= 1:
                orders[k - 1].append(m)
            dims[k - 1] += 1
            dims[k] += 1
    d = {k: [[0] * dims[k] for _ in range(dims[k - 1])] for k in range(top + 1)}
    for k, i, j, m in maps:
        d[k][i][j] = m
    # a basis change U on C_k acts on d_{k+1} by rows as U and on d_k by
    # columns as U^-1: row t += c row s there is column s -= c column t here
    for k in range(-1, top + 1):
        n = dims[k]
        for _ in range(4 * n if n > 1 else 0):
            s, t = rng.sample(range(n), 2)
            kind = rng.choice(("add", "add", "swap", "negate"))
            c = rng.choice((-2, -1, 1, 2))
            if k + 1 <= top:
                rows = d[k + 1]
                if kind == "add":
                    rows[t] = [x + c * y for x, y in zip(rows[t], rows[s])]
                elif kind == "swap":
                    rows[s], rows[t] = rows[t], rows[s]
                else:
                    rows[s] = [-x for x in rows[s]]
            if k >= 0:
                for row in d[k]:
                    if kind == "add":
                        row[s] -= c * row[t]
                    elif kind == "swap":
                        row[s], row[t] = row[t], row[s]
                    else:
                        row[s] = -row[s]
    boundaries = [oracles.from_dense(d[k], dims[k]) for k in range(top + 1)]
    groups = [{"degree": k, "rank": free[k],
               "torsion": list(_invariant_factors(orders[k]))}
              for k in range(top)]
    return boundaries, groups


def test_walk_returns_the_groups_of_a_conjugated_direct_sum():
    # an oracle that shares no code with the walk: the groups are read off
    # the elementary blocks, and the conjugation hides them from the SNF
    assert _invariant_factors((2, 3, 4, 6, 6)) == (2, 6, 6, 12)
    rng = random.Random(20261018)
    for _ in range(300):
        boundaries, groups = _random_complex(rng, rng.randint(1, 4))
        for lower, upper in zip(boundaries, boundaries[1:]):
            assert lower.matmul(upper).is_zero()
        assert homology_from_boundaries(boundaries) == groups, boundaries


def test_walk_stops_pairing_at_the_first_non_unit_step():
    # d_1 has no unit entry, so its elimination starts with a Euclid step,
    # whose column operations mix the rows of d_2.
    # Its kernel is spanned by (0, 2, -3), which is d_2, so H_1 = 0; pairing
    # the unit pivots taken after that step would drop a row of d_2 and
    # leave Z/3.
    d1 = oracles.from_dense([[3, 3, 2], [4, 3, 2]])
    d2 = oracles.from_dense([[0], [2], [-3]])
    assert d1.matmul(d2).is_zero()
    assert homology_from_boundaries([SparseIntMatrix(0, 2), d1, d2]) == [
        {"degree": 0, "rank": 0, "torsion": []},
        {"degree": 1, "rank": 0, "torsion": []},
    ]


def test_dropped_rows_are_skipped_like_zero_rows():
    # smith_normal_form(m, drop) has the factors of m with the rows in drop
    # zeroed, for no row, some rows and every row; the walk hands it the
    # rows that the unit pivots of the boundary below paired
    rng = random.Random(20261020)
    for _ in range(150):
        nrows, ncols = rng.randint(2, 8), rng.randint(1, 8)
        rows = [[rng.choice((1, -1, 1, -1, 2, -3)) if rng.random() < 0.6 else 0
                 for _ in range(ncols)] for _ in range(nrows)]
        m = oracles.from_dense(rows)
        some = frozenset(rng.sample(range(nrows), rng.randint(1, nrows - 1)))
        for drop in (frozenset(), some, frozenset(range(nrows))):
            zeroed = [[0] * ncols if i in drop else row for i, row in enumerate(rows)]
            assert smith_normal_form(m, drop).factors == \
                oracles.dense_smith_factors(zeroed), (rows, drop)
        assert smith_normal_form(m, frozenset()) == smith_normal_form(m)
        assert smith_normal_form(m, frozenset(range(nrows))).factors == ()


def test_triplet_csv_round_trip():
    m = oracles.from_dense([[0, 2], [-3, 0]])
    text = m.to_csv_text()
    assert text.splitlines()[0] == "row,col,value"
    body = [line.split(",") for line in text.strip().splitlines()[1:]]
    rebuilt = SparseIntMatrix(2, 2, {(int(r), int(c)): int(v) for r, c, v in body})
    assert rebuilt == m


def test_matmul_and_add():
    a = oracles.from_dense([[1, 2], [0, 1]])
    b = oracles.from_dense([[1, 0], [3, 1]])
    assert oracles.to_dense(a.matmul(b)) == [[7, 2], [3, 1]]


def test_huge_entries_stay_exact():
    big = 2 ** 64
    a = SparseIntMatrix(2, 2, {(0, 0): big, (1, 0): 1, (1, 1): -1})
    b = SparseIntMatrix(2, 1, {(0, 0): big, (1, 0): big + 1})
    product = a.matmul(b)
    assert product.triplets() == [(0, 0, 2 ** 128), (1, 0, -1)]
    assert a.triplets() == [(0, 0, big), (1, 0, 1), (1, 1, -1)]
    assert product == SparseIntMatrix(2, 1, {(1, 0): -1, (0, 0): 2 ** 128})
    assert product != SparseIntMatrix(2, 1, {(0, 0): 2 ** 128 + 1, (1, 0): -1})


def test_dict_constructor_refuses_values_that_are_not_ints():
    # a float would reach the SNF and come out as a float factor, and a bool
    # is an int subclass that no caller means as a matrix entry
    for v in (2.0, 1.5, True, "1", None):
        with pytest.raises(OutOfRange, match=r"entry \(0,1\) is"):
            SparseIntMatrix(2, 2, {(0, 0): 2, (0, 1): v, (1, 0): 4})
    big = 2 ** 63 + 1
    m = SparseIntMatrix(2, 2, {(0, 0): big, (0, 1): 0, (1, 1): -big})
    assert m.triplets() == [(0, 0, big), (1, 1, -big)]


def test_dict_constructor_refuses_indices_that_are_not_ints():
    # a float index passed the range test and failed in array('q'), a string
    # one failed the range test itself, and True was stored as row 1
    for key in ((0.0, 1), ("0", 1), (True, 1), (1, 1.0)):
        with pytest.raises(OutOfRange, match=r"has an index that is not an int"):
            SparseIntMatrix(2, 2, {(0, 0): 2, key: 1})


def _dense_product(a, b, ncols):
    # the textbook triple loop on dense rows; shares no code with matmul
    return [[sum(row[j] * b[j][k] for j in range(len(b))) for k in range(ncols)]
            for row in a]


def _orders(m, rng):
    """m as stored, and with its entries in column order, row order and shuffled."""
    by_col = sorted(m.items(), key=lambda e: (e[0][1], e[0][0]))
    by_row = sorted(m.items())
    shuffled = list(m.items())
    rng.shuffle(shuffled)
    return [m] + [SparseIntMatrix(m.nrows, m.ncols, dict(entries))
                  for entries in (by_col, by_row, shuffled)]


def test_matmul_matches_a_dense_triple_loop():
    rng = random.Random(16)
    for _ in range(200):
        m, inner, p = (rng.randint(0, 6) for _ in range(3))
        density = rng.choice((0.2, 0.5, 0.9))
        a = [[rng.choice((1, -1, 2, -3)) if rng.random() < density else 0
              for _ in range(inner)] for _ in range(m)]
        b = [[rng.choice((1, -1, 2, -3)) if rng.random() < density else 0
              for _ in range(p)] for _ in range(inner)]
        left = oracles.from_dense(a, inner)
        expected = _dense_product(a, b, p)
        for factor in _orders(oracles.from_dense(b, p), rng):
            got = left.matmul(factor)
            assert got.shape == (m, p)
            assert oracles.to_dense(got) == expected, (a, b)
            assert 0 not in got.values
    with pytest.raises(SizeMismatch):
        SparseIntMatrix(2, 3).matmul(SparseIntMatrix(2, 3))


def test_matmul_cancels_to_zero_on_boundaries():
    # d_{k-1} d_k = 0 through many cancelling terms, for the full tuple
    # complex and the quandle quotient, whatever order d_k's entries are in
    rng = random.Random(1105)
    exceptional = Shelf(BinaryOpTable.from_rows([[0, 1, 2], [0, 1, 2], [0, 0, 2]]))
    dihedral = Shelf(BinaryOpTable.from_function(3, lambda x, y: (2 * y - x) % 3))
    rack = MultiShelf((dihedral.table, identity_op(3)))
    complexes = [
        build_complex(exceptional, (1,), 3).boundaries,
        build_complex(rack, (1, -1), 3, augmented=False).boundaries,
        quandle_quotient_complex(rack, (1, -1), 4).boundaries,
    ]
    for mats in complexes:
        for low, high in zip(mats, mats[1:]):
            dense = _dense_product(oracles.to_dense(low), oracles.to_dense(high), high.ncols)
            assert all(v == 0 for row in dense for v in row)
            for factor in _orders(high, rng):
                product = low.matmul(factor)
                assert product.shape == (low.nrows, high.ncols)
                assert product.is_zero()
