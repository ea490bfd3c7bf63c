import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from shelfhom.chain import boundary_matrix
from shelfhom.intmat import SparseIntMatrix, identity_matrix
from shelfhom.snf import HomologyGroup, SmithForm, smith_normal_form
from shelfhom.tables import BinaryOpTable, MultiShelf, identity_op


def snf_dense(rows):
    return smith_normal_form(SparseIntMatrix.from_dense(rows))


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
    assert smith_normal_form(identity_matrix(5)).rank == 5


def test_divisibility_chain_is_enforced():
    sf = snf_dense([[2, 0], [0, 3]])
    assert sf.factors == (1, 6)
    sf = snf_dense([[4, 0, 0], [0, 6, 0], [0, 0, 10]])
    assert sf.factors == (2, 2, 60)


def test_smith_form_validates_chain():
    with pytest.raises(ValueError):
        SmithForm((2, 3))
    with pytest.raises(ValueError):
        SmithForm((0,))
    assert SmithForm((1, 2, 4)).torsion() == (2, 4)


def test_homology_group_validates():
    with pytest.raises(ValueError):
        HomologyGroup(0, -1)
    with pytest.raises(ValueError):
        HomologyGroup(0, 0, (1,))
    g = HomologyGroup(2, 3, (2, 4))
    assert g.describe() == "Z^3 + Z/2 + Z/4"
    assert HomologyGroup(1, 0).describe() == "0"


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
    m = SparseIntMatrix.from_dense(rows)
    sf = smith_normal_form(m)
    assert sf.rank <= min(nrows, ncols)
    assert smith_normal_form(m.transpose()).factors == sf.factors


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
    rows = _dihedral_rack_boundary(3, 3).to_dense()
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


def test_triplet_csv_round_trip():
    m = SparseIntMatrix.from_dense([[0, 2], [-3, 0]])
    text = m.to_csv_text()
    assert text.splitlines()[0] == "row,col,value"
    body = [line.split(",") for line in text.strip().splitlines()[1:]]
    rebuilt = SparseIntMatrix.from_triplets(
        2, 2, [(int(r), int(c), int(v)) for r, c, v in body]
    )
    assert rebuilt == m


def test_matmul_and_add():
    a = SparseIntMatrix.from_dense([[1, 2], [0, 1]])
    b = SparseIntMatrix.from_dense([[1, 0], [3, 1]])
    assert a.matmul(b).to_dense() == [[7, 2], [3, 1]]
    assert a.add(-a).is_zero()
    assert a.sub(a).is_zero()
