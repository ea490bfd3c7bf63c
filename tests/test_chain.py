import random

import pytest

import oracles
from shelfhom import snf
from shelfhom.chain import (
    basis_index,
    boundary_matrix,
    build_complex,
    degenerate_free_tuples,
    homology_groups,
    index_tuple,
    preset_complex,
    preset_homology,
    quandle_quotient_complex,
)
from shelfhom.errors import (
    DegenerateNotSubcomplex,
    DegreeNegative,
    DegreeOutOfRange,
    MemoryCapExceeded,
    NotASpindle,
    OutOfRange,
    SizeMismatch,
)
from shelfhom.families import BooleanMultiShelf, RightTrivialOp, construct_family
from shelfhom.intmat import SparseIntMatrix
from shelfhom.orbits import left_orbits
from shelfhom.tables import (
    BinaryOpTable,
    MultiShelf,
    Shelf,
    identity_op,
    inverse_op,
    right_trivial_op,
    validate_multishelf,
    validate_shelf,
)

EXCEPTIONAL3 = validate_shelf(
    BinaryOpTable.from_rows([[0, 1, 2], [0, 1, 2], [0, 0, 2]])
)
DIHEDRAL3 = validate_shelf(
    BinaryOpTable.from_function(3, lambda x, y: (2 * y - x) % 3)
)


def test_basis_index_examples():
    assert basis_index((0, 0), 3) == 0
    assert basis_index((2, 1), 3) == 7
    with pytest.raises(OutOfRange):
        basis_index((0, 3), 3)
    with pytest.raises(OutOfRange):
        index_tuple(9, 2, 3)


def test_basis_index_round_trip():
    rng = random.Random(11)
    for _ in range(1000):
        n = rng.randint(1, 5)
        d = rng.randint(0, 4)
        tup = tuple(rng.randrange(n) for _ in range(d + 1))
        assert index_tuple(basis_index(tup, n), d + 1, n) == tup


def test_boundary_degree_one_columns():
    # column of (x0, x1) carries +1 at (x1) and -1 at (x0*x1), merged when
    # they coincide
    ms = MultiShelf((EXCEPTIONAL3.table,))
    d1 = boundary_matrix(ms, (1,), 1, augmented=True)
    assert d1.shape == (3, 9)
    t = EXCEPTIONAL3.table.entries
    for x0 in range(3):
        for x1 in range(3):
            col = basis_index((x0, x1), 3)
            expected = {}
            expected[x1] = expected.get(x1, 0) + 1
            prod = t[x0][x1]
            expected[prod] = expected.get(prod, 0) - 1
            expected = {k: v for k, v in expected.items() if v}
            got = {i: v for (i, j), v in d1.data.items() if j == col}
            assert got == expected


def test_boundary_zero_coefficients_gives_zero_matrix():
    ms = construct_family(BooleanMultiShelf(1))
    for d in range(1, 4):
        m = boundary_matrix(ms, (0, 0, 0, 0), d, augmented=True)
        assert m.shape == (2 ** d, 2 ** (d + 1))
        assert m.is_zero()


def test_boundary_rack_coefficients_degree_one():
    # with coefficients (1, -1) on (op, identity): column is (x0) - (x0*x1)
    table = DIHEDRAL3.table
    ms = MultiShelf((table, identity_op(3)))
    d1 = boundary_matrix(ms, (1, -1), 1, augmented=False)
    for x0 in range(3):
        for x1 in range(3):
            col = basis_index((x0, x1), 3)
            got = {i: v for (i, j), v in d1.data.items() if j == col}
            prod = table.entries[x0][x1]
            expected = {x0: 1, prod: -1} if prod != x0 else {}
            assert got == expected


def test_boundary_degree_errors():
    ms = MultiShelf((identity_op(2),))
    with pytest.raises(DegreeNegative):
        boundary_matrix(ms, (1,), -1)
    with pytest.raises(SizeMismatch):
        boundary_matrix(ms, (1, 2), 1)


def test_augmentation_row():
    ms = MultiShelf((identity_op(3),))
    eps = boundary_matrix(ms, (1,), 0, augmented=True)
    assert eps.to_dense() == [[1, 1, 1]]
    none = boundary_matrix(ms, (1,), 0, augmented=False)
    assert none.shape == (0, 3)


def test_build_complex_verifies_dd_zero():
    cx = build_complex(EXCEPTIONAL3, (1,), 3, augmented=True)
    for d in range(1, 4):
        assert cx.boundary(d - 1).matmul(cx.boundary(d)).is_zero()


def test_build_complex_memory_cap():
    with pytest.raises(MemoryCapExceeded):
        build_complex(EXCEPTIONAL3, (1,), 3, cap=10)


def test_boolean_zero_differential_complex():
    ms = construct_family(BooleanMultiShelf(1))
    cx = build_complex(ms, (0, 0, 0, 0), 3, augmented=True)
    assert not cx.boundary(0).is_zero()  # the augmentation row survives
    for d in range(1, 4):
        assert cx.boundary(d).is_zero()
    # homology is then the full chain group away from the augmentation
    assert [g.rank for g in homology_groups(cx, 1)] == [1, 4]


def test_homology_right_trivial_matches_formula():
    for n in (2, 3):
        shelf = construct_family(RightTrivialOp(n))
        groups = preset_homology(shelf, "shelf", 3)
        assert [g.rank for g in groups] == [(n - 1) * n ** d for d in range(4)]
        assert all(g.torsion == () for g in groups)


def test_homology_h0_counts_orbits(labelled_by_size):
    for n, tables in labelled_by_size.items():
        for table in tables[:: max(1, len(tables) // 25)]:
            shelf = Shelf(table)
            g0 = preset_homology(shelf, "shelf", 0)[0]
            assert g0.rank == left_orbits(shelf).count - 1
            assert g0.torsion == ()


def test_homology_of_racks_vanishes():
    for fn in (lambda x, y: (2 * y - x) % 3, lambda x, y: (x + 1) % 3):
        shelf = validate_shelf(BinaryOpTable.from_function(3, fn))
        assert all(g.is_trivial() for g in preset_homology(shelf, "shelf", 3))


def test_homology_degree_window():
    cx = build_complex(EXCEPTIONAL3, (1,), 2, augmented=True)
    assert len(homology_groups(cx, 1)) == 2
    with pytest.raises(DegreeOutOfRange):
        homology_groups(cx, 2)
    with pytest.raises(DegreeOutOfRange):
        homology_groups(cx, -1)


def test_preset_exceptional_shelf_table():
    groups = preset_homology(EXCEPTIONAL3, "shelf", 3)
    assert [g.rank for g in groups] == [1, 2, 6, 18]
    assert all(g.torsion == () for g in groups)


def test_preset_rack_kamada_pair():
    c4 = validate_shelf(BinaryOpTable.from_function(4, lambda x, y: (x + 1) % 4))
    inv = validate_shelf(inverse_op(c4.table))
    a = [g.rank for g in preset_homology(c4, "rack", 3)]
    b = [g.rank for g in preset_homology(inv, "rack", 3)]
    assert a == b


def test_preset_quandle_needs_spindle():
    c4 = validate_shelf(BinaryOpTable.from_function(4, lambda x, y: (x + 1) % 4))
    with pytest.raises(NotASpindle):
        preset_homology(c4, "quandle", 2)


def test_preset_quandle_point():
    one = validate_shelf(BinaryOpTable.from_rows([[0]]))
    groups = preset_homology(one, "quandle", 3)
    # every longer tuple has adjacent repeats, so degrees >= 1 vanish;
    # degree 0 is Z because the preset is unaugmented
    assert all(g.is_trivial() for g in groups[1:])
    assert groups[0].rank == 1


@pytest.mark.parametrize("kind, ops, coefficients, augmented, quotient", [
    ("shelf", 1, (1,), True, False),
    ("rack", 2, (1, -1), False, False),
    ("quandle", 2, (1, -1), False, True),
])
def test_preset_complex_defaults(kind, ops, coefficients, augmented, quotient):
    cx = preset_complex(DIHEDRAL3, kind, 2)
    assert cx.maxdeg == 3
    assert len(cx.ops) == ops
    assert cx.coefficients == coefficients
    assert cx.augmented is augmented
    assert (cx.kind == "quandle-quotient") is quotient
    flipped = preset_complex(DIHEDRAL3, kind, 2, augmented=not augmented)
    assert flipped.augmented is not augmented


def test_preset_complex_multi_and_bad_degrees():
    ms = validate_multishelf([DIHEDRAL3.table, identity_op(3)])
    cx = preset_complex(ms, "multi", 1, (1, -1))
    assert (cx.maxdeg, cx.coefficients, cx.augmented) == (2, (1, -1), True)
    assert ([g.rank for g in preset_homology(ms, "multi", 1, (1, -1), False)]
            == [g.rank for g in preset_homology(DIHEDRAL3, "rack", 1)])
    with pytest.raises(SizeMismatch):
        preset_complex(ms, "multi", 1)
    for kind in ("shelf", "quandle"):
        with pytest.raises(DegreeNegative, match="maxdeg -1 < 0"):
            preset_complex(DIHEDRAL3, kind, -1)


def test_quandle_quotient_dimensions():
    n = 3
    cx = quandle_quotient_complex(DIHEDRAL3, (1, -1), 3)
    assert cx.dims == tuple(n * (n - 1) ** d if d else n for d in range(4))
    for d in range(1, 4):
        assert cx.boundary(d - 1).matmul(cx.boundary(d)).is_zero()


def test_degenerate_free_tuples():
    assert degenerate_free_tuples(2, 0) == [(0,), (1,)]
    assert degenerate_free_tuples(2, 2) == [(0, 1, 0), (1, 0, 1)]


def test_quandle_quotient_against_dense_oracle(labelled_by_size):
    # all 2- and 3-element spindles, degrees <= 3
    from shelfhom.orbits import is_spindle

    for n in (2, 3):
        for table in labelled_by_size[n]:
            if not is_spindle(table):
                continue
            got = preset_homology(Shelf(table), "quandle", 2)
            want = oracles.dense_quandle_groups(
                [list(r) for r in table.entries], 3
            )
            assert [(g.rank, g.torsion) for g in got] == want, table


def test_quandle_quotient_matrices_against_dense_oracle(labelled_by_size):
    from shelfhom.orbits import is_spindle

    cases = [(DIHEDRAL3.table, 8)] + [
        (table, 3) for n in (2, 3) for table in labelled_by_size[n]
        if is_spindle(table)
    ]
    for table, maxdeg in cases:
        cx = quandle_quotient_complex(Shelf(table), (1, -1), maxdeg)
        rows = [list(r) for r in table.entries]
        assert cx.boundary(0).to_dense() == []
        for d in range(1, maxdeg + 1):
            assert cx.boundary(d).to_dense() == oracles.dense_quandle_boundary(
                rows, d
            ), (table, d)


def test_degenerate_subcomplex_check_fires(monkeypatch):
    # x*y = 0 is a shelf but not a spindle: d(1, 1) = (1) - (0) leaves the
    # degenerate chains, and the columnwise check must say so
    import shelfhom.chain as chain

    monkeypatch.setattr(chain, "is_spindle", lambda table: True)
    zero = validate_shelf(BinaryOpTable.from_function(2, lambda x, y: 0))
    with pytest.raises(DegenerateNotSubcomplex, match=r"d\(\(1, 1\)\)"):
        quandle_quotient_complex(zero, (1, -1), maxdeg=2)


def test_quandle_known_dihedral_torsion():
    groups = preset_homology(DIHEDRAL3, "quandle", 3)
    assert [(g.rank, g.torsion) for g in groups] == [
        (1, ()), (0, ()), (0, (3,)), (0, (3,)),
    ]


def test_quandle_dihedral3_matches_nosaka_through_degree_7():
    # H^Q_{d+1}(R_3) is Z for d = 0 and (Z/3)^f for d >= 1, with
    # f_{n} = f_{n-1} + f_{n-3}, f_1 = f_2 = 0, f_3 = 1 (Nosaka 2013)
    f = {1: 0, 2: 0, 3: 1}
    for m in range(4, 9):
        f[m] = f[m - 1] + f[m - 3]
    want = [(1, ())] + [(0, (3,) * f[d + 1]) for d in range(1, 8)]
    groups = preset_homology(DIHEDRAL3, "quandle", 7)
    assert [(g.rank, g.torsion) for g in groups] == want


def test_quandle_dihedral5_matches_nosaka_through_degree_4(monkeypatch):
    # H^Q(R_5) through degree 4 is Z, 0, Z/5, Z/5, Z/5 (Nosaka 2013).  The
    # walk hands d_5 (1280 x 5120) to the SNF without the rows that d_4's
    # unit pivots paired; that matrix must have the full d_5's factors.
    handed = []
    original = snf.smith_normal_form

    def recording(mat):
        handed.append(mat)
        return original(mat)

    monkeypatch.setattr(snf, "smith_normal_form", recording)
    dihedral5 = validate_shelf(
        BinaryOpTable.from_function(5, lambda x, y: (2 * y - x) % 5)
    )
    cx = preset_complex(dihedral5, "quandle", 4)
    groups = homology_groups(cx, 4)
    assert [(g.rank, g.torsion) for g in groups] == [
        (1, ()), (0, ()), (0, (5,)), (0, (5,)), (0, (5,)),
    ]
    reduced, full = handed[5], cx.boundaries[5]
    assert (reduced.shape, full.shape) == ((1280, 5120), (1280, 5120))
    assert reduced.nnz < full.nnz
    assert original(reduced) == original(full)


def _random_multishelves(rng, labelled_by_size, count):
    """Validated multi-shelves over small carriers with random coefficients."""
    from shelfhom.orbits import is_spindle

    pool = []
    for n in (1, 2, 3):
        for table in labelled_by_size[n]:
            pool.append(table)
    out = []
    while len(out) < count:
        table = rng.choice(pool)
        n = table.size
        variant = rng.randrange(3)
        ops = [table]
        if variant >= 1:
            ops.append(identity_op(n))
        if variant == 2 and is_spindle(table):
            ops.append(right_trivial_op(n))
        try:
            ms = validate_multishelf(ops)
        except Exception:
            continue
        coeffs = tuple(rng.randint(-3, 3) for _ in ms.ops)
        out.append((ms, coeffs))
    return out


def test_random_configurations_satisfy_chain_laws(labelled_by_size):
    rng = random.Random(904)
    for ms, coeffs in _random_multishelves(rng, labelled_by_size, 60):
        cx = build_complex(ms, coeffs, 4, augmented=True)
        for d in range(1, 5):
            assert cx.boundary(d - 1).matmul(cx.boundary(d)).is_zero()


def test_partial_differentials_anticommute_on_samples(labelled_by_size):
    # d^k o d^l == -d^l o d^k for mutually distributive pairs
    rng = random.Random(905)
    pairs = 0
    tables = labelled_by_size[3]
    while pairs < 12:
        a = rng.choice(tables)
        b = rng.choice(tables)
        try:
            validate_multishelf((a, b))
        except Exception:
            continue
        pairs += 1
        ms = MultiShelf((a, b))
        for d in range(2, 5):
            dk_low = boundary_matrix(ms, (1, 0), d - 1, augmented=False)
            dl_low = boundary_matrix(ms, (0, 1), d - 1, augmented=False)
            dk_high = boundary_matrix(ms, (1, 0), d, augmented=False)
            dl_high = boundary_matrix(ms, (0, 1), d, augmented=False)
            assert dk_low.matmul(dl_high) == -dl_low.matmul(dk_high)


def test_homology_invariant_under_basis_permutation():
    # relabelling the tuple bases conjugates the boundaries and must not
    # change any group
    rng = random.Random(906)
    shelf = EXCEPTIONAL3
    cx = build_complex(shelf, (1,), 3, augmented=True)
    n = shelf.size
    perms = [list(range(n ** (d + 1))) for d in range(4)]
    for p in perms:
        rng.shuffle(p)

    def permuted(mat, prow, pcol):
        return SparseIntMatrix(
            mat.nrows, mat.ncols,
            {(prow[i], pcol[j]): v for (i, j), v in mat.data.items()},
        )

    from shelfhom.chain import ChainComplex

    boundaries = [cx.boundary(0)]
    boundaries[0] = SparseIntMatrix(
        1, n, {(0, perms[0][j]): v for (_, j), v in cx.boundary(0).data.items()}
    )
    for d in range(1, 4):
        boundaries.append(permuted(cx.boundary(d), perms[d - 1], perms[d]))
    shuffled = ChainComplex(
        size=n, ops=cx.ops, coefficients=cx.coefficients,
        augmented=True, boundaries=boundaries,
    )
    assert homology_groups(shuffled, 2) == homology_groups(cx, 2)
