import hashlib
import random
import tracemalloc
from math import gcd

import pytest

import oracles
from shelfhom import snf
from shelfhom.chain import (
    basis_index,
    boundary_matrix,
    build_complex,
    index_tuple,
    preset_complex,
    preset_homology,
    quandle_quotient_complex,
)
from shelfhom.errors import (
    DDNotZero,
    DegenerateNotSubcomplex,
    DegreeNegative,
    MemoryCapExceeded,
    NotASpindle,
    OutOfRange,
    ParseError,
    ShelfHomError,
    SizeMismatch,
)
from shelfhom.families import boolean_multishelf
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
DIHEDRAL5 = validate_shelf(
    BinaryOpTable.from_function(5, lambda x, y: (2 * y - x) % 5)
)


def _pair(table):
    """The (op, identity) multi-shelf that rack and quandle homology use."""
    return MultiShelf((table, identity_op(table.size)))


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
            got = {i: v for (i, j), v in d1.items() if j == col}
            assert got == expected


def _against_tuple_oracle(ms, coefficients, augmented):
    n = ms.size
    ops = [[list(r) for r in op.entries] for op in ms.ops]
    for d in range(4):
        got = boundary_matrix(ms, coefficients, d, augmented)
        assert got.shape == (n ** d if d else int(augmented), n ** (d + 1))
        want = oracles.dense_tuple_boundary(ops, coefficients, d, augmented)
        assert oracles.to_dense(got) == want, (ms, coefficients, augmented, d)


def test_boundary_matrices_against_dense_oracle(labelled_by_size):
    # every 1-, 2- and 3-element shelf alone and as the rack pair
    # (op, identity), then a Boolean multi-shelf with a zero coefficient
    for n in (1, 2, 3):
        for table in labelled_by_size[n]:
            _against_tuple_oracle(MultiShelf((table,)), (1,), True)
            _against_tuple_oracle(MultiShelf((table, identity_op(n))), (1, -1),
                                  False)
    for omega in (1, 2):
        ms = boolean_multishelf(omega)
        for augmented in (True, False):
            _against_tuple_oracle(ms, (2, 0, -1, 3), augmented)


def test_boundary_zero_coefficients_gives_zero_matrix():
    ms = boolean_multishelf(1)
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
            got = {i: v for (i, j), v in d1.items() if j == col}
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
    assert oracles.to_dense(eps) == [[1, 1, 1]]
    none = boundary_matrix(ms, (1,), 0, augmented=False)
    assert none.shape == (0, 3)


def test_build_complex_verifies_dd_zero():
    cx = build_complex(EXCEPTIONAL3, (1,), 3, augmented=True)
    for d in range(1, 4):
        assert cx.boundaries[d - 1].matmul(cx.boundaries[d]).is_zero()


def test_dd_check_fires_on_a_corrupted_entry(monkeypatch):
    # one entry of one assembled degree changed: the check names the first
    # pair d_{d-1} o d_d that no longer vanishes.  d_2's first entry lies on
    # row (0, 0), whose column of d_1 is zero (0 * 0 = 0), so d_1 o d_2
    # still vanishes and d_2 o d_3 does not
    import shelfhom.chain as chain

    assemble, quotient_faces = chain._assemble, chain._quotient_faces

    def corrupt_assemble(ms, coefficients, degree):
        mat = assemble(ms, coefficients, degree)
        if degree == 2:
            mat.values[0] += 1
        return mat

    def corrupt_faces(ms, coefficients, degree, kept):
        faces = quotient_faces(ms, coefficients, degree, kept)
        if degree == 3:
            first = faces[min(faces)]
            first[next(iter(first))] *= 2
        return faces

    monkeypatch.setattr(chain, "_assemble", corrupt_assemble)
    with pytest.raises(DDNotZero) as exc:
        build_complex(EXCEPTIONAL3, (1,), 3)
    assert str(exc.value) == "d_2 o d_3 != 0"
    monkeypatch.setattr(chain, "_quotient_faces", corrupt_faces)
    with pytest.raises(DDNotZero) as exc:
        quandle_quotient_complex(_pair(DIHEDRAL3.table), (1, -1), 4)
    assert str(exc.value) == "quotient d_2 o d_3 != 0"


def test_build_complex_memory_cap():
    with pytest.raises(MemoryCapExceeded):
        build_complex(EXCEPTIONAL3, (1,), 3, cap=10)
    # under a 1 325-digit cap, 10^4400 has too many digits to print
    ten = MultiShelf((right_trivial_op(10),))
    with pytest.raises(MemoryCapExceeded, match=r"needs 10\^4400 <= cap, got cap \d+;"):
        build_complex(ten, (1,), 4398, cap=2 ** 4400 - 1)


def test_huge_coefficients_scale_the_invariant_factors():
    # homology --kind multi --coefficients puts a user's integers straight
    # into the boundary entries; c = 2^63 + 1 does not fit a signed 64-bit
    # word, and c * d_k has c times the invariant factors of d_k
    c = 2 ** 63 + 1
    huge = build_complex(DIHEDRAL3, (c,), 4)
    unit = build_complex(DIHEDRAL3, (1,), 4)
    for k in range(1, 5):
        assert snf.smith_normal_form(huge.boundaries[k]).factors == tuple(
            c * f for f in snf.smith_normal_form(unit.boundaries[k]).factors), k


def test_quotient_build_peak_memory_is_bounded():
    # R3's quotient through d_8 peaks near 0.9 MB of traced memory with
    # column arrays, one face dict per column and at most two levels of
    # nondegenerate prefix images; a full prefix table per face peaked near
    # 1.8 MB, and the (row, col)-keyed dict layout at 4.5-4.8 MB (CPython
    # 3.10-3.13)
    tracemalloc.start()
    try:
        quandle_quotient_complex(_pair(DIHEDRAL3.table), (1, -1), 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_630_000


def test_r5_quotient_build_peak_memory_is_bounded():
    # R5's quotient through d_5 peaks near 4.3 MiB of traced memory with one
    # face dict per column, each leaving as it is stored; (row, column)-keyed
    # face dicts with a sorted key list peaked at 7.9-8.2 MiB (CPython 3.10-3.13)
    tracemalloc.start()
    try:
        quandle_quotient_complex(_pair(DIHEDRAL5.table), (1, -1), 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6_600_000


def test_boolean_zero_differential_complex():
    ms = boolean_multishelf(1)
    cx = build_complex(ms, (0, 0, 0, 0), 3, augmented=True)
    assert not cx.boundaries[0].is_zero()  # the augmentation row survives
    for d in range(1, 4):
        assert cx.boundaries[d].is_zero()
    # homology is then the full chain group away from the augmentation
    assert [g["rank"] for g in snf.homology_from_boundaries(cx.boundaries[:3])] == [1, 4]


def test_homology_right_trivial_matches_formula():
    for n in (2, 3):
        shelf = validate_shelf(right_trivial_op(n))
        groups = preset_homology(shelf, "shelf", 3)
        assert [g["rank"] for g in groups] == [(n - 1) * n ** d for d in range(4)]
        assert all(g["torsion"] == [] for g in groups)


def test_homology_h0_counts_orbits(labelled_by_size):
    for n, tables in labelled_by_size.items():
        for table in tables[:: max(1, len(tables) // 25)]:
            shelf = Shelf(table)
            g0 = preset_homology(shelf, "shelf", 0)[0]
            assert g0["rank"] == len(left_orbits(shelf)) - 1
            assert g0["torsion"] == []


def test_homology_of_racks_vanishes():
    for fn in (lambda x, y: (2 * y - x) % 3, lambda x, y: (x + 1) % 3):
        shelf = validate_shelf(BinaryOpTable.from_function(3, fn))
        assert all((g["rank"], g["torsion"]) == (0, []) for g in preset_homology(shelf, "shelf", 3))


def test_walk_returns_one_record_per_determined_degree():
    # H_d needs d_{d+1}, so boundaries d_0..d_m determine H_0..H_{m-1}, and
    # a complex built through d_0 alone has no group
    builds = [
        lambda m: build_complex(EXCEPTIONAL3, (1,), m),
        lambda m: quandle_quotient_complex(_pair(DIHEDRAL3.table), (1, -1), m),
        lambda m: preset_complex(EXCEPTIONAL3, "shelf", m),
        lambda m: preset_complex(DIHEDRAL3, "rack", m),
        lambda m: preset_complex(DIHEDRAL3, "quandle", m),
    ]
    for build in builds:
        for maxdeg in range(4):
            cx = build(maxdeg)
            groups = snf.homology_from_boundaries(cx.boundaries)
            assert [g["degree"] for g in groups] == list(range(cx.maxdeg))


def _complex_data(cx):
    """A complex's boundaries, entries in stored order, and its walk records."""
    return ([(mat.shape, list(mat.items())) for mat in cx.boundaries],
            snf.homology_from_boundaries(cx.boundaries))


def test_a_shelf_reads_as_its_one_operation_family(classes3):
    from shelfhom.io import structure_to_doc
    from shelfhom.orbits import is_spindle

    assert len(classes3) == 48
    spindles = 0
    for s in classes3:
        one = MultiShelf((s.table,))
        assert s.ops == (s.table,) and s.ops[0] is s.table
        with pytest.raises(AttributeError):
            s.ops = one.ops
        for d in range(4):
            assert (list(boundary_matrix(s, (1,), d).items())
                    == list(boundary_matrix(one, (1,), d).items())), (s, d)
        assert _complex_data(build_complex(s, (1,), 3)) == _complex_data(
            build_complex(one, (1,), 3)), s
        if is_spindle(s.table):
            spindles += 1
            assert _complex_data(quandle_quotient_complex(s, (1,), 3)) == _complex_data(
                quandle_quotient_complex(one, (1,), 3)), s
        assert structure_to_doc(s) == structure_to_doc(one)
    assert spindles > 0


def test_preset_exceptional_shelf_table():
    groups = preset_homology(EXCEPTIONAL3, "shelf", 3)
    assert [g["rank"] for g in groups] == [1, 2, 6, 18]
    assert all(g["torsion"] == [] for g in groups)


def test_preset_rack_kamada_pair():
    c4 = validate_shelf(BinaryOpTable.from_function(4, lambda x, y: (x + 1) % 4))
    inv = validate_shelf(inverse_op(c4.table))
    a = [g["rank"] for g in preset_homology(c4, "rack", 3)]
    b = [g["rank"] for g in preset_homology(inv, "rack", 3)]
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
    assert all((g["rank"], g["torsion"]) == (0, []) for g in groups[1:])
    assert groups[0]["rank"] == 1


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
    # the quotient drops the degenerate pairs (x, x) from C_1
    assert (cx.dims[1] == 3 * 2) is quotient
    flipped = preset_complex(DIHEDRAL3, kind, 2, augmented=not augmented)
    assert flipped.augmented is not augmented


def test_preset_complex_multi_and_bad_degrees():
    ms = validate_multishelf([DIHEDRAL3.table, identity_op(3)])
    cx = preset_complex(ms, "multi", 1, (1, -1))
    assert (cx.maxdeg, cx.coefficients, cx.augmented) == (2, (1, -1), True)
    assert ([g["rank"] for g in preset_homology(ms, "multi", 1, (1, -1), False)]
            == [g["rank"] for g in preset_homology(DIHEDRAL3, "rack", 1)])
    with pytest.raises(SizeMismatch):
        preset_complex(ms, "multi", 1)
    # rack and quandle pair the one operation with the identity
    for call in (preset_complex, preset_homology):
        for kind in ("rack", "quandle"):
            with pytest.raises(SizeMismatch, match=f"kind={kind} needs a Shelf, got MultiShelf"):
                call(ms, kind, 1)
    for kind in ("shelf", "quandle"):
        with pytest.raises(DegreeNegative, match="maxdeg -1 < 0"):
            preset_complex(DIHEDRAL3, kind, -1)


def test_preset_complex_refuses_an_unknown_kind_with_a_structured_error():
    for call in (preset_complex, preset_homology):
        with pytest.raises(ParseError, match="unknown preset kind 'Rack'") as info:
            call(DIHEDRAL3, "Rack", 1)
        assert isinstance(info.value, ShelfHomError)
        assert info.value.exit_code == 2


def test_quandle_quotient_dimensions():
    n = 3
    cx = quandle_quotient_complex(_pair(DIHEDRAL3.table), (1, -1), 3)
    assert cx.dims == tuple(n * (n - 1) ** d if d else n for d in range(4))
    for d in range(1, 4):
        assert cx.boundaries[d - 1].matmul(cx.boundaries[d]).is_zero()


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
            assert [(g["rank"], tuple(g["torsion"])) for g in got] == want, table


def test_quandle_quotient_matrices_against_dense_oracle(labelled_by_size):
    from shelfhom.orbits import is_spindle

    cases = [(DIHEDRAL3.table, 8)] + [
        (table, 3) for n in (2, 3) for table in labelled_by_size[n]
        if is_spindle(table)
    ]
    for table, maxdeg in cases:
        cx = quandle_quotient_complex(_pair(table), (1, -1), maxdeg)
        rows = [list(r) for r in table.entries]
        assert oracles.to_dense(cx.boundaries[0]) == []
        for d in range(1, maxdeg + 1):
            assert oracles.to_dense(cx.boundaries[d]) == oracles.dense_quandle_boundary(
                rows, d
            ), (table, d)


def _primary_parts(torsion):
    """The prime-power factors of the torsion factors, sorted."""
    parts = []
    for t in torsion:
        p = 2
        while t > 1:
            q = 1
            while t % p == 0:
                t, q = t // p, q * p
            if q > 1:
                parts.append(q)
            p += 1
    return sorted(parts)


def _multi_spindles(labelled_by_size):
    """(multi-spindle, coefficients, maxdeg): every spindle of size <= 3 as
    (op, identity) under three pairs, and the Boolean multi-spindles under
    seeded coefficients."""
    from shelfhom.orbits import is_spindle

    for n in (1, 2, 3):
        for table in labelled_by_size[n]:
            if is_spindle(table):
                for coefficients in ((1, -1), (1, 1), (2, -1)):
                    yield _pair(table), coefficients, 3
    rng = random.Random(2111)
    for omega, maxdeg in ((1, 4), (2, 3)):
        ms = boolean_multishelf(omega)
        for _ in range(6):
            yield ms, tuple(rng.randint(-3, 3) for _ in ms.ops), maxdeg


def test_degenerate_splitting_and_quotient_against_dense_blocks(labelled_by_size):
    # for a multi-spindle the degenerate chains D form a subcomplex under any
    # coefficients, and H = H^N + H^D: free ranks and primary torsion parts
    # add.  H^D comes from the dense oracle cut to the degenerate tuples,
    # which shares no code with the quotient's face loop, and the quotient's
    # matrices must be the oracle cut to the nondegenerate tuples.
    checks = 0
    for ms, coefficients, maxdeg in _multi_spindles(labelled_by_size):
        ops = [[list(r) for r in op.entries] for op in ms.ops]
        for augmented in (True, False):
            quotient = quandle_quotient_complex(ms, coefficients, maxdeg, augmented)
            degenerate = []
            for d in range(maxdeg + 1):
                blocks = oracles.dense_degeneracy_blocks(ops, coefficients, d, augmented)
                leak, _ = blocks[False, True]
                assert not any(map(any, leak)), (ms, coefficients, d)
                nondeg, width = blocks[False, False]
                got = quotient.boundaries[d]
                assert got.shape == (len(nondeg), width)
                assert oracles.to_dense(got) == nondeg, (ms, coefficients, augmented, d)
                degenerate.append(oracles.from_dense(*blocks[True, True]))
            full = build_complex(ms, coefficients, maxdeg, augmented)
            for h, hn, hd in zip(snf.homology_from_boundaries(full.boundaries),
                                 snf.homology_from_boundaries(quotient.boundaries),
                                 snf.homology_from_boundaries(degenerate)):
                assert h["rank"] == hn["rank"] + hd["rank"], (ms, coefficients, h["degree"])
                assert _primary_parts(h["torsion"]) == sorted(
                    _primary_parts(hn["torsion"]) + _primary_parts(hd["torsion"])
                ), (ms, coefficients, augmented, h["degree"])
                checks += 1
    assert checks == 1308


def test_quotient_takes_a_multi_shelf_of_spindles_only():
    ms = boolean_multishelf(1)
    cx = quandle_quotient_complex(ms, (1, 0, -2, 3), 3)
    assert (cx.ops, cx.coefficients, cx.augmented) == (ms.ops, (1, 0, -2, 3), False)
    assert cx.dims == (2, 2, 2, 2)
    c4 = BinaryOpTable.from_function(4, lambda x, y: (x + 1) % 4)
    with pytest.raises(NotASpindle):
        quandle_quotient_complex(_pair(c4), (1, -1), 2)
    with pytest.raises(NotASpindle):
        quandle_quotient_complex(Shelf(c4), (1,), 2)
    with pytest.raises(SizeMismatch, match="1 coefficients for 4 operations"):
        quandle_quotient_complex(ms, (1,), 2)
    with pytest.raises(DegreeNegative, match="maxdeg -1 < 0"):
        quandle_quotient_complex(ms, (1, 1, 1, 1), -1)


def test_nondegenerate_prefix_levels_match_the_full_tables(labelled_by_size):
    # the quotient grows its prefix images level by level from the
    # nondegenerate ones alone; they must be exactly the entries of the full
    # tables whose i-tuple repeats no adjacent entry, in ascending q, for
    # every operation with a nonzero coefficient and every face
    import shelfhom.chain as chain
    from shelfhom.orbits import is_spindle

    spindles = [t for n in (1, 2, 3) for t in labelled_by_size[n] if is_spindle(t)]
    assert {t.size for t in spindles} == {1, 2, 3}
    cases = [(Shelf(t), (1,)) for t in spindles]
    cases += [(_pair(t), (1, -1)) for t in spindles]
    # a two-operation multi-spindle whose second coefficient is 0
    cases.append((validate_multishelf((DIHEDRAL3.table, right_trivial_op(3))), (2, 0)))
    for ms, coefficients in cases:
        for degree in range(6):
            want = []
            for i, c, prefix in chain._face_tables(ms, coefficients, degree):
                tuples = [index_tuple(p, i, ms.size) for p in prefix]
                want.append((i, c, [(q, p) for q, p in enumerate(prefix)
                                    if all(a != b for a, b in zip(tuples[q], tuples[q][1:]))]))
            got = [(i, c, list(zip(qs, ps))) for i, c, qs, ps in
                   chain._nondegenerate_prefixes(ms, coefficients, degree)]
            assert got == want, (ms, coefficients, degree)


# sha256 of repr([(shape, list(data.items())), ...]) over the boundaries.
# The SNF's tie-breaks follow the order in which entries were inserted, so a
# change to the assembly must keep these digests, not only the matrices.
@pytest.mark.parametrize("n, kind, coefficients, maxdeg, digest", [
    (3, "quotient", (1, -1), 8,
     "f92e2cecb72f23489d9334ac573883acab3a7cf20e35562ae0f2bf91f1d4fdc6"),
    (5, "quotient", (1, -1), 4,
     "a2ac3e939bb244b5bc18fbb55e2561450a372d087848ad82dfa324079169034a"),
    (3, "quotient", (1, 1), 5,
     "caed1a956597c8d4985d4e467a84b75f032c71c8b4e4a8232b4d9724bfe6ccf5"),
    (3, "quotient", (2, -1), 5,
     "7db138f30a70667c8a92fc29f65d4066282c70b0c787247705306fa11595baae"),
    (7, "rack", (1, -1), 3,
     "08969bfb3f8726b23c421a8c583c2a9ab9e88b80caa3b8d98470425ab887a8f5"),
    # higher faces at larger n, where a wrong prefix recurrence shows first
    (5, "quotient", (1, -1), 6,
     "cbcbfa3a64b2fed77d9ca4959b2f7fac943d8e7e12237af61992b6610ece19bf"),
    (7, "quotient", (1, -1), 4,
     "019a201aa9d21049f8f9a2b6fa94e619edf93596c72ab076ca60c60acf28aa99"),
], ids=["R3-quotient", "R5-quotient", "R3-quotient-(1,1)", "R3-quotient-(2,-1)",
        "R7-rack", "R5-quotient-d6", "R7-quotient-d4"])
def test_boundary_entry_order_is_pinned(n, kind, coefficients, maxdeg, digest):
    ms = _pair(BinaryOpTable.from_function(n, lambda x, y: (2 * y - x) % n))
    if kind == "rack":
        mats = [boundary_matrix(ms, coefficients, d, augmented=False)
                for d in range(maxdeg + 1)]
    else:
        mats = quandle_quotient_complex(ms, coefficients, maxdeg).boundaries
    got = repr([(m.shape, list(m.items())) for m in mats])
    assert hashlib.sha256(got.encode()).hexdigest() == digest


def test_degenerate_subcomplex_check_fires(monkeypatch):
    # x*y = 0 is a shelf but not a spindle: d(1, 1) = (1) - (0) leaves the
    # degenerate chains, and the columnwise check must say so
    import shelfhom.chain as chain

    monkeypatch.setattr(chain, "is_spindle", lambda table: True)
    zero = validate_shelf(BinaryOpTable.from_function(2, lambda x, y: 0))
    with pytest.raises(DegenerateNotSubcomplex, match=r"d\(\(1, 1\)\)"):
        quandle_quotient_complex(_pair(zero.table), (1, -1), maxdeg=2)


def test_degenerate_check_names_the_least_leaking_tuple(monkeypatch, labelled_by_size):
    # a non-spindle leaks at degree 1, where every row is kept, so d((x, x))
    # leaks exactly when its column (3x + x in d_1) is nonzero; the check
    # must name the least such tuple, which the oracle finds column by column
    import shelfhom.chain as chain
    from shelfhom.orbits import is_spindle

    identity = [[x] * 3 for x in range(3)]
    non_spindles = [t for t in labelled_by_size[3] if not is_spindle(t)]
    monkeypatch.setattr(chain, "is_spindle", lambda table: True)
    for table in non_spindles:
        d1 = oracles.dense_tuple_boundary(
            [[list(r) for r in table.entries], identity], (1, -1), 1, False
        )
        x = min(x for x in range(3) if any(row[4 * x] for row in d1))
        with pytest.raises(DegenerateNotSubcomplex) as exc:
            quandle_quotient_complex(_pair(table), (1, -1), maxdeg=3)
        assert str(exc.value).startswith(f"d(({x}, {x})) "), table
    # x*y = 0: d((1, 1)) and d((2, 2)) both leak; the message is pinned
    zero = validate_shelf(BinaryOpTable.from_function(3, lambda x, y: 0))
    with pytest.raises(DegenerateNotSubcomplex) as exc:
        quandle_quotient_complex(_pair(zero.table), (1, -1), maxdeg=3)
    assert str(exc.value) == (
        "d((1, 1)) has a nondegenerate term at degree 1 for coefficients (1, -1)"
    )


def test_quandle_known_dihedral_torsion():
    groups = preset_homology(DIHEDRAL3, "quandle", 3)
    assert [(g["rank"], g["torsion"]) for g in groups] == [
        (1, []), (0, []), (0, [3]), (0, [3]),
    ]


def test_quandle_dihedral3_matches_nosaka_through_degree_7():
    # H^Q_{d+1}(R_3) is Z for d = 0 and (Z/3)^f for d >= 1, with
    # f_{n} = f_{n-1} + f_{n-3}, f_1 = f_2 = 0, f_3 = 1 (Nosaka 2013)
    f = {1: 0, 2: 0, 3: 1}
    for m in range(4, 9):
        f[m] = f[m - 1] + f[m - 3]
    want = [(1, [])] + [(0, [3] * f[d + 1]) for d in range(1, 8)]
    groups = preset_homology(DIHEDRAL3, "quandle", 7)
    assert [(g["rank"], g["torsion"]) for g in groups] == want


def test_quandle_dihedral5_matches_nosaka_through_degree_4(monkeypatch):
    # H^Q(R_5) through degree 4 is Z, 0, Z/5, Z/5, Z/5 (Nosaka 2013).  The
    # walk hands d_5 (1280 x 5120) to the SNF with the rows that d_4's unit
    # pivots paired to skip; skipping them must keep the full d_5's factors.
    handed = []
    original = snf.smith_normal_form

    def recording(mat, drop):
        handed.append((mat, drop))
        return original(mat, drop)

    monkeypatch.setattr(snf, "smith_normal_form", recording)
    cx = preset_complex(DIHEDRAL5, "quandle", 4)
    groups = snf.homology_from_boundaries(cx.boundaries)
    assert [(g["rank"], g["torsion"]) for g in groups] == [
        (1, []), (0, []), (0, [5]), (0, [5]), (0, [5]),
    ]
    (mat, drop), full = handed[5], cx.boundaries[5]
    assert mat is full and full.shape == (1280, 5120)
    assert drop and drop <= set(range(full.nrows))
    assert original(full, drop) == original(full)


def _orbits_and_inner_order(table):
    """The number of orbits of the right translations x -> x * y, and the
    order of the group Inn X they generate, found by closing them."""
    n = table.size
    gens = [tuple(table.entries[x][y] for x in range(n)) for y in range(n)]
    group = {tuple(range(n))}
    todo = list(group)
    while todo:
        h = todo.pop()
        for g in gens:
            gh = tuple(g[h[x]] for x in range(n))
            if gh not in group:
                group.add(gh)
                todo.append(gh)
    orbits = {frozenset(h[x] for h in group) for x in range(n)}
    return len(orbits), len(group)


def test_rack_and_quandle_groups_follow_the_inner_group(classes3, classes4):
    # with o the orbits of the right translations and Inn X the group they
    # generate: rank H^R_d = o^(d+1) (Etingof-Grana), rank H^Q_d = o(o-1)^d
    # (Litherland-Nelson), and every torsion prime divides |Inn X|
    from shelfhom.census import enumerate_shelves
    from shelfhom.orbits import is_invertible, is_spindle

    classes = enumerate_shelves(1) + enumerate_shelves(2) + classes3 + classes4
    cases = [(s.table, 3 if s.size <= 3 else 2) for s in classes
             if is_invertible(s.table)]
    assert len(cases) == 1 + 2 + 6 + 19  # OEIS A181769
    for n, maxdeg in ((3, 3), (5, 2), (7, 2)):
        cases.append((BinaryOpTable.from_function(n, lambda x, y: (2 * y - x) % n), maxdeg))
    complexes = 0
    for table, maxdeg in cases:
        orbits, inner = _orbits_and_inner_order(table)
        rules = {"rack": lambda d: orbits ** (d + 1)}
        if is_spindle(table):
            rules["quandle"] = lambda d: orbits * (orbits - 1) ** d
        for kind, rank in rules.items():
            complexes += 1
            for g in preset_homology(Shelf(table), kind, maxdeg):
                assert g["rank"] == rank(g["degree"]), (table, kind, g)
                # a prime power shares a factor with |Inn X| iff its prime divides it
                assert all(gcd(q, inner) > 1 for q in _primary_parts(g["torsion"])), (table, kind, g)
    assert complexes == 46


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
            assert cx.boundaries[d - 1].matmul(cx.boundaries[d]).is_zero()


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
            lk, kl = dk_low.matmul(dl_high), dl_low.matmul(dk_high)
            assert lk.shape == kl.shape
            assert dict(lk.items()) == {ij: -v for ij, v in kl.items()}


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
            {(prow[i], pcol[j]): v for (i, j), v in mat.items()},
        )

    from shelfhom.chain import ChainComplex

    boundaries = [cx.boundaries[0]]
    boundaries[0] = SparseIntMatrix(
        1, n, {(0, perms[0][j]): v for (_, j), v in cx.boundaries[0].items()}
    )
    for d in range(1, 4):
        boundaries.append(permuted(cx.boundaries[d], perms[d - 1], perms[d]))
    shuffled = ChainComplex(
        size=n, ops=cx.ops, coefficients=cx.coefficients,
        augmented=True, boundaries=boundaries,
    )
    assert (snf.homology_from_boundaries(shuffled.boundaries)
            == snf.homology_from_boundaries(cx.boundaries))
