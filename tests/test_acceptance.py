"""Acceptance checks, one test per criterion.

Each test prints a single ``[acceptance] criterion N (...): PASS/FAIL`` line
(visible with ``pytest -s``); the assertions themselves carry the exact
expected values.  Desk scale: carriers up to 4 (5 for the retract samples),
degrees up to 5.
"""

import json
import random
import time
from contextlib import contextmanager
from itertools import combinations_with_replacement

import pytest

import oracles
from shelfhom.census import canonical_form, enumerate_shelves
from shelfhom.chain import boundary_matrix, build_complex, preset_homology
from shelfhom.families import (
    boolean_multishelf,
    const_left,
    intersection_shelf,
    strong_retract_extend,
    subtraction_shelf,
)
from shelfhom.intmat import SparseIntMatrix
from shelfhom.orbits import classify, has_left_absorbing_element, left_orbits
from shelfhom.scans import scan_boolean, scan_growth, scan_hyperplane, torsion_hunt
from shelfhom.simplicial import build_shelf_complex, components, simplicial_groups
from shelfhom.snf import smith_normal_form
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


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:2d} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {num:2d} ({name}): PASS")


def shelf_ranks(shelf, maxdeg):
    return [g.rank for g in preset_homology(shelf, "shelf", maxdeg)]


@pytest.fixture(scope="session")
def classes_by_size(classes3, classes4):
    return {
        1: enumerate_shelves(1),
        2: enumerate_shelves(2),
        3: classes3,
        4: classes4,
    }


@pytest.fixture(scope="session")
def profiles4(classes4):
    """Free-rank profiles in degrees 0..3 for every 4-element class."""
    out = {}
    for key in classes4:
        out[key.flat] = tuple(shelf_ranks(Shelf(key.table()), 3))
    return out


def test_criterion_01_two_element_classification():
    with criterion(1, "two-element classification"):
        keys = enumerate_shelves(2)
        assert len(keys) == 6
        named = {
            "constant-left": const_left(f=(0, 0)),
            "identity-product": validate_shelf(identity_op(2)),
            "swap-left": const_left(f=(1, 0)),
            "right-trivial": validate_shelf(right_trivial_op(2)),
            "meet-shelf": intersection_shelf(1, (0, 1)),
            "subtraction-shelf": subtraction_shelf(1, (0, 1)),
        }
        by_key = {canonical_form(s.table): name for name, s in named.items()}
        assert len(by_key) == 6
        assert set(by_key) == set(keys)


def test_criterion_02_h0_counts_left_orbits(classes_by_size):
    with criterion(2, "H0 rank equals left orbits minus one"):
        for n in (1, 2, 3, 4):
            for key in classes_by_size[n]:
                shelf = Shelf(key.table())
                group = preset_homology(shelf, "shelf", 0)[0]
                assert group.rank == left_orbits(shelf).count - 1, key
                assert group.torsion == (), key


def test_criterion_03_chain_complex_laws(labelled_by_size):
    with criterion(3, "d o d = 0, eps o d1 = 0, anticommutation"):
        rng = random.Random(1729)
        pool = [t for n in (1, 2, 3) for t in labelled_by_size[n]]
        built = 0
        while built < 200:
            table = rng.choice(pool)
            n = table.size
            ops = [table]
            style = rng.randrange(3)
            if style >= 1:
                ops.append(identity_op(n))
            if style == 2:
                ops.append(right_trivial_op(n))
            try:
                ms = validate_multishelf(ops)
            except Exception:
                continue
            coeffs = tuple(rng.randint(-3, 3) for _ in ms.ops)
            cx = build_complex(ms, coeffs, 4, augmented=True)
            for d in range(1, 5):
                assert cx.boundary(d - 1).matmul(cx.boundary(d)).is_zero()
            assert cx.boundary(0).matmul(cx.boundary(1)).is_zero()
            built += 1

        # d^k d^l = -d^l d^k over every validated 2-op multi-shelf, size <= 3
        cache = {}

        def bmat(table, d):
            key = (table.entries, d)
            if key not in cache:
                cache[key] = boundary_matrix(
                    MultiShelf((table,)), (1,), d, augmented=False
                )
            return cache[key]

        pairs_checked = 0
        for n in (1, 2, 3):
            tables = labelled_by_size[n]

            def mutual(ek, el):
                rng3 = range(n)
                for x in rng3:
                    for y in rng3:
                        exy = ek[x][y]
                        for z in rng3:
                            if el[exy][z] != ek[el[x][z]][el[y][z]]:
                                return False
                return True

            for a, b in combinations_with_replacement(tables, 2):
                ea, eb = a.entries, b.entries
                if not (mutual(ea, eb) and mutual(eb, ea)):
                    continue
                validate_multishelf((a, b))
                for d in (2, 3, 4):
                    lhs = bmat(a, d - 1).matmul(bmat(b, d))
                    rhs = bmat(b, d - 1).matmul(bmat(a, d))
                    assert lhs.shape == rhs.shape
                    assert lhs.data == {ij: -v for ij, v in rhs.data.items()}
                pairs_checked += 1
        assert pairs_checked >= 2500


def test_criterion_04_three_element_tables(classes3):
    with criterion(4, "3-element homology table"):
        exceptional = (1, 2, 6, 18, 54)
        allowed = {
            tuple((r - 1) * 3 ** d for d in range(5)) for r in (1, 2, 3)
        }
        allowed.add(exceptional)
        seen_exceptional = False
        for key in classes3:
            profile = tuple(shelf_ranks(Shelf(key.table()), 4))
            assert profile in allowed, (key, profile)
            if profile == exceptional:
                seen_exceptional = True
        assert seen_exceptional
        # the printed multiplication table realizes the exceptional type
        printed = validate_shelf(
            BinaryOpTable.from_rows([[0, 1, 2], [0, 1, 2], [0, 0, 2]])
        )
        assert tuple(shelf_ranks(printed, 4)) == exceptional


def test_criterion_05_four_element_tables(profiles4):
    with criterion(5, "4-element free-rank profiles"):
        start = time.time()
        regular = {
            tuple((r - 1) * 4 ** d for d in range(4)) for r in (1, 2, 3, 4)
        }
        exceptional = {
            (0, 1, 4, 16),     # rk H_0 = 0, rk H_d = 4^(d-1)
            (1, 2, 8, 32),     # rk H_0 = 1, rk H_d = 2 * 4^(d-1)
            (1, 3, 12, 48),    # rk H_0 = 1, rk H_d = 3 * 4^(d-1)
            (1, 3, 13, 52),    # rk H_0 = 1, rk H_1 = 3, rk H_d = 13 * 4^(d-2)
            (2, 7, 28, 112),   # rk H_0 = 2, rk H_d = 7 * 4^(d-1)
        }
        seen = set()
        for key, profile in profiles4.items():
            assert profile in regular | exceptional, (key, profile)
            seen.add(profile)
        assert exceptional <= seen
        assert (1, 3, 13, 52) in seen
        assert time.time() - start < 600


def test_criterion_06_vanishing(classes_by_size):
    with criterion(6, "vanishing for racks and absorbing shelves"):
        for n in (1, 2, 3, 4):
            for key in classes_by_size[n]:
                shelf = Shelf(key.table())
                if not (
                    classify(shelf).is_rack
                    or has_left_absorbing_element(shelf.table)
                ):
                    continue
                groups = preset_homology(shelf, "shelf", 4)
                assert all(g.is_trivial() for g in groups), key


def test_criterion_07_right_trivial_formula():
    with criterion(7, "x*y = y homology"):
        for n in (2, 3, 4):
            shelf = validate_shelf(right_trivial_op(n))
            groups = preset_homology(shelf, "shelf", 4)
            assert [g.rank for g in groups] == [
                (n - 1) * n ** d for d in range(5)
            ]
            assert all(g.torsion == () for g in groups)


def test_criterion_08_retract_rank_formula(labelled_by_size):
    with criterion(8, "strong-retract rank decomposition"):
        rng = random.Random(2718)
        for _ in range(20):
            a_size = rng.randint(1, 3)
            base = Shelf(rng.choice(labelled_by_size[a_size]))
            n = rng.randint(a_size, 5)
            retraction = tuple(
                x if x < a_size else rng.randrange(a_size) for x in range(n)
            )
            extended = strong_retract_extend(base, n, retraction)
            base_ranks = shelf_ranks(base, 3)
            ext_ranks = shelf_ranks(extended, 3)
            for d in range(4):
                expected = base_ranks[d] + (n - a_size) * sum(
                    base_ranks[k] * n ** (d - k - 1) for k in range(d)
                )
                assert ext_ranks[d] == expected, (base.table, retraction, d)


def test_criterion_09_kamada_corollary():
    with criterion(9, "rack homology of op and inverse agree"):
        racks = [
            BinaryOpTable.from_function(4, lambda x, y: (x + 1) % 4),
            BinaryOpTable.from_function(5, lambda x, y: (2 * y - x) % 5),
        ]
        for table in racks:
            fwd = validate_shelf(table)
            bwd = validate_shelf(inverse_op(table))
            fr = [g.rank for g in preset_homology(fwd, "rack", 3)]
            br = [g.rank for g in preset_homology(bwd, "rack", 3)]
            assert fr == br, table


def test_criterion_10_simplicial_example():
    with criterion(10, "paper 4x4 shelf complex"):
        shelf = validate_shelf(
            BinaryOpTable.from_rows(
                [[0, 2, 2, 3], [0, 1, 2, 3], [0, 2, 2, 3], [2, 0, 2, 3]]
            )
        )
        scx = build_shelf_complex(shelf)
        assert components(scx)[0] == 2
        h1 = simplicial_groups(scx)[1]
        assert (h1.rank, h1.torsion) == (1, ())


def test_criterion_11_torsion_exists():
    with criterion(11, "torsion hunt finds pointed-map torsion"):
        report = torsion_hunt(4, 1)
        finds = [
            p for p in report["points"]
            if "1" in p["observed"]["torsion_by_degree"]
        ]
        assert finds
        assert any(p["observed"]["pointed_map_type"] for p in finds)


def test_criterion_12_conjecture_scans():
    with criterion(12, "conjecture scans complete with verdicts"):
        for n in (1, 2, 3):
            growth = scan_growth(n, maxdeg=4)
            assert growth["summary"]["all_consistent"], n
        boolean = scan_boolean(1, radius=1, maxdeg=3)
        assert boolean["summary"]["points"] == 27
        assert all(
            p["verdict"] in ("consistent", "inconsistent")
            for p in boolean["points"]
        )
        ms = validate_multishelf(
            boolean_multishelf(1).ops[:3]
        )
        probe = scan_hyperplane(ms, samples=40, bound=3, maxdeg=2, seed=0)
        assert probe["summary"]["exceptional_fraction"] <= 0.20
        assert probe["summary"]["generic_ranks"] is not None
        # reports serialize cleanly
        json.dumps(probe)


def test_criterion_13_snf_oracle_equivalence(labelled_by_size):
    with criterion(13, "sparse SNF vs dense reduction oracle"):
        rng = random.Random(31415)
        for _ in range(100):
            nrows = rng.randint(1, 8)
            ncols = rng.randint(1, 8)
            rows = [
                [rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(ncols)]
                for _ in range(nrows)
            ]
            sparse = smith_normal_form(SparseIntMatrix.from_dense(rows))
            assert sparse.factors == oracles.dense_smith_factors(rows), rows
        for table in labelled_by_size[2]:
            for augmented in (False, True):
                for d in range(5):
                    mat = boundary_matrix(
                        MultiShelf((table,)), (1,), d, augmented
                    )
                    assert (
                        smith_normal_form(mat).factors
                        == oracles.dense_smith_factors(mat.to_dense())
                    ), (table, d, augmented)
