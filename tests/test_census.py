import random
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from shelfhom.census import canonical_form, enumerate_shelf_tables, enumerate_shelves
from shelfhom.errors import PracticalSizeLimit
from shelfhom.families import const_left, intersection_shelf, pointed_map, subtraction_shelf
from shelfhom.orbits import classify
from shelfhom.tables import (
    BinaryOpTable,
    Shelf,
    identity_op,
    right_trivial_op,
    validate_shelf,
)


def relabel(table, perm):
    n = table.size
    flat = oracles.relabel_flat(table.flat(), n, perm)
    return BinaryOpTable.from_rows([flat[i * n:(i + 1) * n] for i in range(n)])


def test_relabelled_copies_share_a_key():
    swap_left = const_left(f=(1, 0)).table
    moved = relabel(swap_left, (1, 0))
    assert canonical_form(swap_left) == canonical_form(moved)


def test_projections_are_not_isomorphic():
    assert canonical_form(identity_op(2)) != canonical_form(right_trivial_op(2))


def test_canonical_form_size_guard():
    with pytest.raises(PracticalSizeLimit, match=r"canonical form refuses n = 9 > 8: its search "
                       r"branches over points that no row tells apart, already 30 ms per "
                       r"relabelled pointed map at n = 8"):
        canonical_form(identity_op(9))


def test_key_table_round_trip():
    canon = canonical_form(identity_op(3))
    assert canon.size == 3
    assert canonical_form(canon) == canon


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_canonical_form_is_relabelling_invariant(data):
    n = data.draw(st.integers(1, 4))
    flat = [data.draw(st.integers(0, n - 1)) for _ in range(n * n)]
    table = BinaryOpTable.from_rows(
        [flat[i * n:(i + 1) * n] for i in range(n)]
    )
    perm = tuple(data.draw(st.permutations(range(n))))
    assert canonical_form(table) == canonical_form(relabel(table, perm))


def _random_table(n, seed):
    rng = random.Random(seed)
    return BinaryOpTable(tuple(
        tuple(rng.randrange(n) for _ in range(n)) for _ in range(n)
    ))


def _dihedral(n):
    return BinaryOpTable.from_function(n, lambda x, y: (2 * y - x) % n)


def _shuffled(table, seed):
    perm = list(range(table.size))
    random.Random(seed).shuffle(perm)
    return relabel(table, perm)


# seeded random tables, nearly all of them not shelves, and the dihedral
# quandles R3, R5 and R7; then the tables that drive the search's pruning:
# the projections and a constant, whose automorphism groups are large, with
# the oracle's n! kept to three cases at n = 8; relabelled pointed maps,
# whose rows tie up to their one map row; relabelled Alexander quandles;
# repeated rows; and a table whose best leaf changes below a node before
# that node's later siblings are compared
LEX_MIN_CASES = {
    **{f"random-n{n}-{seed}": _random_table(n, seed)
       for n in range(1, 7) for seed in range(3)},
    **{f"R{n}": _dihedral(n) for n in (3, 5, 7)},
    **{f"{name}-n{n}": BinaryOpTable.from_function(n, op)
       for name, op, sizes in [("right-projection", lambda x, y: y, (6, 8)),
                               ("left-projection", lambda x, y: x, (6, 8)),
                               ("constant", lambda x, y: 0, (6,))]
       for n in sizes},
    "constant-n7-relabelled": _shuffled(BinaryOpTable.from_function(7, lambda x, y: 0), 1),
    **{f"pointed-map-n{n}-{seed}": _shuffled(
        pointed_map(0, [0, *(random.Random(seed).randrange(1, n) for _ in range(n - 1))]).table,
        seed) for n in (5, 6, 7) for seed in range(2)},
    "pointed-map-two-2-cycles": _shuffled(pointed_map(0, (0, 2, 1, 4, 3)).table, 2),
    "pointed-map-3-cycle": pointed_map(1, (0, 1, 4, 2, 3, 5)).table,
    "pointed-map-3-cycle-with-tree": _shuffled(pointed_map(0, (0, 2, 3, 1, 1, 4, 6)).table, 3),
    # x*y = a·x + (1 − a)·y on Z_n with a = 3
    **{f"alexander-Z{n}-a3": _shuffled(
        BinaryOpTable.from_function(n, lambda x, y: (3 * x - 2 * y) % n), n) for n in (7, 8)},
    "repeated-rows": _shuffled(BinaryOpTable(
        ((2, 0, 1, 1, 3),) * 3 + ((4, 4, 0, 1, 2),) * 2), 5),
    "new-best-below-a-node": BinaryOpTable(((1, 0, 0), (1, 1, 1), (1, 2, 2))),
}


def test_closed_form_canonical_tables_at_the_size_guard():
    # every relabelling fixes x*y = y and x*y = x and sends x*y = 0 to a
    # constant table, so each is its own canonical form
    for op in (lambda x, y: y, lambda x, y: x, lambda x, y: 0):
        table = BinaryOpTable.from_function(8, op)
        assert canonical_form(table) == canonical_form(_shuffled(table, 8)) == table
    assert canonical_form(BinaryOpTable.from_function(8, lambda x, y: 5)) == \
        BinaryOpTable.from_function(8, lambda x, y: 0)


@pytest.mark.parametrize("case", list(LEX_MIN_CASES))
def test_canonical_form_is_the_lex_min_relabelling(case):
    table = LEX_MIN_CASES[case]
    n = table.size
    expected = min(
        oracles.relabel_flat(table.flat(), n, perm)
        for perm in permutations(range(n))
    )
    assert canonical_form(table).flat() == expected


def test_two_element_shelves_is_the_paper_list():
    shelves = enumerate_shelves(2)
    assert len(shelves) == 6
    named = {
        "constant-left": const_left(f=(0, 0)).table,
        "identity-product": validate_shelf(identity_op(2)).table,
        "swap-left": const_left(f=(1, 0)).table,
        "right-trivial": validate_shelf(right_trivial_op(2)).table,
        "meet": intersection_shelf(1, (0, 1)).table,
        "subtract": subtraction_shelf(1, (0, 1)).table,
    }
    assert {canonical_form(t) for t in named.values()} == {s.table for s in shelves}


def test_one_element_enumeration():
    assert len(enumerate_shelves(1)) == 1
    assert enumerate_shelves(1)[0] == Shelf(BinaryOpTable(((0,),)))


def test_enumeration_size_guard():
    with pytest.raises(PracticalSizeLimit):
        enumerate_shelf_tables(6)
    with pytest.raises(PracticalSizeLimit):
        enumerate_shelves(6)


@pytest.mark.parametrize("n, labelled, racks, quandles", [
    (3, 224, 6, 3),
    (4, 14067, 19, 7),
])
def test_orderly_census_is_canonical_and_complete(
    n, labelled, racks, quandles, request
):
    # Rack and quandle counts are OEIS A181769 and A181771.  The orbit sum
    # n!/|Aut| over the classes recounts the labelled tables, so a class the
    # prune dropped shows as a shortfall.
    shelves = request.getfixturevalue(f"classes{n}")
    flats = [s.table.flat() for s in shelves]
    assert all(a < b for a, b in zip(flats, flats[1:]))
    assert all(canonical_form(s.table) == s.table for s in shelves)
    perms = list(permutations(range(n)))
    orbit_sum = 0
    for flat in flats:
        aut = sum(oracles.relabel_flat(flat, n, p) == flat for p in perms)
        orbit_sum += factorial(n) // aut
    assert orbit_sum == labelled
    flags = [classify(s) for s in shelves]
    assert sum(f["rack"] for f in flags) == racks
    assert sum(f["rack"] and f["spindle"] for f in flags) == quandles


@pytest.mark.parametrize("n", [1, 2, 3])
def test_classes_match_orbit_partition_oracle(n, labelled_by_size):
    flats = [t.flat() for t in labelled_by_size[n]]
    reps = oracles.iso_classes_by_orbit(flats, n)
    assert [s.table.flat() for s in enumerate_shelves(n)] == reps


def test_every_enumerated_table_is_a_shelf(classes3, classes4):
    classes = enumerate_shelves(1) + enumerate_shelves(2) + classes3 + classes4
    assert len(classes) == 1 + 6 + 48 + 720
    for s in classes:
        assert oracles.brute_force_is_shelf(s.table.entries)


def test_enumeration_is_deterministic():
    assert enumerate_shelves(3) == enumerate_shelves(3)
