from hypothesis import given, settings, strategies as st

from shelfhom.families import idempotent_right, intersection_shelf, subtraction_shelf
from shelfhom.orbits import (
    classify,
    has_left_absorbing_element,
    left_orbits,
    orbit_quotient,
)
from shelfhom.tables import (
    BinaryOpTable,
    Shelf,
    right_trivial_op,
    validate_shelf,
)


def shelf_mod(n, fn):
    return validate_shelf(BinaryOpTable.from_function(n, fn))


def test_rack_has_one_orbit():
    assert len(left_orbits(shelf_mod(3, lambda x, y: (2 * y - x) % 3))) == 1


def test_right_trivial_has_n_orbits():
    blocks = left_orbits(validate_shelf(right_trivial_op(5)))
    assert len(blocks) == 5
    assert blocks == tuple((x,) for x in range(5))


def test_subtraction_shelf_on_empty_and_omega_is_connected():
    shelf = subtraction_shelf(omega_size=2, family=(0, 3))
    assert len(left_orbits(shelf)) == 1


def test_intersection_shelf_is_connected():
    shelf = intersection_shelf(omega_size=2, family=(0, 1, 2, 3))
    assert len(left_orbits(shelf)) == 1


def test_orbit_blocks_contain_y_times_x(labelled_by_size):
    for n, tables in labelled_by_size.items():
        for table in tables[:: max(1, len(tables) // 40)]:
            blocks = left_orbits(Shelf(table))
            block_of = {x: b for b, members in enumerate(blocks) for x in members}
            for x in range(n):
                bx = block_of[x]
                for y in range(n):
                    assert block_of[table.entries[y][x]] == bx


def test_orbit_quotient_of_connected_shelf_is_point():
    q, pi = orbit_quotient(shelf_mod(3, lambda x, y: (2 * y - x) % 3))
    assert q.size == 1
    assert pi == (0, 0, 0)


def test_orbit_quotient_of_idempotent_right_shelf():
    # x*y = g(y) with image of size 2: quotient is x*y = y on two elements
    shelf = idempotent_right(g=(0, 1, 0, 1))
    q, pi = orbit_quotient(shelf)
    assert q.size == 2
    assert q.table == right_trivial_op(2)
    assert pi == (0, 1, 0, 1)


def test_orbit_quotient_of_exceptional_three_element_shelf():
    shelf = validate_shelf(
        BinaryOpTable.from_rows([[0, 1, 2], [0, 1, 2], [0, 0, 2]])
    )
    assert left_orbits(shelf) == ((0, 1), (2,))
    q, _ = orbit_quotient(shelf)
    assert q.size == 2


def test_classify_dihedral():
    flags = classify(shelf_mod(3, lambda x, y: (2 * y - x) % 3))
    assert flags == {"spindle": True, "rack": True, "left_connected": True,
                     "invertible": True}


def test_classify_right_trivial():
    # x*y = y has constant right translations, so it is not invertible for
    # n >= 2 (it cannot be: its homology is nonzero, and invertibility would
    # force vanishing)
    flags = classify(validate_shelf(right_trivial_op(3)))
    assert flags == {"spindle": True, "rack": False, "left_connected": False,
                     "invertible": False}


def test_classify_constant_left():
    flags = classify(shelf_mod(3, lambda x, y: 0))
    assert flags == {"spindle": False, "rack": False, "left_connected": True,
                     "invertible": False}


def test_absorbing_element_detection():
    assert has_left_absorbing_element(BinaryOpTable.from_function(3, lambda x, y: x))
    assert not has_left_absorbing_element(right_trivial_op(3))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_quotient_map_is_homomorphism(labelled_by_size, data):
    n = data.draw(st.sampled_from([1, 2, 3]))
    table = data.draw(st.sampled_from(labelled_by_size[n]))
    shelf = Shelf(table)
    q, pi = orbit_quotient(shelf)
    x = data.draw(st.integers(0, n - 1))
    y = data.draw(st.integers(0, n - 1))
    assert pi[table.entries[x][y]] == q.table.entries[pi[x]][pi[y]]
    assert q.table == right_trivial_op(q.size)
