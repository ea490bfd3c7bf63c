from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from shelfhom.errors import (
    BoundExceeded,
    DistributivityViolation,
    MutualDistributivityViolation,
    NotInvertible,
    OutOfRange,
    SizeMismatch,
)
from shelfhom.tables import (
    BinaryOpTable,
    MultiShelf,
    Shelf,
    compose_ops,
    distributive_closure,
    identity_op,
    inverse_op,
    right_trivial_op,
    suffix_products,
    validate_multishelf,
    validate_shelf,
)

PAPER_4x4 = BinaryOpTable.from_rows(
    [[0, 2, 2, 3], [0, 1, 2, 3], [0, 2, 2, 3], [2, 0, 2, 3]]
)


def table_mod(n, fn):
    return BinaryOpTable.from_function(n, fn)


def test_table_entry_range_checked():
    with pytest.raises(OutOfRange):
        BinaryOpTable.from_rows([[0, 2], [0, 1]])
    with pytest.raises(OutOfRange):  # bool is an int subclass, not an entry
        BinaryOpTable(((0, True), (0, 1)))
    with pytest.raises(SizeMismatch):
        BinaryOpTable.from_rows([[0, 1], [0]])


def test_validate_shelf_paper_example():
    assert isinstance(validate_shelf(PAPER_4x4), Shelf)


def test_validate_shelf_one_element():
    assert validate_shelf(BinaryOpTable.from_rows([[0]])).size == 1


def test_validate_shelf_mod3_addition_fails():
    with pytest.raises(DistributivityViolation) as err:
        validate_shelf(table_mod(3, lambda x, y: (x + y) % 3))
    # lexicographically first violating triple
    v = err.value
    assert (v.x, v.y, v.z) == (0, 0, 1)
    assert v.lhs != v.rhs


def test_validate_multishelf_identity_with_any_shelf():
    shelf = validate_shelf(table_mod(3, lambda x, y: (2 * y - x) % 3))
    ms = validate_multishelf((identity_op(3), shelf.table))
    assert isinstance(ms, MultiShelf)
    assert ms.size == 3


def test_validate_multishelf_boolean_four_ops_omega2():
    # subsets of a two-element ground set, as bitmasks 0..3
    meet = table_mod(4, lambda a, b: a & b)
    join = table_mod(4, lambda a, b: a | b)
    ms = validate_multishelf(
        (meet, join, identity_op(4), right_trivial_op(4))
    )
    assert len(ms.ops) == 4


def test_validate_multishelf_first_violation_reported():
    with pytest.raises(MutualDistributivityViolation) as err:
        validate_multishelf(
            (identity_op(3), table_mod(3, lambda x, y: (x + y) % 3))
        )
    v = err.value
    assert (v.k, v.l) == (1, 1)  # addition alone is not even a shelf


def test_validate_multishelf_size_mismatch():
    with pytest.raises(SizeMismatch):
        validate_multishelf((identity_op(2), identity_op(3)))


def test_compose_identity_is_neutral():
    shelf = validate_shelf(PAPER_4x4)
    assert compose_ops(identity_op(4), shelf.table) == shelf.table
    assert compose_ops(shelf.table, identity_op(4)) == shelf.table


def test_compose_of_swaps_is_identity_product():
    # x *i y = 1 - x for both operations; their composition is x *0 y = x
    swap = table_mod(2, lambda x, y: 1 - x)
    assert compose_ops(swap, swap) == identity_op(2)


def test_compose_meet_then_join_is_right_projection():
    # On subsets of a singleton ground set: (x & y) | y == y.
    meet = table_mod(2, lambda a, b: a & b)
    join = table_mod(2, lambda a, b: a | b)
    assert compose_ops(meet, join) == right_trivial_op(2)


def test_compose_size_mismatch():
    with pytest.raises(SizeMismatch):
        compose_ops(identity_op(2), identity_op(3))


@settings(max_examples=60)
@given(st.integers(0, 3 ** 9 - 1), st.integers(0, 3 ** 9 - 1), st.integers(0, 3 ** 9 - 1))
def test_compose_is_associative_on_arbitrary_tables(a, b, c):
    def decode(code):
        digits = []
        for _ in range(9):
            code, r = divmod(code, 3)
            digits.append(r)
        return BinaryOpTable.from_rows(
            [digits[0:3], digits[3:6], digits[6:9]]
        )

    t1, t2, t3 = decode(a), decode(b), decode(c)
    assert compose_ops(compose_ops(t1, t2), t3) == compose_ops(t1, compose_ops(t2, t3))


def test_inverse_op_round_trip():
    rack = table_mod(4, lambda x, y: (x + 1) % 4)
    inv = inverse_op(rack)
    n = 4
    for x in range(n):
        for y in range(n):
            assert rack.entries[inv.entries[x][y]][y] == x
            assert inv.entries[rack.entries[x][y]][y] == x


def test_inverse_op_rejects_non_bijective_translations():
    with pytest.raises(NotInvertible):
        inverse_op(BinaryOpTable.from_rows([[0, 0], [0, 1]]))


def test_suffix_products_match_left_normed_folds(labelled_by_size):
    # every labelled 3-element shelf and every tuple of length 1..4
    for table in labelled_by_size[3]:
        rows = table.entries
        for k in range(1, 5):
            for xs in product(range(3), repeat=k):
                assert suffix_products(table, xs) == tuple(
                    oracles.left_normed_fold(rows, xs[i:]) for i in range(k))


def test_closure_of_identity_alone():
    ms = validate_multishelf((identity_op(3),))
    closed = distributive_closure(ms)
    assert set(op.entries for op in closed.ops) == {identity_op(3).entries}


def test_closure_of_swap_is_swap_plus_identity():
    swap = table_mod(2, lambda x, y: 1 - x)
    ms = validate_multishelf((swap,))
    closed = distributive_closure(ms)
    assert set(op.entries for op in closed.ops) == {
        swap.entries, identity_op(2).entries
    }


def test_closure_of_spindle_with_right_trivial_stays_valid():
    spindle = table_mod(3, lambda x, y: (2 * y - x) % 3)
    ms = validate_multishelf((spindle, right_trivial_op(3)))
    closed = distributive_closure(ms)
    assert isinstance(closed, MultiShelf)
    assert len(closed.ops) >= 3


def test_closure_bound_exceeded_carries_partial():
    spindle = table_mod(3, lambda x, y: (2 * y - x) % 3)
    ms = validate_multishelf((spindle, right_trivial_op(3)))
    with pytest.raises(BoundExceeded) as err:
        distributive_closure(ms, max_ops=2)
    assert isinstance(err.value.partial, MultiShelf)
    assert len(err.value.partial.ops) == 2


@settings(max_examples=40)
@given(st.data())
def test_closure_members_remain_mutually_distributive(data):
    # compositions of mutually distributive operations stay in the family
    spindles = [
        table_mod(3, lambda x, y: (2 * y - x) % 3),
        right_trivial_op(3),
        identity_op(3),
    ]
    picks = data.draw(st.lists(st.sampled_from(spindles), min_size=1, max_size=3))
    ms = validate_multishelf(picks)
    closed = distributive_closure(ms)
    # spot-check one random ordered pair directly
    k = data.draw(st.integers(0, len(closed.ops) - 1))
    l = data.draw(st.integers(0, len(closed.ops) - 1))
    tk, tl = closed.ops[k].entries, closed.ops[l].entries
    for x in range(3):
        for y in range(3):
            for z in range(3):
                assert tl[tk[x][y]][z] == tk[tl[x][z]][tl[y][z]]
