import hashlib
import random

import pytest

import oracles
from shelfhom.chain import (
    F_chain_map,
    build_complex,
    left_normed_tuple_map,
)
from shelfhom.errors import (
    ChainMapViolation,
    DegreeOutOfRange,
    MemoryCapExceeded,
    ShelfHomError,
    SizeMismatch,
)
from shelfhom.families import boolean_multishelf
from shelfhom.simplicial import simplicial_projection_map
from shelfhom.snf import homology_from_boundaries
from shelfhom.tables import (
    BinaryOpTable,
    MultiShelf,
    Shelf,
    compose_ops,
    identity_op,
    inverse_op,
    right_trivial_op,
    validate_multishelf,
    validate_shelf,
)


def test_lemma_identities_on_random_samples(labelled_by_size):
    # the three mixed left-normed identities for mutually distributive pairs
    rng = random.Random(31)
    pairs = []
    for a in labelled_by_size[3]:
        for b in (identity_op(3),):
            pairs.append((a, b))
    boolean = boolean_multishelf(1)
    for a in boolean.ops:
        for b in boolean.ops:
            pairs.append((a, b))

    def fold(ops_seq, xs):
        acc = xs[0]
        for op, x in zip(ops_seq, xs[1:]):
            acc = op.entries[acc][x]
        return acc

    checked = 0
    while checked < 1000:
        t1, t2 = rng.choice(pairs)
        try:
            validate_multishelf((t1, t2))
        except Exception:
            continue
        n = t1.size
        ln = rng.randint(1, 4)
        xs = [rng.randrange(n) for _ in range(ln + 1)]
        b = rng.randrange(n)
        t12 = compose_ops(t1, t2)

        # (1) folding *2 over the (*1 b)-translates equals translating the
        # *2 fold by b with *1
        lhs = fold([t2] * ln, [t1.entries[x][b] for x in xs])
        rhs = t1.entries[fold([t2] * ln, xs)][b]
        assert lhs == rhs

        # (2) absorbing a *2-product of suffixes into one *12 step
        k = rng.randint(1, ln)
        whole = fold([t1] * ln, xs)
        suffix = fold([t1] * (ln - k), xs[k:])
        lhs2 = t2.entries[whole][suffix]
        rhs2 = fold([t1] * (k - 1) + [t12] + [t1] * (ln - k), xs)
        assert lhs2 == rhs2

        # (3) the *2 fold of all *1 suffix products equals the *12 fold
        suffixes = [fold([t1] * (ln - i), xs[i:]) for i in range(ln + 1)]
        lhs3 = fold([t2] * ln, suffixes)
        rhs3 = fold([t12] * ln, xs)
        assert lhs3 == rhs3
        checked += 1


def test_f_map_for_identity_operation_is_identity():
    shelf = validate_shelf(
        BinaryOpTable.from_function(3, lambda x, y: (2 * y - x) % 3)
    )
    for d in range(4):
        f = F_chain_map(identity_op(3), shelf, (1,), d)
        assert f == oracles.identity_matrix(3 ** (d + 1))
    with pytest.raises(SizeMismatch):
        F_chain_map(identity_op(3), shelf, (1, 1), 0)


def test_f_map_composition_law():
    # F^{compose(s1,s2)} == F^{s2} F^{s1} for mutually distributive pairs
    boolean = boolean_multishelf(1)
    ops = boolean.ops
    for s1 in ops:
        for s2 in ops:
            comp = compose_ops(s1, s2)
            for d in range(3):
                lhs = left_normed_tuple_map(comp, d)
                rhs = left_normed_tuple_map(s2, d).matmul(
                    left_normed_tuple_map(s1, d)
                )
                assert lhs == rhs


def test_f_map_refuses_a_star1_that_does_not_distribute():
    # x *1 y = 1 - x against x * y = y: (x *1 y) * z = z but
    # (x * z) *1 (y * z) = 1 - z
    swap = BinaryOpTable.from_function(2, lambda x, y: 1 - x)
    with pytest.raises(ChainMapViolation, match="not mutually distributive"):
        F_chain_map(swap, validate_shelf(right_trivial_op(2)), (1,), 1)


def test_chain_maps_refuse_a_negative_degree_with_a_structured_error():
    shelf = validate_shelf(right_trivial_op(2))
    for call in (lambda: F_chain_map(identity_op(2), shelf, (1,), -1),
                 lambda: simplicial_projection_map(shelf, -1)):
        with pytest.raises(ShelfHomError) as info:
            call()
        assert info.value.exit_code == 2


def test_chain_maps_refuse_a_degree_past_their_cap_at_once():
    # F at degree 30 would need 2^31 columns; the projection has no simplex
    # past dimension n - 1, and the tuple cap counts n^(degree+1) up to it
    shelf = validate_shelf(right_trivial_op(2))
    with pytest.raises(MemoryCapExceeded):
        F_chain_map(identity_op(2), shelf, (1,), 30)
    # 2^20002 has too many digits to print, so the message leaves it out
    with pytest.raises(MemoryCapExceeded, match=r"needs 2\^20002 <= cap"):
        F_chain_map(identity_op(2), shelf, (1,), 20000)
    shelf3 = validate_shelf(right_trivial_op(3))
    for degree in (3, 30):
        with pytest.raises(DegreeOutOfRange, match=f"degree {degree} outside 0..2"):
            simplicial_projection_map(shelf3, degree)


def test_f_map_invertible_swap_left():
    # star1: x *1 y = 1 - x on two elements; star1 composed with itself is
    # the identity product, and F is a permutation matrix in every degree
    swap = BinaryOpTable.from_function(2, lambda x, y: 1 - x)
    target = build_complex(Shelf(swap), (1,), 3, augmented=True)
    source = build_complex(
        Shelf(compose_ops(swap, swap)), (1,), 3, augmented=True
    )
    ranks_source = [g["rank"] for g in homology_from_boundaries(source.boundaries)]
    ranks_target = [g["rank"] for g in homology_from_boundaries(target.boundaries)]
    for d in range(3):
        f = F_chain_map(swap, Shelf(swap), (1,), d)
        cols = {}
        for (i, j), v in f.items():
            assert v == 1
            cols.setdefault(j, []).append(i)
        assert sorted(cols) == list(range(2 ** (d + 1)))
        hit_rows = sorted(i for hits in cols.values() for i in hits)
        assert hit_rows == list(range(2 ** (d + 1)))
    assert ranks_source == ranks_target


def test_f_map_kamada_mechanism():
    # rack homology of op and of its inverse agree through the chain map:
    # composing with the inverse operation turns (op, identity) into
    # (identity, inverse)
    c4 = validate_shelf(BinaryOpTable.from_function(4, lambda x, y: (x + 1) % 4))
    inv = inverse_op(c4.table)
    target_ms = MultiShelf((c4.table, identity_op(4)))
    target = build_complex(target_ms, (1, -1), 3, augmented=False)
    source_ops = (
        compose_ops(inv, c4.table),
        compose_ops(inv, identity_op(4)),
    )
    assert source_ops[0] == identity_op(4)
    assert source_ops[1] == inv
    source = build_complex(
        MultiShelf(source_ops), (1, -1), 3, augmented=False
    )
    for d in range(3):
        F_chain_map(inv, target_ms, (1, -1), d)  # raises on any failure
    assert [g["rank"] for g in homology_from_boundaries(source.boundaries)] == [
        g["rank"] for g in homology_from_boundaries(target.boundaries)
    ]


def test_projection_degree_zero_is_identity():
    shelf = validate_shelf(
        BinaryOpTable.from_rows([[0, 2, 2, 3], [0, 1, 2, 3], [0, 2, 2, 3], [2, 0, 2, 3]])
    )
    phi = simplicial_projection_map(shelf, 0)
    assert phi == oracles.identity_matrix(4)


def test_projection_right_trivial_collapses():
    # left-normed products all equal the last coordinate, so every image
    # has a repeated vertex in degrees >= 1
    shelf = validate_shelf(right_trivial_op(3))
    for d in (1, 2):
        phi = simplicial_projection_map(shelf, d)
        assert phi.is_zero()


def test_projection_commutes_for_all_three_element_shelves(labelled_by_size):
    for table in labelled_by_size[3]:
        shelf = Shelf(table)
        for d in (1, 2):
            simplicial_projection_map(shelf, d)  # verifies internally


def test_chain_maps_are_pinned(labelled_by_size):
    # sha256 of repr([(shape, sorted(data.items())), ...]) over F for every
    # ordered pair of Boolean operations, F for the Kamada case, and the
    # simplicial projection of every labelled 3-element shelf, degrees 0..2
    mats = []
    boolean = boolean_multishelf(1)
    for star1 in boolean.ops:
        for t in boolean.ops:
            mats += [F_chain_map(star1, Shelf(t), (1,), d) for d in range(3)]
    c4 = BinaryOpTable.from_function(4, lambda x, y: (x + 1) % 4)
    inv = inverse_op(c4)
    target = MultiShelf((c4, identity_op(4)))
    mats += [F_chain_map(inv, target, (1, -1), d) for d in range(3)]
    for table in labelled_by_size[3]:
        mats += [simplicial_projection_map(Shelf(table), d) for d in range(3)]
    got = repr([(m.shape, sorted(m.items())) for m in mats])
    assert hashlib.sha256(got.encode()).hexdigest() == (
        "ecf3fea3e956f55997bb4e0309a6d886da0f7f7f2050d8eb6d9aa7a943635d89")
