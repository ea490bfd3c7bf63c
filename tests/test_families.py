import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from shelfhom.errors import (
    EmptyList,
    RetractionNotIdentityOnA,
    SpecPreconditionFailed,
)
from shelfhom.families import (
    boolean_multishelf,
    const_left,
    direct_product,
    disjoint_union,
    idempotent_right,
    intersection_shelf,
    partition_family,
    pointed_map,
    strong_retract_extend,
    subset_switch,
    subtraction_shelf,
)
from shelfhom.orbits import left_orbits
from shelfhom.tables import (
    BinaryOpTable,
    MultiShelf,
    Shelf,
    identity_op,
    right_trivial_op,
    validate_shelf,
)


def test_idempotent_right_identity_map_gives_right_trivial():
    shelf = idempotent_right(g=(0, 1, 2))
    assert shelf.table == right_trivial_op(3)


def test_idempotent_right_constant_ok_and_broken_map_rejected():
    shelf = idempotent_right(g=(0, 0, 0))
    assert shelf.size == 3
    with pytest.raises(SpecPreconditionFailed):
        idempotent_right(g=(0, 2, 0))


def test_boolean_multishelf_singleton_ground_set():
    ms = boolean_multishelf(1)
    assert isinstance(ms, MultiShelf)
    assert ms.size == 2
    assert len(ms.ops) == 4
    assert ms.ops[0] == identity_op(2)
    assert ms.ops[3] == right_trivial_op(2)


def test_const_left_is_family_one():
    shelf = const_left(f=(1, 0, 1))
    for x in range(3):
        for y in range(3):
            assert shelf.apply(x, y) == (1, 0, 1)[x]


def test_subset_switch():
    shelf = subset_switch(size=4, members=frozenset({1, 2}))
    assert shelf.apply(3, 1) == 3  # y in A keeps x
    assert shelf.apply(3, 0) == 0  # y outside A wins


def test_pointed_map_family():
    shelf = pointed_map(b=0, g=(0, 2, 3, 1))
    assert shelf.apply(0, 1) == 2
    assert shelf.apply(2, 1) == 1
    with pytest.raises(SpecPreconditionFailed):
        pointed_map(b=0, g=(0, 0, 1, 2))  # g^-1(0) too big
    with pytest.raises(SpecPreconditionFailed):
        pointed_map(b=1, g=(0, 0, 1, 2))  # g(b) != b


def test_partition_family_generalizes_pointed_map():
    # two blocks; g_j must fix every g_i image inside block j
    blocks = ((0, 1), (2, 3))
    g0 = (0, 1, 2, 2)
    g1 = (0, 0, 2, 2)
    shelf = partition_family(blocks=blocks, maps=(g0, g1))
    assert shelf.apply(0, 1) == 1
    assert shelf.apply(2, 1) == 0
    assert shelf.apply(3, 3) == 2
    # a swap on the second block is not fixed by the first map's image there
    swap_high = (0, 1, 3, 2)
    with pytest.raises(SpecPreconditionFailed):
        partition_family(blocks=blocks, maps=((0, 1, 2, 3), swap_high))


def test_intersection_family_requires_closure():
    with pytest.raises(SpecPreconditionFailed):
        intersection_shelf(omega_size=2, family=(1, 2))
    shelf = intersection_shelf(omega_size=2, family=(0, 1, 2))
    assert shelf.size == 3


def test_subtraction_family_requires_closure():
    with pytest.raises(SpecPreconditionFailed):
        subtraction_shelf(omega_size=2, family=(0, 1, 3))
    shelf = subtraction_shelf(omega_size=2, family=(0, 1, 2, 3))
    assert shelf.size == 4


def test_combine_two_points_gives_identity_product():
    one = validate_shelf(identity_op(1))
    assert disjoint_union([one, one]).table == identity_op(2)


def test_combine_product_of_right_trivial():
    rt = validate_shelf(right_trivial_op(2))
    prod = direct_product([rt, rt])
    assert prod.table == right_trivial_op(4)


def test_combine_disjoint_union_is_left_connected():
    # cross-block products return the left argument, so x ~ y across blocks
    # and the union of left-connected shelves is still left connected
    r3 = validate_shelf(BinaryOpTable.from_function(3, lambda x, y: (2 * y - x) % 3))
    union = disjoint_union([r3, r3])
    assert union.size == 6
    assert len(left_orbits(union)) == 1


def test_combine_empty_list():
    with pytest.raises(EmptyList):
        disjoint_union([])
    with pytest.raises(EmptyList):
        direct_product([])


def test_strong_retract_identity_keeps_base():
    base = validate_shelf(right_trivial_op(3))
    out = strong_retract_extend(base, 3, (0, 1, 2))
    assert out.table == base.table


def test_strong_retract_point_base():
    base = validate_shelf(right_trivial_op(1))
    out = strong_retract_extend(base, 2, (0, 0))
    assert out.table == BinaryOpTable.from_rows([[0, 0], [0, 0]])


def test_strong_retract_reproduces_idempotent_right_family():
    g = (0, 1, 0, 1)
    viaretract = strong_retract_extend(
        validate_shelf(right_trivial_op(2)), 4, g
    )
    assert viaretract.table == idempotent_right(g=g).table


def test_strong_retract_requires_identity_on_base():
    base = validate_shelf(right_trivial_op(2))
    with pytest.raises(RetractionNotIdentityOnA):
        strong_retract_extend(base, 3, (0, 0, 1))
    with pytest.raises(SpecPreconditionFailed):
        strong_retract_extend(base, 3, (0, 1, 5))


def _closure(masks, op):
    """The least set of masks containing ``masks`` and closed under op."""
    closed = set(masks)
    while True:
        more = {op(a, b) for a in closed for b in closed} - closed
        if not more:
            return closed
        closed |= more


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_random_family_constructions_validate(data):
    n = data.draw(st.integers(1, 4))
    kind = data.draw(st.sampled_from([
        "const", "idem", "switch", "identity", "trivial",
        "pointed", "intersection", "subtraction",
    ]))
    if kind == "const":
        f = tuple(data.draw(st.integers(0, n - 1)) for _ in range(n))
        shelf = const_left(f=f)
    elif kind == "idem":
        image = data.draw(st.integers(1, n))
        g = tuple(data.draw(st.integers(0, image - 1)) for _ in range(n))
        g = tuple(g[x] if x >= image else x for x in range(n))
        shelf = idempotent_right(g=g)
    elif kind == "switch":
        members = frozenset(
            x for x in range(n) if data.draw(st.booleans())
        )
        shelf = subset_switch(size=n, members=members)
    elif kind == "identity":
        shelf = validate_shelf(identity_op(n))
    elif kind == "trivial":
        shelf = validate_shelf(right_trivial_op(n))
    elif kind == "pointed":
        # g fixes b and sends no other point to b, so g^-1(b) = {b}
        b = data.draw(st.integers(0, n - 1))
        others = [v for v in range(n) if v != b]
        g = tuple(
            b if x == b else data.draw(st.sampled_from(others))
            for x in range(n)
        )
        shelf = pointed_map(b=b, g=g)
    else:
        omega = data.draw(st.integers(0, 3))
        masks = data.draw(
            st.sets(st.integers(0, (1 << omega) - 1), min_size=1)
        )
        if kind == "intersection":
            closed = _closure(masks, lambda a, b: a & b)
            build = intersection_shelf
        else:
            closed = _closure(masks, lambda a, b: a & ~b)
            build = subtraction_shelf
        family = tuple(data.draw(st.permutations(sorted(closed))))
        shelf = build(omega_size=omega, family=family)
        assert shelf.size == len(family)
    # each constructor already validates; re-assert to pin the contract
    assert isinstance(validate_shelf(shelf.table), Shelf)


_R3 = validate_shelf(BinaryOpTable.from_function(3, lambda x, y: (2 * y - x) % 3))
_I2 = validate_shelf(identity_op(2))
_T1 = validate_shelf(right_trivial_op(1))
_T2 = validate_shelf(right_trivial_op(2))

# One case per constructor and one refusal per SpecPreconditionFailed,
# EmptyList and RetractionNotIdentityOnA message in shelfhom.families.
_PIN_CASES = [
    *[(f"identity-{n}", lambda n=n: validate_shelf(identity_op(n))) for n in range(1, 5)],
    *[(f"right-trivial-{n}", lambda n=n: validate_shelf(right_trivial_op(n))) for n in range(1, 5)],
    ("const-left", lambda: const_left(f=(1, 0, 1, 3))),
    ("idempotent-right", lambda: idempotent_right(g=(0, 0, 2, 2))),
    ("subset-switch", lambda: subset_switch(size=4, members=frozenset({1, 2}))),
    ("pointed-map", lambda: pointed_map(b=0, g=(0, 2, 3, 1))),
    ("partition", lambda: partition_family(
        blocks=((0, 1), (2, 3)), maps=((0, 1, 2, 2), (0, 0, 2, 2)))),
    ("intersection", lambda: intersection_shelf(omega_size=2, family=(0, 1, 2, 3))),
    ("subtraction", lambda: subtraction_shelf(omega_size=2, family=(0, 1, 2, 3))),
    ("boolean-0", lambda: boolean_multishelf(0)),
    ("boolean-2", lambda: boolean_multishelf(2)),
    ("union-2", lambda: disjoint_union([_R3, _I2])),
    ("union-3", lambda: disjoint_union([_R3, _R3, _T1])),
    ("product-2", lambda: direct_product([_R3, _T2])),
    ("product-3", lambda: direct_product([_I2, _R3, _T2])),
    ("retract", lambda: strong_retract_extend(_R3, 5, (0, 1, 2, 1, 0))),
    ("bad-map-length", lambda: partition_family(blocks=((0, 1),), maps=((0,),))),
    ("bad-map-value", lambda: const_left(f=(0, 2))),
    ("bad-idempotent", lambda: idempotent_right(g=(0, 2, 0))),
    ("bad-switch-members", lambda: subset_switch(size=2, members=frozenset({2}))),
    ("bad-base-point", lambda: pointed_map(b=3, g=(0, 1, 2))),
    ("bad-preimage", lambda: pointed_map(b=0, g=(0, 0, 1, 2))),
    ("bad-partition", lambda: partition_family(
        blocks=((0, 1), (1, 2)), maps=((0, 1, 2), (0, 1, 2)))),
    ("bad-map-count", lambda: partition_family(blocks=((0, 1), (2,)), maps=((0, 1, 2),))),
    ("bad-block-image", lambda: partition_family(
        blocks=((0, 1), (2, 3)), maps=((2, 1, 2, 3), (0, 1, 2, 3)))),
    ("bad-block-compose", lambda: partition_family(
        blocks=((0, 1), (2, 3)), maps=((0, 1, 2, 3), (0, 1, 3, 2)))),
    ("bad-intersection-omega", lambda: intersection_shelf(omega_size=-1, family=(0,))),
    ("bad-subtraction-distinct", lambda: subtraction_shelf(omega_size=2, family=(0, 0))),
    ("bad-intersection-empty", lambda: intersection_shelf(omega_size=2, family=())),
    ("bad-subtraction-mask", lambda: subtraction_shelf(omega_size=1, family=(0, 2))),
    ("bad-intersection-closure", lambda: intersection_shelf(omega_size=2, family=(1, 2))),
    ("bad-subtraction-closure", lambda: subtraction_shelf(omega_size=2, family=(0, 1, 3))),
    ("bad-boolean-omega", lambda: boolean_multishelf(-1)),
    ("bad-union-empty", lambda: disjoint_union([])),
    ("bad-product-empty", lambda: direct_product([])),
    ("bad-retract-carrier", lambda: strong_retract_extend(_R3, 2, (0, 1))),
    ("bad-retract-length", lambda: strong_retract_extend(_R3, 4, (0, 1, 2))),
    ("bad-retract-value", lambda: strong_retract_extend(_R3, 4, (0, 1, 2, 3))),
    ("bad-retract-identity", lambda: strong_retract_extend(_R3, 4, (0, 2, 1, 0))),
]

_PIN_DIGEST = "8650562c61fcb82ec857bbeff3acc5dda4a468860d09a73a76eb16d75ad53fdf"


def _pin_outcome(name, build):
    try:
        built = build()
    except (SpecPreconditionFailed, EmptyList, RetractionNotIdentityOnA) as exc:
        return (name, type(exc).__name__, str(exc))
    return (name, [op.flat() for op in built.ops])


def test_family_tables_and_refusals_are_pinned():
    outcomes = [_pin_outcome(name, build) for name, build in _PIN_CASES]
    assert len({name for name, _ in _PIN_CASES}) == len(_PIN_CASES)
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == _PIN_DIGEST
