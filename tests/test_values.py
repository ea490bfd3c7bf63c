"""The value types: repr, ==, hash, ordering, immutability, pickling and
constructor refusals, pinned as the dataclass versions of these types had
them."""

import pickle

import pytest

from shelfhom.census import IsoClassKey
from shelfhom.chain import ChainComplex
from shelfhom.errors import OutOfRange, SizeMismatch
from shelfhom.intmat import SparseIntMatrix
from shelfhom.orbits import OrbitPartition, ShelfFlags
from shelfhom.simplicial import ShelfComplex
from shelfhom.snf import HomologyGroup, SmithForm
from shelfhom.tables import BinaryOpTable, MultiShelf, Shelf


def _table():
    return BinaryOpTable(((0, 0), (1, 1)))


# name -> (build, a differing instance, field names, repr)
CASES = {
    "BinaryOpTable": (
        _table, lambda: BinaryOpTable(((0, 1), (0, 1))), ("entries",),
        "BinaryOpTable(entries=((0, 0), (1, 1)))",
    ),
    "Shelf": (
        lambda: Shelf(_table()), lambda: Shelf(BinaryOpTable(((0,),))), ("table",),
        "Shelf(table=BinaryOpTable(entries=((0, 0), (1, 1))))",
    ),
    "MultiShelf": (
        lambda: MultiShelf((_table(), _table())), lambda: MultiShelf((_table(),)),
        ("ops",),
        "MultiShelf(ops=(BinaryOpTable(entries=((0, 0), (1, 1))), "
        "BinaryOpTable(entries=((0, 0), (1, 1)))))",
    ),
    "IsoClassKey": (
        lambda: IsoClassKey((0, 0, 1, 1)), lambda: IsoClassKey((0,)), ("flat",),
        "IsoClassKey(flat=(0, 0, 1, 1))",
    ),
    "ChainComplex": (
        lambda: ChainComplex(2, [_table()], [1], True, [
            SparseIntMatrix(1, 2, {(0, 0): 1}), SparseIntMatrix(2, 4, {})]),
        None, ("size", "ops", "coefficients", "augmented", "boundaries"),
        "ChainComplex(n=2, ops=1, maxdeg=1, augmented=True)",
    ),
    "OrbitPartition": (
        lambda: OrbitPartition(2, ((0,), (1,))), lambda: OrbitPartition(2, ((0, 1),)),
        ("size", "blocks"),
        "OrbitPartition(size=2, blocks=((0,), (1,)))",
    ),
    "ShelfFlags": (
        lambda: ShelfFlags(is_spindle=True, is_rack=True, is_left_connected=False),
        lambda: ShelfFlags(True, True, True),
        ("is_spindle", "is_rack", "is_left_connected"),
        "ShelfFlags(is_spindle=True, is_rack=True, is_left_connected=False)",
    ),
    "ShelfComplex": (
        lambda: ShelfComplex(2, 1, (((0,), (1,)), ((0, 1),))),
        lambda: ShelfComplex(2, 0, (((0,), (1,)),)), ("size", "maxdim", "simplices"),
        "ShelfComplex(size=2, maxdim=1, simplices=(((0,), (1,)), ((0, 1),)))",
    ),
    "SmithForm": (
        lambda: SmithForm((1, 2), frozenset({0})), lambda: SmithForm((1, 4)),
        ("factors", "paired"),
        "SmithForm(factors=(1, 2))",
    ),
    "HomologyGroup": (
        lambda: HomologyGroup(1, 0, (2,)), lambda: HomologyGroup(1, 0), (
            "degree", "rank", "torsion"),
        "HomologyGroup(degree=1, rank=0, torsion=(2,))",
    ),
}


def test_value_types_keep_their_contract():
    for name, (build, other, fields, text) in CASES.items():
        a, b = build(), build()
        assert type(a).__name__ == name
        assert repr(a) == text, name
        if name == "ChainComplex":
            # identity equality and the default hash
            assert a == a and a != b and len({a, b}) == 2, name
        else:
            assert a == b and not a != b and a != other(), name
            assert a != (getattr(a, fields[0]),), name
        if name != "ChainComplex":
            assert hash(a) == hash(b), name
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(a, field, getattr(b, field))
            with pytest.raises(AttributeError):
                delattr(a, field)
        for protocol in (pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL):
            c = pickle.loads(pickle.dumps(a, protocol))
            assert type(c) is type(a) and repr(c) == text, name
            for field in fields:
                assert repr(getattr(c, field)) == repr(getattr(a, field)), name
            if name != "ChainComplex":
                assert c == a and hash(c) == hash(a), name

    # SmithForm ignores paired; OrbitPartition's block index is no field
    assert SmithForm((1, 2), frozenset({0})) == SmithForm((1, 2))
    assert hash(SmithForm((1, 2), frozenset({0}))) == hash(SmithForm((1, 2)))
    assert SmithForm((1,)).paired == frozenset()
    part = OrbitPartition(3, ((0, 2), (1,)))
    assert [part.block_of(x) for x in range(3)] == [0, 1, 0]
    assert part == OrbitPartition(3, ((0, 2), (1,)))
    assert repr(part) == "OrbitPartition(size=3, blocks=((0, 2), (1,)))"
    assert part.count == 2 and part.representatives == (0, 1)

    # IsoClassKey sorts by flat
    keys = [IsoClassKey((1, 0)), IsoClassKey((0, 1, 1)), IsoClassKey((0, 1))]
    assert [k.flat for k in sorted(keys)] == [(0, 1), (0, 1, 1), (1, 0)]
    small, large = IsoClassKey((0, 1)), IsoClassKey((1, 0))
    assert small < large and small <= large and large > small and large >= small
    assert not small > large and small <= IsoClassKey((0, 1))

    # defaults and keyword construction
    assert HomologyGroup(degree=2, rank=1) == HomologyGroup(2, 1, ())
    cx = CASES["ChainComplex"][0]()
    assert type(cx.ops) is tuple and type(cx.boundaries) is tuple
    assert cx.dims == (2, 4) and cx.maxdeg == 1

    # constructor refusals, with their messages
    refusals = [
        (lambda: HomologyGroup(0, -1), ValueError, "negative free rank -1"),
        (lambda: HomologyGroup(0, 0, (1,)), ValueError, "factor 1 is below 2"),
        (lambda: SmithForm((2, 3)), ValueError,
         "factors 2, 3 break the divisibility chain"),
        (lambda: SmithForm((0,)), ValueError, "factor 0 is below 1"),
        (lambda: BinaryOpTable(((0, 1), (0,))), SizeMismatch,
         "ragged table: row of length 1 in a size-2 table"),
        (lambda: BinaryOpTable(((0, 2), (0, 1))), OutOfRange,
         "table entry 2 outside 0..1"),
        (lambda: BinaryOpTable(((0, True), (0, 1))), OutOfRange,
         "table entry True outside 0..1"),
        (lambda: BinaryOpTable(()), OutOfRange, "a table needs a nonempty carrier"),
    ]
    for make, error, message in refusals:
        with pytest.raises(error) as caught:
            make()
        assert str(caught.value) == message
