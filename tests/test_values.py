"""The value types: repr, ==, hash, immutability, pickling and
constructor refusals, pinned as the dataclass versions of these types had
them."""

import importlib
import pickle
import pkgutil

import pytest

import shelfhom
from shelfhom.chain import ChainComplex
from shelfhom.errors import OutOfRange, SizeMismatch
from shelfhom.intmat import SparseIntMatrix
from shelfhom.snf import SmithForm
from shelfhom.tables import BinaryOpTable, MultiShelf, Shelf
from shelfhom.value import Value


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
    "ChainComplex": (
        lambda: ChainComplex(2, [_table()], [1], True, [
            SparseIntMatrix(1, 2, {(0, 0): 1}), SparseIntMatrix(2, 4, {})]),
        None, ("size", "ops", "coefficients", "augmented", "boundaries"),
        "ChainComplex(n=2, ops=1, maxdeg=1, augmented=True)",
    ),
    "SmithForm": (
        lambda: SmithForm((1, 2), frozenset({0})), lambda: SmithForm((1, 4)),
        ("factors", "paired"),
        "SmithForm(factors=(1, 2))",
    ),
}


def test_value_types_keep_their_contract():
    # with every module loaded, this is every value type
    for module in pkgutil.iter_modules(shelfhom.__path__):
        importlib.import_module("shelfhom." + module.name)
    assert set(CASES) == {c.__name__ for c in Value.__subclasses__()}
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

    # SmithForm ignores paired
    assert SmithForm((1, 2), frozenset({0})) == SmithForm((1, 2))
    assert hash(SmithForm((1, 2), frozenset({0}))) == hash(SmithForm((1, 2)))
    assert SmithForm((1,)).paired == frozenset()

    # a complex keeps tuples and reads dims and maxdeg off its boundaries
    cx = CASES["ChainComplex"][0]()
    assert type(cx.ops) is tuple and type(cx.boundaries) is tuple
    assert cx.dims == (2, 4) and cx.maxdeg == 1

    # constructor refusals, with their messages
    refusals = [
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


def test_orbits_and_the_shelf_complex_are_plain_tuples():
    # the left orbits are their blocks, and the shelf complex is its simplices
    paper = Shelf(BinaryOpTable(((0, 2, 2, 3), (0, 1, 2, 3), (0, 2, 2, 3), (2, 0, 2, 3))))
    assert shelfhom.left_orbits(paper) == ((0, 1, 2), (3,))
    assert shelfhom.build_shelf_complex(paper)[1] == ((0, 1), (0, 2), (1, 2))
