import pytest

import oracles
from shelfhom.census import enumerate_shelves
from shelfhom.tables import BinaryOpTable


@pytest.fixture(scope="session")
def labelled_by_size():
    """All labelled shelf tables for carriers 1..3, in ascending order of
    their flattenings, found by the exhaustive filter."""
    return {n: [BinaryOpTable(tuple(flat[i * n:(i + 1) * n] for i in range(n)))
                for flat in sorted(oracles.all_shelf_tables_by_filter(n))]
            for n in (1, 2, 3)}


@pytest.fixture(scope="session")
def classes3():
    return enumerate_shelves(3)


@pytest.fixture(scope="session")
def classes4():
    return enumerate_shelves(4)
