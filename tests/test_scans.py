import math
from concurrent.futures import ProcessPoolExecutor
from itertools import product

import pytest

from shelfhom import scans
from shelfhom.census import canonical_form
from shelfhom.errors import CapExceeded, OutOfRange
from shelfhom.families import boolean_multishelf, pointed_map
from shelfhom.scans import (
    is_pointed_map_type,
    pointed_map_shelves,
    scan_boolean,
    scan_example4,
    scan_growth,
    scan_hyperplane,
    torsion_hunt,
)
from shelfhom.tables import (
    BinaryOpTable,
    identity_op,
    right_trivial_op,
    validate_multishelf,
)


def test_growth_small_sizes_consistent():
    for n in (1, 2):
        report = scan_growth(n, maxdeg=3)
        assert report["summary"]["all_consistent"]
        assert report["summary"]["inconsistent"] == 0


def test_growth_report_structure():
    doc = scan_growth(2, maxdeg=3)
    assert doc["conjecture"] == "growth"
    assert all(
        p["verdict"] in ("consistent", "inconsistent", "not-computed")
        for p in doc["points"]
    )
    # degree window starts at size - 2
    assert min(p["params"]["degree"] for p in doc["points"]) == 0


def test_growth_size_guard():
    with pytest.raises(CapExceeded):
        scan_growth(5)


def test_pointed_map_shelves_size_zero_is_empty_and_negative_is_refused():
    assert pointed_map_shelves(0) == []
    assert scan_example4(0)["summary"]["points"] == 0
    with pytest.raises(OutOfRange, match="carrier size -1 < 0"):
        pointed_map_shelves(-1)


def test_pointed_map_shelves_match_the_all_b_oracle():
    # the oracle draws every b, not just b = 0, and keeps the first shelf
    # met in each class
    for n in range(5):
        out = {}
        for b in range(n):
            candidates = [[v for v in range(n) if v != b] for _ in range(n)]
            candidates[b] = [b]
            for g in product(*candidates):
                shelf = pointed_map(b, g)
                out.setdefault(canonical_form(shelf.table), shelf)
        assert pointed_map_shelves(n) == [out[k] for k in sorted(out)]
    assert len(pointed_map_shelves(5)) == 19


def test_pointed_map_shelves_include_right_trivial():
    shelves = pointed_map_shelves(3)
    tables = {s.table for s in shelves}
    assert right_trivial_op(3) in tables  # the g = id instance
    for s in shelves:
        assert is_pointed_map_type(s.table)


def test_pointed_map_type_detection():
    assert is_pointed_map_type(right_trivial_op(4))
    assert not is_pointed_map_type(identity_op(4))
    pm = BinaryOpTable.from_rows(
        [[0, 2, 3, 1], [0, 1, 2, 3], [0, 1, 2, 3], [0, 1, 2, 3]]
    )
    assert is_pointed_map_type(pm)


def test_example4_proven_degree_one():
    report = scan_example4(4, maxdeg=1)
    assert report["summary"]["all_consistent"]
    assert all(p["params"]["degree"] == 1 for p in report["points"])


def test_boolean_grid_verdicts():
    report = scan_boolean(1, radius=1, maxdeg=2)
    assert report["summary"]["points"] == 27
    by_coeffs = {tuple(p["params"]["coefficients"]): p for p in report["points"]}
    zero = by_coeffs[(0, 0, 0)]
    assert zero["observed"]["ranks"] == [1, 4, 8]
    ray = by_coeffs[(1, -1, -1)]
    assert ray["observed"]["ranks"][0] == 1
    assert ray["verdict"] == "consistent"


def test_boolean_cap():
    with pytest.raises(CapExceeded):
        scan_boolean(3)


def test_hyperplane_probe_deterministic():
    ms = validate_multishelf(boolean_multishelf(1).ops[:3])
    a = scan_hyperplane(ms, samples=15, bound=2, maxdeg=1, seed=5)
    b = scan_hyperplane(ms, samples=15, bound=2, maxdeg=1, seed=5)
    assert a == b
    assert a["summary"]["generic_ranks"] is not None
    assert 0.0 <= a["summary"]["exceptional_fraction"] <= 1.0


def test_hyperplane_sample_cap():
    ms = validate_multishelf((identity_op(2),))
    with pytest.raises(CapExceeded):
        scan_hyperplane(ms, samples=500)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the worker count and the
    chunk size, and maps in this process, so no worker is ever started."""

    made = []
    chunksizes = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        self.chunksizes.append(chunksize)
        return map(fn, items)


class _ChunkRecordingPool(ProcessPoolExecutor):
    """A real process pool that records the chunk size it is asked for."""

    chunksizes = []

    def map(self, fn, *iterables, timeout=None, chunksize=1):
        self.chunksizes.append(chunksize)
        return super().map(fn, *iterables, timeout=timeout, chunksize=chunksize)


def _pin(monkeypatch, affinity, installed):
    """Fix what the pool sees of the machine: the CPUs this process may run
    on (None: the platform cannot say) and the CPUs installed."""
    if affinity is None:
        monkeypatch.delattr(scans.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(scans.os, "sched_getaffinity",
                            lambda pid: set(affinity), raising=False)
    monkeypatch.setattr(scans.os, "cpu_count", lambda: installed)


@pytest.fixture
def recording_pool(monkeypatch):
    _RecordingPool.made = []
    _RecordingPool.chunksizes = []
    monkeypatch.setattr(scans, "ProcessPoolExecutor", _RecordingPool)
    return _RecordingPool


@pytest.mark.parametrize("jobs, items, cpus, workers", [
    (10 ** 6, 5, 64, 5),      # no more workers than items
    (10 ** 6, 720, 2, 2),     # no more workers than CPUs
    (3, 720, 64, 3),          # --jobs itself when it is the least
    (10 ** 6, 720, None, None),  # unknown CPU count: serial
    (4, 1, 64, None),         # one item: serial
    (1, 720, 64, None),       # --jobs 1: serial
])
def test_pool_map_clamps_workers(monkeypatch, recording_pool, jobs, items,
                                 cpus, workers):
    # cpus usable CPUs, all of those installed; None: the count is unknown
    _pin(monkeypatch, None if cpus is None else range(cpus), cpus)
    got = scans._pool_map(abs, list(range(-items, 0)), jobs)
    assert got == list(range(items, 0, -1))
    assert recording_pool.made == ([] if workers is None else [workers])


@pytest.mark.parametrize("affinity, installed, workers", [
    ({0, 1}, 64, 2),    # pinned to two of 64 CPUs
    ({7}, 64, None),    # pinned to one: serial
    (None, 8, 8),       # no affinity call on this platform: installed CPUs
], ids=["pinned-2-of-64", "pinned-1-of-64", "no-affinity-8"])
def test_pool_map_counts_usable_cpus(monkeypatch, recording_pool, affinity,
                                     installed, workers):
    _pin(monkeypatch, affinity, installed)
    got = scans._pool_map(abs, list(range(-720, 0)), 10 ** 6)
    assert got == list(range(720, 0, -1))
    assert recording_pool.made == ([] if workers is None else [workers])


@pytest.mark.parametrize("items", [720, 27])
def test_pool_map_sends_chunks_in_item_order(monkeypatch, recording_pool, items):
    _pin(monkeypatch, {0, 1}, 2)
    got = scans._pool_map(abs, list(range(-items, 0)), 2)
    assert got == list(range(items, 0, -1))
    [chunk] = recording_pool.chunksizes
    assert chunk > 1
    # several tasks per worker, so one slow task is not the whole tail
    assert math.ceil(items / chunk) > 2 * 2


@pytest.mark.parametrize("scan", [
    lambda jobs: torsion_hunt(3, 2, jobs=jobs),         # 48 classes
    lambda jobs: scan_boolean(1, radius=1, jobs=jobs),  # 27 coefficient vectors
], ids=["torsion-hunt-3", "boolean-radius-1"])
def test_chunked_fan_out_matches_sequential(monkeypatch, scan):
    _ChunkRecordingPool.chunksizes = []
    monkeypatch.setattr(scans, "ProcessPoolExecutor", _ChunkRecordingPool)
    _pin(monkeypatch, {0, 1}, 2)
    assert scan(2) == scan(1)
    [chunk] = _ChunkRecordingPool.chunksizes
    assert chunk > 1


def test_torsion_hunt_small_sizes_empty():
    assert torsion_hunt(1, 1)["summary"]["classes_with_torsion"] == 0
    report = torsion_hunt(2, 2)
    assert report["summary"]["classes_with_torsion"] == 0
    assert report["summary"]["classes_scanned"] == 6


def test_torsion_hunt_points_flag_pointed_map():
    report = torsion_hunt(4, 1)
    assert report["summary"]["classes_with_torsion"] >= 1
    # at least one find has the pointed-map shape, as in the cited examples
    assert any(p["observed"]["pointed_map_type"] for p in report["points"])


def test_jobs_fan_out_matches_sequential():
    seq = scan_growth(2, maxdeg=3, jobs=1)
    par = scan_growth(2, maxdeg=3, jobs=2)
    assert seq == par


def test_growth_records_quotient_h1_comparison():
    # rank H1(X) vs rank H1 of the orbit quotient: the "greater" direction
    # (non-injectivity of the induced map) has witnesses already at n = 3;
    # no class with n <= 4 realizes the "less" direction
    report = scan_growth(3, maxdeg=2)
    cmp = report["summary"]["quotient_h1_comparison"]
    assert cmp["greater"] >= 1
    assert cmp["less"] == 0
    assert cmp["greater"] + cmp["equal"] + cmp["less"] == 48
    assert "greater" in report["summary"]["quotient_h1_witnesses"]
