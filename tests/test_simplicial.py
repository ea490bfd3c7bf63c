import pytest

import oracles
from shelfhom import snf
from shelfhom.chain import preset_complex
from shelfhom.errors import CapExceeded, DegreeOutOfRange, FaceNotGenerated
from shelfhom.orbits import left_orbits
from shelfhom.simplicial import (
    build_shelf_complex,
    components,
    maximal_simplices,
    simplicial_boundary_matrix,
    simplicial_groups,
)
from shelfhom.tables import BinaryOpTable, Shelf, right_trivial_op, validate_shelf

PAPER_4x4 = validate_shelf(
    BinaryOpTable.from_rows(
        [[0, 2, 2, 3], [0, 1, 2, 3], [0, 2, 2, 3], [2, 0, 2, 3]]
    )
)


def test_paper_example_complex_shape():
    scx = build_shelf_complex(PAPER_4x4)
    # a hollow triangle on {0,1,2} plus the isolated vertex 3
    assert scx[0] == ((0,), (1,), (2,), (3,))
    assert scx[1] == ((0, 1), (0, 2), (1, 2))
    assert len(scx[2]) == 0
    assert len(scx[3]) == 0
    assert maximal_simplices(scx) == [(3,), (0, 1), (0, 2), (1, 2)]


def test_paper_example_components_and_h1():
    scx = build_shelf_complex(PAPER_4x4)
    count, labels = components(scx)
    assert count == 2
    assert labels == (0, 0, 0, 1)
    h0, h1 = simplicial_groups(scx)[:2]
    assert (h1["rank"], h1["torsion"]) == (1, [])
    assert (h0["rank"], h0["torsion"]) == (2, [])


def test_right_trivial_has_no_edges():
    scx = build_shelf_complex(validate_shelf(right_trivial_op(4)))
    assert len(scx[0]) == 4
    for d in range(1, 4):
        assert len(scx[d]) == 0
    assert components(scx)[0] == 4


def test_single_point_complex():
    scx = build_shelf_complex(validate_shelf(BinaryOpTable.from_rows([[0]])))
    assert scx[0] == ((0,),)
    h0 = simplicial_groups(scx)[0]
    assert (h0["rank"], h0["torsion"]) == (1, [])


def test_full_triangle_is_contractible():
    # machinery check on a hand-built complex with its 2-cell present
    scx = (
        ((0,), (1,), (2,)),
        ((0, 1), (0, 2), (1, 2)),
        ((0, 1, 2),),
    )
    h0, h1 = simplicial_groups(scx)[:2]
    assert (h1["rank"], h1["torsion"]) == (0, [])
    assert h0["rank"] == 1


def test_maximal_simplices_of_a_complex_that_is_not_face_closed():
    # hand-built, with faces missing: (3,) is covered by (2, 3) although
    # (2,) is not stored, and (4,) by nothing
    scx = (
        ((0,), (3,), (4,)),
        ((0, 1), (0, 2), (2, 3)),
        ((0, 1, 2),),
        (),
    )
    assert maximal_simplices(scx) == [(4,), (2, 3), (0, 1, 2)]


def test_meet_shelf_has_a_two_cell():
    # chains of three nested distinct subsets generate 2-simplices
    from shelfhom.families import intersection_shelf

    shelf = intersection_shelf(omega_size=2, family=(0, 1, 2, 3))
    scx = build_shelf_complex(shelf)
    assert len(scx[2]) > 0
    assert components(scx)[0] == 1


def test_boundary_matrix_signs():
    scx = (((0,), (1,), (2,)), ((0, 1), (1, 2)))
    d1 = simplicial_boundary_matrix(scx, 1)
    assert oracles.to_dense(d1) == [[-1, 0], [1, -1], [0, 1]]
    d0 = simplicial_boundary_matrix(scx, 0)
    assert d0.shape == (0, 3)


def test_component_count_equals_orbit_count(classes4, labelled_by_size):
    small = [Shelf(t) for tables in labelled_by_size.values() for t in tables]
    for shelf in small + classes4:
        scx = build_shelf_complex(shelf, maxdim=1)
        assert components(scx)[0] == len(left_orbits(shelf))


def test_face_closure_holds_on_small_shelves(classes4):
    # a missing face would raise FaceNotGenerated
    for shelf in classes4:
        build_shelf_complex(shelf, maxdim=3)


def test_missing_face_raises_face_not_generated():
    # exercise the closure path directly on a synthetic gap
    from shelfhom.simplicial import _close_faces

    found = [{(0,), (1,)}, {(0, 1), (1, 2)}]
    with pytest.raises(FaceNotGenerated,
                       match=r"^face \(2,\) of simplex \(1, 2\) was not generated$"):
        _close_faces(found)
    assert found[0] == {(0,), (1,)}


def test_degree_window_guard():
    # H_1 needs dimension 2, but the complex is built to 1 < n - 1
    scx = build_shelf_complex(PAPER_4x4, maxdim=1)
    assert [g["degree"] for g in simplicial_groups(scx)] == [0]
    with pytest.raises(DegreeOutOfRange):
        simplicial_boundary_matrix(scx, 2)


def test_tuple_cap():
    with pytest.raises(CapExceeded):
        build_shelf_complex(PAPER_4x4, maxdim=3, cap=10)
    # the cap counts the tuples enumerated, of length at most n: 4^4 here
    assert len(build_shelf_complex(PAPER_4x4, maxdim=9, cap=256)[1]) == 3
    with pytest.raises(CapExceeded, match=r"4\^4 exceeds the tuple cap 255"):
        build_shelf_complex(PAPER_4x4, maxdim=9, cap=255)
    # and at least one element per listed dimension
    assert len(build_shelf_complex(PAPER_4x4, maxdim=255, cap=256)[1]) == 3
    with pytest.raises(CapExceeded, match=r"max\(4\^4, 257\) = 257 exceeds the tuple cap 256"):
        build_shelf_complex(PAPER_4x4, maxdim=256, cap=256)


def test_groups_match_the_dense_oracle(classes4, labelled_by_size):
    shelves = [Shelf(t) for t in labelled_by_size[3]]
    shelves += classes4
    for shelf in shelves:
        for maxdim in (shelf.size - 1, 1):
            scx = build_shelf_complex(shelf, maxdim)
            got = [(g["rank"], tuple(g["torsion"])) for g in simplicial_groups(scx)]
            assert got == oracles.dense_simplicial_groups(scx, shelf.size)


@pytest.fixture
def reduced(monkeypatch):
    """Every (matrix, drop) handed to snf.smith_normal_form, in call order."""
    seen = []
    original = snf.smith_normal_form

    def counting(mat, drop):
        seen.append((mat, drop))
        return original(mat, drop)

    monkeypatch.setattr(snf, "smith_normal_form", counting)
    return seen


def test_each_boundary_is_reduced_once(reduced):
    scx = build_shelf_complex(PAPER_4x4)
    assert len(simplicial_groups(scx)) == 4
    # d_0..d_3 plus the zero boundary above the top
    assert len(reduced) == 5
    reduced.clear()
    # one call per boundary, in order: d_0 with nothing to skip, and each
    # later boundary as it is, with the rows that the unit pivots below
    # paired to skip; some of those rows hold entries
    rack3 = validate_shelf(BinaryOpTable.from_function(3, lambda x, y: (2 * y - x) % 3))
    for kind in ("shelf", "rack", "quandle"):
        cx = preset_complex(rack3, kind, 3)
        assert len(snf.homology_from_boundaries(cx.boundaries)) == 4
        assert len(reduced) == len(cx.boundaries)
        assert all(mat is full for (mat, _), full in zip(reduced, cx.boundaries))
        assert not reduced[0][1]
        assert all(drop <= set(range(mat.nrows)) for mat, drop in reduced)
        assert any(i in drop for mat, drop in reduced for (i, _), _ in mat.items())
        reduced.clear()
