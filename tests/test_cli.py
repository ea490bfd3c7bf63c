import hashlib
import json
import os
import time

import pytest

from shelfhom.chain import preset_homology
from shelfhom.cli import main
from shelfhom.simplicial import build_shelf_complex, simplicial_groups
from shelfhom.tables import BinaryOpTable, validate_shelf

PAPER_DOC = {
    "size": 4,
    "ops": [[[0, 2, 2, 3], [0, 1, 2, 3], [0, 2, 2, 3], [2, 0, 2, 3]]],
}
RACK_DOC = {
    "size": 3,
    "ops": [[[(2 * y - x) % 3 for y in range(3)] for x in range(3)]],
}
BOOLEAN3_DOC = {
    "size": 2,
    "ops": [
        [[0, 0], [1, 1]],  # identity product
        [[0, 0], [0, 1]],  # meet
        [[0, 1], [1, 1]],  # join
    ],
}


def write(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_shelf_document(tmp_path, capsys):
    path = write(tmp_path, PAPER_DOC)
    code, out, _ = run(capsys, "validate", "--input", path, "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["valid"] is True
    assert doc["orbits"] == 2
    assert "generated_at" not in doc


def test_validate_rejects_law_violation(tmp_path, capsys):
    bad = {"size": 3, "ops": [[[ (x + y) % 3 for y in range(3)] for x in range(3)]]}
    path = write(tmp_path, bad)
    code, _, err = run(capsys, "validate", "--input", path)
    assert code == 2
    assert json.loads(err)["error"] == "DistributivityViolation"


def test_malformed_json_is_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "validate", "--input", str(path))
    assert code == 2
    assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize("data", [
    b"\xff\xfe{",                        # not UTF-8
    b"[" * 200_000 + b"]" * 200_000,     # nested past the recursion limit
    b'{"size": ' + b"9" * 5000 + b"}",   # past int's digit limit
], ids=["not-utf8", "deeply-nested", "huge-integer"])
def test_hostile_input_file_is_exit_2(tmp_path, capsys, data):
    path = tmp_path / "hostile.json"
    path.write_bytes(data)
    code, _, err = run(capsys, "validate", "--input", str(path))
    assert code == 2
    assert json.loads(err)["error"] == "ParseError"


def test_orbits_command(tmp_path, capsys):
    path = write(tmp_path, PAPER_DOC)
    code, out, _ = run(capsys, "orbits", "--input", path, "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    assert doc["orbits"] == 2
    assert doc["blocks"] == [[0, 1, 2], [3]]
    assert doc["quotient"]["size"] == 2


def test_homology_shelf_kind(tmp_path, capsys):
    path = write(tmp_path, PAPER_DOC)
    code, out, _ = run(
        capsys, "homology", "--input", path, "--maxdeg", "2", "--no-timestamp"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "shelf"
    assert doc["augmented"] is True
    assert [g["rank"] for g in doc["groups"]] == [1, 3, 12]


def test_homology_rack_kind(tmp_path, capsys):
    path = write(tmp_path, RACK_DOC)
    code, out, _ = run(
        capsys, "homology", "--input", path, "--kind", "rack",
        "--maxdeg", "2", "--no-timestamp",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == [1, -1]
    assert doc["augmented"] is False


def test_homology_multi_kind_with_coefficients(tmp_path, capsys):
    path = write(tmp_path, BOOLEAN3_DOC)
    code, out, _ = run(
        capsys, "homology", "--input", path, "--kind", "multi",
        "--coefficients", "1,-1,-1", "--maxdeg", "1", "--no-timestamp",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == [1, -1, -1]
    assert [g["rank"] for g in doc["groups"]] == [1, 2]


def test_homology_multi_needs_coefficients(tmp_path, capsys):
    path = write(tmp_path, BOOLEAN3_DOC)
    code, _, err = run(capsys, "homology", "--input", path, "--kind", "multi")
    assert code == 2
    assert json.loads(err)["error"] == "ParseError"


def test_homology_cap_exit_code(tmp_path, capsys):
    path = write(tmp_path, PAPER_DOC)
    code, _, err = run(
        capsys, "homology", "--input", path, "--maxdeg", "3", "--cap", "64"
    )
    assert code == 3
    assert json.loads(err) == {
        "error": "MemoryCapExceeded",
        "message": "building d_0..d_4 needs 4^6 = 4096 <= cap, got cap 64; "
                   "raise the cap to force the computation",
    }


@pytest.mark.parametrize("kind", ["shelf", "quandle"])
def test_homology_cap_counts_degrees_of_a_one_element_carrier(tmp_path, capsys, kind):
    # 1^k never exceeds the cap, but each built degree holds a basis element
    path = write(tmp_path, {"size": 1, "ops": [[[0]]]})
    code, out, err = run(
        capsys, "homology", "--input", path, "--kind", kind,
        "--maxdeg", "300", "--cap", "1",
    )
    assert (code, out) == (3, "")
    assert json.loads(err) == {
        "error": "MemoryCapExceeded",
        "message": "building d_0..d_301 needs max(1^303, 303) = 303 <= cap, "
                   "got cap 1; raise the cap to force the computation",
    }
    code, _, _ = run(capsys, "homology", "--input", path, "--kind", kind,
                     "--maxdeg", "3", "--cap", "6", "--no-timestamp")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["homology", "--maxdeg", "9100"],
    ["homology", "--kind", "quandle", "--maxdeg", "9100"],
    ["torsion-hunt", "--size", "3", "--maxdeg", "9100"],
    ["scan", "--which", "growth", "--size", "2", "--maxdeg", "20000"],
    ["homology", "--maxdeg", "100000000"],
], ids=["homology-shelf", "homology-quandle", "torsion-hunt", "scan-growth",
        "homology-1e8"])
def test_a_degree_too_large_to_form_or_print_is_exit_3(tmp_path, capsys, argv):
    # 3^9103 has over 4 300 digits, and 3^100000003 takes minutes to form
    if argv[0] == "homology":
        argv = [*argv, "--input", write(tmp_path, RACK_DOC)]
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 10
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "MemoryCapExceeded"
    assert "Traceback" not in err


def test_validate_refuses_a_carrier_past_the_law_instance_guard(tmp_path, capsys):
    # x*y = y on 500 elements: 500^3 law instances, about 12 s to check
    n = 500
    path = write(tmp_path, {"size": n, "ops": [[list(range(n))] * n]})
    start = time.monotonic()
    code, out, err = run(capsys, "validate", "--input", path)
    assert time.monotonic() - start < 10
    assert (code, out) == (3, "")
    assert json.loads(err) == {
        "error": "PracticalSizeLimit",
        "message": "the distributivity check has 1^2 * 500^3 = 125000000 "
                   "law instances, over the guard 67108864",
    }


# The R_3 quotient boundaries d_0..d_3 exported by `homology --kind quandle
# --maxdeg 2`, as space-separated row,col,value triplets.
R3_QUANDLE_CSV = {
    "d0.csv": (
        ""
    ),
    "d1.csv": (
        "0,0,1 0,1,1 0,3,-1 0,5,-1 1,1,-1 1,2,1 1,3,1 1,4,-1 2,0,-1 2,2,-1 "
        "2,4,1 2,5,1 "
    ),
    "d2.csv": (
        "0,0,-1 0,1,-1 0,2,1 0,3,1 0,5,1 0,7,-1 1,0,1 1,1,1 1,2,-1 1,3,-1 "
        "1,8,1 1,11,-1 2,1,1 2,2,-1 2,4,-1 2,5,-1 2,6,1 2,7,1 3,4,1 3,5,1 "
        "3,6,-1 3,7,-1 3,9,-1 3,10,1 4,0,-1 4,3,1 4,8,-1 4,9,-1 4,10,1 "
        "4,11,1 5,4,-1 5,6,1 5,8,1 5,9,1 5,10,-1 5,11,-1 "
    ),
    "d3.csv": (
        "0,0,1 0,1,1 0,2,-1 0,6,1 0,9,-1 0,10,1 0,14,-1 0,23,-1 1,1,-1 "
        "1,2,1 1,3,1 1,5,1 1,6,-1 1,7,1 1,15,-1 1,20,-1 2,2,1 2,4,1 2,5,1 "
        "2,6,-1 2,15,-1 2,16,1 2,19,-1 2,22,-1 3,0,1 3,2,-1 3,3,1 3,4,-1 "
        "3,6,1 3,7,1 3,13,-1 3,23,-1 4,1,-1 4,3,1 4,4,-1 4,8,1 4,9,1 "
        "4,11,-1 4,12,1 4,18,-1 5,5,-1 5,9,-1 5,10,1 5,11,1 5,12,-1 5,13,1 "
        "5,15,1 5,16,-1 6,7,-1 6,8,1 6,10,1 6,11,-1 6,12,1 6,13,1 6,14,-1 "
        "6,18,-1 7,5,-1 7,11,1 7,12,-1 7,14,1 7,15,1 7,19,-1 7,20,1 7,22,-1 "
        "8,0,-1 8,10,-1 8,16,1 8,17,1 8,19,-1 8,20,1 8,21,-1 8,23,1 9,1,-1 "
        "9,4,-1 9,7,1 9,8,-1 9,17,-1 9,18,1 9,19,1 9,21,1 10,3,-1 10,8,-1 "
        "10,16,1 10,17,-1 10,18,1 10,20,1 10,21,1 10,22,-1 11,0,-1 11,9,-1 "
        "11,13,1 11,14,-1 11,17,1 11,21,-1 11,22,1 11,23,1 "
    ),
}


@pytest.mark.parametrize("kind", ["shelf", "quandle"])
def test_homology_export_matrices(tmp_path, capsys, kind):
    path = write(tmp_path, RACK_DOC)
    outdir = tmp_path / "mats"
    code, _, _ = run(
        capsys, "homology", "--input", path, "--kind", kind, "--maxdeg", "2",
        "--export-matrices", str(outdir), "--no-timestamp",
    )
    assert code == 0
    names = sorted(os.listdir(outdir))
    assert names == ["d0.csv", "d1.csv", "d2.csv", "d3.csv"]
    header = (outdir / "d1.csv").read_text().splitlines()[0]
    assert header == "row,col,value"
    if kind == "quandle":
        for name, triplets in R3_QUANDLE_CSV.items():
            want = "\n".join(["row,col,value"] + triplets.split()) + "\n"
            assert (outdir / name).read_text() == want, name


def test_simplicial_command(tmp_path, capsys):
    path = write(tmp_path, PAPER_DOC)
    code, out, _ = run(capsys, "simplicial", "--input", path, "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    assert doc["components"] == 2
    assert doc["simplex_counts"] == [4, 3, 0, 0]
    assert {"degree": 1, "rank": 1, "torsion": []} in doc["groups"]


def test_enumerate_command(tmp_path, capsys):
    out_path = tmp_path / "catalog.json"
    code, _, _ = run(
        capsys, "enumerate", "--size", "2",
        "--output", str(out_path), "--no-timestamp",
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["count"] == 6
    assert len(doc["classes"]) == 6
    assert all("orbits" in c and "flags" in c for c in doc["classes"])


def test_enumerate_guard_exit_3(tmp_path, capsys):
    code, _, err = run(capsys, "enumerate", "--size", "7")
    assert code == 3
    assert json.loads(err)["error"] == "PracticalSizeLimit"


def test_scan_growth_command(tmp_path, capsys):
    code, out, _ = run(
        capsys, "scan", "--which", "growth", "--size", "2",
        "--maxdeg", "3", "--no-timestamp",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["conjecture"] == "growth"
    assert doc["summary"]["all_consistent"] is True


def test_scan_hyperplane_command(tmp_path, capsys):
    path = write(tmp_path, BOOLEAN3_DOC)
    code, out, _ = run(
        capsys, "scan", "--which", "hyperplane", "--input", path,
        "--samples", "10", "--bound", "2", "--seed", "3",
        "--maxdeg", "1", "--no-timestamp",
    )
    assert code == 0
    doc = json.loads(out)
    assert "generic_ranks" in doc["summary"]


@pytest.mark.parametrize("radius", ["5", "1000000"])
def test_scan_boolean_refuses_a_grid_over_1000_points(capsys, radius):
    # the cap is checked before the (2r+1)^3 grid is built, so this is quick
    code, out, err = run(
        capsys, "scan", "--which", "boolean", "--radius", radius,
        "--maxdeg", "0", "--no-timestamp",
    )
    assert (code, out) == (3, "")
    points = (2 * int(radius) + 1) ** 3
    assert json.loads(err) == {
        "error": "CapExceeded",
        "message": f"radius {radius} gives {points} coefficient vectors, over the cap 1000",
    }
    # radius 4, 729 points, is under the cap
    code, out, _ = run(
        capsys, "scan", "--which", "boolean", "--radius", "4",
        "--maxdeg", "0", "--no-timestamp",
    )
    assert code == 0
    assert json.loads(out)["summary"]["points"] == 729


@pytest.mark.parametrize("command", ["validate", "homology"])
@pytest.mark.parametrize("doc", [
    {"size": True, "ops": [[[0]]]},
    {"size": 2, "ops": [[[0, True], [0, 1]]]},
    {"size": 2, "ops": [[[0, 0], [1, 1]]], "labels": [0, 1]},
], ids=["boolean-size", "boolean-entry", "integer-labels"])
def test_json_booleans_and_non_string_labels_are_exit_2(tmp_path, capsys, command, doc):
    code, out, err = run(capsys, command, "--input", write(tmp_path, doc),
                         "--no-timestamp")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize("flag", ["--samples", "--bound"])
def test_scan_hyperplane_rejects_zero_samples_or_bound(tmp_path, capsys, flag):
    path = write(tmp_path, BOOLEAN3_DOC)
    code, out, err = run(
        capsys, "scan", "--which", "hyperplane", "--input", path,
        flag, "0", "--maxdeg", "1", "--no-timestamp",
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "EmptyList"


def test_scan_boolean_rejects_negative_radius(capsys):
    code, out, err = run(
        capsys, "scan", "--which", "boolean", "--radius", "-1",
        "--maxdeg", "1", "--no-timestamp",
    )
    assert code == 2
    assert out == ""
    assert json.loads(err) == {
        "error": "EmptyList",
        "message": "the coefficient grid needs radius >= 0, got -1",
    }
    # radius 0 is the one-point grid (0, 0, 0)
    code, out, _ = run(
        capsys, "scan", "--which", "boolean", "--radius", "0",
        "--maxdeg", "1", "--no-timestamp",
    )
    assert code == 0
    points = json.loads(out)["points"]
    assert [p["params"]["coefficients"] for p in points] == [[0, 0, 0]]


@pytest.mark.parametrize("argv", [
    ["validate", "--cap", "64"],
    ["simplicial", "--cap", "64"],
    ["homology", "--jobs", "2"],
    ["orbits", "--augmented", "on"],
    ["validate", "--maxdeg", "3"],
    ["orbits", "--maxdeg", "3"],
], ids=["validate-cap", "simplicial-cap", "homology-jobs", "orbits-augmented",
        "validate-maxdeg", "orbits-maxdeg"])
def test_flag_of_another_subcommand_is_exit_2(tmp_path, capsys, argv):
    path = write(tmp_path, PAPER_DOC)
    code, out, err = run(capsys, *argv, "--input", path, "--no-timestamp")
    assert code == 2
    assert out == ""
    assert json.loads(err) == {
        "error": "ParseError",
        "message": f"unrecognized arguments: {argv[1]} {argv[2]}",
    }


@pytest.mark.parametrize("argv", [
    ["enumerate", "--size", "1", "--maxdeg", "3"],
    ["enumerate", "--size", "1", "--input", "/nonexistent"],
    ["torsion-hunt", "--size", "1", "--input", "/nonexistent"],
], ids=["enumerate-maxdeg", "enumerate-input", "torsion-hunt-input"])
def test_flag_of_a_command_that_reads_no_document_is_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--no-timestamp")
    assert code == 2
    assert out == ""
    assert json.loads(err) == {
        "error": "ParseError",
        "message": f"unrecognized arguments: {argv[3]} {argv[4]}",
    }


@pytest.mark.parametrize("which, flag", [
    ("growth", "--radius 7"), ("growth", "--seed 5"), ("growth", "--augmented on"),
    ("growth", "--input /nonexistent"), ("growth", "--omega 2"),
    ("growth", "--samples 3"), ("growth", "--bound 4"),
    ("example4", "--augmented off"), ("boolean", "--size 9"),
    ("boolean", "--seed 1"), ("hyperplane", "--radius 1"),
])
def test_scan_flag_that_its_which_does_not_read_is_exit_2(capsys, which, flag):
    # refused before any census, grid or document is touched
    code, out, err = run(capsys, "scan", "--which", which, "--maxdeg", "1",
                         *flag.split(), "--no-timestamp")
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "ParseError",
        "message": f"scan --which {which} does not read {flag.split()[0]}",
    }


@pytest.mark.parametrize("argv, flag, value", [
    (["torsion-hunt", "--size", "3", "--jobs", "0"], "--jobs", "0"),
    (["scan", "--which", "growth", "--jobs", "-1"], "--jobs", "-1"),
    (["homology", "--cap", "0"], "--cap", "0"),
], ids=["hunt-jobs-0", "scan-jobs-negative", "homology-cap-0"])
def test_resource_flag_below_one_is_exit_2(tmp_path, capsys, argv, flag, value):
    path = write(tmp_path, PAPER_DOC)
    code, out, err = run(capsys, *argv, "--input", path, "--no-timestamp")
    assert code == 2
    assert out == ""
    assert json.loads(err) == {
        "error": "ParseError",
        "message": f"argument {flag}: expected an integer >= 1, got '{value}'",
    }


def test_help_still_exits_0_with_text(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["homology", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: shelfhom homology")


def test_torsion_hunt_command(tmp_path, capsys):
    code, out, _ = run(
        capsys, "torsion-hunt", "--size", "2", "--maxdeg", "2", "--no-timestamp"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["classes_with_torsion"] == 0


# The --no-timestamp homology report at --maxdeg 2, pinned for each kind:
# (document, extra flags, "shelf" key, coefficients, and per --augmented
# value the augmentation and the (rank, torsion) of H_0, H_1, H_2).
PAPER_KEY = [0, 0, 2, 3, 0, 1, 2, 3, 0, 0, 2, 3, 0, 2, 0, 3]
RACK_KEY = [0, 2, 1, 2, 1, 0, 1, 0, 2]
PINNED_HOMOLOGY = {
    "shelf": (PAPER_DOC, [], PAPER_KEY, [1], {
        "default": (True, [(1, []), (3, []), (12, [])]),
        "on": (True, [(1, []), (3, []), (12, [])]),
        "off": (False, [(2, []), (3, []), (12, [])]),
    }),
    "rack": (RACK_DOC, [], RACK_KEY, [1, -1], {
        "default": (False, [(1, []), (1, []), (1, [3])]),
        "on": (True, [(0, []), (1, []), (1, [3])]),
        "off": (False, [(1, []), (1, []), (1, [3])]),
    }),
    "quandle": (RACK_DOC, [], RACK_KEY, [1, -1], {
        "default": (False, [(1, []), (0, []), (0, [3])]),
        "on": (True, [(0, []), (0, []), (0, [3])]),
        "off": (False, [(1, []), (0, []), (0, [3])]),
    }),
    "multi": (BOOLEAN3_DOC, ["--coefficients", "1,-1,-1"],
              [0, 0, 1, 1, 0, 0, 0, 1, 0, 1, 1, 1], [1, -1, -1], {
        "default": (True, [(1, []), (2, []), (4, [])]),
        "on": (True, [(1, []), (2, []), (4, [])]),
        "off": (False, [(2, []), (2, []), (4, [])]),
    }),
}


@pytest.mark.parametrize("augmented", ["default", "on", "off"])
@pytest.mark.parametrize("kind", list(PINNED_HOMOLOGY))
def test_reports_are_byte_identical_without_timestamp(tmp_path, capsys, kind, augmented):
    doc, flags, key, coefficients, by_augmented = PINNED_HOMOLOGY[kind]
    aug, groups = by_augmented[augmented]
    expected = json.dumps({
        "augmented": aug,
        "coefficients": coefficients,
        "command": "homology",
        "groups": [
            {"degree": d, "rank": rank, "torsion": torsion}
            for d, (rank, torsion) in enumerate(groups)
        ],
        "kind": kind,
        "schema": 1,
        "shelf": key,
    }, indent=2, sort_keys=True) + "\n"
    path = write(tmp_path, doc)
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        code, _, _ = run(
            capsys, "homology", "--input", path, "--kind", kind,
            "--maxdeg", "2", "--augmented", augmented, *flags,
            "--no-timestamp", "--output", str(out),
        )
        assert code == 0
    assert outs[0].read_text() == outs[1].read_text() == expected


# The --no-timestamp simplicial report, pinned: (document, --maxdeg or None,
# maxdim, simplex counts, component labels, maximal simplices, and the ranks
# of H_0, H_1, ...; every group here is torsion-free).  Past n - 1 the top
# groups are computed; below it the groups stop one degree short of maxdim.
PAPER_SIMPLICES = [[3], [0, 1], [0, 2], [1, 2]]
PINNED_SIMPLICIAL = {
    "paper-default": (PAPER_DOC, None, 3, [4, 3, 0, 0], [0, 0, 0, 1],
                      PAPER_SIMPLICES, [2, 1, 0, 0]),
    "paper-maxdeg-0": (PAPER_DOC, "0", 0, [4], [0, 1, 2, 3],
                       [[0], [1], [2], [3]], []),
    "paper-maxdeg-1": (PAPER_DOC, "1", 1, [4, 3], [0, 0, 0, 1],
                       PAPER_SIMPLICES, [2]),
    "paper-maxdeg-5": (PAPER_DOC, "5", 5, [4, 3, 0, 0, 0, 0], [0, 0, 0, 1],
                       PAPER_SIMPLICES, [2, 1, 0, 0, 0, 0]),
    "one-element": ({"size": 1, "ops": [[[0]]]}, None, 0, [1], [0], [[0]], [1]),
    # past n - 1 no simplex exists, so these deep builds are quick and empty
    "paper-maxdeg-9": (PAPER_DOC, "9", 9, [4, 3] + [0] * 8, [0, 0, 0, 1],
                       PAPER_SIMPLICES, [2, 1] + [0] * 8),
    "two-element-maxdeg-21": ({"size": 2, "ops": [[[0, 0], [0, 1]]]}, "21", 21,
                              [2, 1] + [0] * 20, [0, 0], [[0, 1]], [1] + [0] * 21),
    # only tuples of length <= n are enumerated, so the cap lets this through
    "two-element-maxdeg-22": ({"size": 2, "ops": [[[0, 0], [0, 1]]]}, "22", 22,
                              [2, 1] + [0] * 21, [0, 0], [[0, 1]], [1] + [0] * 22),
}


@pytest.mark.parametrize("case", list(PINNED_SIMPLICIAL))
def test_simplicial_report_is_pinned(tmp_path, capsys, case):
    doc, maxdeg, maxdim, counts, labels, maximal, ranks = PINNED_SIMPLICIAL[case]
    expected = json.dumps({
        "command": "simplicial",
        "component_labels": labels,
        "components": len(set(labels)),
        "groups": [
            {"degree": d, "rank": rank, "torsion": []}
            for d, rank in enumerate(ranks)
        ],
        "maxdim": maxdim,
        "maximal_simplices": maximal,
        "schema": 1,
        "simplex_counts": counts,
        "size": doc["size"],
    }, indent=2, sort_keys=True) + "\n"
    flags = [] if maxdeg is None else ["--maxdeg", maxdeg]
    code, out, err = run(capsys, "simplicial", "--input", write(tmp_path, doc),
                         *flags, "--no-timestamp")
    assert (code, out, err) == (0, expected, "")


def test_simplicial_tuple_cap_refuses_a_large_carrier(tmp_path, capsys):
    doc = {"size": 8, "ops": [[list(range(8))] * 8]}  # x*y = y
    code, out, err = run(capsys, "simplicial", "--input", write(tmp_path, doc),
                         "--no-timestamp")
    assert (code, out) == (3, "")
    assert json.loads(err) == {
        "error": "CapExceeded",
        "message": "n^(min(maxdim, n-1)+1) = 8^8 exceeds the tuple cap 4194304",
    }


def test_simplicial_tuple_cap_counts_dimensions(tmp_path, capsys):
    # past n - 1 no tuple is enumerated, but each listed dimension is one
    # more element under the cap
    doc = {"size": 1, "ops": [[[0]]]}
    code, out, err = run(capsys, "simplicial", "--input", write(tmp_path, doc),
                         "--maxdeg", "10000000", "--no-timestamp")
    assert (code, out) == (3, "")
    assert json.loads(err) == {
        "error": "CapExceeded",
        "message": "max(n^(min(maxdim, n-1)+1), maxdim+1) = max(1^1, 10000001) "
                   "= 10000001 exceeds the tuple cap 4194304",
    }


def test_timestamp_present_by_default(tmp_path, capsys):
    path = write(tmp_path, PAPER_DOC)
    code, out, _ = run(capsys, "validate", "--input", path)
    assert code == 0
    assert "generated_at" in json.loads(out)


def test_quandle_kind_rejects_non_spindle(tmp_path, capsys):
    doc = {
        "size": 4,
        "ops": [[[(x + 1) % 4 for _ in range(4)] for x in range(4)]],
    }
    path = write(tmp_path, doc)
    code, _, err = run(capsys, "homology", "--input", path, "--kind", "quandle")
    assert code == 2
    assert json.loads(err)["error"] == "NotASpindle"


def test_homology_exceptional_three_element(tmp_path, capsys):
    doc = {"size": 3, "ops": [[[0, 1, 2], [0, 1, 2], [0, 0, 2]]]}
    path = write(tmp_path, doc)
    code, out, _ = run(
        capsys, "homology", "--input", path, "--maxdeg", "3", "--no-timestamp"
    )
    assert code == 0
    assert [g["rank"] for g in json.loads(out)["groups"]] == [1, 2, 6, 18]


def test_homology_right_trivial_four_elements(tmp_path, capsys):
    doc = {"size": 4, "ops": [[list(range(4)) for _ in range(4)]]}
    path = write(tmp_path, doc)
    code, out, _ = run(
        capsys, "homology", "--input", path, "--maxdeg", "2", "--no-timestamp"
    )
    assert code == 0
    assert [g["rank"] for g in json.loads(out)["groups"]] == [3, 12, 48]


def test_enumerate_one_element(capsys):
    code, out, _ = run(capsys, "enumerate", "--size", "1", "--no-timestamp")
    assert code == 0
    assert json.loads(out)["count"] == 1


def test_enumerate_three_elements_matches_oracle_count(capsys):
    # 48 classes; pinned by the census tests against the exhaustive filter
    code, out, _ = run(capsys, "enumerate", "--size", "3", "--no-timestamp")
    assert code == 0
    assert json.loads(out)["count"] == 48


def test_enumerate_four_elements_report_is_pinned(capsys):
    # recorded from a census that deduplicated all 14 067 labelled tables
    code, out, _ = run(capsys, "enumerate", "--size", "4", "--no-timestamp")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a1c77896a327dc33dba44063a79399e601861971739afe8746c7327523c1d6db"
    )


R7_DOC = {
    "size": 7,
    "ops": [[[(2 * y - x) % 7 for y in range(7)] for x in range(7)]],
}
# the meet on {0..3} as bit sets: its shelf complex has 2-cells
MEET4_DOC = {"size": 4, "ops": [[[a & b for b in range(4)] for a in range(4)]]}
TWO_ORBITS_DOC = {"size": 3, "ops": [[[0, 1, 2], [0, 1, 2], [0, 0, 2]]]}
# x*y = x+1 mod 8: a shelf at the size guard of the class key
SHIFT8_DOC = {"size": 8, "ops": [[[(x + 1) % 8] * 8 for x in range(8)]]}

# --no-timestamp reports whose bytes depend on the report serializers or,
# for homology, on the class key: (argv, input document or None, sha256 of
# stdout).
PINNED_REPORTS = {
    "scan-growth": (["scan", "--which", "growth", "--size", "3"], None,
                    "a5904f563c5738a145d8f32479aa3b39f6c3d651262438dc8f9d5f6853665826"),
    "scan-example4": (["scan", "--which", "example4", "--size", "3"], None,
                      "da4fb3242123e0271327f00e53d5778ba677b5338cc62dd7ac9043ba91ccdee1"),
    "scan-boolean": (["scan", "--which", "boolean", "--radius", "1"], None,
                     "50a6b650f57922051af1d4ef7254a88685c634f0b0fd19daf54d48a7ecba60f3"),
    "scan-hyperplane": (["scan", "--which", "hyperplane", "--samples", "10",
                         "--seed", "3", "--maxdeg", "1"], BOOLEAN3_DOC,
                        "c07398c4a46663ec597d535002c883d00796b2c6a7c9f1bbbc474e270212084c"),
    "torsion-hunt": (["torsion-hunt", "--size", "3"], None,
                     "c8132777e173d68ef2e3825ab79e58fb00c5c65f556d470b2a10b4bb7e8703d5"),
    "torsion-hunt-4": (["torsion-hunt", "--size", "4", "--maxdeg", "1"], None,
                       "778fdba869dc6e601153340f6bda3a505faf3a4539af92978aac43638b4f803e"),
    "scan-example4-4": (["scan", "--which", "example4", "--size", "4"], None,
                        "876b370574063be62d735c5b24d7017cae341e7f6daff808e5e7495b5a3bf8ce"),
    "enumerate-3": (["enumerate", "--size", "3"], None,
                    "1a00cdec4d4a62fda78ea3ccf75782eb38d431b190c3b4086cb0ad149dfe2cad"),
    "enumerate-4": (["enumerate", "--size", "4"], None,
                    "a1c77896a327dc33dba44063a79399e601861971739afe8746c7327523c1d6db"),
    "orbits": (["orbits"], PAPER_DOC,
               "63c89b76c53997e0312cb4821fb67dec4fc8f4ab889e1ea3910a8ca727631866"),
    "orbits-two-blocks": (["orbits"], TWO_ORBITS_DOC,
                          "d34c1cd4e44233c64ebe6af39c15cebce919a3524862ed86f6930c61f3307957"),
    "simplicial-paper": (["simplicial"], PAPER_DOC,
                         "6777804640499331af11ab3bae21fc062f26aef58dc5bdc3a5a40174b70990e7"),
    "simplicial-paper-maxdeg-0": (["simplicial", "--maxdeg", "0"], PAPER_DOC,
                                  "97f8ad69922e4a6d5fda29c749352b6d9792dbc518a3a7efeff8cfecab07ef8f"),
    "simplicial-paper-maxdeg-6": (["simplicial", "--maxdeg", "6"], PAPER_DOC,
                                  "74aab193986624dbf8956486a90c612506199ef282159dc37024c6dbba66e429"),
    "simplicial-meet": (["simplicial"], MEET4_DOC,
                        "ffb1c8d6de455f82f91fceead084f51909d91fbbf7c851bebec331fc0e42f8b2"),
    "validate-shelf": (["validate"], PAPER_DOC,
                       "7327b966ea0e27e964eb446c9e88cb4519b711360d403eaad3b330709c5233d3"),
    "validate-multi": (["validate"], BOOLEAN3_DOC,
                       "9f4e1ea2c48e5d3b72805188f813d7cd24e3cbd21cb345fd39cc30a838aedf49"),
    "homology-r7-rack": (["homology", "--kind", "rack", "--maxdeg", "2"], R7_DOC,
                         "847aeb98346190fa9904cf67d477efcc93a36a099131f8d518e88512822e2ba4"),
    "homology-r3-quandle": (["homology", "--kind", "quandle", "--maxdeg", "7"], RACK_DOC,
                            "046f2707b63e5b811631ba43a10ced8d39a52e1591dcf3fbde51c3fc0afb0086"),
    "homology-paper": (["homology", "--maxdeg", "4"], PAPER_DOC,
                       "fe58bfaba3bb5ddc34b974a6a68963ec8f1274fd0c51c5c1b47b038a1240d7cc"),
    "homology-shift8": (["homology", "--maxdeg", "2"], SHIFT8_DOC,
                        "f74fcd7a5438ebbd2ebd46e66a06dd1016d8890f109da8684ea3a6604d1d9c72"),
    "homology-multi": (["homology", "--kind", "multi", "--coefficients", "1,-1,2"],
                       BOOLEAN3_DOC,
                       "5df15724ee10264638793aa618ca279392d425cd3c561a1196ca75310e53fdd7"),
    # the hunt-4 benchmark workload: its groups cross the worker pool
    "torsion-hunt-4-jobs-2": (["torsion-hunt", "--size", "4", "--maxdeg", "2",
                               "--jobs", "2"], None,
                              "901df1a786ad5b0a8d1a3f51cc2300a96133a2e231d0d84b14406e13c359a467"),
}


@pytest.mark.parametrize("case", list(PINNED_REPORTS))
def test_report_digest_is_pinned(tmp_path, capsys, case):
    argv, doc, digest = PINNED_REPORTS[case]
    if doc is not None:
        argv = [*argv, "--input", write(tmp_path, doc)]
    code, out, err = run(capsys, *argv, "--no-timestamp")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _report(tmp_path, capsys, doc, *argv):
    code, out, err = run(capsys, *argv, "--input", write(tmp_path, doc),
                         "--no-timestamp")
    assert (code, err) == (0, "")
    return json.loads(out)


def test_library_groups_are_the_report_groups(tmp_path, capsys):
    r3 = validate_shelf(BinaryOpTable.from_rows(RACK_DOC["ops"][0]))
    paper = validate_shelf(BinaryOpTable.from_rows(PAPER_DOC["ops"][0]))
    cases = [
        (preset_homology(r3, "quandle", 3), RACK_DOC,
         ["homology", "--kind", "quandle", "--maxdeg", "3"]),
        (preset_homology(paper, "shelf", 4), PAPER_DOC, ["homology", "--maxdeg", "4"]),
        (simplicial_groups(build_shelf_complex(paper)), PAPER_DOC, ["simplicial"]),
    ]
    for groups, doc, argv in cases:
        assert groups == _report(tmp_path, capsys, doc, *argv)["groups"], argv


def test_one_table_multi_report_has_the_canonical_key(tmp_path, capsys):
    # a one-table document loads as a Shelf whichever kind reads it, so
    # --kind multi at coefficient 1 reports what --kind shelf reports
    multi = _report(tmp_path, capsys, TWO_ORBITS_DOC, "homology", "--kind", "multi",
                    "--coefficients", "1")
    shelf = _report(tmp_path, capsys, TWO_ORBITS_DOC, "homology")
    assert multi["shelf"] == shelf["shelf"] == [0, 1, 1, 0, 1, 2, 0, 1, 2]
    assert multi == {**shelf, "kind": "multi"}


def _relabelled_doc(doc, perm):
    # the table transported along x -> perm[x]
    rows = doc["ops"][0]
    out = [[0] * len(rows) for _ in rows]
    for x, row in enumerate(rows):
        for y, v in enumerate(row):
            out[perm[x]][perm[y]] = perm[v]
    return {"size": doc["size"], "ops": [out]}


Z8_ALEXANDER_DOC = {
    "size": 8,
    "ops": [[[(3 * x - 2 * y) % 8 for y in range(8)] for x in range(8)]],
}


@pytest.mark.parametrize("doc, kind", [(R7_DOC, "rack"), (Z8_ALEXANDER_DOC, "quandle")],
                         ids=["R7-rack", "Z8-alexander-quandle"])
def test_homology_report_is_invariant_under_relabelling(tmp_path, capsys, doc, kind):
    # the report keys the structure by its canonical table, so a relabelled
    # copy, here by a permutation that is not an automorphism, prints the
    # same bytes
    moved = _relabelled_doc(doc, (1, 0, *range(2, doc["size"])))
    assert moved != doc
    outs = []
    for d in (doc, moved):
        code, out, err = run(capsys, "homology", "--kind", kind, "--maxdeg", "1",
                             "--input", write(tmp_path, d), "--no-timestamp")
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]


def test_scan_with_jobs_flag_matches_sequential(capsys):
    code1, out1, _ = run(
        capsys, "scan", "--which", "growth", "--size", "2",
        "--maxdeg", "2", "--no-timestamp",
    )
    code2, out2, _ = run(
        capsys, "scan", "--which", "growth", "--size", "2",
        "--maxdeg", "2", "--jobs", "2", "--no-timestamp",
    )
    assert code1 == code2 == 0
    assert out1 == out2


def test_internal_assertion_maps_to_exit_4(tmp_path, capsys, monkeypatch):
    from shelfhom import cli
    from shelfhom.errors import DDNotZero

    def boom(args):
        raise DDNotZero("d o d != 0")

    monkeypatch.setitem(cli.COMMANDS, "validate", boom)
    path = write(tmp_path, PAPER_DOC)
    code, _, err = run(capsys, "validate", "--input", path)
    assert code == 4
    assert json.loads(err)["error"] == "DDNotZero"


def test_negative_free_rank_is_exit_4_not_a_traceback(tmp_path, capsys, monkeypatch):
    # only a wrong SNF (or d o d != 0) makes dim C_d - rank d_d - rank d_{d+1}
    # negative; simulate one with 50 spurious unit factors per boundary
    from shelfhom import snf

    real = snf.smith_normal_form

    def padded(mat, drop):
        form = real(mat, drop)
        return snf.SmithForm((1,) * 50 + form.factors, form.paired)

    monkeypatch.setattr(snf, "smith_normal_form", padded)
    path = write(tmp_path, RACK_DOC)
    code, out, err = run(capsys, "homology", "--maxdeg", "2", "--input", path)
    assert (code, out) == (4, "")
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "AssertionError",
                               "message": "negative free rank -100 in degree 0"}


@pytest.mark.parametrize("argv", [
    ["enumerate", "--size", "-1"],
    ["torsion-hunt", "--size", "-2"],
    ["scan", "--which", "growth", "--size", "-1"],
    ["scan", "--which", "example4", "--size", "-1"],
], ids=["enumerate", "torsion-hunt", "scan-growth", "scan-example4"])
def test_negative_size_is_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--no-timestamp")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "OutOfRange"


@pytest.mark.parametrize("argv", [
    ["homology", "--kind", "shelf"],
    ["homology", "--kind", "quandle"],
    ["torsion-hunt", "--size", "2"],
    ["scan", "--which", "growth", "--size", "2"],
    ["torsion-hunt", "--size", "0"],
    ["scan", "--which", "growth", "--size", "0"],
    ["scan", "--which", "example4", "--size", "0"],
    ["simplicial"],
], ids=["homology-shelf", "homology-quandle", "torsion-hunt", "scan-growth",
        "torsion-hunt-size-0", "scan-growth-size-0", "scan-example4-size-0",
        "simplicial"])
@pytest.mark.parametrize("maxdeg", ["-1", "-3"])
def test_negative_maxdeg_is_exit_2(tmp_path, capsys, argv, maxdeg):
    path = write(tmp_path, RACK_DOC)  # R_3 is a quandle, so both kinds take it
    # only homology and simplicial read a document here; the hunt and these
    # scans refuse --input
    source = ["--input", path] if argv[0] in ("homology", "simplicial") else []
    code, out, err = run(
        capsys, *argv, *source, "--maxdeg", maxdeg, "--no-timestamp",
    )
    assert code == 2
    assert out == ""
    assert json.loads(err) == {
        "error": "DegreeNegative", "message": f"maxdeg {maxdeg} < 0",
    }


def test_unwritable_output_is_exit_2(tmp_path, capsys):
    path = write(tmp_path, PAPER_DOC)
    target = tmp_path / "missing" / "out.json"
    code, out, err = run(
        capsys, "validate", "--input", path, "--output", str(target)
    )
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "ParseError"
    assert doc["message"].startswith(f"cannot write {target}: ")


def test_export_matrices_onto_a_file_is_exit_2(tmp_path, capsys):
    path = write(tmp_path, PAPER_DOC)
    code, out, err = run(
        capsys, "homology", "--input", path, "--maxdeg", "1",
        "--export-matrices", path, "--no-timestamp",
    )
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "ParseError"
    assert doc["message"].startswith(f"cannot write {path}: ")


EXIT_CODES = {
    **dict.fromkeys([
        "InputError", "ParseError", "SizeMismatch", "OutOfRange", "EmptyList",
        "DistributivityViolation", "MutualDistributivityViolation",
        "SpecPreconditionFailed", "RetractionNotIdentityOnA", "NotASpindle",
        "NotInvertible", "DegreeNegative", "DegreeOutOfRange",
        "DegenerateNotSubcomplex", "ChainMapViolation",
    ], 2),
    **dict.fromkeys([
        "ResourceCap", "PracticalSizeLimit", "MemoryCapExceeded",
        "CapExceeded", "BoundExceeded",
    ], 3),
    "DDNotZero": 4,
    "FaceNotGenerated": 4,
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _run_raising(capsys, monkeypatch, exc):
    from shelfhom import cli

    def boom(args):
        raise exc

    monkeypatch.setitem(cli.COMMANDS, "validate", boom)
    code, out, err = run(capsys, "validate")
    assert out == ""
    return code, json.loads(err)


def test_exit_code_table(capsys, monkeypatch):
    from shelfhom import errors

    classes = [
        cls for cls in _subclasses(errors.ShelfHomError)
        if cls.__module__ == errors.__name__
    ]
    got = {}
    for cls in classes:
        # built without __init__: some classes take structured arguments
        code, err = _run_raising(capsys, monkeypatch, cls.__new__(cls, "x"))
        assert err["error"] == cls.__name__
        got[cls.__name__] = code
    assert got == EXIT_CODES


def test_unlisted_error_class_is_exit_4_not_a_traceback(capsys, monkeypatch):
    from shelfhom.errors import ShelfHomError

    class Unforeseen(ShelfHomError):
        pass

    code, err = _run_raising(capsys, monkeypatch, Unforeseen("surprise"))
    assert code == 4
    assert err == {"error": "Unforeseen", "message": "surprise"}
