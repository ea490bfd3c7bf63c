import re
import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, name, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


def test_reproduce_tables_size_3(monkeypatch, capsys):
    out = run_script(monkeypatch, capsys, "reproduce_tables.py",
                     "--size", "3", "--maxdeg", "2")
    lines = out.splitlines()
    assert re.fullmatch(
        r"size 3: 48 isomorphism classes \(enumerated in \d+\.\ds\)", lines[0]
    )
    assert re.fullmatch(r"homology through degree 2 in \d+\.\ds", lines[1])
    assert lines[2:] == [
        "  [0, 0, 0]   x43   orbits=1  regular (r-1)n^d",
        "  [1, 2, 6]   x2    orbits=2  exceptional",
        "  [1, 3, 9]   x2    orbits=2  regular (r-1)n^d",
        "  [2, 6, 18]  x1    orbits=3  regular (r-1)n^d",
        "",
    ]


def test_reproduce_tables_size_0(monkeypatch, capsys):
    # size 0 is a size of its own, not the default 3 and 4, and its census is
    # empty
    out = run_script(monkeypatch, capsys, "reproduce_tables.py", "--size", "0")
    lines = out.splitlines()
    assert re.fullmatch(
        r"size 0: 0 isomorphism classes \(enumerated in \d+\.\ds\)", lines[0]
    )
    assert re.fullmatch(r"homology through degree 3 in \d+\.\ds", lines[1])
    assert lines[2:] == [""]


def test_torsion_survey_size_3(monkeypatch, capsys):
    out = run_script(monkeypatch, capsys, "torsion_survey.py", "--size", "3")
    assert out == (
        "size 1: 1 classes, 0 with torsion through degree 2\n"
        "size 2: 6 classes, 0 with torsion through degree 2\n"
        "size 3: 48 classes, 0 with torsion through degree 2\n"
    )


def test_torsion_survey_size_4_prints_its_finds(monkeypatch, capsys):
    out = run_script(monkeypatch, capsys, "torsion_survey.py",
                     "--size", "4", "--maxdeg", "1")
    assert out == (
        "size 1: 1 classes, 0 with torsion through degree 1\n"
        "size 2: 6 classes, 0 with torsion through degree 1\n"
        "size 3: 48 classes, 0 with torsion through degree 1\n"
        "size 4: 720 classes, 2 with torsion through degree 1\n"
        "  table [0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 1, 0, 0, 3]"
        "  torsion {'1': [2]}  [pointed-map]\n"
        "  table [0, 1, 3, 2, 0, 1, 3, 2, 1, 0, 2, 3, 1, 0, 2, 3]"
        "  torsion {'1': [2, 2, 2, 2]}  [other]\n"
    )
