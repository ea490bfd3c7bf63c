import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import shelfhom

def _child(code, *argv):
    """Run code in a fresh interpreter that finds this shelfhom first."""
    root = str(Path(shelfhom.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {root!r})\n{code}", *argv],
        capture_output=True, text=True, timeout=60,
    )


# Each module is imported first in its own clean slate, so an import cycle
# that only one entry point reaches fails here rather than for a user.
CHILD = """
import importlib
for name in {names!r}:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "shelfhom"]:
        del sys.modules[loaded]
    importlib.import_module(name)
"""


def test_each_module_imports_on_its_own():
    names = ["shelfhom." + m.name for m in pkgutil.iter_modules(shelfhom.__path__)]
    assert "shelfhom.simplicial" in names and "shelfhom.chain" in names
    child = _child(CHILD.format(names=names))
    assert child.returncode == 0, child.stderr


# dataclasses (which pulls in inspect) and datetime cost every CLI process
# start-up time; the value types are plain slotted classes and io stamps the
# report time with a local import.
HEAVY = ("dataclasses", "inspect", "datetime")


def test_cli_import_loads_no_dataclasses_inspect_or_datetime():
    child = _child(f"import shelfhom.cli; print(' '.join(m for m in {HEAVY!r} if m in sys.modules))")
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == []


R3 = {"size": 3, "ops": [[[(2 * y - x) % 3 for y in range(3)] for x in range(3)]]}

# run shelfhom.cli.main(argv) and print the loaded shelfhom modules to stderr
RUN_CLI = """
import json, shelfhom.cli
code = shelfhom.cli.main(json.loads(sys.argv[1]))
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "shelfhom")
print(code, *loaded, file=sys.stderr)
"""


def test_import_shelfhom_loads_no_submodule():
    child = _child("import shelfhom; print(*[m for m in sys.modules if m.startswith('shelfhom.')])")
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == []


def test_package_resolves_each_name_from_its_module(monkeypatch):
    names = shelfhom.__all__
    assert len(names) == len(set(names)) == 45
    # drop the names earlier tests resolved, so each goes through __getattr__
    for name in names:
        monkeypatch.delattr(shelfhom, name, raising=False)
    star = {}
    exec("from shelfhom import *", star)
    assert set(star) - {"__builtins__"} == set(names)
    for name in names:
        obj = star[name]
        assert obj.__module__.startswith("shelfhom."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name
        assert getattr(shelfhom, name) is obj and name in vars(shelfhom), name
    assert set(names) | {"__version__"} <= set(dir(shelfhom))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        shelfhom.no_such_name


# The shelfhom modules each command loads: every command loads the package
# and these nine, and only the commands that call orbits, simplicial or scans
# load them.
BASE = ["cli", "errors", "value", "tables", "io", "census", "chain", "intmat", "snf"]
LOADS = {
    "homology-shelf": (["homology", "--kind", "shelf", "--maxdeg", "1", "--input", "R3"], []),
    "homology-rack": (["homology", "--kind", "rack", "--maxdeg", "1", "--input", "R3"], []),
    "homology-quandle": (["homology", "--kind", "quandle", "--maxdeg", "2", "--input", "R3"], []),
    "homology-multi": (["homology", "--kind", "multi", "--coefficients", "1",
                        "--maxdeg", "1", "--input", "R3"], []),
    "validate": (["validate", "--input", "R3"], ["orbits"]),
    "orbits": (["orbits", "--input", "R3"], ["orbits"]),
    "enumerate": (["enumerate", "--size", "2"], ["orbits"]),
    "simplicial": (["simplicial", "--input", "R3"], ["orbits", "simplicial"]),
    "scan": (["scan", "--which", "growth", "--size", "2", "--maxdeg", "1"],
             ["orbits", "families", "scans"]),
    "torsion-hunt": (["torsion-hunt", "--size", "2", "--maxdeg", "1"],
                     ["orbits", "families", "scans"]),
}


@pytest.mark.parametrize("case", LOADS)
def test_cli_command_loads_only_the_modules_it_runs(case, tmp_path):
    argv, extra = LOADS[case]
    r3 = tmp_path / "r3.json"
    r3.write_text(json.dumps(R3))
    argv = [str(r3) if a == "R3" else a for a in argv] + ["--no-timestamp"]
    child = _child(RUN_CLI, json.dumps(argv))
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout)["command"] == argv[0]
    code, *loaded = child.stderr.split()
    assert code == "0", child.stderr
    assert loaded == sorted(["shelfhom"] + ["shelfhom." + m for m in BASE + extra])


# only scan and torsion-hunt import shelfhom.scans and its process pool
POOL = ("shelfhom.scans", "concurrent.futures", "multiprocessing", "logging")


def test_cli_homology_loads_no_scans_or_process_pool(tmp_path):
    r3 = tmp_path / "r3.json"
    r3.write_text(json.dumps(R3))
    argv = ["homology", "--kind", "rack", "--maxdeg", "1", "--input", str(r3), "--no-timestamp"]
    child = _child(
        f"import shelfhom.cli; code = shelfhom.cli.main({argv!r}); "
        f"print(code, ' '.join(m for m in {POOL!r} if m in sys.modules), file=sys.stderr)"
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout)["command"] == "homology"
    assert child.stderr.split() == ["0"]
