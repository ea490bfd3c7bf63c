import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import shelfhom

# Each module is imported first in its own clean slate, so an import cycle
# that only one entry point reaches fails here rather than for a user.
CHILD = """
import importlib, sys
sys.path.insert(0, {root!r})
for name in {names!r}:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "shelfhom"]:
        del sys.modules[loaded]
    importlib.import_module(name)
"""


def test_each_module_imports_on_its_own():
    root = str(Path(shelfhom.__file__).resolve().parent.parent)
    names = ["shelfhom." + m.name for m in pkgutil.iter_modules(shelfhom.__path__)]
    assert "shelfhom.simplicial" in names and "shelfhom.chain" in names
    child = subprocess.run(
        [sys.executable, "-c", CHILD.format(root=root, names=names)],
        capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr


# dataclasses (which pulls in inspect) and datetime cost every CLI process
# start-up time; the value types are plain slotted classes and io stamps the
# report time with a local import.
HEAVY = ("dataclasses", "inspect", "datetime")


def test_cli_import_loads_no_dataclasses_inspect_or_datetime():
    root = str(Path(shelfhom.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {root!r}); import shelfhom.cli; "
        f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))"
    )
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == []


# only scan and torsion-hunt import shelfhom.scans and its process pool
POOL = ("shelfhom.scans", "concurrent.futures", "multiprocessing", "logging")


def test_cli_homology_loads_no_scans_or_process_pool(tmp_path):
    root = str(Path(shelfhom.__file__).resolve().parent.parent)
    r3 = tmp_path / "r3.json"
    r3.write_text(json.dumps(
        {"size": 3, "ops": [[[(2 * y - x) % 3 for y in range(3)] for x in range(3)]]}
    ))
    argv = ["homology", "--kind", "rack", "--maxdeg", "1", "--input", str(r3), "--no-timestamp"]
    code = (
        f"import sys; sys.path.insert(0, {root!r}); import shelfhom.cli; "
        f"code = shelfhom.cli.main({argv!r}); "
        f"print(code, ' '.join(m for m in {POOL!r} if m in sys.modules), file=sys.stderr)"
    )
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout)["command"] == "homology"
    assert child.stderr.split() == ["0"]
