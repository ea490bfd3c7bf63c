"""JSON document formats for structures and reports.

A structure document is ``{"size": n, "ops": [table, ...]}`` with each table
an n-by-n row-major nested list, 0-indexed, plus an optional ``labels`` array
of n strings.  Reports carry ``"schema": 1`` and an ISO timestamp that can be
suppressed for byte-identical reruns.
"""

from __future__ import annotations

import json

from .errors import ParseError
from .tables import BinaryOpTable, validate_multishelf, validate_shelf

SCHEMA_VERSION = 1


def structure_to_doc(structure) -> dict:
    return {
        "size": structure.size,
        "ops": [[list(row) for row in op.entries] for op in structure.ops],
    }


def structure_from_doc(doc):
    """Parse and validate a structure document.

    Returns a Shelf for a single operation and a MultiShelf otherwise.
    Structural problems raise ParseError; law violations raise their own
    structured errors.
    """
    if not isinstance(doc, dict):
        raise ParseError("structure document must be a JSON object")
    try:
        size = doc["size"]
        ops = doc["ops"]
    except KeyError as missing:
        raise ParseError(f"missing required key {missing}") from None
    # JSON true/false load as bool, a subclass of int: refuse them by type
    if type(size) is not int or size <= 0:
        raise ParseError(f"size must be a positive integer, got {size!r}")
    if not isinstance(ops, list) or not ops:
        raise ParseError("ops must be a nonempty list of tables")
    labels = doc.get("labels")
    if labels is not None:
        if (
            not isinstance(labels, list)
            or len(labels) != size
            or not all(isinstance(label, str) for label in labels)
        ):
            raise ParseError(f"labels must be a list of {size} strings")
    tables = []
    for which, table in enumerate(ops):
        if (
            not isinstance(table, list)
            or len(table) != size
            or any(not isinstance(row, list) or len(row) != size for row in table)
        ):
            raise ParseError(f"ops[{which}] is not an {size}x{size} nested list")
        for row in table:
            for v in row:
                if type(v) is not int or not 0 <= v < size:
                    raise ParseError(
                        f"ops[{which}] entry {v!r} outside 0..{size - 1}"
                    )
        tables.append(BinaryOpTable.from_rows(table))
    if len(tables) == 1:
        return validate_shelf(tables[0])
    return validate_multishelf(tables)


def load_structure(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError; a document
        # nested past the recursion limit raises RecursionError
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    return structure_from_doc(doc)


def finish_report(payload: dict, no_timestamp: bool = False) -> dict:
    report = {"schema": SCHEMA_VERSION}
    report.update(payload)
    if not no_timestamp:
        from datetime import datetime, timezone  # only a stamped report pays for it
        report["generated_at"] = datetime.now(timezone.utc).isoformat()
    return report


def dump_report(report: dict, path=None) -> str:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {path}: {exc}") from exc
    return text
