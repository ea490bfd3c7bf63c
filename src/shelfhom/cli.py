"""Command-line front end.

Subcommands: validate, orbits, homology, simplicial, enumerate, scan,
torsion-hunt.  Reports are JSON with sorted keys; pass --no-timestamp for
byte-identical reruns of the same computation.

Exit codes: 0 success, 2 input error (errors.InputError), 3 resource cap
(errors.ResourceCap), 4 internal assertion (any other structured error).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import errors
from .census import CANONICAL_SIZE_LIMIT, canonical_form, enumerate_shelves
from .chain import DEFAULT_MEMORY_CAP, PRESETS, as_multishelf, homology_groups, preset_complex
from .io import dump_report, finish_report, load_structure, structure_to_doc
from .orbits import classify, left_orbits, orbit_quotient
from .scans import scan_boolean, scan_example4, scan_growth, scan_hyperplane, torsion_hunt
from .simplicial import build_shelf_complex, components, simplicial_groups
from .tables import MultiShelf, Shelf


class _Parser(argparse.ArgumentParser):
    """Refuses a command line with a ParseError; subparsers inherit it."""

    def error(self, message):
        raise errors.ParseError(message)


def _at_least_one(text: str) -> int:
    """argparse type of the resource flags --jobs and --cap."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shelfhom",
        description="Exact integer homology of finite shelves and multi-shelves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", metavar="PATH", help="write the report here instead of stdout")
    common.add_argument("--no-timestamp", action="store_true",
                        help="omit generated_at for byte-identical reruns")
    # flags that only some subcommands read; the others refuse them
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--input", metavar="PATH", help="structure JSON document")
    degree = argparse.ArgumentParser(add_help=False)
    degree.add_argument("--maxdeg", metavar="K", type=int, default=None,
                        help="top degree to compute (top dimension for simplicial)")
    augmented = argparse.ArgumentParser(add_help=False)
    augmented.add_argument("--augmented", choices=["on", "off", "default"], default=None,
                           help="augmentation override; default depends on the kind")
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", metavar="K", type=_at_least_one, default=1,
                      help="worker processes for independent scan jobs")

    p = sub.add_parser("validate", parents=[common, source],
                       help="check the distributivity laws of an input document")

    p = sub.add_parser("orbits", parents=[common, source],
                       help="left orbits and the orbit quotient of a shelf")

    p = sub.add_parser("homology", parents=[common, source, degree, augmented],
                       help="shelf/rack/quandle/multi-shelf homology groups")
    p.add_argument("--cap", metavar="N", type=_at_least_one, default=DEFAULT_MEMORY_CAP,
                   help="basis-element cap guarding complex construction")
    p.add_argument("--kind", choices=list(PRESETS), default="shelf")
    p.add_argument("--coefficients", metavar="C1,C2,...",
                   help="integer coefficients, one per operation (kind=multi)")
    p.add_argument("--export-matrices", metavar="DIR",
                   help="also write boundary matrices as triplet CSV files")

    p = sub.add_parser("simplicial", parents=[common, source, degree],
                       help="the shelf complex, its components and homology")

    p = sub.add_parser("enumerate", parents=[common],
                       help="isomorphism classes of shelves of a given size")
    p.add_argument("--size", type=int, required=True)

    p = sub.add_parser("scan", parents=[common, source, degree, augmented, jobs],
                       help="conjecture scans (report-only, never assertions)")
    p.add_argument("--which", choices=list(_SCAN_FLAGS), required=True)
    # unset unless given, so that a --which that does not read one refuses it
    # (_SCAN_FLAGS); --size defaults to 3 and --omega to 1
    for flag in ("--size", "--omega", "--radius", "--samples", "--bound", "--seed"):
        p.add_argument(flag, type=int)

    p = sub.add_parser("torsion-hunt", parents=[common, degree, jobs],
                       help="list iso classes with torsion in low degrees")
    p.add_argument("--size", type=int, required=True)

    return parser


def _need_input(args):
    if not args.input:
        raise errors.ParseError("this command needs --input PATH")
    return load_structure(args.input)


def _need_shelf(args, who="this command") -> Shelf:
    structure = _need_input(args)
    # io loads a one-table document as a Shelf
    if isinstance(structure, MultiShelf):
        raise errors.ParseError(f"{who} needs a single-operation document")
    return structure


def _augmented_flag(args):
    return {"on": True, "off": False}.get(args.augmented)


def _flags_doc(shelf) -> dict:
    flags = classify(shelf)
    return {
        "spindle": flags.is_spindle,
        "rack": flags.is_rack,
        "left_connected": flags.is_left_connected,
        "invertible": flags.is_rack,
    }


def _groups_doc(groups) -> list:
    return [{"degree": g.degree, "rank": g.rank, "torsion": list(g.torsion)}
            for g in groups]


def _structure_key(structure) -> list:
    if isinstance(structure, Shelf):
        if structure.size <= CANONICAL_SIZE_LIMIT:
            return list(canonical_form(structure.table).flat)
        return list(structure.table.flat())
    flat = []
    for op in structure.ops:
        flat.extend(op.flat())
    return flat


def cmd_validate(args):
    structure = _need_input(args)
    doc = structure_to_doc(structure)
    payload = {
        "valid": True,
        "kind": "shelf" if isinstance(structure, Shelf) else "multi-shelf",
        "size": doc["size"],
        "operations": len(doc["ops"]),
    }
    if isinstance(structure, Shelf):
        payload["flags"] = _flags_doc(structure)
        payload["orbits"] = left_orbits(structure).count
    return payload


def cmd_orbits(args):
    shelf = _need_shelf(args)
    part = left_orbits(shelf)
    quotient, pi = orbit_quotient(shelf)
    return {
        "size": shelf.size,
        "orbits": part.count,
        "blocks": [list(b) for b in part.blocks],
        "representatives": list(part.representatives),
        "quotient_map": list(pi),
        "quotient": structure_to_doc(quotient),
    }


def _parse_coefficients(text, count):
    try:
        coeffs = tuple(int(piece) for piece in text.split(","))
    except ValueError as exc:
        raise errors.ParseError(f"bad coefficient list {text!r}") from exc
    if len(coeffs) != count:
        raise errors.ParseError(
            f"{len(coeffs)} coefficients for {count} operations"
        )
    return coeffs


def cmd_homology(args):
    maxdeg = 3 if args.maxdeg is None else args.maxdeg
    coeffs = None
    if args.kind == "multi":
        structure = as_multishelf(_need_input(args))
        if not args.coefficients:
            raise errors.ParseError("kind=multi needs --coefficients")
        coeffs = _parse_coefficients(args.coefficients, len(structure.ops))
    elif args.coefficients:
        raise errors.ParseError("--coefficients only applies to kind=multi")
    else:
        structure = _need_shelf(args, f"kind={args.kind}")
    cx = preset_complex(structure, args.kind, maxdeg, coeffs,
                        _augmented_flag(args), args.cap)
    if args.export_matrices:
        try:
            os.makedirs(args.export_matrices, exist_ok=True)
            for d in range(cx.maxdeg + 1):
                path = os.path.join(args.export_matrices, f"d{d}.csv")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(cx.boundary(d).to_csv_text())
        except OSError as exc:
            raise errors.ParseError(
                f"cannot write {args.export_matrices}: {exc}"
            ) from exc
    return {
        "shelf": _structure_key(structure),
        "kind": args.kind,
        "coefficients": list(cx.coefficients),
        "augmented": cx.augmented,
        "groups": _groups_doc(homology_groups(cx, maxdeg)),
    }


def cmd_simplicial(args):
    shelf = _need_shelf(args)
    cx = build_shelf_complex(shelf, args.maxdeg)
    count, labels = components(cx)
    return {
        "size": shelf.size,
        "maxdim": cx.maxdim,
        "simplex_counts": [cx.count(d) for d in range(cx.maxdim + 1)],
        "maximal_simplices": [list(s) for s in cx.maximal_simplices()],
        "components": count,
        "component_labels": list(labels),
        "groups": _groups_doc(simplicial_groups(cx)),
    }


def cmd_enumerate(args):
    keys = enumerate_shelves(args.size)
    classes = []
    for key in keys:
        shelf = Shelf(key.table())
        classes.append({
            "key": list(key.flat),
            "table": [list(row) for row in key.table().entries],
            "orbits": left_orbits(shelf).count,
            "flags": _flags_doc(shelf),
        })
    return {"size": args.size, "count": len(classes), "classes": classes}


# the flags each --which reads besides --maxdeg and --jobs
_SCAN_FLAGS = {
    "growth": ("size",),
    "example4": ("size",),
    "boolean": ("omega", "radius", "augmented"),
    "hyperplane": ("input", "samples", "bound", "seed", "augmented"),
}


def cmd_scan(args):
    for flag in sorted(set().union(*_SCAN_FLAGS.values()) - set(_SCAN_FLAGS[args.which])):
        if getattr(args, flag) is not None:
            raise errors.ParseError(f"scan --which {args.which} does not read --{flag}")
    # pass only the options the user gave; each scan declares its defaults
    given = {"jobs": args.jobs}
    for flag in ("maxdeg", "radius", "samples", "bound", "seed"):
        if getattr(args, flag) is not None:
            given[flag] = getattr(args, flag)
    if (augmented := _augmented_flag(args)) is not None:
        given["augmented"] = augmented
    size = 3 if args.size is None else args.size
    if args.which == "growth":
        return scan_growth(size, **given)
    if args.which == "example4":
        return scan_example4(size, **given)
    if args.which == "boolean":
        return scan_boolean(1 if args.omega is None else args.omega, **given)
    return scan_hyperplane(as_multishelf(_need_input(args)), **given)


def cmd_torsion_hunt(args):
    given = {} if args.maxdeg is None else {"maxdeg": args.maxdeg}
    return torsion_hunt(args.size, jobs=args.jobs, **given)


COMMANDS = {
    "validate": cmd_validate,
    "orbits": cmd_orbits,
    "homology": cmd_homology,
    "simplicial": cmd_simplicial,
    "enumerate": cmd_enumerate,
    "scan": cmd_scan,
    "torsion-hunt": cmd_torsion_hunt,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        payload = COMMANDS[args.command](args)
        report = finish_report(
            {"command": args.command, **payload}, no_timestamp=args.no_timestamp
        )
        text = dump_report(report, args.output)
    except errors.REPORTED as exc:
        _print_error(exc)
        return errors.exit_code(exc)
    if not args.output:
        sys.stdout.write(text)
    return 0


def _print_error(exc):
    sys.stderr.write(json.dumps(
        {"error": type(exc).__name__, "message": str(exc)}
    ) + "\n")


if __name__ == "__main__":
    sys.exit(main())
