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
from .census import canonical_form, enumerate_shelves
from .chain import DEFAULT_MEMORY_CAP, as_multishelf, homology_groups, preset_complex
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
    common.add_argument("--input", metavar="PATH", help="structure JSON document")
    common.add_argument("--output", metavar="PATH", help="write the report here instead of stdout")
    common.add_argument("--maxdeg", metavar="K", type=int, default=None,
                        help="top degree to compute (top dimension for simplicial)")
    common.add_argument("--no-timestamp", action="store_true",
                        help="omit generated_at for byte-identical reruns")
    # flags that only some subcommands read; the others refuse them
    augmented = argparse.ArgumentParser(add_help=False)
    augmented.add_argument("--augmented", choices=["on", "off", "default"], default="default",
                           help="augmentation override; default depends on the kind")
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", metavar="K", type=_at_least_one, default=1,
                      help="worker processes for independent scan jobs")

    p = sub.add_parser("validate", parents=[common],
                       help="check the distributivity laws of an input document")

    p = sub.add_parser("orbits", parents=[common],
                       help="left orbits and the orbit quotient of a shelf")

    p = sub.add_parser("homology", parents=[common, augmented],
                       help="shelf/rack/quandle/multi-shelf homology groups")
    p.add_argument("--cap", metavar="BYTES", type=_at_least_one, default=DEFAULT_MEMORY_CAP,
                   help="basis-element cap guarding complex construction")
    p.add_argument("--kind", choices=["shelf", "rack", "quandle", "multi"],
                   default="shelf")
    p.add_argument("--coefficients", metavar="C1,C2,...",
                   help="integer coefficients, one per operation (kind=multi)")
    p.add_argument("--export-matrices", metavar="DIR",
                   help="also write boundary matrices as triplet CSV files")

    p = sub.add_parser("simplicial", parents=[common],
                       help="the shelf complex, its components and homology")

    p = sub.add_parser("enumerate", parents=[common],
                       help="isomorphism classes of shelves of a given size")
    p.add_argument("--size", type=int, required=True)

    p = sub.add_parser("scan", parents=[common, augmented, jobs],
                       help="conjecture scans (report-only, never assertions)")
    p.add_argument("--which", choices=["growth", "example4", "boolean", "hyperplane"],
                   required=True)
    p.add_argument("--size", type=int, default=3)
    p.add_argument("--omega", type=int, default=1)
    p.add_argument("--radius", type=int, default=1)
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--bound", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("torsion-hunt", parents=[common, jobs],
                       help="list iso classes with torsion in low degrees")
    p.add_argument("--size", type=int, required=True)

    return parser


def _need_input(args):
    if not args.input:
        raise errors.ParseError("this command needs --input PATH")
    return load_structure(args.input)


def _need_shelf(args, who="this command") -> Shelf:
    structure = _need_input(args)
    if isinstance(structure, MultiShelf):
        if len(structure.ops) != 1:
            raise errors.ParseError(f"{who} needs a single-operation document")
        structure = Shelf(structure.ops[0])
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
        if structure.size <= 8:
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
    maxdim = (shelf.size - 1) if args.maxdeg is None else args.maxdeg
    cx = build_shelf_complex(shelf, maxdim)
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


def cmd_scan(args):
    # pass only the options the user gave; each scan declares its defaults
    given = {"jobs": args.jobs}
    if args.maxdeg is not None:
        given["maxdeg"] = args.maxdeg
    if args.which in ("boolean", "hyperplane") and args.augmented != "default":
        given["augmented"] = _augmented_flag(args)
    if args.which == "growth":
        report = scan_growth(args.size, **given)
    elif args.which == "example4":
        report = scan_example4(args.size, **given)
    elif args.which == "boolean":
        report = scan_boolean(args.omega, radius=args.radius, **given)
    else:
        report = scan_hyperplane(
            as_multishelf(_need_input(args)), samples=args.samples,
            bound=args.bound, seed=args.seed, **given,
        )
    return report.to_doc()


def cmd_torsion_hunt(args):
    given = {} if args.maxdeg is None else {"maxdeg": args.maxdeg}
    return torsion_hunt(args.size, jobs=args.jobs, **given).to_doc()


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
