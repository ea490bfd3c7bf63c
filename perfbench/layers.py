"""In-process CLI runs: shelfhom's layers, the functions that bound them, and
the per-layer metrics computed from their spans.

Each layer is named after its module.  Only public functions are wrapped
(plus ``ProcessPoolExecutor`` where ``scans`` fans out), never private
helpers such as the SNF's internal stages.  README.md maps each layer to the
end-to-end metric and workload it should move.
"""

from __future__ import annotations

import contextlib
import importlib
import io as _stdio
import signal
import statistics
import sys
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor

from tracer import Tracer, TracedPool, self_times

# Per-layer metric -> unit, in the order they are reported.
METRICS = {
    "snf.busy_s": "s",
    "snf.calls": "count",
    "snf.max_call_s": "s",
    "snf.in_nnz": "count",
    "snf.factors": "count",
    "snf.torsion_factors": "count",
    "chain.assemble_s": "s",
    "chain.assemble_calls": "count",
    "chain.assemble_nnz": "count",
    "chain.quotient_s": "s",
    "chain.quotient_kept_ratio": "ratio",
    "intmat.ddcheck_s": "s",
    "intmat.ddcheck_calls": "count",
    "census.backtrack_s": "s",
    "census.dedup_s": "s",
    "census.tables": "count",
    "census.classes": "count",
    "census.classes_per_table": "ratio",
    "scans.items": "count",
    "scans.worker_busy_s": "s",
    "scans.item_max_s": "s",
    "scans.fanout_wall_s": "s",
    "scans.parallel_efficiency": "ratio",
    "cli.import_s": "s",
    "io.load_s": "s",
    "io.dump_s": "s",
    "trace.overhead_frac": "ratio",
}

# The counts that must repeat exactly between traced runs of one workload.
EXACT_COUNTS = (
    "snf.calls", "snf.in_nnz", "snf.factors", "chain.assemble_nnz",
    "census.tables", "census.classes", "scans.items",
)


class BudgetExceeded(Exception):
    """The in-process run outlived its time budget."""


def _quotient_attrs(args, cx):
    return {
        "kept": sum(cx.dims),
        "full": sum(cx.size ** (d + 1) for d in range(cx.maxdeg + 1)),
    }


def _targets(tracer):
    """(original, traced stand-in) for every wrapped module-level function."""
    from shelfhom import census, chain, io, snf

    def wrap(fn, name, measure=None):
        return fn, tracer.wrap(name, fn, measure)

    return [
        wrap(snf.smith_normal_form, "snf", lambda a, out: {
            "in_nnz": a[0].nnz,
            "factors": len(out.factors),
            "torsion_factors": len(out.torsion()),
        }),
        wrap(chain.boundary_matrix, "chain.assemble",
             lambda a, out: {"nnz": out.nnz}),
        wrap(chain.quandle_quotient_complex, "chain.quotient", _quotient_attrs),
        wrap(census.enumerate_shelf_tables, "census.backtrack",
             lambda a, out: {"tables": len(out)}),
        wrap(census.enumerate_shelves, "census.enumerate",
             lambda a, out: {"classes": len(out)}),
        wrap(io.load_structure, "io.load"),
        wrap(io.dump_report, "io.dump"),
        (ProcessPoolExecutor, TracedPool),
    ]


def cli_run(argv, budget_s, traced):
    """Import ``shelfhom.cli`` and run ``main(argv)`` in this process.

    Both kinds of run are timed the same way, from the import to the end of
    main, so that a traced and an untraced run compare.  Returns a dict with
    the exit code (None when over budget), the report text, ``wall_s``,
    ``import_s`` and, when traced, the spans.
    """
    if any(name == "shelfhom" or name.startswith("shelfhom.") for name in sys.modules):
        raise RuntimeError("shelfhom must first be imported by this run")
    t0 = time.perf_counter()
    cli = importlib.import_module("shelfhom.cli")
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    main = cli.main
    if traced:
        from shelfhom.intmat import SparseIntMatrix

        modules = [m for name, m in sys.modules.items()
                   if name == "shelfhom" or name.startswith("shelfhom.")]
        tracer.install(modules, _targets(tracer))
        tracer.patch_attr(SparseIntMatrix, "matmul",
                          tracer.wrap("intmat.ddcheck", SparseIntMatrix.matmul))
        main = tracer.wrap("cli.main", cli.main)

    def over_budget(signum, frame):
        raise BudgetExceeded()

    previous = signal.signal(signal.SIGALRM, over_budget)
    signal.setitimer(signal.ITIMER_REAL, max(budget_s, 0.001))
    out = _stdio.StringIO()
    code = None
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    except BudgetExceeded:
        code = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        tracer.uninstall()
    return {
        "code": code,
        "report": out.getvalue(),
        "wall_s": time.perf_counter() - t0,
        "import_s": import_s,
        "spans": tracer.spans,
    }


def layer_values(spans, import_s):
    """Every per-layer metric of one traced run except trace.overhead_frac;
    a layer that did not run reports 0 for each of its metrics."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def total(name, key=None):
        return sum(s["attrs"].get(key, 0) if key else dur(s) for s in by_name[name])

    def ratio(a, b):
        return a / b if b else 0.0

    snf = by_name["snf"]
    items = by_name["scans.item"]
    pools = by_name["scans.fanout"]
    busy = sum(dur(s) for s in items)
    capacity = sum(s["attrs"]["jobs"] * dur(s) for s in pools)
    return {
        "snf.busy_s": sum(selfs[s["id"]] for s in snf),
        "snf.calls": len(snf),
        "snf.max_call_s": max((dur(s) for s in snf), default=0.0),
        "snf.in_nnz": total("snf", "in_nnz"),
        "snf.factors": total("snf", "factors"),
        "snf.torsion_factors": total("snf", "torsion_factors"),
        "chain.assemble_s": total("chain.assemble"),
        "chain.assemble_calls": len(by_name["chain.assemble"]),
        "chain.assemble_nnz": total("chain.assemble", "nnz"),
        "chain.quotient_s": sum(selfs[s["id"]] for s in by_name["chain.quotient"]),
        "chain.quotient_kept_ratio": ratio(total("chain.quotient", "kept"),
                                           total("chain.quotient", "full")),
        "intmat.ddcheck_s": total("intmat.ddcheck"),
        "intmat.ddcheck_calls": len(by_name["intmat.ddcheck"]),
        "census.backtrack_s": total("census.backtrack"),
        "census.dedup_s": sum(selfs[s["id"]] for s in by_name["census.enumerate"]),
        "census.tables": total("census.backtrack", "tables"),
        "census.classes": total("census.enumerate", "classes"),
        "census.classes_per_table": ratio(total("census.enumerate", "classes"),
                                          total("census.backtrack", "tables")),
        "scans.items": len(items),
        "scans.worker_busy_s": busy,
        "scans.item_max_s": max((dur(s) for s in items), default=0.0),
        "scans.fanout_wall_s": total("scans.fanout"),
        "scans.parallel_efficiency": ratio(busy, capacity),
        "cli.import_s": import_s,
        "io.load_s": total("io.load"),
        "io.dump_s": total("io.dump"),
    }


def layer_metrics(values, traced_walls, untraced_walls):
    """Per-layer metrics, every name in METRICS: the lower median of each
    layer_values() entry over the traced runs (so a count stays a count),
    and the median traced wall over the median untraced wall, minus 1."""
    out = {name: statistics.median_low(v[name] for v in values)
           for name in METRICS if name != "trace.overhead_frac"}
    out["trace.overhead_frac"] = (statistics.median(traced_walls)
                                  / statistics.median(untraced_walls) - 1.0)
    return {name: {"value": out[name], "unit": unit} for name, unit in METRICS.items()}
