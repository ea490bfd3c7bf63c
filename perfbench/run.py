"""Benchmark for shelfhom: time to exact homology, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload rack-r7 --seed 1 --seconds 40 --trace 0

``--trace 0`` spawns the real CLI (``python -m shelfhom.cli ...
--no-timestamp``) as fresh processes, one after another, for ``--seconds``,
checks each report against the known exact answer and reports the
end-to-end metrics, rescaled by a calibration loop timed between the
processes on the same CPU.  ``--trace 1`` instead alternates untraced and traced
runs of ``shelfhom.cli.main`` in forks of this process (see layers.py) and
reports the per-layer metrics.  The last line of standard output is the
result object; the line before it records the machine, the workload's
reason and the digests of the input and the reports.

The benchmark only measures its own process tree: CPU time and peak RSS
come from ``os.wait4`` on each run's own child, which includes the pool
workers that child reaped.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from typing import Callable, NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

# Every run ends within this many seconds of its start, traced or not.
RUN_DEADLINE_S = 170.0
# A single CLI process, or in-process run, over this budget is killed and
# counted as failed.  It is about ten times the slowest listed workload.
BUDGET_S = 60.0
# Set-up processes timed after each CLI process, so that their median
# spans the whole run.
SETUPS_PER_RUN = 2
# The host's speed drifts by up to 2x over seconds to minutes.  For a CLI
# that computes in one process, a fixed calibration loop is timed on the
# CLI's CPU before and after every CLI process, and the end-to-end times are
# rescaled to CALIBRATION_NOMINAL_S (README.md, "Calibration").
CALIBRATION_REPS = 3
# About the median time of CALIBRATION_REPS loops on the tuning machine
# (Intel Xeon, 2 vCPUs, Python 3.11.7).
CALIBRATION_NOMINAL_S = 0.25


def dihedral(n):
    """The dihedral quandle R_n: x * y = 2y - x mod n."""
    return [[(2 * y - x) % n for y in range(n)] for x in range(n)]


def relabel(table, perm):
    """Transport the table along x -> perm[x]."""
    n = len(table)
    inv = [0] * n
    for x, p in enumerate(perm):
        inv[p] = x
    return [[perm[table[inv[x]][inv[y]]] for y in range(n)] for x in range(n)]


def canonical_key(table):
    """Lexicographic minimum of the row-major table over all relabellings."""
    n = len(table)
    return min(
        [x for row in relabel(table, perm) for x in row]
        for perm in itertools.permutations(range(n))
    )


def nosaka_torsion(p, degree):
    """Torsion of quandle homology of R_p at this package's degree d = n - 1.

    H^Q_n(R_p) = Z for n = 1 and (Z/p)^{f_n} for n >= 2, with f_1 = f_2 = 0,
    f_3 = 1 and f_n = f_{n-1} + f_{n-3} (Nosaka, Trans. AMS 365, 2013).
    """
    f = [None, 0, 0, 1]
    while len(f) <= degree + 1:
        f.append(f[-1] + f[-3])
    return [p] * f[degree + 1] if degree >= 1 else []


def homology_check(table, kind, groups):
    """Check of a homology report; the canonical key is relabelling-invariant."""
    want = {
        "command": "homology",
        "kind": kind,
        "coefficients": [1, -1],
        "augmented": False,
        "shelf": canonical_key(table),
        "groups": groups,
    }
    return lambda report: all(report.get(k) == v for k, v in want.items())


def rack_groups(torsion):
    # R_p (p prime) is a connected rack, so the free rank is 1 in every
    # degree (Etingof-Grana).
    return [{"degree": d, "rank": 1, "torsion": t} for d, t in enumerate(torsion)]


def quandle_r3_groups():
    return [
        {"degree": d, "rank": 1 if d == 0 else 0, "torsion": nosaka_torsion(3, d)}
        for d in range(8)
    ]


# The only size-4 classes with torsion up to degree 2.  The first is of the
# pointed-map shape of the known torsion examples.
HUNT4_FINDS = [
    {"params": {"class": [0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 1, 0, 0, 3]},
     "observed": {"pointed_map_type": True,
                  "torsion_by_degree": {"1": [2], "2": [2, 2, 2, 2]}}},
    {"params": {"class": [0, 1, 3, 2, 0, 1, 3, 2, 1, 0, 2, 3, 1, 0, 2, 3]},
     "observed": {"pointed_map_type": False,
                  "torsion_by_degree": {"1": [2, 2, 2, 2],
                                        "2": [2] * 12}}},
]


def hunt4_check():
    finds = sorted(HUNT4_FINDS, key=lambda p: p["params"]["class"])

    def check(report):
        summary = report.get("summary", {})
        points = sorted(report.get("points", []), key=lambda p: p["params"]["class"])
        return (
            report.get("conjecture") == "torsion-hunt"
            and summary.get("classes_scanned") == 720
            and summary.get("classes_with_torsion") == len(finds)
            and len(points) == len(finds)
            and all(p["params"] == w["params"] and p["observed"] == w["observed"]
                    and p["verdict"] == "consistent"
                    for p, w in zip(points, finds))
        )

    return check


def growth4_check(report):
    summary = report.get("summary", {})
    points = report.get("points", [])
    classes = {tuple(p["params"]["class"]) for p in points}
    return (
        report.get("conjecture") == "growth"
        and len(points) == 720
        and len(classes) == 720
        and all(p["verdict"] == "consistent" for p in points)
        and summary.get("points") == 720
        and summary.get("consistent") == 720
        and summary.get("inconsistent") == 0
        and summary.get("all_consistent") is True
        and summary.get("quotient_h1_comparison")
        == {"greater": 60, "equal": 660, "less": 0}
    )


class Workload(NamedTuple):
    name: str
    argv: list
    # Builds the report check; called once per run, since some checks
    # compute a canonical form first.
    make_check: Callable[[], Callable[[dict], bool]]
    table: list | None = None
    # Processes the CLI computes in at once (its --jobs).
    jobs: int = 1


R3, R5, R7 = dihedral(3), dihedral(5), dihedral(7)

# Why each listed workload exists is recorded once, in BENCHMARK.json.  Every
# workload uses the standard labelling of its input: relabellings of a
# dihedral quandle that are not automorphisms change the elimination time by
# up to 2.3x (README.md), and every relabelling of R3 is an automorphism.
WORKLOADS = {
    w.name: w for w in (
        Workload("rack-r7", ["homology", "--kind", "rack", "--maxdeg", "2"],
                 lambda: homology_check(R7, "rack", rack_groups([[], [], [7]])),
                 table=R7),
        Workload("hunt-4", ["torsion-hunt", "--size", "4", "--maxdeg", "2",
                            "--jobs", "2"],
                 hunt4_check, jobs=2),
        Workload("quandle-r3", ["homology", "--kind", "quandle", "--maxdeg", "7"],
                 lambda: homology_check(R3, "quandle", quandle_r3_groups()),
                 table=R3),
        # Not in BENCHMARK.json: one process takes about 20 s, too long for
        # the repeated processes a steady run needs.  Run them by hand with
        # a larger --seconds (README.md).
        Workload("rack-r5", ["homology", "--kind", "rack", "--maxdeg", "3"],
                 lambda: homology_check(R5, "rack",
                                        rack_groups([[], [], [5], [5, 5]])),
                 table=R5),
        Workload("growth-4", ["scan", "--which", "growth", "--size", "4",
                              "--maxdeg", "3", "--jobs", "2"],
                 lambda: growth4_check, jobs=2),
    )
}


def workload_why(name):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return next((w["why"] for w in spec["workloads"] if w["name"] == name),
                "not a BENCHMARK.json workload; see perfbench/README.md")


def machine_facts():
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


class Child(NamedTuple):
    returncode: int | None
    timed_out: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def wait_group(pid, t0, budget_s):
    """Wait for a child that leads its own process group, killing the group
    once the child outlives its budget.

    CPU time and peak RSS come from os.wait4 and cover the child and every
    descendant it reaped.  The group is then waited for until it is empty,
    so a kill also ends the pool workers the child started.
    """
    lock = threading.Lock()
    done = False
    timed_out = False

    def kill():
        nonlocal timed_out
        with lock:
            if not done:
                timed_out = True
                _killpg(pid)

    timer = threading.Timer(max(budget_s, 0.001), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        with lock:
            done = True
        timer.cancel()
        timer.join()
    wall_s = time.perf_counter() - t0
    # Normally the child has joined its workers before exiting and the
    # group is already empty.
    deadline = time.monotonic() + 10.0
    while True:
        try:
            os.killpg(pid, 0)
        except ProcessLookupError:
            break
        if time.monotonic() > deadline:
            raise RuntimeError(f"process group {pid} did not end")
        _killpg(pid)
        time.sleep(0.01)
    return Child(os.waitstatus_to_exitcode(status), timed_out, wall_s,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def _killpg(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(cmd, stdout_path, stderr_path, budget_s):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out,
                                stderr=err, start_new_session=True)
    child = wait_group(proc.pid, t0, budget_s)
    proc.returncode = child.returncode
    return child


def fork_call(fn, budget_s):
    """Run fn() in a forked child that leads its own process group; the
    child exits with 0 when fn returns and 1 when it raises."""
    sys.stdout.flush()
    sys.stderr.flush()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.setpgid(0, 0)
            fn()
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(status)
    try:
        os.setpgid(pid, pid)
    except OSError:
        pass  # the child got there first
    return wait_group(pid, t0, budget_s)


def setup_walls(work, input_path, deadline, count):
    """Wall times of processes that import shelfhom.cli and load the input."""
    code = "import sys, shelfhom.cli, shelfhom.io as io\nfor p in sys.argv[1:]: io.load_structure(p)"
    cmd = [sys.executable, "-c", code] + ([input_path] if input_path else [])
    walls = []
    for _ in range(count):
        child = spawn(cmd, os.path.join(work, "setup.out"),
                      os.path.join(work, "setup.err"),
                      min(30.0, deadline - time.perf_counter()))
        if child.returncode != 0:
            raise RuntimeError(f"setup process failed with exit code {child.returncode}")
        walls.append(child.wall_s)
    return walls


def calibration_loop():
    """Fixed pure-Python work; it touches nothing of shelfhom."""
    table = dict.fromkeys(range(1024), 0)
    acc = 0
    for i in range(300000):
        table[i & 1023] = i
        acc += table[(i * 7) & 1023] % 13
    return acc


def calibrate():
    """Seconds for CALIBRATION_REPS calibration loops."""
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_REPS):
        calibration_loop()
    return time.perf_counter() - t0


def check_report(text, check):
    try:
        ok = check(json.loads(text))
    except (ValueError, KeyError, TypeError, AttributeError):
        ok = False
    return None if ok else "wrong answer"


def failure_of(child, budget, text, check):
    """Why a run failed, or None; only a run over its budget fails without
    a wrong answer."""
    if child.timed_out:
        return f"over the {budget:.0f} s budget"
    if child.returncode != 0:
        return f"exit code {child.returncode}"
    return check_report(text, check)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "shelfhom", "cli.py")):
        sys.stderr.write(f"no shelfhom source under {SRC}; run from a checkout\n")
        return 2

    start = time.perf_counter()
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        return measure(workload, args, work, start)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(workload, args, work, start):
    deadline = start + RUN_DEADLINE_S
    check = workload.make_check()
    argv = list(workload.argv) + ["--no-timestamp"]
    input_path = input_digest = None
    if workload.table is not None:
        input_path = os.path.join(work, "input.json")
        doc = json.dumps({"size": len(workload.table), "ops": [workload.table]}).encode()
        with open(input_path, "wb") as handle:
            handle.write(doc)
        input_digest = sha256(doc)
        argv += ["--input", input_path]

    info = {
        "workload": workload.name,
        "why": workload_why(workload.name),
        "seed": args.seed,
        # The inputs are fixed: a scan has none to vary, and relabelling a
        # dihedral quandle's carrier changes the time (see WORKLOADS).
        "seed_used": False,
        "input_sha256": input_digest,
        "machine": machine_facts(),
    }
    # A CLI that computes in one process is pinned, with the benchmark, to
    # one CPU, so that the calibration loop times the CPU the CLI runs on.
    # The workers of a pool spread over the CPUs, and no calibration
    # follows them: those times stay as measured.
    calibrated = workload.jobs == 1
    if calibrated:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    info["cpus"] = sorted(os.sched_getaffinity(0))
    info["calibrated"] = calibrated
    # The first spawn compiles bytecode into the checkout; users pay that
    # once, so it is not timed.
    setup_walls(work, input_path, deadline, 1)
    if args.trace:
        result = measure_layers(argv, check, work, deadline, args.seconds, info)
    else:
        result = measure_cli(argv, check, work, input_path, deadline,
                             args.seconds, calibrated, info)
    info["bench_wall_s"] = round(time.perf_counter() - start, 3)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


def measure_cli(argv, check, work, input_path, deadline, seconds, calibrated, info):
    """End-to-end metrics over CLI processes run one after another.

    When calibrated, the times are rescaled to the calibration loop's
    nominal speed: a CLI process by the mean of the calibrations just before
    and after it, a set-up process by the calibration just before it.
    """
    speed = calibrate if calibrated else lambda: CALIBRATION_NOMINAL_S
    cmd = [sys.executable, "-m", "shelfhom.cli"] + argv
    runs, setups, failures, reports = [], [], [], set()
    calibrations = [speed()]
    wrong = 0
    t_measure = time.perf_counter()
    while True:
        out_path = os.path.join(work, f"run{len(runs)}.out")
        budget = min(BUDGET_S, deadline - time.perf_counter())
        child = spawn(cmd, out_path, os.path.join(work, f"run{len(runs)}.err"), budget)
        calibrations.append(speed())
        with open(out_path, "rb") as handle:
            text = handle.read()
        runs.append(child)
        reports.add(sha256(text))
        failure = failure_of(child, budget, text, check)
        if failure:
            failures.append(failure)
            wrong += not child.timed_out
            break
        setups.append((setup_walls(work, input_path, deadline, SETUPS_PER_RUN),
                       calibrations[-1]))
        elapsed = time.perf_counter() - t_measure
        step = elapsed / len(runs)
        if elapsed + step > seconds or time.perf_counter() + step + 5.0 > deadline:
            break
    if not setups:
        setups.append((setup_walls(work, input_path, deadline, SETUPS_PER_RUN),
                       calibrations[-1]))
    scales = [2.0 * CALIBRATION_NOMINAL_S / (before + after)
              for before, after in zip(calibrations, calibrations[1:])]
    setup_s = [wall * CALIBRATION_NOMINAL_S / calibration
               for walls, calibration in setups for wall in walls]

    info["report_sha256"] = sorted(reports)
    info["run_walls_s"] = [round(c.wall_s, 4) for c in runs]
    info["raw_wall_s"] = statistics.median(c.wall_s for c in runs)
    info["raw_cpu_s"] = statistics.median(c.cpu_s for c in runs)
    if calibrated:
        info["calibration_s"] = [round(c, 4) for c in calibrations]
    info["setup_walls_s"] = [[round(wall, 4) for wall in walls] for walls, _ in setups]
    info["failures"] = failures
    return {
        "correct": wrong == 0,
        "attempted": len(runs),
        "failed": len(failures),
        "metrics": {
            "wall_s": {"value": statistics.median(
                c.wall_s * k for c, k in zip(runs, scales)), "unit": "s"},
            "cpu_s": {"value": statistics.median(
                c.cpu_s * k for c, k in zip(runs, scales)), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(c.peak_rss_mb for c in runs),
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        },
    }


def measure_layers(argv, check, work, deadline, seconds, info):
    """Per-layer metrics over pairs of untraced and traced in-process runs.

    Each run is a fork of this process, which has not imported shelfhom, so
    both kinds import it afresh and are timed the same way; pool workers
    are forked from the run and send their spans back to it.  A run's
    result, spans included, stays in its memory until it ends and writes it
    to one file.
    """
    import layers

    sys.path.insert(0, SRC)
    runs = {False: [], True: []}
    failures = []
    wrong = attempted = 0
    t_measure = time.perf_counter()
    while True:
        for traced in (False, True):
            path = os.path.join(work, f"inproc{attempted}.json")
            budget = min(BUDGET_S, deadline - time.perf_counter() - 5.0)

            def run(traced=traced, path=path, budget=budget):
                result = layers.cli_run(argv, budget, traced)
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(result, handle)

            child = fork_call(run, budget + 5.0)
            attempted += 1
            result = None
            if child.returncode == 0:
                with open(path, encoding="utf-8") as handle:
                    result = json.load(handle)
            kind = "traced" if traced else "untraced"
            if result is not None and result["code"] is None:
                failure = f"over the {budget:.0f} s budget"
            elif result is None:
                failure = failure_of(child, budget + 5.0, b"", check)
            else:
                failure = (f"exit code {result['code']}" if result["code"] != 0
                           else check_report(result["report"], check))
            if failure:
                failures.append(f"{kind} run: {failure}")
                wrong += not failure.startswith("over the")
                break
            runs[traced].append(result)
        elapsed = time.perf_counter() - t_measure
        pairs = len(runs[True])
        if failures or elapsed + elapsed / pairs > seconds \
                or time.perf_counter() + elapsed / pairs + 5.0 > deadline:
            break

    info["failures"] = failures
    info["report_sha256"] = sorted({sha256(r["report"].encode())
                                    for rs in runs.values() for r in rs})
    if runs[True] and runs[False]:
        values = [layers.layer_values(r["spans"], r["import_s"]) for r in runs[True]]
        counts = {name: sorted({v[name] for v in values}) for name in layers.EXACT_COUNTS}
        info["exact_counts"] = counts
        if any(len(v) > 1 for v in counts.values()):
            failures.append("exact counts differ between traced runs")
            wrong += 1
        metrics = layers.layer_metrics(values,
                                       [r["wall_s"] for r in runs[True]],
                                       [r["wall_s"] for r in runs[False]])
        info["run_walls_s"] = {kind: [round(r["wall_s"], 4) for r in runs[traced]]
                               for kind, traced in (("untraced", False), ("traced", True))}
        spans_path = os.path.join(OUT_DIR, f"spans-{info['workload']}-seed{info['seed']}.json")
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"info": info, "runs": [r["spans"] for r in runs[True]]}, handle)
        info["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        metrics = {}
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
