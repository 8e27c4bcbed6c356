"""weakinv benchmark: end-to-end command times, or traced per-layer times.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload qubit-const --seed 1 --seconds 36 --trace 0

``--trace 0`` runs the real CLI (``weakinv.cli.main``) in child interpreters,
one at a time: first ``SETUP_REPEATS`` set-up children (start, import,
``RunSetup``), then as many rounds of the workload's commands as fit in
``--seconds`` (at least one). It reports medians of the untraced wall times
and the highest child peak RSS.

``--trace 1`` runs each command in this process twice, untraced and then
with span wrappers around the public functions of each module (see
``tracer.py``), and reports per-command self times and call counts, the
tracing overhead, and isolated per-call timings (``micro.py``).

Every command's outputs are checked (``workloads.py``), including byte
identity across runs with the same inputs. The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in every child.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import micro
import workloads
from tracer import ROOT as ROOT_SPAN, TARGETS, VERIFY_SUITES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

RUN_LIMIT_S = 170.0
SETUP_REPEATS = 9

CLI_CHILD = "import sys; from weakinv.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_CHILD = ("import sys; from weakinv.cli import RunSetup, build_parser; "
               "RunSetup(build_parser().parse_args(sys.argv[1:]))")

END_TO_END = {
    "setup_s": "s",
    "simulate_s": "s",
    "invariant_s": "s",
    "action_check_s": "s",
    "round_s": "s",
    "peak_rss_mb": "MB",
}

# Span names whose self times are reported for every command.
LAYER_SPANS = [ROOT_SPAN] + [n for n in TARGETS if not n.startswith("verify.")]
COUNTS = {
    "model.snapshot_calls": ("model.snapshot",),
    "superop.apply_calls": ("superop.apply",),
    "linalg.eig_calls": ("linalg.hermitian_eigenvalues",),
    "dynamics.integrate_calls": ("dynamics.integrate_state", "dynamics.integrate_invariant"),
}


def prefix(command: str) -> str:
    return command.replace("-", "_")


def per_layer_names() -> dict:
    """Every per-layer metric name and its unit, the same for every workload."""
    names = {}
    for command in workloads.COMMANDS:
        p = prefix(command)
        names.update({f"{p}.{s}_s": "s" for s in LAYER_SPANS})
        if command == "verify":
            names.update({f"{p}.verify.{s}_s": "s" for s in VERIFY_SUITES})
        names.update({f"{p}.{c}": "count" for c in COUNTS})
        names[f"{p}.io.bytes_written"] = "B"
        names[f"{p}.trace.overhead_s"] = "s"
    names.update(micro.METRICS)
    return names


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = "unknown"
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "max_concurrent_children": 1,
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# byte identity across runs with the same inputs
# ---------------------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "weakinv").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class DigestStore:
    """Output digests per (source tree, inputs, command), kept across runs in
    the work directory so that repeated runs are compared too."""

    def __init__(self, plan: workloads.Plan):
        self.path = WORK / "digests.json"
        self.key = f"{source_digest()}/{plan.input_digest}"
        try:
            self.known = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.known = {}

    def check(self, step: workloads.Step) -> list:
        current = workloads.digests(step.out_dir)
        key = f"{self.key}/{step.command}"
        expected = self.known.setdefault(key, current)
        differ = sorted(n for n in set(current) | set(expected)
                        if current.get(n) != expected.get(n))
        return [f"{step.command}: {n} differs from an earlier run with the same inputs"
                for n in differ]

    def save(self) -> None:
        self.path.write_text(json.dumps(self.known, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# untraced end-to-end run
# ---------------------------------------------------------------------------


def run_child(code: str, argv: list, log: Path, deadline: float):
    """Run one child interpreter; return exit code, wall seconds, peak RSS in KiB."""
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code, *argv], cwd=log.parent,
                                env=child_env(), stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def fail(message: str) -> None:
    print("  FAIL " + message)


def timed_run(plan: workloads.Plan, work: Path, seconds: float, deadline: float):
    log = work / "children.log"
    store = DigestStore(plan)
    attempted = failed = 0
    rss = []
    setup = []
    for _ in range(SETUP_REPEATS):
        rc, wall, maxrss = run_child(SETUP_CHILD, plan.setup_argv, log, deadline)
        attempted += 1
        rss.append(maxrss)
        setup.append(wall)
        if rc != 0:
            failed += 1
            fail(f"set-up child exited {rc}")

    times = {s.command: [] for s in plan.steps}
    rounds = []
    start = time.perf_counter()
    # Start a round only when a typical round still ends inside the window,
    # so that a run lasts about --seconds whatever the round length.
    while not rounds or time.perf_counter() - start + statistics.median(rounds) <= seconds:
        if time.perf_counter() + 1.5 * max(rounds, default=0.0) > deadline:
            break
        total = 0.0
        for step in plan.steps:
            shutil.rmtree(step.out_dir, ignore_errors=True)
            rc, wall, maxrss = run_child(CLI_CHILD, step.argv, log, deadline)
            attempted += 1
            rss.append(maxrss)
            times[step.command].append(wall)
            total += wall
            problems = [f"{step.command} exited {rc}"] if rc != 0 else workloads.check_step(step)
            problems = problems or store.check(step)
            if problems:
                failed += 1
                for problem in problems:
                    fail(problem)
        rounds.append(total)
    store.save()

    samples = {"setup_s": setup, "round_s": rounds}
    samples.update({f"{prefix(c)}_s": v for c, v in times.items()})
    metrics = {name: statistics.median(v) for name, v in samples.items()}
    metrics["peak_rss_mb"] = max(rss) / 1024.0
    counts = {name: len(v) for name, v in samples.items()}
    counts["peak_rss_mb"] = len(rss)
    return metrics, counts, attempted, failed


# ---------------------------------------------------------------------------
# traced per-layer run
# ---------------------------------------------------------------------------


def import_program():
    sys.path.insert(0, str(SRC))
    import weakinv.cli

    if not Path(weakinv.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"weakinv imported from {weakinv.cli.__file__}, not {SRC}")
    return weakinv.cli


def traced_run(plan: workloads.Plan, work: Path):
    cli = import_program()
    store = DigestStore(plan)
    tracer = Tracer()
    spans_file = WORK / f"spans-{plan.workload}.csv"
    spans_file.write_text("label,index,parent,name,start_ns,end_ns\n")
    metrics = {name: 0.0 for name in per_layer_names()}
    attempted = failed = 0

    for step in {s.command: s for s in plan.steps}.values():
        walls = []
        for traced in (False, True):
            shutil.rmtree(step.out_dir, ignore_errors=True)
            if traced:
                tracer.install()
            main = tracer.span(ROOT_SPAN, cli.main) if traced else cli.main
            start = time.perf_counter()
            try:
                with open(work / "inprocess.log", "a") as log, contextlib.redirect_stdout(log):
                    rc = main(step.argv)
            except Exception as e:  # a crash is a failed run, not a broken benchmark
                rc = repr(e)
            finally:
                walls.append(time.perf_counter() - start)
                tracer.restore()
            attempted += 1
            problems = [f"{step.command} returned {rc}"] if rc != 0 else workloads.check_step(step)
            problems = problems or store.check(step)
            if problems:
                failed += 1
                for problem in problems:
                    fail(("traced " if traced else "untraced ") + problem)

        p = prefix(step.command)
        self_s, calls = tracer.self_times()
        for name, value in self_s.items():
            metrics[f"{p}.{name}_s"] = value
        for metric, names in COUNTS.items():
            metrics[f"{p}.{metric}"] = float(sum(calls.get(n, 0) for n in names))
        metrics[f"{p}.io.bytes_written"] = float(workloads.bytes_written(step.out_dir))
        metrics[f"{p}.trace.overhead_s"] = walls[1] - walls[0]
        covered = sum(v for k, v in metrics.items() if k.startswith(p + ".") and k.endswith("_s")
                      and not k.endswith("trace.overhead_s"))
        root = [s for s in tracer.spans if s[3] < 0]
        root_wall = sum(s[2] - s[1] for s in root) * 1e-9
        print(f"  {step.command}: untraced {walls[0]:.3f} s, traced {walls[1]:.3f} s, "
              f"self times cover {covered:.3f} s of traced span {root_wall:.3f} s")
        if abs(covered - root_wall) > 1e-6 * max(1.0, root_wall):
            fail(f"{step.command}: self times do not cover the traced wall time")
            failed += 1
        tracer.write(spans_file, f"{plan.workload}:{step.command}")
        tracer.reset()
    if tracer.missing:
        print(f"  not traced (absent from the program): {', '.join(tracer.missing)}")
    store.save()

    metrics.update(micro.measure(plan.seed))
    return metrics, attempted, failed


# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "weakinv" / "cli.py").is_file():
        print(f"perfbench: no program at {SRC / 'weakinv'}; run from the root of a full checkout",
              file=sys.stderr)
        return 2

    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = workloads.make_plan(args.workload, args.seed, work)
        if args.trace:
            metrics, attempted, failed = traced_run(plan, work)
            units = per_layer_names()
            counts = {}
        else:
            metrics, counts, attempted, failed = timed_run(
                plan, work, args.seconds, started + RUN_LIMIT_S)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{'metric':48s} {'value':>14s}  unit      n")
    for name, value in metrics.items():
        n = counts.get(name, "")
        print(f"{name:48s} {value:14.6g}  {units.get(name, 's'):8s} {n}")
    print(f"{'failed_ratio':48s} {failed / attempted:14.6g}  {'ratio':8s} {attempted}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
