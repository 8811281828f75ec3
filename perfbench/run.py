"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in this process sends one job at a time (a closed loop) through
``infospread.cli.main(argv)``.  Set-up is timed in fresh interpreters that
import ``infospread.cli`` and build the seeded inputs: one before the first
job, and the rest spread between the timed passes, so that the median
samples the whole run rather than its first seconds.  Every time is reported
in reference seconds, scaled by the host speed a fixed kernel measures next
to it (see ``hostspeed``).  One untimed warm-up
job per job kind and the pinned anchor jobs run next; then the workload's
fixed job list runs in passes.  With ``--trace 1`` every second pass is
traced and the per-layer metrics come from those passes.  The last line of
standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import program
from hostspeed import Gauge

HERE = Path(__file__).resolve().parent
OUT = program.ROOT / ".perfbench_out"
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60
MIN_JOBS = 11  # job_s_tail needs ten samples above it
PROBES = 32  # host-speed kernel samples per timed pass and per timed set-up


@dataclass
class Pass:
    traced: bool
    wall_s: float  # wall clock; times ``scale`` it is in reference seconds
    job_s: list[float]
    scale: float
    keys: list[str]
    failures: list[str | None]
    files_out: int = 0
    bytes_out: int = 0
    spans: list = field(default_factory=list)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def time_setup(workload, seed: int, inputs: Path, gauge: Gauge) -> tuple[float, float]:
    """Wall time of one fresh interpreter building the inputs in ``inputs``,
    and the host-speed scale sampled just before and after it."""
    inputs.mkdir(parents=True)
    argv = [sys.executable, str(HERE / "probe.py"), workload.name, str(seed),
            str(inputs)]
    gauge.sample(PROBES // 2)
    start = time.perf_counter()
    probe = subprocess.Popen(argv)
    # wait(timeout=...) polls in steps of up to 50 ms, which would quantise
    # the measurement; a plain wait with a watchdog does not.
    watchdog = threading.Timer(PROBE_TIMEOUT_S, probe.kill)
    watchdog.start()
    try:
        code = probe.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, argv)
    gauge.sample(PROBES // 2)
    return elapsed, gauge.scale()


def setup_schedule(passes: int, repeats: int) -> list[int]:
    """How many repeat set-ups follow each timed pass: ``repeats - 1`` of
    them, spread evenly over the run (the first set-up precedes it)."""
    after = [0] * passes
    for k in range(1, repeats):
        after[min(k * passes // repeats, passes - 1)] += 1
    return after


def _malloc_trim():
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except AttributeError:  # not glibc
        return lambda: None
    return lambda: trim(0)


_trim = _malloc_trim()


def fresh_heap() -> None:
    """Collect the last job's garbage and hand free heap back to the OS, so
    each job starts close to how a fresh CLI process would: no collection
    of an earlier job's objects in its timed window, and a peak RSS that
    does not depend on fragmentation left by earlier jobs and checks."""
    gc.collect()
    _trim()


def run_pass(cli, jobs, base: Path, checker, gauge: Gauge | None = None,
             tracer=None, label: str = "") -> Pass:
    """Run ``jobs`` one after another, then record every output with
    ``checker``.  The pass's wall time is the sum of its job times.  For a
    timed pass, ``gauge`` samples the host speed before each job, outside
    its timing."""
    from workloads import clear
    dirs = [base / job.key for job in jobs]
    for out in dirs:
        clear(out)
    argvs = [job.argv_in(out) for job, out in zip(jobs, dirs)]
    job_s, codes = [], []
    probes = math.ceil(PROBES / len(jobs)) if gauge is not None else 0
    if tracer is not None:
        tracer.install()
    try:
        for pos, argv in enumerate(argvs):
            if tracer is not None:
                tracer.job = f"{label}.{pos}"
            if gauge is not None:
                gauge.sample(probes)
            fresh_heap()
            began = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crashing job fails; the run goes on
                code = f"{type(exc).__name__}: {exc}"
            job_s.append(time.perf_counter() - began)
            codes.append(code)
    finally:
        if tracer is not None:
            tracer.uninstall()
    done = Pass(tracer is not None, sum(job_s), job_s,
                gauge.scale() if gauge is not None else 1.0,
                [job.key for job in jobs],
                checker.record(list(zip(jobs, dirs, codes))),
                spans=tracer.spans if tracer is not None else [])
    for out in dirs:
        for path in out.iterdir():
            done.files_out += 1
            done.bytes_out += path.stat().st_size
    return done


def blas_threads():
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        for lib in libs:
            try:
                fn = getattr(ctypes.CDLL(lib), name)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return fn()
    return None


def git_commit():
    head = program.ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = program.ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = program.ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = Path(index, "level").read_text().strip()
        kind = Path(index, "type").read_text().strip()
        caches[f"L{level}-{kind}"] = Path(index, "size").read_text().strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "commit": git_commit(),
    }


def pass_count(workload, jobs_per_pass: int, seconds: float, trace: bool) -> int:
    passes = max(math.ceil(MIN_JOBS / jobs_per_pass),
                 round(seconds / workload.nominal_pass_s))
    return max(passes, 2) if trace else passes


def bench(args, cli, workload, run_dir: Path) -> tuple[dict, int, int]:
    import metrics
    from tracing import Tracer, write_spans
    from workloads import Checker, output_digests
    inputs = run_dir / "inputs"
    gauge = Gauge()
    setup_runs = [time_setup(workload, args.seed, inputs, gauge)]
    built = output_digests(inputs)

    def set_up_again() -> None:
        again = run_dir / "inputs-again"
        setup_runs.append(time_setup(workload, args.seed, again, gauge))
        if output_digests(again) != built:
            raise RuntimeError("input builds with one seed wrote different bytes")
        shutil.rmtree(again)

    jobs = workload.jobs(inputs, args.seed)
    checker = Checker(run_dir / "held")
    first_of_kind: dict = {}
    for job in jobs:
        first_of_kind.setdefault(job.kind, job)
    untimed = [run_pass(cli, list(first_of_kind.values()), run_dir / "jobs",
                        checker)]
    anchors = run_dir / "anchors"
    anchors.mkdir()
    untimed.append(run_pass(cli, workload.anchors(anchors), anchors, checker))

    passes = []
    count = pass_count(workload, len(jobs), args.seconds, bool(args.trace))
    # setup_s is not reported with tracing on, so one set-up is enough there.
    repeats = 1 if args.trace else SETUP_REPEATS
    for k, setups in enumerate(setup_schedule(count, repeats)):
        tracer = Tracer() if args.trace and k % 2 else None
        passes.append(run_pass(cli, jobs, run_dir / "jobs", checker, gauge,
                               tracer, label=f"pass{k}"))
        for _ in range(setups):
            set_up_again()

    # The oracles run only now, so that the peak RSS is the program's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wrong = checker.check()
    plain = [p for p in passes if not p.traced]
    failures = [(f"{where} job {key}", reason or wrong.get(key))
                for where, p in [("warm-up", untimed[0]), ("anchor", untimed[1])]
                + [(f"pass {k}", p) for k, p in enumerate(passes)]
                for key, reason in zip(p.keys, p.failures)]
    failed = [(where, f) for where, f in failures if f is not None]
    for where, reason in failed:
        print(f"FAILED {where}: {reason}", file=sys.stderr)

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} jobs_per_pass={len(jobs)} closed loop, 1 client")
    print("why " + workload.why)
    print("params " + json.dumps(workload.params, sort_keys=True))
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    if env["blas_threads"] and env["blas_threads"] > env["nproc"]:
        print(f"warning: BLAS uses {env['blas_threads']} threads on "
              f"{env['nproc']} CPUs", file=sys.stderr)
    print(f"failed_frac {len(failed) / len(failures):.6g} ratio "
          f"({len(failed)} of {len(failures)} jobs attempted)")

    if args.trace:
        traced = [p for p in passes if p.traced]
        overhead = metrics.paired_overhead([p.wall_s * p.scale for p in passes],
                                           [p.traced for p in passes])
        values = metrics.layer_metrics(
            [metrics.pass_layer_metrics(p.spans, p.files_out, p.bytes_out, p.scale)
             for p in traced], statistics.median(overhead))
        for name, value in values.items():
            unit, computed = metrics.PER_LAYER[name]
            if name == "trace.overhead_s":
                note = metrics.overhead_note(overhead)
            else:
                note = (f"median of {len(traced)} traced passes"
                        + (", computed from sizes" if computed else ""))
            print(f"{name} {value:.6g} {unit} ({note})")
        OUT.mkdir(exist_ok=True)
        write_spans([p.spans for p in traced],
                    OUT / f"spans-{workload.name}-seed{args.seed}.jsonl")
        units = {name: unit for name, (unit, _) in metrics.PER_LAYER.items()}
    else:
        values, notes = metrics.e2e_metrics(
            [p.wall_s * p.scale for p in plain],
            [s * p.scale for p in plain for s in p.job_s],
            [s * scale for s, scale in setup_runs], peak_rss_mb)
        clock, _ = metrics.e2e_metrics(
            [p.wall_s for p in plain], [s for p in plain for s in p.job_s],
            [s for s, _ in setup_runs], peak_rss_mb)
        print("pass_wall_s " + " ".join(f"{p.wall_s:.4f}" for p in plain))
        print("host_scale " + " ".join(f"{p.scale:.4f}" for p in plain))
        for name, value in values.items():
            unit = metrics.E2E[name]
            shown = (f", wall clock {clock[name]:.6g} {unit}"
                     if unit == "s" else "")
            print(f"{name} {value:.6g} {unit} ({notes[name]}{shown})")
        units = metrics.E2E
    result = {name: {"value": value, "unit": units[name]}
              for name, value in values.items()}
    return result, len(failures), len(failed)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = program.load()
    except program.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    run_dir = OUT / f"run-{workload.name}-seed{args.seed}-{os.getpid()}"
    try:
        values, attempted, failed = bench(args, cli, workload, run_dir)
    except (subprocess.SubprocessError, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
