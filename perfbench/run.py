"""Benchmark of the blockaudit auditor: time to verdict on three workloads.

Usage, from the root of a blockaudit checkout::

    python3 perfbench/run.py --workload c1_grid --seed 101 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, untraced and traced

Loop model: one closed-loop caller.  A researcher starts one audit and waits
for the verdict, so each run is one process running one workload with the
program's default threading (``run_grid(threads=1)``; OpenBLAS keeps its own
threads).  The session is synthesized from ``--seed`` before timing; the
timed call is repeated until ``--seconds`` have passed (at least once).

With ``--trace 0`` the run reports the end-to-end metrics: ``wall_s`` (median
time of the timed call), ``setup_s`` (median time of session synthesis,
repeated at least three times and for at least two seconds) and
``peak_rss_mb`` (peak resident memory of the process).  With ``--trace 1`` it
wraps blockaudit's public functions (see ``tracer.py``), synthesizes once,
and reports per-layer metrics per timed call, plus ``trace.wall_s``, the
traced wall time; traced minus untraced ``wall_s`` is the tracing overhead.

Every timed call is checked against the workload's correctness gate; a
failed gate or a raised exception counts as a failed call and the run goes
on.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (timed calls), ``failed`` and ``metrics``.  The
full record -- machine, per-call times, gate results, and for traced runs the
spans -- is written to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
# set-up repeats until both hold; setup_s is the median of the repeats
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 2.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    return "count"


def _openblas_threads() -> int | None:
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    """What a result was measured on; results of different records are
    never compared as a pair."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure(workload, seed: int, seconds: float, trace: bool,
            workdir: Path) -> dict:
    """Run one workload; returns the full record of the run."""
    from tracer import Tracer, install_blockaudit, layer_metrics

    tracer = Tracer() if trace else None
    if tracer is not None:
        install_blockaudit(tracer)
    try:
        setup_times: list[float] = []
        state = None
        while not setup_times or not trace and (
                len(setup_times) < SETUP_MIN_REPS
                or sum(setup_times) < SETUP_MIN_SECONDS):
            state = None  # free the previous copy before building the next
            if tracer is not None:
                tracer.run = "setup"
            t0 = time.perf_counter()
            state = workload.setup(workload, seed, workdir)
            setup_times.append(time.perf_counter() - t0)

        walls, gates, runs = [], [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            run = f"call-{len(walls)}"
            if tracer is not None:
                tracer.run = run
            # the previous call's garbage would otherwise be freed, or not,
            # inside this call, which makes peak memory bimodal
            gc.collect()
            t0 = time.perf_counter()
            try:
                outcome = workload.call(workload, state, workdir)
            except Exception as exc:  # counted as a failed call; the run goes on
                walls.append(time.perf_counter() - t0)
                traceback.print_exc()
                gates.append([f"raised {type(exc).__name__}: {exc}"])
            else:
                walls.append(time.perf_counter() - t0)
                gates.append(workload.gate(workload, outcome))
            runs.append(run)
    finally:
        if tracer is not None:
            tracer.restore()

    if tracer is None:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        values = {"trace.wall_s": statistics.median(walls),
                  **layer_metrics(tracer, "setup", runs)}
        units = {name: layer_unit(name) for name in values}
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_record(),
        "session": asdict(workload.shape),
        "setup_times_s": setup_times,
        "call_times_s": walls,
        "gate_failures": gates,
        "correct": not any(gates),
        "attempted": len(walls),
        "failed": sum(bool(g) for g in gates),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }
    if tracer is not None:
        record["spans"] = [s.to_dict() for s in tracer.spans]
    return record


def summary_line(record: dict) -> str:
    return json.dumps({k: record[k] for k in
                       ("correct", "attempted", "failed", "metrics")})


def run_one(workload, seed: int | None, seconds: float, trace: bool) -> int:
    name = workload.name
    seed = workload.default_seed if seed is None else seed
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir()
    try:
        record = measure(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for fails in record["gate_failures"]:
        for fail in fails:
            print(f"gate failed: {fail}", file=sys.stderr)
    for key, metric in record["metrics"].items():
        print(f"{name} {key} = {metric['value']:.6g} {metric['unit']}",
              file=sys.stderr)
    print(summary_line(record))
    return 0


def run_all(names, seed: int | None, seconds: float) -> int:
    """Every workload in a fresh process, untraced then traced."""
    suite = {}
    for name in names:
        results = {}
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seconds", str(seconds),
                    "--trace", str(trace)]
            if seed is not None:
                argv += ["--seed", str(seed)]
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, check=True)
            results[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
        untraced, traced = results[0], results[1]
        overhead = (traced["metrics"]["trace.wall_s"]["value"]
                    - untraced["metrics"]["wall_s"]["value"])
        suite[name] = {"untraced": untraced, "traced": traced,
                       "tracing_overhead_s": overhead}
        rows = [(key, f"{m['value']:.4f} {m['unit']}")
                for key, m in untraced["metrics"].items()]
        cells = traced["metrics"]["audit.cells"]["value"]
        cells_failed = traced["metrics"]["audit.cells_failed"]["value"]
        rows += [
            ("failed_frac", f"{untraced['failed'] / untraced['attempted']:.4f}"
             f" ({untraced['failed']}/{untraced['attempted']} calls)"),
            ("cells_failed_frac", f"{cells_failed / cells:.4f}"
             f" ({cells_failed:g}/{cells:g} cells, traced run)"),
            ("tracing_overhead_s", f"{overhead:.4f} s"),
            ("gates", "pass" if untraced["correct"] and traced["correct"]
             else "FAIL"),
        ]
        for key, text in rows:
            print(f"{name:10s} {key:18s} {text}")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "suite.json").write_text(json.dumps(suite, indent=1) + "\n")
    ok = all(r["untraced"]["correct"] and r["traced"]["correct"]
             for r in suite.values())
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="c1_grid, c2_grid4, audit_cli, or all")
    parser.add_argument("--seed", type=int, default=None,
                        help="session seed (default: the acceptance seed)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="repeat the timed call until this much time passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "blockaudit" / "__init__.py").is_file():
        print(f"error: no blockaudit sources under {ROOT / 'src'}; run from a "
              "blockaudit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(list(WORKLOADS), args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    return run_one(WORKLOADS[args.workload], args.seed, args.seconds,
                   bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
