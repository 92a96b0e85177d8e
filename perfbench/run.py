"""The liebrob benchmark: seeded workloads, end-to-end timings, a traced run.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program under test is ``src/liebrob``.
With ``--trace 0`` every CLI run is a fresh ``python -m liebrob.cli``
process and the end-to-end metrics are reported. With ``--trace 1`` each
sample is a pair of in-process CLI calls in fresh interpreters, one plain and
one with spans around every layer's calls (see tracer.py), and the per-layer
metrics are reported. Every run's outputs pass through gate.py. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A fuller record, with quartiles,
sample counts, spans and the environment, goes to ``perfbench/_results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Every child runs single-threaded: the plain baseline, at most nproc threads.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "LIEBROB_THREADS": "1",
}

# Set-up samples taken before each CLI sample. Spreading them over the run
# samples more of the host's slow and fast phases than taking them in a row.
SETUP_PER_SAMPLE = 2
# The whole invocation must end well inside three minutes.
DEADLINE_S = 165.0

SETUP_CODE = "import sys, liebrob.config; liebrob.config.load_config(sys.argv[1])"

ENV_CODE = """\
import json, platform, sys
import liebrob.config, numpy, scipy
liebrob.config.load_config(sys.argv[1])
def blas(mod):
    try:
        b = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{b['name']} {b['version']}"
    except (TypeError, KeyError):
        return "unknown"
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "numpy_blas": blas(numpy),
                  "scipy_blas": blas(scipy)}))
"""

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "checks_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "config.load_s": "s",
    "lattice.constants_s": "s",
    "lindblad.assemble_s": "s",
    "lindblad.superop_bytes": "B",
    "lindblad.sweep_s": "s",
    "lindblad.expm_calls": "count",
    "lindblad.expm_dim": "rows",
    "harmonic.kernel_s": "s",
    "harmonic.norms_s": "s",
    "harmonic.symplectic_s": "s",
    "harmonic.expm_calls": "count",
    "bounds.lambda0_s": "s",
    "bounds.jmatrix_s": "s",
    "bounds.lightcone_s": "s",
    "runner.self_s": "s",
    "runner.output_bytes": "B",
    "trace.overhead_s": "s",
}

# Span name in tracer.py -> per-layer metric holding its summed duration.
SPAN_METRICS = {
    "config.load": "config.load_s",
    "lattice.constants": "lattice.constants_s",
    "lindblad.assemble": "lindblad.assemble_s",
    "lindblad.sweep": "lindblad.sweep_s",
    "harmonic.kernel": "harmonic.kernel_s",
    "harmonic.norms": "harmonic.norms_s",
    "harmonic.symplectic": "harmonic.symplectic_s",
    "bounds.lambda0": "bounds.lambda0_s",
    "bounds.jmatrix": "bounds.jmatrix_s",
    "bounds.lightcone": "bounds.lightcone_s",
}


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, env, timeout, stderr_path=None) -> dict:
    """Run one child to completion; wall time from spawn to exit, peak RSS via wait4."""
    timed_out = threading.Event()
    err = open(stderr_path, "wb") if stderr_path else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT,
                                stdout=subprocess.PIPE, stderr=err)

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if stderr_path:
            err.close()
    return {
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "exit_code": proc.returncode,
        "timed_out": timed_out.is_set(),
        "stdout": stdout,
    }


def stats(values: list[float]) -> dict:
    """Median, quartiles, count, the highest percentile with >= 10 samples above
    it, and the samples in the order taken."""
    ordered = sorted(values)
    n = len(ordered)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if n > 1 else (ordered[0],) * 3
    tail = None
    if n >= 20:  # nearest rank r leaves n - r samples beyond it
        pct = math.floor(100 * (n - 10) / n)
        rank = math.ceil(pct / 100 * n)
        tail = {"percentile": pct, "value": ordered[rank - 1]}
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3, "n": n,
            "tail": tail, "values": list(values)}


def environment(env, config_path: Path, deadline: Deadline) -> dict:
    """Versions and thread settings; the child also compiles and warms the imports."""
    res = run_child([sys.executable, "-c", ENV_CODE, str(config_path)], env,
                    deadline.left())
    if res["exit_code"] != 0:
        raise RuntimeError("cannot import liebrob from src/")
    info = json.loads(res["stdout"])
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), platform.machine())
    except OSError:
        cpu = platform.machine()
    info.update({
        "threads": THREAD_ENV,
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    })
    return info


def output_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for name in gate.OUTPUT_FILES:
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


class Outcomes:
    """Gate verdicts of one workload's runs; outputs must also repeat byte for byte."""

    def __init__(self, workload: workloads.Workload, golden: bool):
        self.workload = workload
        self.golden = golden
        self.attempted = 0
        self.failures: list[str] = []
        self.digest = None
        self.checks = None

    def record(self, res: dict, exit_code: int, out_dir: Path) -> bool:
        self.attempted += 1
        if res["timed_out"]:
            problems = ["timed out"]
        else:
            problems = gate.check_run(self.workload.name, self.workload.expected_exit,
                                      exit_code, out_dir, self.golden)
        if not problems:
            digest = output_digest(out_dir)
            if self.digest is None:
                self.digest = digest
                self.checks = gate.check_count(out_dir)
            elif digest != self.digest:
                problems = ["outputs differ from the first run of this invocation"]
        if problems:
            self.failures.append(f"run {self.attempted}: {'; '.join(problems)}")
        shutil.rmtree(out_dir, ignore_errors=True)
        return not problems


def _keep_going(durations, elapsed, seconds, deadline) -> bool:
    """Start another sample only if a typical one still fits in the budget."""
    if not durations:
        return True
    typical = statistics.median(durations)
    return elapsed + typical <= seconds and typical < deadline.left()


def measure_end_to_end(wl, config_path, work, env, seconds, deadline, outcomes):
    setup, walls, rss, rounds = [], [], [], []
    start = time.perf_counter()
    while _keep_going(rounds, time.perf_counter() - start, seconds, deadline):
        round_start = time.perf_counter()
        for _ in range(SETUP_PER_SAMPLE):
            res = run_child([sys.executable, "-c", SETUP_CODE, str(config_path)], env,
                            deadline.left())
            if res["exit_code"] != 0:
                raise RuntimeError(f"config set-up failed for {wl.name}")
            setup.append(res["wall_s"])
        out_dir = work / f"{wl.name}-run{len(walls)}"
        argv = [sys.executable, "-m", "liebrob.cli", wl.command,
                "--config", str(config_path), "--out", str(out_dir)]
        res = run_child(argv, env, deadline.left(), work / f"{wl.name}.stderr")
        outcomes.record(res, res["exit_code"], out_dir)
        walls.append(res["wall_s"])
        rss.append(res["peak_rss_mb"])
        rounds.append(time.perf_counter() - round_start)

    wall = stats(walls)
    checks = outcomes.checks or 0
    metrics = {
        "wall_s": wall["median"],
        "setup_s": statistics.median(setup),
        "checks_per_s": checks / wall["median"],
        "peak_rss_mb": statistics.median(rss),
    }
    detail = {"wall_s": wall, "setup_s": stats(setup), "peak_rss_mb": stats(rss),
              "checks_per_run": checks}
    return metrics, detail


def layer_metrics(traced: dict, plain: dict, out_bytes: int) -> dict:
    """Per-layer metrics of one traced call, against the plain call beside it."""
    spans = traced["spans"]
    counts = traced["counts"]
    metrics = {name: 0.0 for name in SPAN_METRICS.values()}
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if name in SPAN_METRICS:
            metrics[SPAN_METRICS[name]] += t1 - t0
        if parent >= 0:
            child_time[parent] += t1 - t0
    metrics["runner.self_s"] = sum(
        (t1 - t0) - child_time[i]
        for i, (name, t0, t1, _) in enumerate(spans) if name == "runner.verify"
    )
    metrics["cli.import_s"] = traced["import_s"]
    metrics["trace.overhead_s"] = traced["main_s"] - plain["main_s"]
    metrics["runner.output_bytes"] = out_bytes
    for key in ("lindblad.superop_bytes", "lindblad.expm_calls", "lindblad.expm_dim",
                "harmonic.expm_calls"):
        metrics[key] = counts.get(key, 0)
    return metrics


def measure_traced(wl, config_path, work, env, seconds, deadline, outcomes):
    samples, durations, last = [], [], {}
    start = time.perf_counter()
    while _keep_going(durations, time.perf_counter() - start, seconds, deadline):
        pair_start = time.perf_counter()
        results = {}
        for traced in ("0", "1"):
            out_dir = work / f"{wl.name}-trace{traced}-{len(durations)}"
            result_path = work / f"{wl.name}-trace{traced}.json"
            argv = [sys.executable, str(HERE / "tracer.py"), traced, str(result_path),
                    wl.command, "--config", str(config_path), "--out", str(out_dir)]
            res = run_child(argv, env, deadline.left(), work / f"{wl.name}.stderr")
            ok = not res["timed_out"] and res["exit_code"] == 0
            result = json.loads(result_path.read_text()) if ok else None
            out_bytes = sum(p.stat().st_size for p in out_dir.glob("*")) if ok else 0
            if not outcomes.record(res, result["exit_code"] if ok else -1, out_dir):
                result = None
            results[traced] = (result, out_bytes)
        durations.append(time.perf_counter() - pair_start)
        (plain, _), (traced, out_bytes) = results["0"], results["1"]
        if plain is not None and traced is not None:
            samples.append(layer_metrics(traced, plain, out_bytes))
            last = traced
    detail = {"samples": samples, "spans": last.get("spans"),
              "absent": last.get("absent", [])}
    if not samples:
        return {name: 0.0 for name in PER_LAYER_UNITS}, detail
    metrics = {}
    for name in PER_LAYER_UNITS:
        values = [s[name] for s in samples]
        exact = all(isinstance(v, int) for v in values)  # counts stay whole numbers
        metrics[name] = (statistics.median_low if exact else statistics.median)(values)
    return metrics, detail


def report(wl, metrics, units, outcomes, detail) -> None:
    fail_ratio = len(outcomes.failures) / max(outcomes.attempted, 1)
    print(f"{wl.name} ({wl.command}): {outcomes.attempted} runs,"
          f" {len(outcomes.failures)} failed")
    for name, value in metrics.items():
        extra = ""
        spread = detail.get(name)
        if isinstance(spread, dict) and "q1" in spread:
            tail = spread["tail"]
            extra = (f"  q1 {spread['q1']:.4g} q3 {spread['q3']:.4g} n {spread['n']}"
                     + (f" p{tail['percentile']} {tail['value']:.4g}" if tail else ""))
        note = "  (computed: pieces x D^4 x 16 B)" if name == "lindblad.superop_bytes" else ""
        print(f"  {name:24s} {value:14.6g} {units[name]:6s}{extra}{note}")
    print(f"  {'fail_ratio':24s} {fail_ratio:14.6g} 1")
    if detail.get("absent"):
        print(f"  not traced, absent from this liebrob: {', '.join(detail['absent'])}")
    for failure in outcomes.failures:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "liebrob" / "cli.py").is_file():
        print(f"error: {SRC / 'liebrob'} not found; run from a liebrob checkout",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = Deadline(DEADLINE_S * len(names))
    work = HERE / "_runs" / f"{os.getpid()}"
    env = child_env()
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    measure = measure_traced if args.trace else measure_end_to_end
    golden = args.seed == workloads.DEFAULT_SEED
    try:
        configs = workloads.write_configs(work, args.seed)
        info = environment(env, configs[names[0]], deadline)
        print(f"liebrob benchmark, seed {args.seed}, trace {args.trace}:"
              f" {info['cpu_model']}, nproc {info['nproc']}, python {info['python']},"
              f" numpy {info['numpy']}, scipy {info['scipy']} ({info['scipy_blas']}),"
              f" threads {THREAD_ENV}")
        record = {"seed": args.seed, "trace": args.trace, "seconds": args.seconds,
                  "environment": info, "workloads": {}}
        attempted = failed = 0
        all_metrics = {}
        for name in names:
            wl = workloads.WORKLOADS[name]
            outcomes = Outcomes(wl, golden)
            metrics, detail = measure(wl, configs[name], work, env, args.seconds,
                                      deadline, outcomes)
            report(wl, metrics, units, outcomes, detail)
            attempted += outcomes.attempted
            failed += len(outcomes.failures)
            record["workloads"][name] = {"metrics": metrics, "detail": detail,
                                         "failures": outcomes.failures,
                                         "attempted": outcomes.attempted}
            prefix = "" if len(names) == 1 else f"{name}."
            all_metrics.update({f"{prefix}{k}": {"value": v, "unit": units[k]}
                                for k, v in metrics.items()})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = HERE / "_results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
