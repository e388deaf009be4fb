"""curvlab benchmark: three seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload builtin-verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30      # every workload
    python3 perfbench/run.py --quick                                   # self-test

Each workload runs in a fresh single-threaded child process (``child.py``)
with ``CURVLAB_THREADS`` removed, BLAS/OpenMP threads set to 1 and a fixed
``PYTHONHASHSEED``.  The child is a closed loop with one client: it issues
the next job only when the previous one has finished, until ``--seconds``
have passed.  Every job's output goes through the correctness gate in
``workloads.py``.

``--trace 0`` reports the end-to-end metrics. Job times are the child's CPU
time (user + system): the work is serial and CPU-bound, so on an idle
machine CPU time equals wall time, while on a shared machine wall time also
counts the time other tenants hold the core (a fixed 0.15 s CPU loop read
0.15-0.43 s of wall time on the 2-core box the baseline was taken on). CPU
time drifts too, as the host's speed changes with its load: the same jobs
ran up to 1.6 times slower within minutes. So the gated times are taken at
reference speed: a fixed kernel (``reference.py``) runs in the same process
before each job and after the last, and each job's CPU time is scaled by
``REFERENCE_S`` over the mean CPU time of the two kernel runs around it
(``ref_cpu_s`` prints the run's median). Raw CPU and wall-time figures are
printed beside them. ``setup_s`` is the median, over several fresh
children, of the CPU time from process start to the first timed job, each
scaled by its own kernel time: interpreter, ``import curvlab`` and seeded
input generation, and on ``tabulated-verify`` the ``scipy.interpolate``
import curvlab makes lazily when it reads a tabulated profile.

``--trace 1`` runs a fixed number of jobs untraced and then traced from the
outside (``tracer.py``) and reports the per-layer metrics; the spans are
written to ``.perfbench/``.  Each layer's self time is sampled (see
``tracer.py``); beside it the run prints the layer's share of the program's
time, which is the most a speed-up of the layer can save, since the work is
serial.  A time of a layer that a workload never enters reads 0.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, holding the metrics named in
``BENCHMARK.json``.  The lines before it print every metric by name with
its unit and sample count (also ``fail_ratio``, the job-time tails and
``mass_rel_err``), the per-job times, any failed gate condition and a
machine record.  The exit code is 0 whenever a result is printed, also when
``correct`` is false; without a result it is non-zero.

``--quick`` runs small jobs of every workload, traced and untraced, through
the same code paths and exits non-zero if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads
from reference import REFERENCE_S
from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_SAMPLES = 9  # fresh processes per run whose set-up time is measured
TAIL_MIN_BEYOND = 10  # jobs that must lie beyond the reported tail percentile
CHILD_GRACE_S = 150.0  # a child's time limit beyond its measuring time


def _load_metrics(root: str) -> tuple[dict[str, str], dict[str, str]]:
    """Names and units of the end-to-end and per-layer metrics, in order."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("CURVLAB_THREADS", None)
    env.pop("PYTHONPATH", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_child(root: str, workdir: str, args: argparse.Namespace, mode: str, spans: str = "") -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(float(args.seconds)),
        "--mode", mode,
        "--src", os.path.join(root, "src"),
        "--workdir", workdir,
    ]
    if args.quick:
        cmd.append("--quick")
    if spans:
        cmd += ["--spans", spans]
    started = time.monotonic()
    proc = subprocess.run(
        cmd,
        env=_child_env(),
        cwd=root,
        capture_output=True,
        text=True,
        timeout=args.seconds + CHILD_GRACE_S,
    )
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} child for {args.workload} exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_wall_s"] = result["ready"] - started
    return result


def _machine(root: str, versions: dict[str, str]) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {"nproc": os.cpu_count(), "cpu": cpu, **versions, "src_lines": src_lines}


def _tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with TAIL_MIN_BEYOND jobs beyond it, if above p50."""
    n = len(values)
    if n <= 2 * TAIL_MIN_BEYOND:
        return None
    ordered = sorted(values)
    return 100.0 * (n - TAIL_MIN_BEYOND) / n, ordered[n - TAIL_MIN_BEYOND - 1]


def _extra_unit(name: str) -> str:
    """Unit of a metric printed in the table but not listed in BENCHMARK.json."""
    if name.endswith("_ratio"):
        return "1"
    return "s" if name.endswith(("_s", ".s")) else "count"


def _print_metric(name: str, value: float, unit: str, samples: int, extra: str = "") -> None:
    print(f"  {name:<46} {value!r:>24} {unit:<6} n={samples}{extra}")


def run_workload(root: str, args: argparse.Namespace) -> dict:
    end_to_end, per_layer = _load_metrics(root)
    base = os.path.join(root, ".perfbench")
    os.makedirs(base, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        if args.trace:
            spans = os.path.join(base, f"spans-{args.workload}-seed{args.seed}.csv.gz")
            main = _run_child(root, os.path.join(scratch, "main"), args, "trace", spans)
            setups = []
        else:
            setups = [
                _run_child(root, os.path.join(scratch, f"setup{i}"), args, "setup")
                for i in range(SETUP_SAMPLES - 1)
            ]
            main = _run_child(root, os.path.join(scratch, "main"), args, "run")
            setups.append(main)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    job_s = main["job_s"]
    job_cpu_s = main["job_cpu_s"]
    attempted = len(job_s)
    failed = sum(1 for f in main["failures"] if f)
    machine = _machine(root, main["versions"])
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds!r} trace={int(args.trace)}")
    print("# machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print("# job_cpu_s " + " ".join(f"{t:.3f}" for t in job_cpu_s))
    for k, reasons in enumerate(main["failures"]):
        for reason in reasons:
            print(f"# FAILED job {k}: {reason}")

    if args.trace:
        print("# per-layer metrics (traced run; times are CPU seconds)")
        layers = main["layers"]
        for name, value in layers.items():
            _print_metric(name, value, per_layer.get(name) or _extra_unit(name), attempted)
        # The work is serial, so a layer's share of the program's time is the
        # most that a speed-up of that layer can save.
        program_s = sum(layers[f"{name}.self_s"] for name in (*LAYERS, "other"))
        print("# sampled self time as a share of the traced jobs' time net of tracing (printed only)")
        for name in (*LAYERS, "other"):
            share = layers[f"{name}.self_s"] / program_s if program_s else 0.0
            _print_metric(f"{name}.self_share", share, "1", int(layers["trace.samples"]))
        print(f"  spans written: {main['span_count']} to {os.path.relpath(spans, root)}")
        metrics = {name: (layers[name], unit) for name, unit in per_layer.items()}
    else:
        n = attempted
        # Each job is scaled by the mean of the kernel runs just before and
        # just after it, and each set-up by the kernel runs of its own process.
        refs = main["ref_cpu_s"]
        norm_job_s = [t * REFERENCE_S * 2.0 / (r0 + r1) for t, r0, r1 in zip(job_cpu_s, refs, refs[1:])]
        rows = {
            "setup_s": (
                statistics.median(s["setup_cpu_s"] * REFERENCE_S / statistics.median(s["ref_cpu_s"]) for s in setups),
                "s", len(setups), "CPU at reference speed, median of fresh processes",
            ),
            "setup_cpu_s": (statistics.median(s["setup_cpu_s"] for s in setups), "s", len(setups), "CPU"),
            "setup_wall_s": (statistics.median(s["setup_wall_s"] for s in setups), "s", len(setups), "wall"),
            "ref_cpu_s": (statistics.median(main["ref_cpu_s"]), "s", len(main["ref_cpu_s"]), "reference kernel, CPU"),
            "jobs_per_norm_s": (n / sum(norm_job_s), "1/s", n, "per CPU second at reference speed"),
            "job_norm_s.p50": (statistics.median(norm_job_s), "s", n, "CPU at reference speed"),
            "jobs_per_cpu_s": (n / sum(job_cpu_s), "1/s", n, "per CPU second"),
            "jobs_per_s": (n / sum(job_s), "1/s", n, "per wall second"),
            "job_cpu_s.p50": (statistics.median(job_cpu_s), "s", n, "CPU"),
            "job_s.p50": (statistics.median(job_s), "s", n, "wall"),
        }
        for name, values in (("job_cpu_s.tail", job_cpu_s), ("job_s.tail", job_s)):
            tail = _tail(values)
            if tail is not None:
                rows[name] = (tail[1], "s", n, f"p{tail[0]:.1f}, {TAIL_MIN_BEYOND} jobs beyond")
        rows["fail_ratio"] = (failed / n, "1", n, "")
        if main["mass_rel_err"]:
            rows["mass_rel_err"] = (max(main["mass_rel_err"]), "1", len(main["mass_rel_err"]), "max")
        rows["peak_rss_mb"] = (main["peak_rss_mb"], "MB", 1, "")
        print("# end-to-end metrics (untraced run)")
        for name, (value, unit, samples, note) in rows.items():
            _print_metric(name, value, unit, samples, f" ({note})" if note else "")
        if "job_s.tail" not in rows:
            print(f"  job tails omitted: {n} jobs, not more than {2 * TAIL_MIN_BEYOND}")
        metrics = {name: (rows[name][0], unit) for name, unit in end_to_end.items()}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "layers": main.get("layers"),
    }


def quick(root: str) -> int:
    """Small jobs of every workload, traced and untraced; check invariants."""
    problems = []
    for workload in workloads.WORKLOADS:
        args = argparse.Namespace(workload=workload, seed=1, seconds=1.0, trace=False, quick=True)
        out = run_workload(root, args)
        if not out["correct"]:
            problems.append(f"{workload}: correctness gate failed untraced")
        for name, metric in out["metrics"].items():
            if not metric["value"] > 0.0:
                problems.append(f"{workload}: end-to-end metric {name} = {metric['value']!r}")
        args.trace = True
        out = run_workload(root, args)
        layers = out["layers"]
        if not out["correct"]:
            problems.append(f"{workload}: correctness gate failed traced")
        if layers["cli.main.s"] <= 0.0 or layers["profile.calls"] <= 0 or layers["numerics.integrate.calls"] <= 0:
            problems.append(f"{workload}: trace recorded no work")
        if layers["profile.self_s"] <= 0.0:
            problems.append(f"{workload}: no time charged to the profile callables")
        has_verify = layers["verify.spans"] > 0
        if has_verify != (workload != "level-maps"):
            problems.append(f"{workload}: verify spans present={has_verify}")
    for problem in problems:
        print("# QUICK CHECK FAILED: " + problem)
    print(json.dumps({"quick": "ok" if not problems else "failed", "problems": problems}))
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="self-test: one small job per workload")
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "curvlab", "cli.py")):
        print("error: run from the root of a curvlab checkout (src/curvlab is missing)", file=sys.stderr)
        return 2
    if args.quick:
        return quick(root)
    args.quick = False
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        args.workload = name
        out = run_workload(root, args)
        out.pop("layers")
        print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
