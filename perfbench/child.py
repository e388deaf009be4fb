"""One workload in a fresh process: set up, run jobs in a closed loop, report.

Started by ``run.py`` with a pinned environment; never run by hand.  The
process imports curvlab from ``<checkout>/src``, writes the seeded inputs
into its working directory, and then issues jobs one at a time through
``curvlab.cli.main`` in-process with stdout captured.  Its last stdout line
is a JSON object for the parent.

Modes:
  setup  stop once set-up is done (extra set-up samples), then time the
         reference kernel;
  run    time jobs untraced for ``--seconds``, with one run of the
         reference kernel (``reference.py``) before each job and after the
         last;
  trace  run each of a fixed number of jobs untraced, then traced, and
         compare the two outputs byte for byte apart from ``# generated_at=``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import reference
import workloads


def _run_call(main, argv: list[str]) -> workloads.CallResult:
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash fails this job's gate; the loop goes on
            traceback.print_exc()
            code = -1
    return workloads.CallResult(argv, code, out.getvalue(), err.getvalue())


def _stable(stdout: str) -> str:
    return "".join(line for line in stdout.splitlines(True) if not line.startswith("# generated_at="))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--src", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default="")
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    if args.workload == "tabulated-verify":
        # curvlab imports scipy.interpolate lazily when it reads a tabulated
        # profile; only this workload reaches that, and it pays for it in
        # set-up rather than in its first job.
        import scipy.interpolate  # noqa: F401

    import curvlab
    from curvlab import cli

    if not os.path.abspath(curvlab.__file__).startswith(os.path.abspath(args.src) + os.sep):
        print(f"curvlab imported from {curvlab.__file__}, not from {args.src}", file=sys.stderr)
        return 2

    size = workloads.QUICK if args.quick else workloads.FULL
    jobs = workloads.make_jobs(args.workload, args.seed, size)
    os.makedirs(args.workdir, exist_ok=True)
    os.chdir(args.workdir)
    for job in jobs:
        for name, content in job.files.items():
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(content)
    result: dict = {"ready": time.monotonic(), "setup_cpu_s": time.process_time()}
    import importlib.metadata  # after set-up is timed: the program needs none of it

    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "curvlab": curvlab.__version__,
    }
    if args.mode == "setup":
        result["ref_cpu_s"] = [reference.measure(3)]
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()

    wall = time.perf_counter
    cpu = time.process_time
    job_s: list[float] = []
    job_cpu_s: list[float] = []
    ref_cpu_s: list[float] = []
    traced_cpu_s: list[float] = []
    failures: list[list[str]] = []
    mass_errors: list[float] = []
    start = wall()
    k = 0
    while True:
        job = jobs[k % len(jobs)]
        if tracer is None:
            ref_cpu_s.append(reference.measure(1))
        w0, c0 = wall(), cpu()
        results = [_run_call(cli.main, argv) for argv in job.calls]
        job_cpu_s.append(cpu() - c0)
        job_s.append(wall() - w0)
        bad, errs = workloads.gate(args.workload, results, size, args.workdir)
        if tracer is not None:
            tracer.job = k
            tracer.install()
            try:
                c0 = cpu()
                traced = [_run_call(cli.main, argv) for argv in job.calls]
                traced_cpu_s.append(cpu() - c0)
            finally:
                tracer.uninstall()
            for plain, other in zip(results, traced):
                if plain.code != other.code or _stable(plain.stdout) != _stable(other.stdout):
                    bad.append(f"{' '.join(plain.argv[:3])}: traced output differs")
        failures.append(bad)
        mass_errors.extend(errs)
        k += 1
        done = k >= size.traced_jobs[args.workload] if tracer is not None else wall() - start >= args.seconds
        if done:
            break
    if tracer is None:
        ref_cpu_s.append(reference.measure(1))  # closes the last job's bracket

    result.update(
        {
            "job_s": job_s,
            "job_cpu_s": job_cpu_s,
            "ref_cpu_s": ref_cpu_s,
            "failures": failures,
            "mass_rel_err": mass_errors,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    )
    if tracer is not None:
        result["layers"] = tracer.summary(sum(job_cpu_s), sum(traced_cpu_s))
        result["span_count"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
