"""Outside-in tracing of curvlab's layer modules.

The tracer wraps every public function of each layer module in every
``curvlab`` namespace that binds it (``cli.run_battery``,
``verify.build_series``, ``potential.integrate``, ...), so calls between
modules and calls inside a module both pass through the wrapper
(``report_store`` and ``errors`` sit on no workload path and are left out).
Each call becomes a span ``[start, end, name, parent, job, nested, error,
own, trace]`` kept in memory, with start and end read from the process CPU
clock; ``nested`` says whether a span of the same group was already open.
Profile constructors get one more step: the callables ``f``, ``df_ds``,
``d2f_ds2`` and ``ds_dx`` of the profile they return are replaced by
counting wrappers, after the constructor's validation has run, so only the
evaluations made by the solver and the functionals are counted.

Self time is sampled, not derived from span boundaries.  Much of the
program's time runs in callables that are not module functions: the
profile callables, and the integrands and closures that other layers hand
to ``numerics.integrate``, ``differentiate`` and ``find_root``.  A span
cannot see them, and timing each of their millions of calls would cost more
than the calls.  So a timer interrupts the traced jobs every millisecond,
and the CPU time since the previous interrupt goes to the module whose code
is running: the innermost frame from a ``curvlab`` module, or the tracer
when its own code runs.  A spline call made from ``profile.py`` counts for
``profile``; an integrand defined in ``potential.py`` counts for
``potential`` although it runs under a ``numerics.integrate`` span.
A span's ``own`` is the sampled time spent in its module's code while it is
the innermost open span, and ``trace`` the sampled tracer time under it,
which its inclusive time leaves out.

Nothing under ``src/`` is changed; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import os
import signal
import sys
import time

LAYERS = ("profile", "numerics", "potential", "functionals", "verify", "mass", "cli")
PROFILE_CONSTRUCTORS = frozenset(
    "profile." + name
    for name in (
        "euclidean",
        "euclidean_conformal",
        "schwarzschild",
        "mollified_schwarzschild",
        "perturbed_schwarzschild",
        "to_warped",
        "profile_from_csv",
    )
)
PROFILE_CALLABLES = ("f", "df_ds", "d2f_ds2", "ds_dx")
POINTWISE = frozenset(
    "functionals." + name
    for name in ("fhat", "g_func", "g_prime", "f_func", "f_prime_analytic", "a1", "a1_prime", "a1_tilde", "a_growth", "b1")
)
SAMPLE_INTERVAL_S = 0.001

START, END, NAME, PARENT, JOB, NESTED, ERROR, OWN, TRACE = range(9)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job = -1
        self.profile_calls = 0
        self.integrate_evals = 0
        self.level_keys: set[tuple[int, int, float]] = set()
        # Sampled CPU seconds per module; "trace" is the tracer's own code,
        # "other" the benchmark loop and anything outside curvlab.
        self.sampled: dict[str, float] = {}
        self.samples = 0
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._files: dict[str, str] = {os.path.abspath(__file__): "trace"}
        self._last = 0.0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        namespaces = [m for name, m in sys.modules.items() if name == "curvlab" or name.startswith("curvlab.")]
        for ns in namespaces:
            path = getattr(ns, "__file__", None)
            if path:
                self._files[os.path.abspath(path)] = ns.__name__.rsplit(".", 1)[-1]
        for layer in LAYERS:
            module = importlib.import_module(f"curvlab.{layer}")
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    if vars(ns).get(attr) is fn:
                        setattr(ns, attr, wrapper)
                        self._patches.append((ns, attr, fn))
        self._last = time.process_time()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)  # a late alarm must not kill the run
        while self._patches:
            ns, attr, fn = self._patches.pop()
            setattr(ns, attr, fn)

    def _sample(self, signum, frame) -> None:
        now = time.process_time()
        spent = now - self._last
        files = self._files
        where = "other"
        while frame is not None:
            module = files.get(frame.f_code.co_filename)
            if module is not None:
                where = module
                break
            frame = frame.f_back
        self.sampled[where] = self.sampled.get(where, 0.0) + spent
        self.samples += 1
        stack = self._stack
        if stack:
            if where == "trace":
                for i in stack:
                    self.spans[i][TRACE] += spent
            else:
                span = self.spans[stack[-1]]
                if span[NAME].split(".", 1)[0] == where:
                    span[OWN] += spent
        # The handler's own time counts as tracing.
        self._last = time.process_time()
        self.sampled["trace"] = self.sampled.get("trace", 0.0) + self._last - now

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        open_groups = self._open
        group = "profile.build" if name in PROFILE_CONSTRUCTORS else name
        open_groups.setdefault(group, 0)
        clock = time.process_time

        if name in PROFILE_CONSTRUCTORS:
            def after(args, result):
                self._count_profile(result)
        elif name == "numerics.integrate":
            def after(args, result):
                # A reversed interval recurses once; the inner call counts.
                if not args[2] < args[1]:
                    self.integrate_evals += result.evaluations
        elif name == "potential.level_integrals":
            def after(args, result):
                # Key by the enclosing CLI call: a solution lives for one call,
                # and ids of freed solutions are reused by later calls.
                self.level_keys.add((stack[0] if stack else -1, id(args[0]), float(args[1])))
        else:
            after = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [0.0, 0.0, name, stack[-1] if stack else -1, self.job, open_groups[group] > 0, "", 0.0, 0.0]
            # The sampler reads spans[stack[-1]]: append the span first.
            spans.append(span)
            stack.append(len(spans) - 1)
            open_groups[group] += 1
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                open_groups[group] -= 1
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count_profile(self, profile) -> None:
        if not all(hasattr(profile, attr) for attr in PROFILE_CALLABLES):
            return  # a conformal profile: its warped form is counted
        for attr in PROFILE_CALLABLES:
            fn = getattr(profile, attr)
            if getattr(fn, "_perfbench_counted", False):
                return  # already wrapped by an inner constructor

            def counted(x, _fn=fn):
                self.profile_calls += 1
                return _fn(x)

            counted._perfbench_counted = True
            # The profile is a frozen dataclass; set the field directly so its
            # validation does not run again.
            object.__setattr__(profile, attr, counted)

    # -- summary ------------------------------------------------------------

    def summary(self, untraced_s: float, traced_s: float) -> dict[str, float]:
        """Per-layer metrics over every span and sample recorded so far.

        ``untraced_s`` and ``traced_s`` are the CPU times of the same jobs
        run without and with the tracer.  Inclusive times leave out the
        sampled tracer time under the span.
        """
        calls: dict[str, int] = {}
        incl: dict[str, float] = {}  # outermost spans of each group only
        own: dict[str, float] = {}
        build_s = 0.0
        nested_integrate = 0
        failed_integrate = 0
        for span in self.spans:
            name = span[NAME]
            calls[name] = calls.get(name, 0) + 1
            own[name] = own.get(name, 0.0) + span[OWN]
            if not span[NESTED]:
                dur = span[END] - span[START] - span[TRACE]
                incl[name] = incl.get(name, 0.0) + dur
                if name in PROFILE_CONSTRUCTORS:
                    build_s += dur
            if name == "numerics.integrate":
                nested_integrate += span[NESTED]
                failed_integrate += span[ERROR] == "NonConvergent"

        def n(name: str) -> int:
            return calls.get(name, 0)

        def s(name: str) -> float:
            return incl.get(name, 0.0)

        integrate_calls = n("numerics.integrate")
        level_integrals_calls = n("potential.level_integrals")
        out: dict[str, float] = {
            "profile.build_s": build_s,
            "profile.calls": self.profile_calls,
            "profile.sample_R_s": s("profile.sample_scalar_curvature_sign"),
            "numerics.integrate.calls": integrate_calls,
            "numerics.integrate.evals": self.integrate_evals,
            "numerics.integrate.nested_ratio": nested_integrate / integrate_calls if integrate_calls else 0.0,
            "numerics.integrate.self_s": own.get("numerics.integrate", 0.0),
            "numerics.integrate.failed": failed_integrate,
            "numerics.differentiate.calls": n("numerics.differentiate"),
            "potential.solve_s": s("potential.solve"),
            "potential.level.calls": n("potential.level"),
            "potential.level.s": s("potential.level"),
            "potential.level_integrals.calls": level_integrals_calls,
            "potential.level_integrals.unique_ratio": (
                len(self.level_keys) / level_integrals_calls if level_integrals_calls else 0.0
            ),
            "potential.u_value.calls": n("potential.u_value"),
            "potential.volume_to_coordinate.s": s("potential.volume_to_coordinate"),
            "functionals.build_series.s": s("functionals.build_series"),
            "functionals.growth_integrand_cumulative.s": s("functionals.growth_integrand_cumulative"),
            "functionals.coarea_volume.s": s("functionals.coarea_volume"),
            "functionals.volume_sublevel.calls": n("functionals.volume_sublevel"),
            "functionals.pointwise.calls": sum(n(name) for name in POINTWISE),
            "functionals.write_series_csv.s": s("functionals.write_series_csv"),
            "verify.run_battery.s": s("verify.run_battery"),
            "verify.run_battery.self_s": own.get("verify.run_battery", 0.0),
            "verify.write_report_text.s": s("verify.write_report_text"),
            "mass.mass_report.s": s("mass.mass_report"),
            "mass.mass_from_volume.s": s("mass.mass_from_volume"),
            "cli.main.s": s("cli.main"),
            "cli.main.self_s": own.get("cli.main", 0.0),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.sampled.get(layer, 0.0)
        out["trace.self_s"] = self.sampled.get("trace", 0.0)
        out["other.self_s"] = sum((v for k, v in self.sampled.items() if k not in LAYERS and k != "trace"), 0.0)
        out["trace.samples"] = self.samples
        out["verify.spans"] = sum(v for k, v in calls.items() if k.startswith("verify."))
        out["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
        return out

    def write_spans(self, path: str) -> None:
        """Write every span as gzipped CSV; times are process CPU seconds."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,parent,job,name,start_cpu_s,end_cpu_s,own_sampled_s,trace_sampled_s,nested,error\n")
            for i, span in enumerate(self.spans):
                fh.write(
                    f"{i},{span[PARENT]},{span[JOB]},{span[NAME]},{span[START]!r},{span[END]!r},"
                    f"{span[OWN]!r},{span[TRACE]!r},{int(span[NESTED])},{span[ERROR]}\n"
                )
