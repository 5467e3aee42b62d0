"""Benchmark of the local-solubility library: one closed-loop client calls
the public API in-process on a seeded job list and checks every output.

    python3 perfbench/run.py --workload analyze-scan --seed 1 --seconds 20 --trace 0

Workloads: analyze-scan, local-search, local-bad (see perfbench/README.md).
``--seconds`` sizes the job list from fixed per-job cost estimates; the
run always executes the whole list, so the job mix never depends on how
fast the program is.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``); notes
go to standard error.  Run from the repository root; the program is
imported from ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

#: Per-op deadline.  The slowest job of any mix takes about 5 s (traced
#: about 8 s); the register's overrunning jobs need over 60 s.
DEADLINE_S = 20
SETUP_RUNS = 7
OUT_DIR = ROOT / ".perfbench_out"


class Deadline(BaseException):
    """Raised by SIGALRM when an op overruns DEADLINE_S.  A BaseException,
    so library ``except Exception`` handlers cannot swallow it."""


def _on_alarm(signum, frame):
    raise Deadline()


# ---------------------------------------------------------------------------
# set-up: imports, corpus load, warm-up
# ---------------------------------------------------------------------------

def setup(workload: str) -> None:
    """The program's set-up before the first op, which ``setup_s`` times.
    The job list is generated afterwards: it is the benchmark's own work."""
    src = ROOT / "src"
    if not (src / "artifact").is_dir():
        raise SystemExit(f"error: no program source at {src}")
    sys.path.insert(0, str(src))
    import artifact.cli  # noqa: F401  (imports every layer)
    from artifact.corpus import corpus

    corpus()
    run_op(WARMUP[workload])


FIXTURE_LOCAL = ("local", (0, 0, 1, 0, -7), 7, 3)   # 27a1: Thm-e12 NonEmpty
FIXTURE_CLI = ("cli", (0, 0, 1, 0, -7), 7, 3)
FIXTURE_ANALYZE = ("analyze", "121b1", 37, False)  # HasseCounterexample
WARMUP = {"analyze-scan": FIXTURE_LOCAL, "local-search": FIXTURE_LOCAL,
          "local-bad": FIXTURE_CLI}


def run_op(job):
    """Execute one job; names are looked up on the modules at call time so
    the traced run's patches apply."""
    import artifact.cli as cli
    import artifact.globalreport as gr
    import artifact.localsolver as ls
    from artifact.corpus import resolve
    from artifact.weierstrass import WeierstrassModel

    kind, curve, p, last = job
    if kind == "analyze":
        model = resolve(curve) if isinstance(curve, str) else WeierstrassModel(*curve)
        return gr.analyze(model, p, scan_cap=workloads.SCAN_CAP,
                          assume_frey_mazur=last)
    if kind == "local":
        return ls.solve_local(WeierstrassModel(*curve), p, ls.FinitePrime(last))
    argv = ["local", "--curve", "[%s]" % ",".join(map(str, curve)),
            "--p", str(p), "--ell", str(last)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def timed(job):
    """(seconds, output, error name or None) under the per-op deadline."""
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        out, err = run_op(job), None
    except Deadline:
        out, err = None, "deadline"
    except Exception as exc:  # every failure of an op is counted, not fatal
        out, err = None, type(exc).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - t0, out, err


def measure_setup(args) -> list[float]:
    """Set-up time of fresh processes, spawn to ready, SETUP_RUNS times."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != b"ready":
                raise SystemExit("error: set-up probe failed")
    return samples


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check(job, out, golden) -> list[str]:
    """Invariant and golden-output errors of one successful job."""
    kind, curve, p, last = job
    if kind == "cli":
        errors, canon = checks.check_cli(*out)
    elif kind == "local":
        canon = checks.canonical(out)
        errors = checks.check_local(canon)
    else:
        from artifact.corpus import resolve

        canon = checks.canonical(out)
        ainvs = resolve(curve).ainvs() if isinstance(curve, str) else curve
        errors = checks.check_report(canon, ainvs, p, last)
    key = checks.job_key(job)
    if key not in golden:
        errors.append("no golden entry")
    elif golden[key] is not None and canon is not None \
            and checks.digest(canon) != golden[key]:
        errors.append("differs from the golden output")
    return errors


def check_fixtures() -> list[str]:
    """The README's documented examples."""
    outs = {job: timed(job) for job in (FIXTURE_LOCAL, FIXTURE_CLI, FIXTURE_ANALYZE)}
    errors = [f"fixture {checks.job_key(job)}: {err}"
              for job, (_, _, err) in outs.items() if err]
    if errors:
        return errors
    v = outs[FIXTURE_LOCAL][1]
    if (v.status, v.rule) != ("NonEmpty", "Thm-e12"):
        errors.append(f"27a1 p=7 ell=3: {v.status} {v.rule}")
    rc, text = outs[FIXTURE_CLI][1]
    if rc != 0 or json.loads(text)["rule"] != "Thm-e12":
        errors.append(f"CLI 27a1 p=7 ell=3: exit {rc}")
    if outs[FIXTURE_ANALYZE][1].overall.kind != "HasseCounterexample":
        errors.append("121b1 p=37: " + outs[FIXTURE_ANALYZE][1].overall.kind)
    return errors


def run_register(register, tracer, golden) -> tuple[int, list[str]]:
    """Run the known-failure register.  Each job must fail as registered
    (or, once fixed, pass its checks); returns (failed, unexpected)."""
    failed, unexpected = 0, []
    for i, job in enumerate(register):
        tracer.op = -2 - i
        dt, out, err = timed(job)
        expect = expected_failure(job)
        print(f"register {checks.job_key(job)}: {err or 'ok'} in {dt:.2f} s "
              f"(registered: {expect})", file=sys.stderr)
        if err is None:
            golden = dict(golden, **{checks.job_key(job): None})
            unexpected += check(job, out, golden)
        elif err != expect:
            unexpected.append(f"{checks.job_key(job)}: {err}, registered {expect}")
            failed += 1
        else:
            failed += 1
    return failed, unexpected


def expected_failure(job) -> str:
    if job[0] == "analyze":
        return workloads.KNOWN_ISOGENY_FAILURES[job[1]][1]
    return "deadline"


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(lat: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it: the 11th-largest latency."""
    s = sorted(lat)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def host_cpu_ticks():
    """(steal, total) clock ticks of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields[:8])


def host_note(t0, t1, lat, cpu) -> None:
    """Note on standard error how much the host disturbed the job list:
    the share of CPU time the hypervisor stole, and the end-to-end figures
    recomputed from each op's thread CPU time (the metrics themselves are
    wall time)."""
    if t0 and t1 and t1[1] > t0[1]:
        print(f"host: {100 * (t1[0] - t0[0]) / (t1[1] - t0[1]):.1f}% of CPU "
              "time stolen during the job list", file=sys.stderr)
    print(f"thread CPU time: {len(cpu) / sum(cpu):.4g} ops/s, p50 "
          f"{1e3 * statistics.median(cpu):.4g} ms, tail {1e3 * tail(cpu)[0]:.4g} ms "
          f"(wall: {len(lat) / sum(lat):.4g} ops/s)", file=sys.stderr)


def end_to_end(lat, wall, n_ok, setup_samples) -> dict:
    value, pct = tail(lat)
    print(f"ops {len(lat)}, tail = p{pct:.1f} (10 of {len(lat)} ops beyond it)",
          file=sys.stderr)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (n_ok / wall, "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (value * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }


def per_layer(tracer, ops, register_ops, places, caches, overhead,
              register_failed) -> dict:
    """Per-layer metrics of the traced job list (``ops``); ``caches`` maps
    an lru_cache name to its (hits, misses) during the job list.  The
    register (``register_ops``) gives only the register counts."""
    lt = tracer.layer_times(ops)
    zero = {"calls": 0, "time_s": 0.0, "self_s": 0.0}

    def span(name, field):
        return lt.get(name, zero)[field]

    def ratio(a, b):
        return a / b if b else 0.0

    c = tracer.counts
    hits, misses = caches["minimal_model_at"]
    frob_calls = span("fqcurves.trace_of_frobenius", "calls")
    # good-prime queries below the Hensel bound: solve_local's own Frobenius
    # trace (the residual search's traces have another parent)
    good_queries = tracer.child_calls("fqcurves.trace_of_frobenius",
                                      "localsolver.solve_local", ops)
    m = {
        "globalreport.analyze.self_s": (span("globalreport.analyze", "self_s"), "s"),
        "globalreport.isogeny_witness.calls": (span("globalreport.isogeny_witness", "calls"), "count"),
        "globalreport.isogeny_witness.time_s": (span("globalreport.isogeny_witness", "time_s"), "s"),
        "globalreport.isogeny_witness.errors": (
            tracer.error_count("globalreport.isogeny_witness", register_ops), "count"),
        "globalreport.frey_mazur_classify.time_s": (span("globalreport.frey_mazur_classify", "time_s"), "s"),
        "globalreport.places_per_report": (ratio(places, span("globalreport.analyze", "calls")), "count"),
        "sympy.factor_list.time_s": (span("sympy.factor_list", "time_s"), "s"),
        "localsolver.solve_local.calls": (span("localsolver.solve_local", "calls"), "count"),
        "localsolver.solve_local.self_s": (span("localsolver.solve_local", "self_s"), "s"),
        "localsolver.search_reached_ratio": (
            ratio(span("fqcurves.residual_module_search", "calls"), good_queries), "ratio"),
        "fqcurves.trace_of_frobenius.calls": (frob_calls, "count"),
        "fqcurves.trace_of_frobenius.time_s": (span("fqcurves.trace_of_frobenius", "time_s"), "s"),
        "fqcurves.trace_of_frobenius.repeat_ratio": (ratio(c["frob_repeats"], frob_calls), "ratio"),
        "fqcurves.residual_module_search.calls": (span("fqcurves.residual_module_search", "calls"), "count"),
        "fqcurves.residual_module_search.time_s": (span("fqcurves.residual_module_search", "time_s"), "s"),
        "fqcurves.residual_module_search.classes_scanned": (c["classes_scanned"], "count"),
        "fqcurves.residual_module_search.match_ratio": (
            ratio(c["classes_matched"], c["classes_scanned"]), "ratio"),
        "fqcurves.torsion_field_degree.time_s": (span("fqcurves.torsion_field_degree", "time_s"), "s"),
        "fqcurves.curve_classes.misses": (caches["curve_classes"][1], "count"),
        "fq.mul.calls": (tracer.mul_calls[0], "count"),
        "fq.ext_fields.built": (len(tracer.ext_degrees), "count"),
        "fq.ext_fields.max_degree": (max(tracer.ext_degrees, default=1), "count"),
        "semistability.defect.calls": (span("semistability.defect", "calls"), "count"),
        "semistability.defect.time_s": (span("semistability.defect", "time_s"), "s"),
        "semistability.good_twist.time_s": (span("semistability.good_twist", "time_s"), "s"),
        "padic.with_unramified_roots.calls": (span("padic.with_unramified_roots", "calls"), "count"),
        "padic.with_unramified_roots.time_s": (span("padic.with_unramified_roots", "time_s"), "s"),
        "weierstrass.minimal_model_at.hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "weierstrass.minimal_model_at.time_s": (span("weierstrass.minimal_model_at", "time_s"), "s"),
        "weierstrass.reduction_kind.calls": (span("weierstrass.reduction_kind", "calls"), "count"),
        "arith.factorize.calls": (span("arith.factorize", "calls"), "count"),
        "arith.factorize.time_s": (span("arith.factorize", "time_s"), "s"),
        "cli.main.self_s": (span("cli.main", "self_s"), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "register.failed": (register_failed, "count"),
    }
    total = sum(a["self_s"] for a in lt.values())
    for name, agg in sorted(lt.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"self {name:40s} {agg['self_s']:9.3f} s {100 * agg['self_s'] / total:5.1f}%"
              f"  calls {agg['calls']}", file=sys.stderr)
    return m


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    signal.signal(signal.SIGALRM, _on_alarm)
    setup(args.workload)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    jobs, register = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    golden = checks.load_golden()

    tracer = None
    if args.trace:
        from tracing import Tracer, cache_counts, clear_caches

        # calibration: the first fifth of the jobs untraced, then cold again
        k = max(1, len(jobs) // 5)
        untraced = sum(timed(job)[0] for job in jobs[:k])
        clear_caches()
        tracer = Tracer()
        tracer.install()
        run_op(WARMUP[args.workload])
        caches0 = cache_counts()

    lat, cpu, errors, n_ok, places = [], [], [], 0, 0
    host0 = host_cpu_ticks()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.op = i
        c0 = time.thread_time()
        dt, out, err = timed(job)
        cpu.append(time.thread_time() - c0)
        lat.append(dt)
        if err is not None:
            errors.append(f"{checks.job_key(job)}: {err}")
            continue
        if job[0] == "analyze":
            places += len(out.places_checked)
        problems = check(job, out, golden)
        if problems:
            errors.append(f"{checks.job_key(job)}: {'; '.join(problems)}")
        else:
            n_ok += 1
    wall = sum(lat)  # time in ops; output checks are not timed
    host_note(host0, host_cpu_ticks(), lat, cpu)
    print(f"{args.workload} seed {args.seed}: {len(jobs)} jobs, wall {wall:.2f} s",
          file=sys.stderr)

    if tracer is None:
        fixture_errors, unexpected = check_fixtures(), []
        metrics = end_to_end(lat, wall, n_ok, measure_setup(args))
    else:
        caches = {name: (c[0] - caches0[name][0], c[1] - caches0[name][1])
                  for name, c in cache_counts().items()}
        tracer.op = -1
        fixture_errors = check_fixtures()
        reg_failed, unexpected = run_register(register, tracer, golden)
        metrics = per_layer(tracer, set(range(len(jobs))),
                            {-2 - i for i in range(len(register))}, places,
                            caches, untraced / sum(lat[:k]), reg_failed)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.json")

    for e in errors + fixture_errors + unexpected:
        print("FAILED " + e, file=sys.stderr)
    result = {
        "correct": not (errors or fixture_errors or unexpected),
        "attempted": len(jobs),
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
