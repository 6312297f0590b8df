"""Layered benchmark of freep.

    python3 perfbench/run.py --workload {cli-cold,exact-norm,norming} \
        --seed N --seconds S --trace {0,1}

Runs rounds of one workload (every operation once per round, one at a
time, each checked), as many as fit in S seconds at the workload's
recorded round time, then prints the metrics as one JSON object on the
last line of standard output: the end-to-end metrics, with times scaled
to the reference machine speed, with --trace 0; the per-layer metrics
with --trace 1. The line before it holds the details: sample counts, the
tail percentile, failures, the unscaled times, computed work counts and
the environment stamp. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("cli-cold", "exact-norm", "norming")
SETUP_PROBES = 5
# A fixed pure-Python loop measures the current speed of the process it runs
# in; a shared virtual machine drifts by 20-30% over minutes. Times of work
# done in a process that also runs the loop (the in-process workloads, which
# run it about every CAL_EVERY_S seconds, and each set-up probe) are scaled
# to a machine on which the loop takes CAL_REF_S seconds.
CAL_LOOPS = 500_000
CAL_REF_S = 0.04
CAL_EVERY_S = 1.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "peak_rss_mb": "MB"}
HIST_SIZES = range(2, 9)


def per_layer_units() -> dict:
    """Name and unit of every --trace 1 metric, in the order printed."""
    from tracing import IMPORT_MODULES, TRACED, span_name
    from workloads import CLI_COMMANDS

    return {
        **{f"import.{k}": "s" for k in IMPORT_MODULES.values()},
        **{f"cli.{c}.s": "s" for c in CLI_COMMANDS},
        "reportio.bytes": "bytes", "reportio.reports_changed": "count",
        **{f"{span_name(module, attr)}.{k}": u for module, attr in TRACED
           for k, u in (("calls", "count"), ("self_s", "s"))},
        "setup.metric.calls": "count", "setup.metric.self_s": "s",
        "freenorm.exact_norm_small.p50_ms": "ms",
        **{f"freenorm.exact_norm_small.n{n}.p50_ms": "ms" for n in range(3, 8)},
        "freenorm.exact_norm_p1.p50_ms": "ms",
        "retraction.pairs": "count", "retraction.exact_norms_checked": "count",
        "dyadic.molecule_decompose.p50_ms": "ms",
        "dyadic.pairs": "count", "dyadic.pairs_truncated": "count", "dyadic.basis_exact_ratio": "ratio",
        **{f"work.exact_norm_small.n{n}": "count" for n in HIST_SIZES},
        "work.lp_edges": "count",
        "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
        "trace.layer_self_s": "s", "trace.remainder_s": "s",
    }


def pin_blas(env) -> None:
    """One BLAS thread (one client, one operation at a time; never above
    nproc), for this process and the processes it starts."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=33.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def build(workload: str, seed: int, ref: dict | None, workdir: Path, env: dict):
    import workloads as w

    if workload == "exact-norm":
        return w.ExactNorm(seed, ref and ref["exact-norm"])
    if workload == "norming":
        return w.Norming(seed, ref and ref["norming"])
    return w.CliCold(w.cli_variant_index(seed), ref and ref["cli-cold"], workdir, env)


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest whole percentile, by nearest rank,
    with at least ten samples above it; the maximum below 11 samples."""
    s = sorted(samples)
    n = len(s)
    if n < 11:
        return 100.0, s[-1]
    q = (100 * (n - 10)) // n
    rank = -(-q * n // 100)  # ceil(q n / 100), 1-based
    return float(q), s[rank - 1]


def round_count(wl, seconds: float) -> int:
    """Rounds of a run: as many as fit in `seconds` at the workload's
    recorded round time, so every run of any commit does the same work."""
    return max(1, int(seconds // wl.round_s))


def calibration_loop() -> float:
    """Seconds of CAL_LOOPS iterations of a fixed pure-Python loop."""
    t = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t


class Speed:
    """Samples of the calibration loop, taken at most every CAL_EVERY_S
    seconds, and the scale they give."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = -CAL_EVERY_S

    def sample(self) -> None:
        if time.perf_counter() - self.last < CAL_EVERY_S:
            return
        self.samples.append(calibration_loop())
        self.last = time.perf_counter()

    def scale(self) -> float:
        return CAL_REF_S / statistics.median(self.samples)


def run_round(wl, op_times: list, failures: list, speed: Speed | None = None) -> tuple[float, int, int]:
    """Every operation once, each timed with its output check; returns
    (round seconds: the sum of the operation times, attempted, failed).
    With `speed`, samples the machine speed between operations."""
    attempted = failed = 0
    total = 0.0
    for label, op in wl.ops():
        if speed:
            speed.sample()
        t = time.perf_counter()
        try:
            op()
        except Exception as e:  # an operation's failure is counted, the run goes on
            failed += 1
            failures.append(f"{wl.name} {label}: {type(e).__name__}: {e}")
        op_times.append(time.perf_counter() - t)
        total += op_times[-1]
        attempted += 1
    return total, attempted, failed


def setup_sample(args, env) -> tuple[float, float]:
    """Set-up time (import freep, generate the inputs) of a fresh process,
    and the median of three calibration loops run in it right after."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    setup, cal = proc.stdout.split()[-2:]
    return float(setup), float(cal)


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    rev = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        rev = got.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "freep").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": rev,
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "seed": seed,
        "load": "closed loop, one client, one process, one operation at a time",
    }


def untraced(args, wl) -> tuple[dict, dict, int, int]:
    env = child_env()
    op_times, failures, rounds, probes = [], [], [], []
    speed = Speed() if wl.in_process else None
    attempted = failed = 0
    n_rounds = round_count(wl, args.seconds)
    # the set-up probes are spread over the run, so that their median, like
    # that of the rounds, covers the whole run and not only its start
    probe_before = [i * n_rounds // SETUP_PROBES for i in range(SETUP_PROBES)]
    for r in range(n_rounds):
        probes += [setup_sample(args, env) for _ in range(probe_before.count(r))]
        secs, a, f = run_round(wl, op_times, failures, speed)
        rounds.append(secs)
        attempted, failed = attempted + a, failed + f
    pct, tail_value = tail(op_times)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + getattr(wl, "child_maxrss_kb", 0)
    measured = {
        "wall_s": statistics.median(rounds),
        "setup_s": statistics.median(setup for setup, _ in probes),
        "op_p50_ms": statistics.median(op_times) * 1e3,
        "op_tail_ms": tail_value * 1e3,
    }
    metrics = dict(measured, peak_rss_mb=rss_kb / 1024)
    # each set-up probe is scaled by the loop in its own process
    metrics["setup_s"] = statistics.median(setup * CAL_REF_S / cal for setup, cal in probes)
    if speed:  # the loop times this process: scale the work done in it
        for k in ("wall_s", "op_p50_ms", "op_tail_ms"):
            metrics[k] *= speed.scale()
    detail = {
        "measured": measured, "speed_scale": speed and speed.scale(),
        "calibration_s": speed and speed.samples,
        "rounds": len(rounds), "round_s": rounds, "setup_probes_s": probes,
        "op_samples": len(op_times), "op_tail_percentile": pct,
        "failed_frac": failed / attempted, "failures": failures[:5],
        "reports_changed": getattr(wl, "changed", None),
    }
    return metrics, detail, attempted, failed


def traced(args, wl, ref) -> tuple[dict, dict, int, int]:
    from tracing import Tracer, import_breakdown, span_name

    env = child_env()
    units = per_layer_units()
    m = {k: 0.0 for k in units}
    m.update(import_breakdown(env, str(ROOT)))
    op_times, failures = [], []
    attempted = failed = 0

    if args.workload == "cli-cold":  # one cold round: a fresh process per command
        cold = []
        _, attempted, failed = run_round(wl, cold, failures)
        for cmd, secs in zip(wl.commands, cold):
            m[f"cli.{cmd}.s"] = secs
        wl.in_process = True

    tracer = Tracer()
    tracer.install()
    try:
        build(args.workload, args.seed, ref, getattr(wl, "workdir", None), env)
    finally:
        tracer.uninstall()
    for name, s in tracer.summary().items():
        if name.startswith("metric."):
            m["setup.metric.calls"] += s["calls"]
            m["setup.metric.self_s"] += s["self_s"]

    start = len(tracer.spans)
    plain, timed = [], []
    for _ in range(max(1, round_count(wl, args.seconds) // 2)):  # an untraced and a traced round
        secs, a, f = run_round(wl, op_times, failures)
        plain.append(secs)
        tracer.install()
        try:
            secs, a2, f2 = run_round(wl, op_times, failures)
        finally:
            tracer.uninstall()
        timed.append(secs)
        attempted, failed = attempted + a + a2, failed + f + f2

    rounds = len(timed)
    summary = tracer.summary(start)
    layer_self = 0.0
    for name, s in summary.items():
        m[f"{name}.calls"] = s["calls"] / rounds
        m[f"{name}.self_s"] = s["self_s"] / rounds
        layer_self += s["self_s"] / rounds
    for name in ("freenorm.exact_norm_small", "freenorm.exact_norm_p1", "dyadic.molecule_decompose"):
        if name in summary:
            m[f"{name}.p50_ms"] = statistics.median(summary[name]["durations"]) * 1e3
    traced_sizes = {}
    if "freenorm.exact_norm_small" in summary:
        s = summary["freenorm.exact_norm_small"]
        for n in sorted(set(s["tags"])):
            durs = [d for d, tag in zip(s["durations"], s["tags"]) if tag == n]
            traced_sizes[n] = len(durs) / rounds
            if 3 <= n <= 7:
                m[f"freenorm.exact_norm_small.n{n}.p50_ms"] = statistics.median(durs) * 1e3
    exact, total = tracer.children_named(start, span_name("freep.dyadic", "basis_norm_check"),
                                         span_name("freep.freenorm", "exact_norm_small"))
    m["dyadic.basis_exact_ratio"] = exact / total if total else 0.0

    counts = wl.work_counts()
    hist = counts.pop("exact_norm_small")
    for n in HIST_SIZES:
        m[f"work.exact_norm_small.n{n}"] = hist.get(n, 0)
    m["work.lp_edges"] = counts.pop("lp_edges", 0)
    m.update(counts)
    if args.workload == "cli-cold":
        m["reportio.bytes"] = wl.report_bytes
        m["reportio.reports_changed"] = wl.changed

    m["trace.wall_s"] = statistics.fmean(timed)
    m["trace.untraced_wall_s"] = statistics.fmean(plain)
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    m["trace.layer_self_s"] = layer_self
    m["trace.remainder_s"] = m["trace.wall_s"] - layer_self
    match = traced_sizes == {n: c for n, c in hist.items() if c}
    if not match:
        print(f"warning: traced exact_norm_small host sizes {traced_sizes} differ from the "
              f"computed work counts {dict(hist)}", file=sys.stderr)
    detail = {
        "traced_rounds": rounds, "untraced_rounds": len(plain),
        "failed_frac": failed / attempted, "failures": failures[:5],
        "computed": sorted(["work.*", "retraction.pairs", "retraction.exact_norms_checked",
                            "dyadic.pairs", "dyadic.pairs_truncated"]),
        "work_counts_match_trace": match,
        "overhead_frac": m["trace.overhead_s"] / m["trace.untraced_wall_s"],
    }
    return {k: m[k] for k in units}, detail, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "freep" / "__init__.py").is_file() or not (BENCH_DIR / "reference.json").is_file():
        print(f"error: no freep sources under {SRC} or no recorded reference", file=sys.stderr)
        return 2
    pin_blas(os.environ)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    workdir = BENCH_DIR / ".work" / str(os.getpid())
    try:
        t0 = time.perf_counter()
        import freep  # noqa: F401

        ref = None if args.setup_probe else json.loads((BENCH_DIR / "reference.json").read_text())
        wl = build(args.workload, args.seed, ref, workdir, child_env())
        if args.setup_probe:
            setup = time.perf_counter() - t0
            cal = statistics.median(calibration_loop() for _ in range(3))
            print(f"setup_s {setup!r} {cal!r}")
            return 0
        if args.trace:
            metrics, detail, attempted, failed = traced(args, wl, ref)
        else:
            metrics, detail, attempted, failed = untraced(args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # not empty: another run is using it
            pass
    units = per_layer_units() if args.trace else END_TO_END
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  environment=environment(args.seed))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
