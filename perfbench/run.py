"""corrkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; corrkit is imported from ./src.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json; with --trace 1 the per-layer ones.
The lines before it print every metric by name with its unit, and the
environment.  Each run also writes a record (environment, metrics, job
times and, when traced, every span) under .perfbench-out/.
See perfbench/README.md for the design.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import shutil
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np

from tracing import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5

# Speed calibration.  The reference machine (a 2-core KVM guest on a
# shared host) drifts in speed by up to 1.6x within seconds (see
# README.md), so every timed span is bracketed by a fixed kernel and
# reported in reference seconds: raw seconds * CAL_REF_S / (mean kernel
# time around the span).  CAL_REF_S is the kernel's median thread CPU
# time on the reference machine.
CAL_REF_S = 0.016
_CAL_POINTS = np.random.default_rng(0).random(1 << 19)  # 4 MiB, twice the L2
_CAL_BUFFER = np.empty_like(_CAL_POINTS)  # sorted in place: no page faults in the kernel

# per-layer time metrics: "<prefix>.s" sums the self time of every span
# named <prefix> or <prefix>.<call label>
LAYER_TIMES = (
    "io.read_points", "io.write_points", "io.read_integers",
    "seqgen.generate", "seqgen.exact_frac_parts",
    "cli.main.gen", "cli.main.corr", "cli.main.moments", "cli.main.cstar", "cli.main.energy",
    "core.PointSequence",
    "correlations.r_k_distinct", "correlations.r_k_star",
    "correlations.r_k_box", "correlations.r_k_box.k4", "correlations.r_k_consecutive",
    "averaged.c_k_star", "averaged.c_k_star.wide",
    "intervalstats.moments", "intervalstats.sweep_profile", "intervalstats.i_k_via_correlation",
    "arithmetic.additive_energy", "arithmetic.three_ap_count", "arithmetic.metric_r3_experiment",
)
LAYER_COUNTS = {
    "core.window_occupants": "count",
    "averaged.window_pairs": "count",
    "averaged.bytes_computed": "bytes",
    "intervalstats.breakpoints": "count",
    "correlations.r_k_consecutive.rows": "count",
    "arithmetic.pair_sums": "count",
}


class Checks:
    """Every result the run checks counts as one attempt."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)

    @property
    def failed(self) -> int:
        return len(self.failures)


class Raised:
    def __init__(self, exc: BaseException):
        self.exc = exc


def call(step):
    try:
        return step.fn()
    except Exception as exc:  # a failed call is a failed result, not a crashed run
        traceback.print_exc()
        return Raised(exc)


def check(step, result, checks: Checks) -> None:
    if isinstance(result, Raised):
        checks.add(step.name, False)
        return
    if step.check is None:
        return
    try:
        ok = bool(step.check(result))
    except Exception:
        traceback.print_exc()
        ok = False
    checks.add(step.name, ok)


def run_plain(steps) -> list:
    return [(s, call(s)) for s in steps]


def calibration() -> float:
    """Thread CPU seconds of a fixed kernel that mixes the work the
    workloads do: an interpreter loop, Python object churn and a numpy
    sort that spills out of L2.  Thread time, so a helper thread the
    program leaves running cannot slow the kernel and flatter the program."""
    t0 = time.thread_time()
    acc = 0
    for i in range(60_000):
        acc += (i * 7) % 13
    rng = random.Random(0)
    floats = [rng.random() for _ in range(16_000)]
    floats.sort(key=lambda x: -x)
    np.copyto(_CAL_BUFFER, _CAL_POINTS)
    _CAL_BUFFER.sort()
    return time.thread_time() - t0


def run_calibrated(steps) -> tuple[list, tuple[float, float], tuple[float, float]]:
    """Run steps with the kernel before, between and after them.  Returns
    the results, raw (wall, cpu) seconds and (wall, cpu) reference seconds,
    each step scaled by the mean of the two kernels around it."""
    results = []
    raw_w = raw_c = ref_w = ref_c = 0.0
    k0 = calibration()
    for step in steps:
        w0, c0 = time.perf_counter(), time.process_time()
        results.append((step, call(step)))
        dw, dc = time.perf_counter() - w0, time.process_time() - c0
        k1 = calibration()
        scale = CAL_REF_S / ((k0 + k1) / 2)
        raw_w, raw_c = raw_w + dw, raw_c + dc
        ref_w, ref_c = ref_w + dw * scale, ref_c + dc * scale
        k0 = k1
    return results, (raw_w, raw_c), (ref_w, ref_c)


def run_traced(steps, tr, out: list) -> None:
    """Run steps and groups in spans (no-ops under NullTracer); results go to out."""
    for step in steps:
        with tr.span(step.name):
            if step.steps:
                run_traced(step.steps, tr, out)
                continue
            out.append((step, call(step)))
        for name, value in step.tally.items():
            tr.count(name, value)


def check_all(results, checks: Checks) -> None:
    for step, result in results:
        check(step, result, checks)


def gate(seed: int, workdir: Path, tr, checks: Checks) -> None:
    """Every workload's job and replay at tiny sizes, checked against the
    brute-force oracles: the oracle gate and the warm-up of every layer."""
    import workloads

    if tr.enabled:
        tr.job = "gate"
    for name, w in workloads.WORKLOADS.items():
        wd = workdir / "gate" / name
        wd.mkdir(parents=True, exist_ok=True)
        st = w.setup(seed, True, wd)
        w.references(st, checks)
        plan = w.plan(st, tr)
        results: list = []
        run_traced(plan.job + plan.replay, tr, results)
        check_all(results, checks)


def environment(w, st, seed: int, jobs: int) -> dict:
    caches = {}  # read-only from sysfs; the process is not pinned to a CPU
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "machine": platform.machine(), "caches": caches,
        "array_bytes": w.arrays(st), "seed": seed, "jobs": jobs,
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(w, seed, seconds, tiny, workdir, checks):
    null = NullTracer()
    setup_times, setup_raw = [], []
    for _ in range(SETUP_REPEATS):
        st = None  # free the previous inputs before timing the next set-up
        gc.collect()
        k0 = calibration()
        t0 = time.perf_counter()
        gate(seed, workdir, null, checks)
        st = w.setup(seed, tiny, workdir)
        dt = time.perf_counter() - t0
        setup_raw.append(dt)
        setup_times.append(dt * CAL_REF_S / ((k0 + calibration()) / 2))
    w.references(st, checks)
    plan = w.plan(st, null)

    walls, cpus, raw_walls, raw_cpus = [], [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        gc.collect()
        results, raw, scaled = run_calibrated(plan.job)
        raw_walls.append(raw[0])
        raw_cpus.append(raw[1])
        walls.append(scaled[0])
        cpus.append(scaled[1])
        check_all(results, checks)

    peak = 0
    for step in plan.job:  # separate pass: tracemalloc slows allocation-heavy calls 5-10x
        gc.collect()
        tracemalloc.start()
        result = call(step)
        peak = max(peak, tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        check(step, result, checks)

    p50 = statistics.median(walls)
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "job_p50_s": metric(p50, "s"),
        "job_cpu_p50_s": metric(statistics.median(cpus), "s"),
        "items_per_s": metric(plan.items / p50, "1/s"),
        "peak_mb": metric(peak / 2**20, "MiB"),
        "ok_frac": metric(1.0 - checks.failed / checks.attempted, "ratio"),
    }
    extra = {"job_wall_s": walls, "job_cpu_s": cpus, "setup_s": setup_times,
             "raw_job_wall_s": raw_walls, "raw_job_cpu_s": raw_cpus, "raw_setup_s": setup_raw}
    return st, metrics, extra


def layer_values(tr, job: str) -> dict[str, float]:
    """Per-layer values of one traced job (or of the gate)."""
    self_s = tr.self_times(job)
    counts = tr.job_counts(job)
    out = {}
    for prefix in LAYER_TIMES:
        out[prefix + ".s"] = sum(v for k, v in self_s.items() if k == prefix or k.startswith(prefix + "."))
    out["cli.self_s"] = sum(
        tr.durations(job, k) - tr.durations(job, "replay.cli." + k.rsplit(".", 1)[1])
        for k in self_s if k.startswith("cli.main."))
    for name in LAYER_COUNTS:
        out[name] = counts.get(name, 0)
    out["correlations.r_k_consecutive.callback_s"] = counts.get("correlations.r_k_consecutive.callback_s", 0.0)
    out["correlations.r_k_consecutive.useful"] = counts.get("correlations.r_k_consecutive.useful", 0)
    return out


def job_shape(tr, job: str, target) -> tuple[float, float, float]:
    """(wall time of the job span, share covered by its top-level spans,
    share spent in the workload's target layer).  Target spans count when
    they are top-level, or when they replay a CLI call that hides them; the
    latter count at most the duration of the CLI call they replay."""
    spans = tr.job_spans(job)
    root = next(s for s in spans if s[3] == "job")
    wall = root[5] - root[4]
    top = [s for s in spans if s[2] == root[1]]
    cli_time = {s[3].rsplit(".", 1)[1]: s[5] - s[4] for s in top if s[3].startswith("cli.main.")}
    in_target = sum(s[5] - s[4] for s in top if s[3].startswith(target))
    for group in spans:
        if group[3].startswith("replay.cli."):
            hidden = sum(s[5] - s[4] for s in spans if s[2] == group[1] and s[3].startswith(target))
            in_target += min(hidden, cli_time.get(group[3].rsplit(".", 1)[1], 0.0))
    return wall, sum(s[5] - s[4] for s in top) / wall, in_target / wall


def run_traced_mode(w, seed, seconds, tiny, workdir, checks):
    tr = Tracer()
    gate(seed, workdir, tr, checks)
    st = w.setup(seed, tiny, workdir)
    w.references(st, checks)
    plain, traced = w.plan(st, NullTracer()), w.plan(st, tr)

    plain_walls, shapes, jobs = [], [], []
    start = time.perf_counter()
    while not jobs or time.perf_counter() - start < seconds:
        gc.collect()
        w0 = time.perf_counter()
        results = run_plain(plain.job)
        plain_walls.append(time.perf_counter() - w0)
        check_all(results, checks)

        gc.collect()
        tr.job = f"job{len(jobs)}"
        jobs.append(tr.job)
        results = []
        with tr.span("job"):
            run_traced(traced.job, tr, results)
        with tr.span("replay"):
            run_traced(traced.replay, tr, results)
        check_all(results, checks)
        shapes.append(job_shape(tr, tr.job, w.target))

    gate_vals = layer_values(tr, "gate")
    per_job = [layer_values(tr, j) for j in jobs]
    vals = {k: gate_vals[k] + statistics.median(v[k] for v in per_job) for k in gate_vals}
    rows = vals["correlations.r_k_consecutive.rows"]
    metrics = {}
    for prefix in LAYER_TIMES:
        metrics[prefix + ".s"] = metric(vals[prefix + ".s"], "s")
    metrics["cli.self_s"] = metric(vals["cli.self_s"], "s")
    metrics["correlations.r_k_consecutive.callback_s"] = metric(
        vals["correlations.r_k_consecutive.callback_s"], "s")
    for name, unit in LAYER_COUNTS.items():
        metrics[name] = metric(vals[name], unit)
    metrics["correlations.r_k_consecutive.useful_ratio"] = metric(
        vals["correlations.r_k_consecutive.useful"] / rows if rows else 0.0, "ratio")
    overheads = [s[0] - plain for s, plain in zip(shapes, plain_walls)]  # adjacent pairs
    metrics["trace.overhead_s"] = metric(statistics.median(overheads), "s")
    metrics["trace.coverage"] = metric(statistics.median(s[1] for s in shapes), "ratio")
    metrics["trace.target_share"] = metric(statistics.median(s[2] for s in shapes), "ratio")
    metrics["trace.jobs"] = metric(len(jobs), "count")
    extra = {"job_wall_s": plain_walls, "traced_job_wall_s": [s[0] for s in shapes],
             "spans": tr.dump()}
    return st, metrics, extra


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One run; returns the result line plus the environment and extras."""
    import workloads

    w = workloads.WORKLOADS[name]
    workdir = ROOT / ".perfbench-work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    try:
        mode = run_traced_mode if trace else run_untraced
        st, metrics, extra = mode(w, seed, seconds, tiny, workdir, checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    jobs = len(extra["job_wall_s"])
    return {
        "result": {"correct": checks.failed == 0, "attempted": checks.attempted,
                   "failed": checks.failed, "metrics": metrics},
        "env": environment(w, st, seed, jobs),
        "failures": checks.failures,
        "extra": extra,
    }


def load():
    """Import corrkit from ./src and the workloads; None if that fails."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import corrkit
    except ImportError as exc:
        print(f"perfbench: cannot import corrkit from {src}: {exc}", file=sys.stderr)
        return None
    if not Path(corrkit.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: corrkit resolved outside {src}: {corrkit.__file__}", file=sys.stderr)
        return None
    import workloads

    return workloads


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="corrkit benchmark (see perfbench/README.md)")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    workloads = load()
    if workloads is None:
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result = out["result"]
    record_dir = ROOT / ".perfbench-out"
    record_dir.mkdir(exist_ok=True)
    record = record_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"workload": args.workload, **out}, indent=1))

    print("env " + json.dumps(out["env"], sort_keys=True))
    for label in out["failures"]:
        print(f"FAILED {label}")
    print(f"failed_frac {result['failed'] / result['attempted']!r} ratio")
    if "raw_job_wall_s" in out["extra"]:  # unscaled, for comparison with the reference seconds
        for key in ("raw_setup_s", "raw_job_wall_s", "raw_job_cpu_s"):
            print(f"{key}_p50 {statistics.median(out['extra'][key])!r} s")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
