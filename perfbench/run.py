"""myerson-airnet benchmark: seeded CLI workloads, checked and timed from outside.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {train,clear,episode} --seed N \\
        --seconds S --trace {0,1}

One process drives a closed loop: each pass (the workload's CLI commands,
called through ``myerson_airnet.cli.main``) starts when the previous one
ends.  The first pass warms caches and is the reference for output
checks; then passes repeat for ``--seconds``.  Set-up is timed apart, in
fresh interpreters.  The bounded pass and unit times are ``norm_*``:
scaled by a reference kernel timed between units (``perfbench/gauge.py``),
so that the host's changing speed cancels; the raw times are printed too.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` untraced and traced passes
alternate and it carries the per-layer metrics.  Metric names and units
come from ``BENCHMARK.json``; ``perfbench/layer_map.json`` says which
end-to-end metric each layer metric should move.  Earlier lines print
every metric with its unit, the error rate, and a ``{"record": ...}``
line (environment, output digests, sample counts) that
``perfbench/compare.py`` reads.

The package is imported from ``./src`` only; without it the benchmark
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import benchstats
import gauge
from spans import PassSummary, Tracer, UnitClock
from workloads import WORKLOADS, CheckFailed, trace_targets

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
THREADS_ENV = "MYERSON_AIRNET_THREADS"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 7
MIN_UNITS = 1000  # the unit p99 needs ten samples beyond it
PASS_LIMIT_S = 100.0  # stop starting passes here, whatever --seconds says
# End-to-end metrics printed and recorded without a bound in BENCHMARK.json:
# name -> (unit, better).  The raw times beside the bounded ``norm_*`` ones;
# ``unit_ms_tail`` is the highest percentile with ten units beyond it
# (``samples.highest_percentile``).
REPORTED = {"norm_unit_ms_p99": ("ms", "lower"), "wall_s": ("s", "lower"),
            "work_per_s": ("1/s", "higher"), "unit_ms_p50": ("ms", "lower"),
            "unit_ms_p90": ("ms", "lower"), "unit_ms_p99": ("ms", "lower"),
            "unit_ms_tail": ("ms", "lower")}


class SetupError(Exception):
    """The checkout cannot be benchmarked (no package, no spec, failed probe)."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"no BENCHMARK.json in {ROOT}")
    return json.loads(path.read_text(encoding="utf-8"))


def import_package():
    src = ROOT / "src"
    if not (src / "myerson_airnet" / "__init__.py").is_file():
        raise SetupError(f"no package source at {src / 'myerson_airnet'}")
    os.environ.pop(THREADS_ENV, None)
    sys.path.insert(0, str(src))
    import myerson_airnet
    import myerson_airnet.cli
    if Path(myerson_airnet.__file__).resolve().parent != (src / "myerson_airnet").resolve():
        raise SetupError(f"imported {myerson_airnet.__file__}, not the checkout's package")
    return myerson_airnet


def probe_env() -> dict:
    env = {key: value for key, value in os.environ.items() if key != THREADS_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def setup_probe(workload):
    """A callable that times one cold set-up in a fresh interpreter."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), json.dumps(workload.probe_spec())]
    package_dir = (ROOT / "src" / "myerson_airnet").resolve()

    def probe() -> dict:
        done = subprocess.run(argv, capture_output=True, text=True, env=probe_env(),
                              cwd=ROOT, timeout=60, check=False)
        if done.returncode != 0:
            raise SetupError(f"set-up probe failed: {done.stderr.strip()[-400:]}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if Path(result["package"]).resolve().parent != package_dir:
            raise SetupError(f"set-up probe imported {result['package']}")
        return result
    return probe


def environment(pkg) -> dict:
    import numpy
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "package": pkg.__version__,
        "blas_env": {key: os.environ.get(key) for key in BLAS_ENV},
        "git_commit": git_commit(),
        "src_sha256": tree_digest(ROOT / "src"),
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tree_digest(directory: Path) -> str:
    """sha256 over the relative paths and bytes of every ``.py`` file under ``directory``."""
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(str(path.relative_to(directory)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class PassResult:
    def __init__(self):
        self.wall = 0.0
        self.commands: list[tuple[float, float]] = []
        self.stdouts: list[str] = []
        self.error: str | None = None
        self.digests: dict[str, str] = {}


def run_pass(cli, workload, tracer: Tracer | None = None, pass_id: int = 0) -> PassResult:
    """Run the workload's commands once; any failure is recorded, never raised."""
    result = PassResult()

    def body():
        for argv in workload.commands():
            buffer = io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(buffer):
                if tracer is None:
                    code = cli.main(argv)
                else:
                    code = tracer.run("cli.main", cli.main, argv)
            result.commands.append((t0, perf_counter()))
            result.stdouts.append(buffer.getvalue())
            if code != 0:
                raise CheckFailed(f"{argv[0]} exited with status {code}")

    t0 = perf_counter()
    try:
        if tracer is None:
            body()
        else:
            tracer.run("pass", body, pass_id=pass_id)
    except SystemExit as exc:
        result.error = f"exited with status {exc.code}"
    except Exception as exc:  # a pass that raises is a failed pass, and the run goes on
        result.error = f"{type(exc).__name__}: {exc}"
    result.wall = perf_counter() - t0
    if result.error is None:
        try:
            for path in workload.output_files():
                result.digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        except OSError as exc:
            result.error = f"missing output: {exc}"
        for index, text in enumerate(result.stdouts):
            result.digests[f"stdout.{index}"] = hashlib.sha256(text.encode()).hexdigest()
    return result


class Judge:
    """Checks every pass: the first fully, the rest by digest against the first."""

    def __init__(self, workload):
        self.workload = workload
        self.reference: dict[str, str] | None = None
        self.errors: list[str | None] = []

    def __call__(self, result: PassResult) -> bool:
        if result.error is None and self.reference is None:
            try:
                self.workload.check(result.stdouts)
                self.reference = result.digests
            except Exception as exc:  # any failure to read the outputs fails the pass
                result.error = f"check failed: {type(exc).__name__}: {exc}"
        elif result.error is None and result.digests != self.reference:
            drifted = sorted(k for k in result.digests if result.digests[k] != self.reference.get(k))
            result.error = f"outputs differ from the first pass: {', '.join(drifted)}"
        self.errors.append(result.error)
        if result.error is not None:
            print(f"pass failed: {result.error}", file=sys.stderr)
        return result.error is None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def normalize_pass(meter, result: PassResult, intervals, starts, windows) -> dict:
    """One pass's raw and gauge-scaled times; unit times are kept as float32.

    The pass is scaled as soon as it ends, so the nearest kernel timings
    of its last units lie before them, and the run keeps only what its
    metrics need: peak RSS then barely grows with the number of passes.
    """
    lo, hi = result.commands[0][0], result.commands[-1][1]
    kernel = meter.between(lo, hi)
    wall = result.wall - kernel.sum()
    local = meter.local(np.array([lo]))[0] if kernel.size == 0 else np.median(kernel)
    scaled = intervals * (meter.ref_s / meter.local(starts))
    norm_wall = scaled.sum() + (wall - intervals.sum()) * (meter.ref_s / float(local))
    return {"units": intervals.astype(np.float32), "scaled": scaled.astype(np.float32),
            "wall": wall, "busy": sum(windows) if windows else wall, "norm_wall": norm_wall,
            "norm_busy": scaled.sum() if windows else norm_wall}


def measure_end_to_end(workload, judge: Judge, seconds: float, probe) -> tuple[dict, dict]:
    """Untraced passes for ``seconds`` of pass time, with cold set-ups spread among them.

    The bounded timings are ``norm_*``: measured times multiplied by the
    workload's gauge kernel's reference time over the kernel's time at
    that point of the run.  A unit takes the median of the kernel
    timings nearest to it; a pass adds up its scaled units, and scales
    the rest of its time (set-up, output writing) by the median kernel
    timing of the pass.  On a shared host the core's speed moves by up
    to half for seconds to a minute, and a raw median reads whichever
    state the run met; the raw times are printed and recorded beside
    the scaled ones, without a bound.  Gauge time is taken out of every
    pass and unit.  Set-up time is raw.
    """
    cli = workload.pkg.cli
    meter = gauge.Gauge(*gauge.KERNELS[workload.gauge_kernel])
    clock = UnitClock(meter)
    clock.install(*workload.unit_targets())
    try:
        warm = run_pass(cli, workload)
        clock.take(warm.commands)
        judge(warm)
        passes, probes = [], []
        busy = 0.0
        began = perf_counter()
        while not (busy >= seconds and sum(item["units"].size for item in passes) >= MIN_UNITS):
            if perf_counter() - began >= PASS_LIMIT_S:
                break
            result = run_pass(cli, workload)
            busy += result.wall
            intervals, starts, windows = clock.take(result.commands)
            if judge(result):
                passes.append(normalize_pass(meter, result, intervals, starts, windows))
            # Spread the cold set-ups over the run, so that they meet the
            # same outside load as the passes do.
            while len(probes) < min(SETUP_PROBES, math.ceil(SETUP_PROBES * busy / seconds)):
                probes.append(probe())
        rss = peak_rss_mb()
        while len(probes) < SETUP_PROBES:
            probes.append(probe())
    finally:
        clock.uninstall()
    units = np.concatenate([item["units"] for item in passes]) if passes else np.empty(0)
    if units.size < MIN_UNITS:
        raise CheckFailed(f"fewer than {MIN_UNITS} units from successful passes")
    scaled = np.concatenate([item["scaled"] for item in passes])
    walls = [item["wall"] for item in passes]
    per_pass = workload.units_per_pass()
    tail = benchstats.highest_percentile(units.size)
    kernel = np.frombuffer(meter.durations, dtype=float)
    metrics = {
        "setup_s": benchstats.median(p["total_s"] for p in probes),
        "norm_wall_s": benchstats.median(item["norm_wall"] for item in passes),
        "norm_work_per_s": benchstats.median(per_pass / item["norm_busy"] for item in passes),
        "norm_unit_ms_p50": benchstats.percentile(scaled, 50.0) * 1e3,
        "norm_unit_ms_p90": benchstats.percentile(scaled, 90.0) * 1e3,
        "peak_rss_mb": rss,
        "norm_unit_ms_p99": benchstats.percentile(scaled, 99.0) * 1e3,
        "wall_s": benchstats.median(walls),
        "work_per_s": benchstats.median(per_pass / item["busy"] for item in passes),
        "unit_ms_p50": benchstats.percentile(units, 50.0) * 1e3,
        "unit_ms_p90": benchstats.percentile(units, 90.0) * 1e3,
        "unit_ms_p99": benchstats.percentile(units, 99.0) * 1e3,
        "unit_ms_tail": benchstats.percentile(units, tail) * 1e3,
        "gauge.kernel_ms_p10": benchstats.percentile(kernel, 10.0) * 1e3,
        "gauge.kernel_ms_p50": benchstats.percentile(kernel, 50.0) * 1e3,
        "gauge.kernel_ms_p90": benchstats.percentile(kernel, 90.0) * 1e3,
    }
    samples = {
        "passes": len(passes), "pass_walls_s": walls,
        "pass_norm_walls_s": [item["norm_wall"] for item in passes],
        "gauge_runs": int(kernel.size),
        "probe_totals_s": [p["total_s"] for p in probes],
        "units": int(units.size), "highest_percentile": tail,
        "setup_probes": len(probes),
        "setup": {key: benchstats.median(p[key] for p in probes)
                  for key in ("import_s", "build_s", "load_s", "world_s", "total_s")},
    }
    return metrics, samples


def measure_layers(workload, judge: Judge, seconds: float, work: Path) -> tuple[dict, dict]:
    """Untraced and traced passes alternate; spans are saved to ``work/spans.npz``."""
    pkg = workload.pkg
    tracer = Tracer()
    targets = trace_targets(pkg)
    warm = run_pass(pkg.cli, workload)
    judge(warm)
    plain, traced, traced_ids = [], [], []
    began = perf_counter()
    while True:
        elapsed = perf_counter() - began
        if (elapsed >= seconds and plain and traced) or elapsed >= PASS_LIMIT_S:
            break
        if len(traced) < len(plain):
            pass_id = len(judge.errors)
            tracer.install(targets)
            try:
                result = run_pass(pkg.cli, workload, tracer, pass_id)
            finally:
                tracer.uninstall()
            if judge(result):
                traced.append(result.wall)
                traced_ids.append(pass_id)
        else:
            result = run_pass(pkg.cli, workload)
            if judge(result):
                plain.append(result.wall)
    if not (plain and traced):
        raise CheckFailed("no traced and untraced pass pair succeeded")
    table = tracer.table()
    tracer.save(work / "spans.npz")
    summaries = [PassSummary(tracer, table, pass_id) for pass_id in traced_ids]
    metrics = layer_metrics(tracer, summaries)
    # Each traced pass follows an untraced one; a ratio within the pair
    # cancels most of the host's drift in speed.
    metrics["trace.overhead_frac"] = benchstats.median(
        t / p for p, t in zip(plain, traced)) - 1.0
    if workload.name == "train":
        probe = workload.grad_probe()
        metrics["network.grad_ms"] = probe["grad"]
        metrics["network.loss_ms"] = probe["loss"]
    samples = {"untraced_passes": len(plain), "traced_passes": len(traced),
               "spans": int(table["name_id"].size)}
    return metrics, samples


def layer_metrics(tracer: Tracer, summaries: list[PassSummary]) -> dict[str, float]:
    """Per-layer numbers: medians over traced passes, per-call means over all of them."""

    def med(fn) -> float:
        return benchstats.median([fn(s) for s in summaries])

    def calls(name: str) -> float:
        return med(lambda s: s.calls(name))

    def per_call(name: str, scale: float, own: bool = False) -> float:
        count = sum(s.calls(name) for s in summaries)
        time = sum((s.self_time(name) if own else s.total(name)) for s in summaries)
        return scale * time / count if count else 0.0

    def counted(name: str, per: str) -> float:
        ids = [s.pass_id for s in summaries]
        total = sum(tracer.counter(pid, name) for pid in ids)
        count = sum(s.calls(per) for s in summaries)
        return total / count if count else 0.0

    def share(*names: str) -> float:
        return med(lambda s: sum(s.total(n) for n in names) / s.total("pass"))

    return {
        "cli.self_s": med(lambda s: s.self_time("cli.main")),
        "config.build_ms": per_call("config.build_config", 1e3),
        "checkpoint.load_ms": per_call("checkpoint.load_params", 1e3),
        "checkpoint.save_ms": per_call("checkpoint.save_params", 1e3),
        "network.train_s": med(lambda s: s.self_time("network.train")),
        "network.grad_ms": 0.0,
        "network.loss_ms": 0.0,
        "network.clear_hard_calls": calls("network.clear_hard"),
        "network.clear_hard_us": per_call("network.clear_hard", 1e6),
        "network.sale_frac": counted("network.clear_hard.sold", "network.clear_hard"),
        "auction.spa_clear_calls": calls("auction.spa_clear"),
        "auction.spa_clear_us": per_call("auction.spa_clear", 1e6),
        "auction.myerson_clear_calls": calls("auction.myerson_clear"),
        "auction.myerson_clear_us": per_call("auction.myerson_clear", 1e6),
        "auction.profile_calls": calls("auction.ValuationProfile"),
        "auction.profile_us": per_call("auction.ValuationProfile", 1e6),
        "auction.sample_ms": med(lambda s: s.total("auction.sample")) * 1e3,
        "valuation.pile_similarity_calls": calls("valuation.pile_similarity"),
        "valuation.pile_similarity_us": per_call("valuation.pile_similarity", 1e6),
        "valuation.score_us": per_call("valuation.valuation_score", 1e6),
        "valuation.distance_calls": calls("valuation.distance"),
        "valuation.normalize_us": per_call("valuation.normalize_profile", 1e6),
        "sim.step_self_ms": per_call("sim.step", 1e3, own=True),
        "sim.form_valuations_self_ms": per_call("sim.form_valuations", 1e3, own=True),
        "sim.generate_world_ms": per_call("sim.generate_world", 1e3),
        "sim.write_csv_ms": per_call("sim.write_episode_csv", 1e3),
        "sim.write_events_ms": per_call("sim.write_episode_events", 1e3),
        "sim.sale_frac": counted("sim.step.sold", "sim.step"),
        "sim.degenerate_rounds": med(lambda s: tracer.counter(
            s.pass_id, "valuation.normalize_profile.raised.DegenerateProfileError")),
        "share.network_train": med(lambda s: s.self_time("network.train") / s.total("pass")),
        "share.clear_hard_spa": share("network.clear_hard", "auction.spa_clear"),
        "share.pile_similarity": share("valuation.pile_similarity"),
        "trace.spans": med(lambda s: s.spans),
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        pkg = import_package()
    except (SetupError, ImportError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](pkg, args.seed, work)
    workload.prepare()
    judge = Judge(workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        if args.trace:
            measured, samples = measure_layers(workload, judge, args.seconds, work)
            measured["check.revenue_ratio"] = workload.quality.get("revenue_ratio", 0.0)
        else:
            measured, samples = measure_end_to_end(workload, judge, args.seconds,
                                                   setup_probe(workload))
        correct = judge.reference is not None
    except CheckFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        measured, samples, correct = {}, {}, False
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    attempted, failed = benchstats.count_failures(judge.errors)
    correct = correct and failed == 0
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    missing = sorted(m["name"] for m in wanted if m["name"] not in measured)
    if missing:
        print(f"perfbench: not measured: {', '.join(missing)}", file=sys.stderr)
        correct = False

    rate = benchstats.error_rate(judge.errors)
    reported = {name: {"value": float(measured[name]), "unit": unit, "better": better}
                for name, (unit, better) in REPORTED.items() if name in measured}
    unbounded = {name: value for name, value in measured.items()
                 if name not in metrics and name not in reported}
    unbounded["error_rate"] = rate
    if not args.trace:
        unbounded.update({"check." + name: value for name, value in workload.quality.items()})
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {attempted}  failed {failed}")
    for name, entry in metrics.items():
        print(f"  {name:<34} {entry['value']:>16.6g} {entry['unit']}")
    for name, entry in reported.items():
        print(f"  {name:<34} {entry['value']:>16.6g} {entry['unit']:<5} (no bound)")
    for name, value in unbounded.items():
        print(f"  {name:<34} {value:>16.6g}   (not in BENCHMARK.json)")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics, "reported": reported, "unbounded": unbounded, "samples": samples,
        "digests": judge.reference, "env": environment(pkg),
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
