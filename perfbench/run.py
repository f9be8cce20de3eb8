"""trafficmaps benchmark: one workload per run, closed loop, in-process CLI.

    python3 perfbench/run.py --workload solve-70 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from ./src.
BLAS is pinned to one thread before numpy is imported.  The run sets up
SETUP_REPS times (synthesizing its inputs from --seed and running one warm-up
command), then runs whole rounds of the workload's commands through
`trafficmaps.cli.main`, one command at a time, for --seconds seconds.  After
the timed window it checks every output with the computations in checks.py.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced rounds on the same inputs and reports the per-layer metrics from the
traced ones, the CLI command times from the untraced ones, and the tracing
overhead between the two, both as their difference and as the span count times
the measured cost of one span.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import os
import sys
import time

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORK = os.path.join(ROOT, ".perfbench_work")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


IMPORT_PROBE = ("import time; t = time.perf_counter(); import trafficmaps.cli; "
                "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Import time of the program in a fresh interpreter (BLAS env inherited)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=170)
    return float(out.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_sha": git_sha(),
    }


class Runner:
    """Runs commands in-process through the CLI and keeps their timings."""

    def __init__(self, main, work_dir, tracer=None):
        self.main = main
        self.work_dir = work_dir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.done = []
        self.times = defaultdict(list)
        self.traced_ops = 0

    def call(self, argv) -> int:
        try:
            return self.main(argv)
        except Exception:  # a crash counts as a failed operation, not a dead run
            traceback.print_exc()
            return -1

    def run(self, cmd, out_dir, traced=False) -> float:
        argv = cmd.argv(out_dir)
        if traced:
            self.tracer.install()
            self.tracer.begin_op(os.path.basename(out_dir), cmd.label)
        start = time.perf_counter()
        rc = self.call(argv)
        elapsed = time.perf_counter() - start
        if traced:
            self.tracer.end_op()
            self.tracer.uninstall()
            self.traced_ops += cmd.ops
        else:
            self.times[cmd.label].append((elapsed, cmd.ops))
        self.attempted += cmd.ops
        if rc != 0:
            self.failed += cmd.ops
            print(f"{cmd.label}: exit code {rc}", file=sys.stderr)
        else:
            self.done.append((cmd, out_dir))
        return elapsed

    def round(self, workload, base_dir, r, traced=False) -> float:
        tag = "t" if traced else ""
        return sum(self.run(cmd, os.path.join(self.work_dir, f"r{r}{tag}-{i}-{cmd.label}"), traced)
                   for i, cmd in enumerate(workload.commands(base_dir, r)))


def cli_times(times) -> dict:
    """Untraced per-command wall times, by the command names users see."""
    def med(label):
        vals = [t for t, _ in times.get(label, [])]
        return statistics.median(vals) if vals else 0.0

    grid = times.get("phase-grid", [])
    grid_time = sum(t for t, _ in grid)
    return {
        "cli.solve_p1_s": med("solve-p1"),
        "cli.solve_p2_s": med("solve-p2"),
        "cli.solve_p5_s": med("solve-p5"),
        "cli.solve_p6_s": med("solve-p6"),
        "cli.grid_cells_per_s": sum(n for _, n in grid) / grid_time if grid_time else 0.0,
        "cli.burst_compare_s": med("burst-compare"),
        "cli.diagnose_s": med("diagnose"),
    }


def run(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "trafficmaps")):
        print(f"perfbench: no program source at {SRC}; run from a trafficmaps checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    from trafficmaps.cli import main  # also imports numpy and scipy

    import_times = [time.perf_counter() - start]
    import checks
    import spans
    from workloads import SETUP_REPS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(WORK, f"{tag}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    tracer = spans.Tracer() if args.trace else None
    runner = Runner(main, work_dir, tracer)
    problems = []

    # Set-up, several times: import the program (in this process the first
    # time, in a fresh interpreter after that), synthesize the inputs and run
    # the warm-up command.
    setup_times = []
    for k in range(SETUP_REPS):
        if k:
            import_times.append(import_seconds())
        base_dir = os.path.join(work_dir, f"setup{k}")
        start = time.perf_counter()
        workload.synthesize(main, base_dir)
        warm = workload.warmup(base_dir)
        warm_out = os.path.join(base_dir, "warmup")
        rc = runner.call(warm.argv(warm_out))
        setup_times.append(import_times[k] + time.perf_counter() - start)
        if rc != 0:
            print(f"perfbench: warm-up command exited with {rc}", file=sys.stderr)
            return 1
        if warm.check is not None:
            problems += warm.check(warm_out)

    # Timed window: whole rounds, started while the next one fits.  An
    # untraced run covers every pool item; a traced run pairs each untraced
    # round with a traced round on the same item, alternating their order.
    min_rounds = 1 if tracer is not None else workload.pool
    cycle_times = []
    round_times = defaultdict(list)
    window_start = time.perf_counter()
    r = 0
    while r < min_rounds or (time.perf_counter() - window_start
                             + statistics.median(cycle_times) <= args.seconds):
        start = time.perf_counter()
        if tracer is not None and r % 2 == 1:
            runner.round(workload, base_dir, r, traced=True)
        round_times[r % workload.pool].append(runner.round(workload, base_dir, r))
        if tracer is not None and r % 2 == 0:
            runner.round(workload, base_dir, r, traced=True)
        cycle_times.append(time.perf_counter() - start)
        r += 1
    # Mean over pool items of each item's median round time.
    round_s = statistics.fmean(statistics.median(v) for v in round_times.values())
    peak_rss_mb = max(resource.getrusage(who).ru_maxrss for who in (
        resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0

    # Correctness, outside the timed window.
    for cmd, out_dir in runner.done:
        if cmd.check is not None:
            problems += cmd.check(out_dir)
    problems += workload.post_checks(runner.call, work_dir, runner.done)

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "round_s": (round_s, "s"),
        }
    else:
        for s in tracer.spans:
            if s.name == "mm_solve" and not s.error:
                problems += checks.check_mm_objectives(s.extras["objectives"])
        layer = spans.layer_metrics(tracer, runner.traced_ops)
        layer.update(cli_times(runner.times))
        traced_total = sum(s.duration for s in tracer.spans if s.layer == "cli")
        untraced_total = sum(t for v in round_times.values() for t in v)
        layer["trace.overhead_pct"] = 100.0 * (traced_total / untraced_total - 1.0)
        # The paired difference above carries the machine's run-to-run noise;
        # the span count times the measured cost of one span does not.
        n_spans = sum(1 for s in tracer.spans if s.layer != "cli")
        layer["trace.span_cost_pct"] = 100.0 * spans.span_cost() * n_spans / traced_total
        metrics = {name: (value, spans.UNITS[name]) for name, value in layer.items()}

    env = environment()
    env["workload"] = workload.name
    env["seed"] = args.seed
    env["seconds"] = args.seconds
    env["trace"] = args.trace
    env["rounds"] = r
    env["setup_times_s"] = setup_times
    env["import_times_s"] = import_times
    result = {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump({"environment": env, "problems": problems, **result,
                   "round_times_s": round_times,
                   "command_times_s": runner.times}, fh, indent=1)
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print("env " + json.dumps(env, sort_keys=True))
    if tracer is not None:
        tracer.write(os.path.join(OUT, f"spans-{tag}.csv"))
        print(f"{'layer':<12} {'span':<28} {'self_s':>10} {'calls':>9}")
        for (lyr, name), (self_s, n) in sorted(tracer.self_times().items()):
            print(f"{lyr:<12} {name:<28} {self_s:>10.4f} {n:>9d}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit}")
    print(f"attempted={runner.attempted} failed={runner.failed} rounds={r}")
    print(json.dumps(result))
    if not problems and not runner.failed:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))
