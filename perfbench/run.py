"""Benchmark of the `ecloner` command line, run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Each run builds nothing: it imports the package from ./src, calls
`ecloner.cli.main(argv)` in this process with the workload's fixed argv, and
writes each invocation's CSV to a scratch file under ./.bench_out.  Load
comes from this one process, one invocation at a time (a closed loop of one
client); BLAS keeps its default thread count.

--trace 0 reports the end-to-end metrics:
    setup_s      median wall time of a fresh interpreter that imports
                 ecloner.cli and builds the parser (several per run)
    wall_s       median wall time of one invocation, after one warm-up
    peak_rss_mb  peak RSS of a fresh process running one invocation
--trace 1 alternates untraced and traced invocations and reports the
per-layer metrics of tracing.py, plus the tracing overhead.

Every invocation's output is checked (see workloads.py).  The last line of
stdout is the result as JSON; earlier lines are a readable summary, the
environment, and a `# detail` JSON line with every sample.
"""

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

from tracing import MB, Tracer
from workloads import WORKLOADS, OutputCheck, argv_for, operations_per_invocation

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PROBE = HERE / "probe.py"
SETUP_REPEATS = 7
MIN_SAMPLES = 2
CHILD_TIMEOUT_S = 100


def import_cli():
    """Import ecloner.cli from this checkout's sources, never an installed copy."""
    package_dir = SRC / "ecloner"
    if not (package_dir / "cli.py").is_file():
        raise SystemExit(f"perfbench: no ecloner sources at {package_dir}")
    sys.path.insert(0, str(SRC))
    import ecloner.cli

    if Path(ecloner.cli.__file__).resolve().parent != package_dir.resolve():
        raise SystemExit(f"perfbench: imported ecloner from {ecloner.cli.__file__}")
    return ecloner.cli


@contextmanager
def scratch_csv():
    fd, path = tempfile.mkstemp(dir=OUT, suffix=".csv")
    os.close(fd)
    try:
        yield path
    finally:
        os.unlink(path)


def probe(*args):
    return subprocess.run(
        [sys.executable, str(PROBE), str(SRC), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )


def blas_threads():
    """OpenBLAS thread count of numpy's bundled library, or 'unknown'."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return "unknown"


def git_sha():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    kernels = sys.modules.get("ecloner._kernels")
    backend = getattr(kernels, "active_backend", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "kernels_backend": backend() if backend is not None else "absent",
    }


class Invoker:
    """Runs the workload in-process and checks every output it writes."""

    def __init__(self, cli, workload, seed):
        self.cli = cli
        self.workload = workload
        self.argv = argv_for(workload, seed)
        self.check = OutputCheck(workload)
        self.reference = None
        self.attempted = 0
        self.failed = 0

    def invoke(self):
        """One in-process invocation; returns its wall time in seconds."""
        code = None
        with scratch_csv() as path:
            gc.collect()
            start = time.perf_counter()
            try:
                code = self.cli.main(self.argv + ["--output", path])
            except SystemExit as exc:
                code = exc.code
            except Exception:
                traceback.print_exc()
            elapsed = time.perf_counter() - start
            output = Path(path).read_bytes()
        self.record(code, output)
        return elapsed

    def invoke_fresh(self):
        """One invocation in a fresh interpreter; returns its peak RSS in MB."""
        with scratch_csv() as path:
            done = probe("run", path, *self.argv)
            output = Path(path).read_bytes()
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit("perfbench: fresh-process probe crashed")
        report = json.loads(done.stdout.splitlines()[-1])
        self.record(report["exit"], output)
        return report["peak_rss_kb"] * 1024 / MB

    def record(self, code, output):
        compared = self.reference is not None
        ops = operations_per_invocation(self.workload, compared)
        self.attempted += ops
        if code != 0:
            self.check.problems.append(f"invocation exited with {code!r}")
            self.failed += ops
            return
        self.failed += self.check.check(output.decode(errors="replace"))
        if not compared:
            self.reference = output
        elif output != self.reference:
            self.check.problems.append("output differs from the run's first invocation")
            self.failed += 1


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return round(100.0 * (n - 10) / n), sorted(values)[n - 11]


def setup_time():
    start = time.perf_counter()
    done = probe("setup")
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit("perfbench: set-up probe failed")
    return elapsed


def run_end_to_end(invoker, seconds):
    # The machine's speed drifts over seconds, so a set-up probe follows every
    # invocation: the set-up median then spans the run like the wall median.
    setup = [setup_time()]
    invoker.invoke()  # warm-up; its output is the reference
    walls = []
    start = time.perf_counter()
    while (
        len(walls) < MIN_SAMPLES
        or time.perf_counter() - start + statistics.median(walls) <= seconds
    ):
        walls.append(invoker.invoke())
        setup.append(setup_time())
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_time())
    peak_rss = invoker.invoke_fresh()
    pct = tail(walls)
    lines = [
        f"setup_s      {statistics.median(setup):.4f} s  (median of {len(setup)})",
        f"wall_s       {statistics.median(walls):.4f} s  (median of {len(walls)} after 1 warm-up"
        + (f"; p{pct[0]} {pct[1]:.4f} s)" if pct else "; too few samples for a tail)"),
        f"peak_rss_mb  {peak_rss:.1f} MB  (1 fresh process)",
    ]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    return metrics, lines, {"setup_s": setup, "wall_s": walls, "peak_rss_mb": [peak_rss]}


def unit_of(name):
    if name.endswith("mshots_per_s"):
        return "Mshot/s"
    if name.endswith("peak_mb_per_mshot"):
        return "MB/Mshot"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("calls", "validations", "spans")):
        return "count"
    return "1"


def run_traced(invoker, seconds, workload):
    spectral_tol = getattr(sys.modules.get("ecloner.gaussian"), "SPECTRAL_TOL", None)
    tracer = Tracer()
    invoker.invoke()  # warm-up; its output is the reference
    untraced, traced = [], []

    def pair():
        untraced.append(invoker.invoke())
        absent = tracer.install()
        tracer.begin_invocation()
        try:
            traced.append(invoker.invoke())
        finally:
            tracer.uninstall()
        return absent

    start = time.perf_counter()
    absent = pair()
    while (
        time.perf_counter() - start + statistics.median(untraced) + statistics.median(traced)
        <= seconds
    ):
        pair()
    # tracemalloc readings come from one more invocation whose times are unused.
    memory = Tracer(memory=True)
    memory.install()
    memory.begin_invocation()
    try:
        invoker.invoke()
    finally:
        memory.uninstall()
    if spectral_tol is None:
        absent.append("gaussian.SPECTRAL_TOL")
    layer, self_sums = tracer.metrics(spectral_tol if spectral_tol is not None else 0.0)
    wall, base = statistics.median(traced), statistics.median(untraced)
    layer.update(
        {
            "montecarlo.peak_mb_per_mshot": memory.peak_mb_per_mshot(),
            "montecarlo.max_z": invoker.check.max_z,
            "trace.wall_s": wall,
            "trace.untraced_wall_s": base,
            "trace.overhead_s": wall - base,
            "trace.self_sum_s": statistics.median(self_sums),
            "trace.unattributed_s": statistics.median(t - s for t, s in zip(traced, self_sums)),
        }
    )
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}.json.gz", {"workload": workload, "argv": invoker.argv})
    lines = [f"{name:34s} {value:.6g} {unit_of(name)}" for name, value in layer.items()]
    lines.append(
        f"traced wall {wall:.4f} s over {len(traced)} invocations, untraced {base:.4f} s "
        f"over {len(untraced)}; layer self times sum to {layer['trace.self_sum_s']:.4f} s"
    )
    lines.append(f"absent: {', '.join(absent) if absent else 'none'}")
    metrics = {name: (value, unit_of(name)) for name, value in layer.items()}
    return metrics, lines, {"traced_wall_s": traced, "untraced_wall_s": untraced}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli = import_cli()
    OUT.mkdir(exist_ok=True)
    env = environment()
    invoker = Invoker(cli, args.workload, args.seed)
    if args.trace:
        metrics, lines, samples = run_traced(invoker, args.seconds, args.workload)
    else:
        metrics, lines, samples = run_end_to_end(invoker, args.seconds)

    failed_frac = invoker.failed / invoker.attempted
    lines.append(
        f"failed_frac  {failed_frac:.6g}  ({invoker.failed} of {invoker.attempted} operations)"
    )
    if invoker.check.oracle:
        lines.append(
            f"oracle max z {invoker.check.max_z:.3f}, family-wise bound {invoker.check.z_limit:.3f}"
        )
    for problem in invoker.check.problems[:20]:
        lines.append(f"problem: {problem}")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "argv": invoker.argv,
        "trace": args.trace,
        "env": env,
        "samples": samples,
        "failed_frac": failed_frac,
    }
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {' '.join(invoker.argv)}")
    for line in lines:
        print(f"# {line}")
    print(f"# detail {json.dumps(detail)}")
    print(
        json.dumps(
            {
                "correct": invoker.failed == 0,
                "attempted": invoker.attempted,
                "failed": invoker.failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
