"""Benchmark of the friedrichs studies, timed end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/`` and refuses to run without it. A run first times ``SETUPS``
fresh-process set-ups (import plus building the workload), then sets the
workload up in-process and runs its study back to back (a closed loop, one
client) for about ``--seconds``. Outputs are checked after the timed region.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics ``setup_s``, ``study_rel_p50``
and ``peak_rss_mb``. Both times are taken relative to a fixed reference
kernel timed in the same process: on the shared 2-vCPU x86_64 host of the
baseline the same work ran up to 1.7x slower for seconds to tens of seconds
at a time, so across ten seeds plain wall times spread by up to a third, and
relative times by far less. ``study_rel_p50`` is the median over the run's
studies of study time over the mean time of the ``Reference`` kernel run
just before and just after it. ``setup_s`` is the median over the set-ups of
set-up time over the mean time of the kernel each set-up process runs before
and after it (see ``fresh_setup.py``), times ``KERNEL_S``: the set-up time in
seconds at the baseline host's speed. The plain wall-time medians are printed beside both.

``--trace 1`` alternates untraced and traced studies and reports the
per-layer numbers of one set-up plus one study (see ``tracing.py``), with
``trace.overhead_s`` = median traced minus median untraced study wall time.
Scratch files go under ``.bench_work/`` in the checkout; the spans of a
traced run are written to ``.bench_work/trace-<workload>-seed<seed>.json``.
"""

import os

#: BLAS threads, fixed before numpy loads so every run uses the same setting
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
#: fresh-process set-ups per run; setup_s is their median
SETUPS = 5
#: median time of fresh_setup.reference_kernel on the baseline host (2-vCPU x86_64)
KERNEL_S = 0.11


def import_package():
    """Import friedrichs from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "friedrichs" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {SRC / 'friedrichs'}")
    sys.path.insert(0, str(SRC))
    import friedrichs

    if Path(friedrichs.__file__).resolve().parent != (SRC / "friedrichs").resolve():
        raise SystemExit(f"bench: imported friedrichs from {friedrichs.__file__}")


def machine_facts(seed):
    import scipy

    return {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas_threads": BLAS_THREADS, "seed": seed}


def time_setups(workload, seed):
    """Set-up times of fresh processes that import the package and set up,
    and each relative to the reference kernel its process ran before and
    after."""
    times, rel = [], []
    for _ in range(SETUPS):
        start = time.perf_counter()
        out = subprocess.run([sys.executable, str(BENCH / "fresh_setup.py"), workload,
                              str(seed)], check=True, capture_output=True, text=True)
        before, after = map(float, out.stdout.split()[-2:])
        times.append(time.perf_counter() - start - before - after)
        rel.append(times[-1] / ((before + after) / 2))
    return times, rel


def run_study(work):
    """One study: its wall time and result, or the traceback if it raised.

    Garbage from the previous study is collected first, outside the timed
    region, so no study pays for another's and peak memory does not depend
    on when the collector happened to run.
    """
    gc.collect()
    start = time.perf_counter()
    try:
        result = work.study()
    except Exception:
        result = RuntimeError(traceback.format_exc())
    return time.perf_counter() - start, result


def check_all(work, results):
    """Problems of each failed study, by study index."""
    problems = {}
    for i, result in enumerate(results):
        found = [str(result)] if isinstance(result, Exception) else work.check(result)
        if found:
            problems[i] = found
    return problems


class Reference:
    """A fixed mix of interpreter, small-LAPACK, in-cache array and
    beyond-L2 memory work that does not touch the package, timed before the
    first study and after each one. Dividing a study's wall time by the mean
    of the reference times on either side of it cancels the host's speed
    drift. Its two 2 MB blocks add a constant 4 MB to peak memory."""

    def __init__(self):
        m = np.random.default_rng(0).standard_normal((48, 48))
        self.small = m + m.T
        self.vector = np.arange(16_384, dtype=float)
        self.block = np.ones(1 << 18)
        self.copy = np.empty_like(self.block)

    def __call__(self):
        start = time.perf_counter()
        total = 0
        for i in range(1_200_000):
            total += i
        for _ in range(240):
            total += float(np.linalg.eigh(self.small)[0][0])
        for _ in range(1_600):
            total += float(np.sqrt(self.vector).sum())
        for _ in range(300):
            np.copyto(self.copy, self.block)
            total += float(self.copy.sum())
        return time.perf_counter() - start


def measure(work, seconds, tracer=None):
    """Run studies back to back until the next one would end after
    ``seconds``. With a tracer, odd-numbered studies are traced, so study 0
    runs untraced while the package's lazy caches fill, and at least one study
    of each kind runs. Returns each study's wall time, its wall time relative
    to the reference kernel, and its result."""
    reference = Reference()
    refs, times, results = [reference()], [], []
    start = time.perf_counter()
    while (len(times) < (2 if tracer else 1) or time.perf_counter() - start
           + statistics.median(times) + refs[-1] <= seconds):
        study = len(results)
        if tracer and study % 2:
            with tracer.installed(study):
                elapsed, result = run_study(work)
                if hasattr(work, "output_bytes"):
                    tracer.count("cli.output.bytes", work.output_bytes())
        else:
            elapsed, result = run_study(work)
        times.append(elapsed)
        results.append(result)
        refs.append(reference())
    rel = [t / ((before + after) / 2) for t, before, after in zip(times, refs, refs[1:])]
    return times, rel, results


def untraced_run(args, workdir, studies):
    setup_times, setup_rel = time_setups(args.workload, args.seed)
    work = studies.build(args.workload, args.seed, workdir, ROOT)
    times, rel, results = measure(work, args.seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics = {"setup_s": (statistics.median(setup_rel) * KERNEL_S, "s"),
               "study_rel_p50": (statistics.median(rel), "ref"),
               "peak_rss_mb": (peak_mb, "MB")}
    notes = {"setup_s": f"median of {len(setup_times)} fresh processes; wall time "
                        f"p50 {statistics.median(setup_times):.4g} s",
             "study_rel_p50": f"median of {len(times)} studies; wall time p50 "
                              f"{statistics.median(times):.4g} s, min {min(times):.4g} s"}
    return metrics, notes, check_all(work, results), len(results)


def traced_run(args, workdir, studies):
    from tracing import COUNTS, Tracer

    tracer = Tracer()
    with tracer.installed("setup"):
        work = studies.build(args.workload, args.seed, workdir, ROOT)
    times, _, results = measure(work, args.seconds, tracer)
    layers = tracer.layer_metrics("setup", range(1, len(results), 2))
    tracer.dump(workdir.parent / f"trace-{args.workload}-seed{args.seed}.json")
    traced, untraced = times[1::2], times[0::2]
    metrics = {key: (value, unit_of(key, COUNTS)) for key, value in layers.items()}
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(untraced), "s")
    notes = {"trace.overhead_s": f"{len(traced)} traced, {len(untraced)} untraced studies"}
    return metrics, notes, check_all(work, results), len(results)


def unit_of(key, counts):
    if key.endswith(".bytes"):
        return "B"
    if key in counts:
        return "count"
    return "ns" if "ns_per_" in key else "s"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    sys.path.insert(0, str(BENCH))
    import studies

    if args.workload not in studies.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(studies.WORKLOADS)}")
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = traced_run if args.trace else untraced_run
        metrics, notes, problems, attempted = run(args, workdir, studies)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for study, found in sorted(problems.items()):
        for problem in found:
            print(f"study {study} FAILED: {problem}", file=sys.stderr)
    print("facts: " + json.dumps(machine_facts(args.seed)))
    for key, (value, unit) in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"{key} = {value:.6g} {unit}{note}")
    print(f"ops_failed_frac = {len(problems) / attempted:.6g}  "
          f"({len(problems)} of {attempted} studies failed)")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": len(problems),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
