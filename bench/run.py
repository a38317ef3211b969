"""heatlab benchmark: one workload, one fresh process, a closed loop.

Run from the root of a source checkout:

    python3 bench/run.py --workload kernel-n800 --seed 0 --seconds 30 --trace 0

The workloads are defined in ``bench/workloads.py`` and listed with their
metrics in ``BENCHMARK.json``.  Each scenario is one call of the public CLI
entry point ``heatlab.cli.main`` with a generated config file and seed.
Scenarios run one at a time, in whole passes over the workload's scenario
list: at least two passes, and as many as end nearest to ``--seconds``.

A scenario fails when ``main`` returns nonzero (or raises), when a check in
its JSON report has ``pass: false``, or when its output bytes differ from
its first repetition.  ``correct`` is false when any failure is not one of
the documented ``workloads.KNOWN_DEFECTS``, or the Mehler oracle misses.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of
``bench/tracer.py``; ``trace_overhead_s`` is the traced minus the untraced
mean scenario time.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--size tiny`` quarters the grids; ``bench/selftest.py`` uses it.
"""

import time

# setup_s counts from here: the imports below are part of the set-up
_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_build")

SETUP_SAMPLES = 3  # this process plus two fresh probe processes
PROBE_TIMEOUT_S = 120
ORACLE_TOLERANCE = 1e-2  # the tolerance of run_kernel's mehler_match check


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> int:
    """Pin BLAS/OpenMP threads to nproc before numpy is imported."""
    n = _nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def _blas_record() -> list:
    """Name, configuration and thread count of each loaded OpenBLAS."""
    import ctypes
    import glob

    import numpy
    import scipy

    out = []
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            lib = ctypes.CDLL(path)
            entry = {"package": pkg.__name__, "library": os.path.basename(path)}
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_threads.argtypes = []
                    get_config.restype = ctypes.c_char_p
                    get_config.argtypes = []
                    entry["threads"] = get_threads()
                    entry["config"] = get_config().decode()
                    break
            out.append(entry)
    if not out:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out.append({"package": "numpy", "library": blas.get("name"), "threads": "unknown"})
    return out


def import_heatlab():
    """Import heatlab.cli from this checkout's source tree, not from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "heatlab", "cli.py")):
        raise SystemExit(f"bench: no heatlab source tree at {SRC}")
    sys.path.insert(0, SRC)
    import heatlab.cli as cli

    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(SRC, "heatlab"):
        raise SystemExit(f"bench: imported heatlab from {cli.__file__}, not from {SRC}")
    return cli


def write_inputs(scenarios, workdir) -> dict:
    """Config file of each scenario; returns {scenario id: path}."""
    cfg_dir = os.path.join(workdir, "configs")
    os.makedirs(cfg_dir, exist_ok=True)
    paths = {}
    for sc in scenarios:
        path = os.path.join(cfg_dir, sc.id + ".txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(sc.config_text())
        paths[sc.id] = path
    return paths


def setup_probe(args) -> float:
    """Time a fresh process to import heatlab.cli and generate the inputs."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


@dataclass
class Attempt:
    scenario: workloads.Scenario
    wall: float
    traced: bool
    reason: str | None  # None when the scenario passed
    digest: str
    bytes_out: int
    report: dict | None


def run_scenario(cli, sc, cfg_path, out_dir, traced=False) -> Attempt:
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [sc.command, "--config", cfg_path, "--out", out_dir, "--seed", str(sc.seed), "--quiet"]
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a crash is a failed scenario, not a failed benchmark
        traceback.print_exc()
        rc = "exception"
    wall = time.perf_counter() - start

    digest = hashlib.sha256()
    bytes_out = 0
    report = None
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                data = fh.read()
            digest.update(name.encode() + b"\0" + data)
            bytes_out += len(data)
            if name.endswith("_report.json"):
                report = json.loads(data)
    reason = None
    if rc != 0:
        reason = f"exit {rc}"
    elif report is None:
        reason = "no report written"
    else:
        failed = sorted(k for k, v in report["checks"].items() if not v.get("pass", True))
        if failed:
            reason = "checks failed: " + ", ".join(failed)
    return Attempt(sc, wall, traced, reason, digest.hexdigest(), bytes_out, report)


def run_loop(cli, scenarios, cfg_paths, workdir, seconds, tracer=None):
    """Whole passes for about `seconds`, at least two; with a tracer, odd passes are traced."""
    attempts = []
    first = {}
    passes = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and passes % 2 == 1
        if traced:
            tracer.install()
        try:
            for sc in scenarios:
                if traced:
                    tracer.begin_scenario(sc.smallest_time)
                att = run_scenario(cli, sc, cfg_paths[sc.id], os.path.join(workdir, "out", sc.id), traced)
                if traced:
                    tracer.end_scenario()
                ref = first.setdefault(sc.id, att)
                if att.reason is None and att.digest != ref.digest:
                    att.reason = "output bytes differ from the first repetition"
                attempts.append(att)
        finally:
            if traced:
                tracer.remove()
        passes += 1
        elapsed = time.perf_counter() - start
        # stop once another step (a pass; a pass pair when tracing) would
        # end more than half a step late
        step = 1 if tracer is None else 2
        late = elapsed + 0.5 * step * elapsed / passes >= seconds
        if passes >= 2 and passes % step == 0 and late:
            return attempts, passes, elapsed


def tail(values):
    """Highest order statistic with min(10, (n-1)//2) samples above it."""
    s = sorted(values)
    beyond = min(10, (len(s) - 1) // 2)
    return s[len(s) - 1 - beyond], beyond


def oracle_error(cli, attempts, workdir):
    """mehler_max_rel_dev of the OU standard-time kernel, and whether it passed."""
    oracle = workloads.oracle_scenario()
    att = next((a for a in attempts if a.scenario.id == oracle.id), None)
    if att is None:
        paths = write_inputs([oracle], os.path.join(workdir, "oracle"))
        att = run_scenario(cli, oracle, paths[oracle.id], os.path.join(workdir, "oracle", "out"))
    if att.report is None:
        return float("inf"), False
    err = float(att.report["results"]["mehler_max_rel_dev"])
    return err, att.reason is None and err < ORACLE_TOLERANCE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="heatlab benchmark (see BENCHMARK.json)")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    threads = cap_blas_threads()
    cli = import_heatlab()
    scenarios = workloads.generate(args.workload, args.seed, tiny=args.size == "tiny")
    workdir = os.path.join(WORK_ROOT, f"heatlab-bench-{os.getpid()}")
    try:
        cfg_paths = write_inputs(scenarios, workdir)
        own_setup = time.perf_counter() - _START
        if args.setup_probe:
            print(repr(own_setup))
            return 0
        return measure(args, cli, scenarios, cfg_paths, workdir, own_setup, threads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, cli, scenarios, cfg_paths, workdir, own_setup, threads) -> int:
    import numpy
    import scipy

    setup = [own_setup] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_record(),
        "blas_threads_set": threads,
        "nproc": _nproc(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seeds": [sc.seed for sc in scenarios],
    }
    print("env " + json.dumps(env, sort_keys=True))

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    attempts, passes, elapsed = run_loop(cli, scenarios, cfg_paths, workdir, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = [a for a in attempts if a.reason is not None]
    unexpected = [a for a in failures
                  if not (a.scenario.id in workloads.KNOWN_DEFECTS and a.reason.startswith("checks failed"))]
    print(f"{args.workload}: {len(scenarios)} scenarios x {passes} passes = {len(attempts)} attempts "
          f"in {elapsed:.2f} s, {len(failures)} failed")
    for sid in sorted({a.scenario.id for a in failures}):
        reasons = sorted({a.reason for a in failures if a.scenario.id == sid})
        note = workloads.KNOWN_DEFECTS.get(sid)
        print(f"  failed {sid}: {'; '.join(reasons)}" + (f" [known defect: {note}]" if note else ""))
    for sc in scenarios:
        walls = ", ".join(f"{a.wall:.3f}{'t' if a.traced else ''}" for a in attempts if a.scenario is sc)
        print(f"  {sc.id}: {walls} s")

    if tracer is None:
        walls = [a.wall for a in attempts]
        tail_value, beyond = tail(walls)
        oracle_err, oracle_ok = oracle_error(cli, attempts, workdir)
        metrics = {
            "scenarios_per_s": ((len(attempts) - len(failures)) / elapsed, "1/s"),
            "scenario_s.p50": (statistics.median(walls), "s"),
            "scenario_s.tail": (tail_value, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "pass_frac": ((len(attempts) - len(failures)) / len(attempts), "frac"),
            "oracle_rel_err": (oracle_err, "rel"),
        }
        notes = {
            "scenario_s.tail": f"n={len(walls)} samples, {beyond} beyond",
            "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setup),
            "pass_frac": f"fail_frac = {len(failures)}/{len(attempts)}",
            "oracle_rel_err": f"mehler_max_rel_dev, OU kernel n={workloads.ORACLE_N}"
                              + ("" if oracle_ok else ", ORACLE FAILED"),
        }
    else:
        oracle_ok = True
        traced = [a.wall for a in attempts if a.traced]
        untraced = [a.wall for a in attempts if not a.traced]
        metrics = tracer.metrics()
        metrics["cli.bytes_out"] = (statistics.fmean(a.bytes_out for a in attempts if a.traced), "B")
        metrics["trace_overhead_s"] = (statistics.fmean(traced) - statistics.fmean(untraced), "s")
        layer = tracer.layer_self_s()
        total = sum(layer.values()) or 1.0
        print("layer self-time shares: "
              + ", ".join(f"{k} {100 * v / total:.1f}%" for k, v in layer.items()))
        for line in tracer.table():
            print("  " + line)
        notes = {
            "spectral.kernel_matrix_gflops": "computed from 2n^3 flops per call",
            "spectral.apply_semigroup_gbs": "computed from 2*8n^2 bytes per call",
            "trace_overhead_s": f"mean over {len(traced)} traced minus {len(untraced)} untraced scenarios",
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else ""))

    correct = not unexpected and oracle_ok
    result = {
        "correct": correct,
        "attempted": len(attempts),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
