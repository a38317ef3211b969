"""Self-test of the benchmark command.

Runs every workload of ``BENCHMARK.json`` at ``--size tiny``, untraced and
traced, and checks that the single benchmark command prints each metric the
file names, by name and with its unit, and ends with the one-line JSON
result.  It also checks that the command fails, without a result, in a copy
that holds only ``BENCHMARK.json`` and the benchmark's own files.

Run from the repository root:

    python3 bench/selftest.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 300


def check_run(spec, workload, trace) -> list[str]:
    cmd = spec["command"] + ["--workload", workload, "--seed", "0", "--seconds", "1",
                             "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not isinstance(result.get("correct"), bool):
        problems.append(f"{where}: correct is not a bool")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"{where}: attempted {result.get('attempted')!r}")
    if not (isinstance(result.get("failed"), int) and 0 <= result["failed"] <= result["attempted"]):
        problems.append(f"{where}: failed {result.get('failed')!r}")
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    names = {m["name"] for m in expected}
    if set(metrics) != names:
        problems.append(f"{where}: missing {sorted(names - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - names)}")
    text = "\n".join(lines[:-1])
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {got.get('unit')!r} != {m['unit']!r}")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{where}: {m['name']} value {value!r}")
        if f"{m['name']} = " not in text or f" {m['unit']}" not in text:
            problems.append(f"{where}: {m['name']} not printed with its unit")
    print(f"{where}: {'ok' if not problems else 'FAILED'} "
          f"(correct={result.get('correct')}, attempted={result.get('attempted')}, "
          f"failed={result.get('failed')})")
    return problems


def check_bare_copy(spec) -> list[str]:
    """The command must fail, printing no result, without the program's source."""
    bare = os.path.join(ROOT, ".bench_build", f"selftest-bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "0",
                                 "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=TIMEOUT_S)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    ok = proc.returncode != 0 and '"metrics"' not in proc.stdout
    print(f"copy without src/: {'ok' if ok else 'FAILED'} (exit {proc.returncode})")
    return [] if ok else [f"bare copy: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check_bare_copy(spec)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems += check_run(spec, workload["name"], trace)
    for p in problems:
        print("  " + p)
    print("selftest " + ("passed" if not problems else f"FAILED: {len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
