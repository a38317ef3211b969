"""Golden CLI outputs: every subcommand on three configs, byte for byte.

Each case runs ``heatlab <command> --seed 7 --quiet`` and compares every
output file, plus a ``status.txt`` holding the exit code and the stderr
text, against the files stored under ``tests/golden/<case>/``.

Regenerate the goldens (only after a deliberate numeric change, which
CHANGES.md must then name) with

    PYTHONPATH=src python tests/test_golden.py

which prints the golden files whose bytes changed and how far they
drifted: the largest absolute and relative change of each CSV column and
JSON number, and that absolute change over the column's or the number's
largest magnitude; and every other token that changed (a ``pass`` flag, a
count, a tolerance, a string, a row or a file), marked ``CHANGED``.
"""

import contextlib
import glob
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

from heatlab import cli

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SEED = 7

CONFIGS = {
    "default": "",
    "ou": "family = ou\n",
    "cauchy": "family = cauchy\nweight = universal\n",
}
COMMANDS = ("spectrum", "kernel", "verify", "converse", "nash-scan", "trace")

# case name -> (command, config text)
CASES = {f"{name}-{command}": (command, text)
         for name, text in CONFIGS.items() for command in COMMANDS}
CASES["default-verify-n3200"] = ("verify", "n_points = 3200\n")
CASES["default-converse-classical"] = ("converse", "rate = classical\n")
CASES["default-converse-log"] = ("converse", "rate = log\n")
# the full eigensolve: sweep-mixed's largest (with its known failing
# mehler_match at t = 1e-3) and an odd grid's center row
CASES["ou-kernel-small"] = ("kernel", "family = ou\nn_points = 1600\ntimes = 0.001, 0.01, 0.1\n")
CASES["default-spectrum-n801"] = ("spectrum", "n_points = 801\n")


def run_case(case: str, work_dir: str, cases=CASES) -> dict:
    """{file name: bytes} of one case's outputs, plus ``status.txt``."""
    command, text = cases[case]
    config = os.path.join(work_dir, "config.txt")
    out = os.path.join(work_dir, "out")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", config, "--out", out, "--seed", str(SEED), "--quiet"])
    files = {"status.txt": f"exit {code}\n{err.getvalue()}".encode()}
    if os.path.isdir(out):
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = fh.read()
    return files


def read_golden(case: str, golden_dir: str = GOLDEN_DIR) -> dict:
    directory = os.path.join(golden_dir, case)
    files = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            files[name] = fh.read()
    return files


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_outputs(case, tmp_path):
    got = run_case(case, str(tmp_path))
    want = read_golden(case)
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], f"{case}/{name} differs from its golden"


def test_golden_output_on_the_plain_scipy_import(tmp_path):
    # no extension suffix matches, so heatlab's LAPACK and BLAS loader finds
    # no file and takes scipy.linalg's own modules by the plain import, which
    # leaves them as attributes of scipy.linalg; the default spectrum is
    # unchanged
    code = """import importlib.machinery, sys
importlib.machinery.EXTENSION_SUFFIXES = []
from heatlab import cli, spectral
import scipy.linalg
print(spectral._flapack is scipy.linalg._flapack, cli.dsyrk is scipy.linalg._fblas.dsyrk)
sys.exit(cli.main(sys.argv[1:]))"""
    config, out = tmp_path / "config.txt", tmp_path / "out"
    config.write_text(CONFIGS["default"])
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    args = ["spectrum", "--config", str(config), "--out", str(out), "--seed", str(SEED), "--quiet"]
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)
    assert done.stdout == "True True\n"
    got = {"status.txt": f"exit {done.returncode}\n{done.stderr}".encode()}
    got.update((path.name, path.read_bytes()) for path in out.iterdir())
    assert got == read_golden("default-spectrum")


def test_golden_checks_follow_their_rule():
    # a domination check passes exactly when no slack is below -tolerance
    paths = sorted(glob.glob(os.path.join(GOLDEN_DIR, "*", "*_report.json")))
    assert paths
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            checks = json.load(fh)["checks"]
        for name, chk in checks.items():
            assert "pass" in chk and "tolerance" in chk, (path, name)
            if "min_slack" in chk:
                slack_ok = float(chk["min_slack"]) >= -chk["tolerance"]
                assert chk["pass"] == (chk["violations"] == 0) == slack_ok, (path, name)


def test_write_goldens_names_changed_files(tmp_path, capsys):
    golden_dir = str(tmp_path / "golden")
    cases = {"converse": CASES["default-converse-classical"]}
    assert write_goldens(golden_dir, cases) == ["converse/converse_phi.csv", "converse/converse_report.json",
                                                "converse/status.txt"]
    assert write_goldens(golden_dir, cases) == []
    with open(os.path.join(golden_dir, "converse", "status.txt"), "ab") as fh:
        fh.write(b"stale\n")
    os.makedirs(os.path.join(golden_dir, "gone"))
    open(os.path.join(golden_dir, "gone", "x.csv"), "wb").close()
    assert write_goldens(golden_dir, cases) == ["converse/status.txt", "gone/x.csv"]
    err = capsys.readouterr().err
    assert "converse/status.txt\n      CHANGED status.txt" in err
    assert "gone/x.csv\n      CHANGED: file removed" in err

    # numbers get their drift; flags, counts, tolerances and strings a CHANGED line
    report = os.path.join(golden_dir, "converse", "converse_report.json")
    with open(report, encoding="utf-8") as fh:
        text = fh.read()
    for old, new in (('"pass": true', '"pass": false'), ('"tolerance": 1e-09', '"tolerance": 1e-08'),
                     ('"fitted_power": 3.0001069127529627', '"fitted_power": 3.0'),
                     ('"source": "k_profile(power)"', '"source": "power"')):
        text = text.replace(old, new)
    with open(report, "w", encoding="utf-8") as fh:
        fh.write(text)
    phi = os.path.join(golden_dir, "converse", "converse_phi.csv")
    with open(phi, encoding="utf-8") as fh:
        text = fh.read()
    with open(phi, "w", encoding="utf-8") as fh:
        fh.write(text.replace("1,0.18319208463584102", "1,0.18"))
    assert write_goldens(golden_dir, cases) == ["converse/converse_phi.csv", "converse/converse_report.json"]
    err = capsys.readouterr().err
    assert "      phi: max abs 0.00319, max rel 0.0177, max abs / scale 1.74e-05\n" in err and "x: max" not in err
    for line in ("CHANGED checks.quotient_monotone.pass: False -> True",
                 "CHANGED checks.quotient_monotone.tolerance: 1e-08 -> 1e-09",
                 "results.fitted_power: max abs 0.000107, max rel 3.56e-05, max abs / scale 3.56e-05",
                 "CHANGED inputs.source: 'power' -> 'k_profile(power)'"):
        assert f"      {line}\n" in err


def test_drift_flags_counts_rows_and_labels():
    before = b'{"checks": {"a": {"violations": 3, "min_slack": -1.0}}, "old": 1.0}'
    after = b'{"checks": {"a": {"violations": 4, "min_slack": -2.0}}, "new": 1.0}'
    assert drift("r.json", before, after) == [
        "CHANGED checks.a.violations: 3 -> 4",
        "checks.a.min_slack: max abs 1, max rel 1, max abs / scale 0.5",
        "CHANGED new: added",
        "CHANGED old: removed",
    ]
    assert drift("t.csv", b"t,p\n1,0.5\n2,inf\n", b"t,p\n1,0.5\n2,1e300\n") == ["CHANGED p: 'inf' -> '1e300'"]
    # a near-zero entry: relative to the column's largest magnitude the move
    # is tiny; and a float written like an integer ("4", "1") is a float
    assert drift("t.csv", b"t,p\n1,4\n2,1e-12\n", b"t,p\n1,4\n2,3e-12\n") == [
        "p: max abs 2e-12, max rel 2, max abs / scale 5e-13"]
    assert drift("t.csv", b"t,p\n1,1\n", b"t,p\n1,0.99999999999999989\n") == [
        "p: max abs 1.11e-16, max rel 1.11e-16, max abs / scale 1.11e-16"]
    assert drift("t.csv", b"t,p\n1,0.5\n", b"t,p\n1,0.5\n2,0.25\n") == [
        "CHANGED t: 1 -> 2 rows", "CHANGED p: 1 -> 2 rows"]


def _tokens(name: str, data: bytes) -> dict:
    """{label: token} of one golden file: a JSON file by the path of each
    leaf, a CSV file by column (label ``column``, token the list of its
    cells), any other file as one token."""
    if name.endswith(".json"):
        leaves = {}

        def walk(node, path):
            items = node.items() if isinstance(node, dict) else enumerate(node)
            for key, value in items:
                label = f"{path}.{key}" if isinstance(key, str) else f"{path}[{key}]"
                if isinstance(value, (dict, list)):
                    walk(value, label)
                else:
                    leaves[label.lstrip(".")] = value
        walk(json.loads(data), "")
        return leaves
    if name.endswith(".csv"):
        header, *rows = [line.split(",") for line in data.decode().splitlines()]
        return {col: [row[i] for row in rows] for i, col in enumerate(header)}
    return {name: data.decode()}


def _as_float(token):
    """A float token as a float; None for an exact token (a bool, a JSON
    integer, a string, a tolerance), whose change is flagged rather than
    measured.  Every numeric CSV cell is a float: ``%.17g`` writes a float
    that equals an integer as one."""
    if isinstance(token, float):
        return token
    if isinstance(token, str):
        try:
            return float(token)
        except ValueError:
            pass
    return None


def drift(name: str, before: bytes, after: bytes) -> list[str]:
    """One line per changed CSV column or JSON number, with its largest
    absolute and relative change and that absolute change over its scale,
    the largest finite magnitude in the column or number before or after (a
    relative change on a near-zero entry overstates a move that is tiny on
    that scale); and one ``CHANGED`` line per other token, row count or
    label that changed."""
    old, new = _tokens(name, before), _tokens(name, after)
    lines = []
    for label in list(new) + [label for label in old if label not in new]:
        a, b = old.get(label), new.get(label)
        if a == b:
            continue
        if label not in old or label not in new:
            lines.append(f"CHANGED {label}: " + ("added" if label in new else "removed"))
            continue
        if isinstance(a, list) and len(a) != len(b):
            lines.append(f"CHANGED {label}: {len(a)} -> {len(b)} rows")
            continue
        pairs = list(zip(a, b)) if isinstance(a, list) else [(a, b)]
        scale = max((abs(f) for pair in pairs for f in map(_as_float, pair)
                     if f is not None and math.isfinite(f)), default=0.0)
        worst_abs = worst_rel = 0.0
        for x, y in pairs:
            if x == y:
                continue
            fx, fy = _as_float(x), _as_float(y)
            if label.endswith("tolerance") or fx is None or fy is None \
                    or not (math.isfinite(fx) and math.isfinite(fy)):
                lines.append(f"CHANGED {label}: {x!r} -> {y!r}")
                break
            worst_abs = max(worst_abs, abs(fy - fx))
            worst_rel = max(worst_rel, abs(fy - fx) / abs(fx) if fx else math.inf)
        else:
            lines.append(f"{label}: max abs {worst_abs:.3g}, max rel {worst_rel:.3g}, "
                         f"max abs / scale {worst_abs / scale if scale else 0.0:.3g}")
    return lines


def write_goldens(golden_dir: str = GOLDEN_DIR, cases=CASES) -> list[str]:
    """Rewrite ``golden_dir`` from the current code; return the ``case/file``
    paths whose bytes changed, appeared or disappeared, and print them with
    their drift (see ``drift``)."""
    old = {}
    if os.path.isdir(golden_dir):
        old = {case: read_golden(case, golden_dir) for case in sorted(os.listdir(golden_dir))}
    shutil.rmtree(golden_dir, ignore_errors=True)
    new = {}
    for case in sorted(cases):
        with tempfile.TemporaryDirectory() as work_dir:
            new[case] = run_case(case, work_dir, cases)
        directory = os.path.join(golden_dir, case)
        os.makedirs(directory)
        for name, data in new[case].items():
            with open(os.path.join(directory, name), "wb") as fh:
                fh.write(data)
    changed, report = [], []
    for case in sorted(set(old) | set(new)):
        before, after = old.get(case, {}), new.get(case, {})
        for name in sorted(set(before) | set(after)):
            if before.get(name) == after.get(name):
                continue
            changed.append(f"{case}/{name}")
            report.append(f"{case}/{name}")
            if name in before and name in after:
                report += [f"    {line}" for line in drift(name, before[name], after[name])]
            else:
                report.append("    CHANGED: file " + ("added" if name in after else "removed"))
    print(f"{len(changed)} of the golden files changed:", *report, sep="\n  ", file=sys.stderr)
    return changed


if __name__ == "__main__":
    write_goldens()
