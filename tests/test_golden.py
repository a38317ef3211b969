"""Golden CLI outputs: every subcommand on three configs, byte for byte.

Each case runs ``heatlab <command> --seed 7 --quiet`` and compares every
output file, plus a ``status.txt`` holding the exit code and the stderr
text, against the files stored under ``tests/golden/<case>/``.

Regenerate the goldens (only after a deliberate numeric change, which
CHANGES.md must then name) with

    PYTHONPATH=src python tests/test_golden.py

which prints the golden files whose bytes changed.
"""

import contextlib
import glob
import io
import json
import os
import shutil
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
    assert "converse/status.txt" in capsys.readouterr().err


def write_goldens(golden_dir: str = GOLDEN_DIR, cases=CASES) -> list[str]:
    """Rewrite ``golden_dir`` from the current code; return (and print) the
    ``case/file`` paths whose bytes changed, appeared or disappeared."""
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
    changed = []
    for case in sorted(set(old) | set(new)):
        before, after = old.get(case, {}), new.get(case, {})
        changed += [f"{case}/{name}" for name in sorted(set(before) | set(after))
                    if before.get(name) != after.get(name)]
    print(f"{len(changed)} of the golden files changed:", *changed, sep="\n  ", file=sys.stderr)
    return changed


if __name__ == "__main__":
    write_goldens()
