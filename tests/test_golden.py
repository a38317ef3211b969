"""Golden CLI outputs: every subcommand on three configs, byte for byte.

Each case runs ``heatlab <command> --seed 7 --quiet`` and compares every
output file, plus a ``status.txt`` holding the exit code and the stderr
text, against the files stored under ``tests/golden/<case>/``.

Regenerate the goldens (only after a deliberate numeric change, which
CHANGES.md must then name) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
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


def run_case(case: str, work_dir: str) -> dict:
    """{file name: bytes} of one case's outputs, plus ``status.txt``."""
    command, text = CASES[case]
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


def read_golden(case: str) -> dict:
    directory = os.path.join(GOLDEN_DIR, case)
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


def write_goldens() -> None:
    """Rewrite ``tests/golden/`` from the current code."""
    shutil.rmtree(GOLDEN_DIR, ignore_errors=True)
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as work_dir:
            files = run_case(case, work_dir)
        directory = os.path.join(GOLDEN_DIR, case)
        os.makedirs(directory)
        for name, data in files.items():
            with open(os.path.join(directory, name), "wb") as fh:
                fh.write(data)
        print(f"{case}: {', '.join(sorted(files))}", file=sys.stderr)


if __name__ == "__main__":
    write_goldens()
