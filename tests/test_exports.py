import ast
import importlib
import os
import sys

import pytest

import heatlab
from heatlab import bounds, cli, measures, spectral


@pytest.mark.parametrize("module", ["measures", "spectral", "bounds"])
def test_every_exported_name_resolves(module):
    # bench/tracer.py looks each name of __all__ up in the module's namespace
    mod = importlib.import_module(f"heatlab.{module}")
    missing = [name for name in mod.__all__ if name not in vars(mod)]
    assert not missing, missing


def test_every_package_import_resolves():
    path = os.path.join(os.path.dirname(heatlab.__file__), "__init__.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"heatlab.{node.module}")
        for alias in node.names:
            assert hasattr(mod, alias.name), (node.module, alias.name)
            assert getattr(heatlab, alias.asname or alias.name) is getattr(mod, alias.name)


def _unread_parameters(tree):
    """(function, line, parameter) for each parameter its body never reads;
    nested functions and lambdas count as the body reading it."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [p for p in (args.vararg, args.kwarg) if p is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            for p in params:
                if p.arg not in read:
                    yield getattr(node, "name", "<lambda>"), node.lineno, p.arg


def test_every_parameter_is_read():
    src = os.path.dirname(heatlab.__file__)
    unread = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            unread += [(name, *hit) for hit in _unread_parameters(tree)]
    assert not unread, unread


def test_unread_parameter_is_found():
    tree = ast.parse("def f(a, b, *c, d=1, **e):\n    return a + (lambda x: d)(0)\n")
    assert sorted(p for _, _, p in _unread_parameters(tree)) == ["b", "c", "e", "x"]


def test_benchmark_tracer_hooks_resolve(tmp_path, monkeypatch):
    # bench/tracer.py replaces library and cli names by hand; a renamed hook
    # would break the benchmark without failing any other test here
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    tracer = importlib.import_module("tracer")
    owners = [measures, spectral, bounds, cli, bounds.KProfile, cli.ExperimentConfig, cli.ReportRecord]
    before = [dict(vars(owner)) for owner in owners] + [dict(cli._RUNNERS)]
    (tmp_path / "converse.txt").write_text("rate = classical\n")
    (tmp_path / "scan.txt").write_text("n_points = 200\ntrain_size = 20\n")
    tr = tracer.Tracer()
    try:
        tr.install()
        for command, cfg in (("converse", "converse.txt"), ("nash-scan", "scan.txt")):
            argv = [command, "--config", str(tmp_path / cfg), "--out", str(tmp_path / command), "--quiet"]
            assert cli.main(argv) == 0
    finally:
        tr.remove()
    for span in ("cli.run_nash_scan", "bounds.empirical_rate", "bounds.nash_quotients",
                 "bounds.KProfile.evaluate"):
        assert tr.stats.get(span, [0])[0] > 0, span
    after = [dict(vars(owner)) for owner in owners] + [dict(cli._RUNNERS)]
    for old, new in zip(before, after):
        assert all(new.get(key) is value for key, value in old.items())
