import ast
import dataclasses
import importlib
import importlib.util
import inspect
import os
import re
import sys
import tempfile
import types

import pytest

import heatlab
from heatlab import bounds, cli, measures, spectral


@pytest.mark.parametrize("module", ["measures", "spectral", "bounds"])
def test_every_exported_name_resolves(module):
    # bench/tracer.py looks each name of __all__ up in the module's namespace
    mod = importlib.import_module(f"heatlab.{module}")
    missing = [name for name in mod.__all__ if name not in vars(mod)]
    assert not missing, missing


def test_package_publishes_each_module_export():
    # heatlab's public names are the __all__ of its library modules, the four
    # error classes and its submodules, each the module's own object, and
    # nothing else; __version__ besides
    lists = [(mod, mod.__all__) for mod in (measures, spectral, bounds)]
    exported = {name: mod for mod, names in lists for name in names}
    assert len(exported) == sum(len(names) for _, names in lists)  # no name in two lists
    errors = {"CalibrationError", "ConfigError", "IntegrabilityError", "NumericError"}
    public = {name for name in dir(heatlab) if not name.startswith("_")}
    submodules = {name for name in public if isinstance(getattr(heatlab, name), types.ModuleType)}
    assert public - submodules == set(exported) | errors
    for name in submodules:
        assert getattr(heatlab, name) is sys.modules.get(f"heatlab.{name}"), name
    for name, mod in exported.items():
        assert getattr(heatlab, name) is getattr(mod, name), name
    for name in errors:
        assert getattr(heatlab, name) is getattr(heatlab.errors, name), name
    assert isinstance(heatlab.__version__, str)


#: The library functions no golden CLI case reaches, each with what keeps
#: it in ``src/`` (ROADMAP item 17).  The list may shrink, never grow.
LIBRARY_ONLY = {
    "measures.universal_weight": "verify with weight = universal, which no golden case runs (item 16)",
    "measures.unit_weight": "the plain Nash setting V = 1 (item 5)",
    "measures.mehler_weight": "the OU contraction oracle's weight",
    "measures.tail_mass": "the acceptance check of suggest_radius",
    "spectral.chapman_kolmogorov_residual": "acceptance 3 (item 6)",
    "spectral.stochasticity_defect": "acceptance 3 (item 6)",
    "spectral.ground_state_transform_residual": "acceptance 9 (item 6)",
    "spectral.gaussian_bump_family": "how the tests build a stack of bumps",
}
LIBRARY_ONLY_MAX = 8


def _golden_reach() -> set:
    """The code objects called while every ``test_golden.CASES`` case runs."""
    path = os.path.join(os.path.dirname(__file__), "test_golden.py")
    spec = importlib.util.spec_from_file_location("golden_cases", path)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    with tempfile.TemporaryDirectory() as work:
        sys.setprofile(profile)
        try:
            for i, case in enumerate(golden.CASES):
                os.mkdir(os.path.join(work, str(i)))
                golden.run_case(case, os.path.join(work, str(i)))
        finally:
            sys.setprofile(None)
    return reached


def test_every_library_function_is_reached_or_listed():
    # src/ holds what a run reaches: each function a library module exports
    # is called by some golden case, or is listed with the reason it stays
    reached = _golden_reach()
    functions = {f"{mod.__name__.rsplit('.', 1)[1]}.{name}": vars(mod)[name]
                 for mod in (measures, spectral, bounds) for name in mod.__all__
                 if inspect.isfunction(vars(mod)[name])}
    unreached = {name for name, fn in functions.items() if fn.__code__ not in reached}
    assert unreached == set(LIBRARY_ONLY), (sorted(unreached - set(LIBRARY_ONLY)),
                                            sorted(set(LIBRARY_ONLY) - unreached))
    assert len(LIBRARY_ONLY) <= LIBRARY_ONLY_MAX


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


def _module_trees():
    """(file name, parsed module) for each module of the package."""
    src = os.path.dirname(heatlab.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read())


def test_every_parameter_is_read():
    unread = [(name, *hit) for name, tree in _module_trees() for hit in _unread_parameters(tree)]
    assert not unread, unread


def test_unread_parameter_is_found():
    tree = ast.parse("def f(a, b, *c, d=1, **e):\n    return a + (lambda x: d)(0)\n")
    assert sorted(p for _, _, p in _unread_parameters(tree)) == ["b", "c", "e", "x"]


#: The surface counts ROADMAP aim 2 tracks, as they stand: a change may
#: lower one, and then lowers it here and in ROADMAP, but not raise it.
SURFACE_MAX = {"config keys": 16, "defaulted parameters": 16, "dataclass defaults": 0}


def _names_dataclass(node):
    return getattr(node, "attr", getattr(node, "id", None)) == "dataclass"


def _defaults(trees):
    """(defaulted function parameters, dataclass field defaults outside
    ``ExperimentConfig``) over the parsed modules ``trees``."""
    params = fields = 0
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                params += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and node.name != "ExperimentConfig" and any(
                    _names_dataclass(d.func if isinstance(d, ast.Call) else d) for d in node.decorator_list):
                fields += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return params, fields


def test_surface_counts_do_not_rise():
    params, fields = _defaults(tree for _, tree in _module_trees())
    counts = {"config keys": len(dataclasses.fields(cli.ExperimentConfig)),
              "defaulted parameters": params, "dataclass defaults": fields}
    assert all(counts[key] <= most for key, most in SURFACE_MAX.items()), counts


def test_surface_defaults_are_found():
    tree = ast.parse("def f(a, b=1, *c, d=2, e):\n    return lambda x=3: x\n"
                     "@dataclasses.dataclass(frozen=True)\nclass A:\n    x: int = 0\n    y: int\n"
                     "@dataclass\nclass ExperimentConfig:\n    z: int = 0\n"
                     "class B:\n    w: int = 0\n")
    assert _defaults([tree]) == (3, 1)


def test_benchmark_tracer_hooks_resolve(tmp_path, monkeypatch):
    # bench/tracer.py replaces library and cli names by hand; a renamed hook
    # would break the benchmark without failing any other test here
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    tracer = importlib.import_module("tracer")
    owners = [measures, spectral, bounds, cli, bounds.KProfile, cli.ExperimentConfig, cli.ReportRecord]
    before = [dict(vars(owner)) for owner in owners] + [dict(cli._RUNNERS)]
    (tmp_path / "converse.txt").write_text("rate = classical\n")
    (tmp_path / "scan.txt").write_text("n_points = 200\n")
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


def test_readme_config_table_lists_every_key_with_its_default():
    # one row per ExperimentConfig field, in field order; each default, set
    # as a config value, gives the default config
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    table = text[text.index("| key | default | read by | meaning |"):].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \|", table, re.M)
    assert [key for key, _ in rows] == [f.name for f in dataclasses.fields(cli.ExperimentConfig)]
    for key, default in rows:
        assert cli.ExperimentConfig.from_mapping({key: cli._parse_value(default)}) == cli.ExperimentConfig(), key


def test_readme_module_names_resolve():
    # every `spectral.NAME`, `bounds.NAME`, `measures.NAME` and `cli.NAME` the
    # README cites, private constants included, is still there by that name
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        names = re.findall(r"`(spectral|bounds|measures|cli)\.(\w+)", fh.read())
    modules = {"spectral": spectral, "bounds": bounds, "measures": measures, "cli": cli}
    assert names
    missing = [f"{module}.{name}" for module, name in names if not hasattr(modules[module], name)]
    assert not missing, missing


def test_readme_quick_start_runs():
    # the one python block of README.md, run as written, so the library
    # quick start follows every signature change
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_readme_config_example_parses(tmp_path):
    # the README's key = value example, read as a config file: a key it
    # sets that is retired or misspelt fails here
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    intro = "The config file is plain `key = value` lines (`#` comments allowed):\n\n```\n"
    example = text[text.index(intro) + len(intro):].split("```", 1)[0]
    (tmp_path / "cfg.txt").write_text(example)
    raw = cli.parse_config(str(tmp_path / "cfg.txt"))
    cfg = cli.ExperimentConfig.from_mapping(raw)  # a ConfigError names an unknown key
    # eight keys that give the default config in a fixed window
    assert len(raw) == 8 and cfg == cli.ExperimentConfig(radius=10.0)
