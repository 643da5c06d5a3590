"""Names that code outside the package relies on.

The README's library example must run against the current API, the README
must name every public name, and every function that ``perfbench/tracer.py``
wraps must still exist: a deleted or renamed one would drop its layer from
the benchmark's per-layer report.  The benchmark's commands, run small under
that tracer, must call every layer its workload expects: one that a command
bypasses fails a traced benchmark run.  The tracer's counters read some call
arguments by position, or by name when they are passed as keywords; those
parameters must stay where they are.  The engine imports only the
standard library, numpy and its own modules, and reads no environment
variable: a run is a function of its config and flags.  Importing the CLI
loads no module that only some commands run, but does load every module
whose entry point the benchmark wraps right after that import.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_readme_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    cheap, exact, ratio = map(float, capsys.readouterr().out.split())
    assert cheap > 0.0 and exact > 0.0 and ratio == 1 / 100


def test_readme_names_every_public_name():
    import steinlab

    readme = (ROOT / "README.md").read_text()
    missing = [name for name in steinlab.__all__
               if not re.search(rf"\b{re.escape(name)}\b", readme)]
    assert not missing, f"README.md does not name {missing}"


def test_traced_functions_exist(monkeypatch):
    # The module is only read: no bytecode is written next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(module, attribute) for module, attribute, _ in tracer.LAYER_FUNCTIONS]
    names += list(tracer.COMPUTE_ENTRY_POINTS)
    assert names
    for module, attribute in names:
        owner = importlib.import_module(f"steinlab.{module}")
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"steinlab.{module}.{attribute}"


@pytest.fixture
def perfbench(monkeypatch):
    """``perfbench/run.py`` and its ``inputs`` and ``tracer`` modules, loaded
    read-only (no bytecode is written next to them); they leave
    ``sys.modules`` and ``sys.path`` afterwards."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    folder = ROOT / "perfbench"
    monkeypatch.syspath_prepend(str(folder))
    spec = importlib.util.spec_from_file_location("perfbench_run", folder / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    yield run, sys.modules["inputs"], sys.modules["tracer"]
    for name, module in list(sys.modules.items()):
        if Path(getattr(module, "__file__", None) or "").parent == folder:
            del sys.modules[name]


def _restore_traced_bindings(monkeypatch, tracer):
    """Have ``monkeypatch`` put back every binding that the tracer's install
    replaces: each layer function's module bindings and class attributes."""
    originals = []
    for module, attribute, _ in tracer.LAYER_FUNCTIONS:
        owner = importlib.import_module(f"steinlab.{module}")
        *class_path, name = attribute.split(".")
        for part in class_path:
            owner = getattr(owner, part)
        if class_path:
            monkeypatch.setattr(owner, name, vars(owner)[name])
        else:
            originals.append(getattr(owner, name))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "steinlab" or mod_name.startswith("steinlab."):
            for key, value in list(vars(mod).items()):
                if any(value is original for original in originals):
                    monkeypatch.setattr(mod, key, value)


@pytest.mark.parametrize("workload", ["ssvgd-n50", "tune-gmm"])
def test_benchmark_commands_call_every_expected_layer(perfbench, monkeypatch,
                                                      tmp_path, workload):
    # The workload's own config at a small size, traced as a benchmark run
    # traces it; every span the benchmark expects needs at least one call.
    from steinlab import cli

    run, inputs, tracer = perfbench
    bench = run.WORKLOADS[workload]
    if workload == "ssvgd-n50":
        text = inputs.ssvgd_config(7, rounds=inputs.SSVGD_CHECKPOINT_EVERY)
    else:
        text = inputs.tune_config(7, trials=1, chain_steps=20)
    config = tmp_path / "config.ini"
    config.write_text(text)
    _restore_traced_bindings(monkeypatch, tracer)
    traced = tracer.Tracer()
    traced.install()
    code = cli.main([bench.command, "--config", str(config),
                     "--out", str(tmp_path / bench.out), "--threads", str(bench.threads)])
    assert code == 0
    report = traced.report()
    missing = report["missing"] + [
        name for name in bench.expected_spans
        if report["spans"].get(name, {}).get("calls", 0) == 0
    ]
    assert not missing, f"{workload} calls no {sorted(set(missing))}"


def test_cli_import_loads_what_every_command_runs(perfbench):
    # In a fresh interpreter: the thread pool (which brings logging) and
    # statistics are never run by score, and the first-call stamp that
    # perfbench installs after this import wraps the entry points in place.
    _, _, tracer = perfbench
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    code = "import sys, steinlab.cli; print(*sorted(sys.modules))"
    loaded = set(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                capture_output=True, text=True).stdout.split())
    assert not loaded & {"concurrent.futures", "logging", "statistics"}
    stamped = {f"steinlab.{module}" for module, _ in tracer.COMPUTE_ENTRY_POINTS}
    assert {"steinlab.samplers", "steinlab.svgd"} <= stamped <= loaded


def test_counted_arguments_keep_their_places():
    from steinlab import discrepancy, io, models, samplers, svgd

    target = models.DecomposableTarget
    counted = [(getattr(io, name), 0, "path")
               for name in ("write_json", "write_samples_csv", "write_jsonl",
                            "write_table_csv")]
    counted += [
        (discrepancy.coord_stein_sums, 0, "batch"),
        (samplers.sgld_chain, 1, "config"),
        (svgd.run_ssvgd, 2, "config"),
        (target.grad_log_subset, 1, "sigma"),  # position 0 is self
        (target.grad_log_terms, 1, "indices"),
    ]
    for fn, position, name in counted:
        params = list(inspect.signature(fn).parameters.values())
        assert params[position].name == name, (fn.__qualname__, position, name)
        assert params[position].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


def test_engine_imports_only_stdlib_and_numpy():
    outside = []
    for path in sorted((ROOT / "src" / "steinlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one of the package
            outside += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.split(".")[0] not in {*sys.stdlib_module_names, "numpy"}]
    assert not outside, outside


def test_engine_reads_no_environment():
    names = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}
    found = []
    for path in sorted((ROOT / "src" / "steinlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.ImportFrom):
                name = next((a.name for a in node.names if a.name in names), None)
            else:
                continue
            if name in names:
                found.append(f"{path.name}:{node.lineno}: {name}")
    assert not found, found
