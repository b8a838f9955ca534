"""The names the benchmark's tracer wraps must exist in gcnn.

``perfbench/metrics.py`` lists the engine primitives and layer classes
whose time the tracer attributes; it looks each one up by name at run
time, so renaming or deleting one would only surface when the benchmark
runs.  ``perfbench/tracing.py`` wraps names in ``data``, ``spectral``,
``models``, ``training`` and ``cli``, so a run of the commands under it
shows that the data steps it times are still called through those
names.  The other way round, every function ``gcnn.tensor`` exports must
have a caller in the package, be exported by it or be timed by the
tracer.  Both files are loaded by file path, as the benchmark holds no
package.
"""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest
import yaml

import gcnn
from gcnn import cli
from gcnn import data as D
from gcnn import layers as L
from gcnn import models as M
from gcnn import spectral as S
from gcnn import synth
from gcnn import tensor as T
from gcnn import training as R

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_by_path(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MX = load_by_path("perfbench_metrics", BENCH / "metrics.py")


@pytest.mark.parametrize("name", MX.PRIMITIVES)
def test_every_traced_primitive_is_a_tensor_function(name):
    assert inspect.isfunction(getattr(T, name, None)), f"gcnn.tensor.{name} is not a function"


@pytest.mark.parametrize("name", MX.LAYER_CLASSES)
def test_every_traced_layer_class_defines_forward(name):
    cls = getattr(L, name, None)
    assert isinstance(cls, type) and issubclass(cls, L.Layer), f"gcnn.layers.{name} is not a Layer"
    assert "forward" in cls.__dict__, f"gcnn.layers.{name} does not define forward"


def namespaces() -> dict[str, dict]:
    """A copy of the names of every gcnn module the tracer patches, and of
    every class each one defines."""
    spaces = {}
    for module in (cli, D, L, M, S, T, R):
        spaces[module.__name__] = dict(vars(module))
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module.__name__:
                spaces[f"{module.__name__}.{name}"] = dict(vars(value))
    return spaces


def changed(before: dict[str, dict], after: dict[str, dict]) -> set[str]:
    return {f"{space}.{name}" for space, names in before.items() for name, value in names.items()
            if after[space].get(name) is not value}


def test_the_tracer_times_the_data_steps_and_restores_every_name(tmp_path, monkeypatch):
    """ingest and cluster, in process under the tracer's wrappers, record
    spans for the parse, gap repair and standardization, which the data
    file's table reaches through ``data``'s module globals; once the
    wrappers are gone, every name they replaced is the original again."""
    with monkeypatch.context() as mp:
        mp.syspath_prepend(str(BENCH))  # tracing imports its catalogue as ``metrics``
        mp.setitem(sys.modules, "metrics", MX)
        tracing = load_by_path("perfbench_tracing", BENCH / "tracing.py")
    D.save_csv(synth.generate(synth.SynthSpec(n_groups=2, per_group=3, length=60, seed=1)), tmp_path / "s.csv")
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump({
        "data": {"path": str(tmp_path / "s.csv"), "target": "target", "window": 8},
        "model": {"grouping": "explicit", "groups": 2, "stage_channels": [4, 4], "pool_before": [2],
                  "dense_units": [4, 1]},
        "out": str(tmp_path / "out")}))
    before = namespaces()
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        wrapped = changed(before, namespaces())
        assert cli.main(["ingest", str(config)]) == 0
        assert cli.main(["cluster", str(config)]) == 0
    assert changed(before, namespaces()) == set()
    assert {"gcnn.data.load_csv", "gcnn.data.repair_gaps", "gcnn.data.standardize"} <= wrapped
    spans = {tracer.name_of(sid) for sid in range(len(tracer))}
    assert {"data.load_csv", "data.repair_gaps", "data.standardize", "spectral.sym_eig", "cli.config"} <= spans


def tensor_names_used(path: Path) -> set[str]:
    """The names the gcnn module at ``path`` takes from ``gcnn.tensor``:
    those it imports from it, and the attributes it reads of the name it
    imports it as."""
    tree = ast.parse(path.read_text())
    aliases, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "tensor":
            used.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            aliases.update(a.asname or a.name for a in node.names if a.name == "tensor")
    used.update(node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases)
    return used


def test_every_engine_function_is_called_exported_or_traced(monkeypatch):
    """A function of ``gcnn.tensor.__all__`` that no other gcnn module
    uses, the package does not export and the tracer does not time is
    code no command runs."""
    monkeypatch.syspath_prepend(str(BENCH))  # tracing imports its catalogue as ``metrics``
    monkeypatch.setitem(sys.modules, "metrics", MX)
    tracing = load_by_path("perfbench_tracing", BENCH / "tracing.py")
    modules = [p for p in Path(gcnn.__file__).parent.glob("*.py") if p.name not in ("__init__.py", "tensor.py")]
    reached = set().union(*map(tensor_names_used, modules), gcnn.__all__, tracing.TAPED_PRIMITIVES)
    functions = [name for name in T.__all__ if inspect.isfunction(getattr(T, name))]
    assert [name for name in functions if name not in reached] == []
