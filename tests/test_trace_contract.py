"""The names the benchmark's tracer wraps must exist in gcnn.

``perfbench/metrics.py`` lists the engine primitives and layer classes
whose time the tracer attributes; it looks each one up by name at run
time, so renaming or deleting one would only surface when the benchmark
runs.  The catalogue is loaded by file path, as the benchmark holds no
package.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from gcnn import layers as L
from gcnn import tensor as T

METRICS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "metrics.py"


def load_metrics():
    spec = importlib.util.spec_from_file_location("perfbench_metrics", METRICS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MX = load_metrics()


@pytest.mark.parametrize("name", MX.PRIMITIVES)
def test_every_traced_primitive_is_a_tensor_function(name):
    assert inspect.isfunction(getattr(T, name, None)), f"gcnn.tensor.{name} is not a function"


@pytest.mark.parametrize("name", MX.LAYER_CLASSES)
def test_every_traced_layer_class_defines_forward(name):
    cls = getattr(L, name, None)
    assert isinstance(cls, type) and issubclass(cls, L.Layer), f"gcnn.layers.{name} is not a Layer"
    assert "forward" in cls.__dict__, f"gcnn.layers.{name} does not define forward"
