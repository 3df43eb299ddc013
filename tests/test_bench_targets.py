"""The benchmark's span tracer names kzfox functions by module and attribute;
a renamed or removed function would only show when the benchmark crashes."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("name, module_name, attr", [t[:3] for t in _targets()])
def test_traced_name_resolves(name, module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        assert callable(vars(getattr(module, cls_name)).get(method)), name
    else:
        assert callable(getattr(module, attr, None)), name
