"""The benchmark's span tracer names kzfox functions by module and attribute;
a renamed or removed function would only show when the benchmark crashes,
and a traced function that no campaign calls would only show as a span that
reads 0."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


@pytest.mark.parametrize("name, module_name, attr", [t[:3] for t in _tracer().TARGETS])
def test_traced_name_resolves(name, module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        assert callable(vars(getattr(module, cls_name)).get(method)), name
    else:
        assert callable(getattr(module, attr, None)), name


def test_campaigns_run_the_traced_maps(data_dir, capsys):
    """`verify coaction` assembles through `kz_holonomy.mu_bar_rhs` and
    `verify poisson` evaluates through `rep_space.evaluate`, so both spans
    time the code the campaigns run."""
    from kzfox.cli import main

    tracer = _tracer().Tracer()
    tracer.install()
    try:
        assert main(["verify", "coaction", "--path", str(data_dir / "fig8.json"),
                     "--degree", "3"]) == 0
        assert main(["verify", "poisson", "--loops", str(data_dir / "loop_a4.json"),
                     "--loops", str(data_dir / "loop_bup.json"),
                     "--degree", "3", "--N", "2"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for name in ("kz_holonomy.mu_bar_rhs", "rep_space.evaluate"):
        assert name in tracer.stats and tracer.stats[name].calls > 0, name
