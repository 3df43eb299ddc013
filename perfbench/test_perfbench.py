"""Self-test of the benchmark's tracer, inputs and oracle.

Run from the repository root:  python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import run as bench  # noqa: E402  (sets the thread caps first)
from checks import zeta  # noqa: E402
from inputs import FIXTURES, generate  # noqa: E402
from reference import ReferenceSampler  # noqa: E402
from tracer import Tracer, traced_bindings  # noqa: E402

import kzfox  # noqa: E402
import kzfox.cli  # noqa: E402,F401
import kzfox.kz_holonomy  # noqa: E402
import kzfox.rep_space  # noqa: E402


def _traced_pass(tmp_path, campaigns):
    runner = bench.Runner(str(tmp_path), Tracer())
    runner.tracer.install()
    try:
        [(wall, stats)] = runner.traced_passes(campaigns, seconds=0)
    finally:
        runner.tracer.uninstall()
    assert runner.failures == []
    return wall, stats


def _self_time_sum(stats):
    return sum(s.self_s for s in stats.values())


def test_wrappers_cover_every_binding_and_are_removed():
    kzfox.holonomy_reg  # fill the package's lazy-attribute cache
    tracer = Tracer()
    tracer.install()
    try:
        bound = set(traced_bindings())
        for name in ("kzfox.kz_holonomy.holonomy_reg", "kzfox.rep_space.holonomy_reg",
                     "kzfox.holonomy_reg", "kzfox.free_hopf.FreeSeries.__mul__",
                     "kzfox.brackets_coactions.d_left", "kzfox.fox_calculus.d_left"):
            assert name in bound
    finally:
        tracer.uninstall()
    assert traced_bindings() == []


def test_untraced_run_installs_no_wrappers(tmp_path):
    runner = bench.Runner(str(tmp_path))
    runner.campaign(bench.WARM_UP[0])
    assert runner.failures == []
    assert traced_bindings() == []


def test_reference_sampler_samples_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = ReferenceSampler(0.01)
    with sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            pass
    assert len(sampler.samples) >= 2
    assert all(t > 0 for t in sampler.samples)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_repspace_seed_makes_ten_holonomy_calls(tmp_path):
    inputs = generate("repspace", 3, str(tmp_path))
    wall, stats = _traced_pass(tmp_path, inputs.campaigns[:1])
    holonomy = stats["kz_holonomy.holonomy_reg"]
    assert holonomy.calls == 10
    assert len(holonomy.keys) == 10
    assert _self_time_sum(stats) <= wall


def test_exact_makes_no_holonomy_calls(tmp_path):
    inputs = generate("exact", 3, str(tmp_path))
    wall, stats = _traced_pass(tmp_path, inputs.campaigns[:1])
    assert "kz_holonomy.holonomy_reg" not in stats
    assert stats["brackets_coactions.double_bracket_from_pairing"].calls > 0
    assert _self_time_sum(stats) <= wall


def test_inputs_are_seeded_and_keep_the_tails(tmp_path):
    def vertices(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        inputs = generate("loops", seed, str(d))
        return {os.path.basename(f): json.load(open(f))["points"] for f in inputs.files}

    first, again, other = vertices(5, "a"), vertices(5, "b"), vertices(6, "c")
    assert first == again
    assert first != other
    for name, points in first.items():
        fixture = FIXTURES[name[:-len(".json")]][2]
        assert points[0] == fixture[0] and points[-1] == fixture[-1]
        assert points != fixture


@pytest.mark.parametrize("s, exact", [(2, math.pi ** 2 / 6), (4, math.pi ** 4 / 90),
                                      (6, math.pi ** 6 / 945)])
def test_zeta_oracle(s, exact):
    assert zeta(s) == pytest.approx(exact, rel=1e-15)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        spec = json.load(fp)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
