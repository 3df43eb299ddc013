"""kzfox benchmark: verification campaigns run through ``kzfox.cli.main``.

Run from the root of a kzfox checkout:

    python3 perfbench/run.py --workload paths --seed 1 --seconds 10 --trace 0

Closed loop: one process runs one campaign at a time, each started when the
previous one returns.  A pass is the workload's campaign list.  The campaigns
are cycled for about ``--seconds`` (at least one full pass), and ``wall_s``
is the sum of each campaign's median time.

While a campaign is timed, a fixed reference computation (``reference.py``)
runs from a timer signal every ``REFERENCE_PERIOD_S``; its time is not
counted in the campaign's.  ``wall_rel`` is the pass time in units of it:
the sum over campaigns of the median ratio of each campaign's time to the
mean reference time during that campaign.  The ratio cancels drift of the
host's CPU speed, which ``wall_s`` shows in full.  ``setup_s`` is scaled the
same way, by reference work timed in each set-up probe right after set-up,
and given in seconds on a host where one reference unit takes
``REFERENCE_UNIT_S``.  With ``--trace 0`` the last
stdout line holds the end-to-end metrics.  With ``--trace 1`` whole traced
passes follow the untraced ones and the last line holds the per-layer
metrics.  Preceding lines record the environment and each metric's median,
quartiles and sample count.
"""

from __future__ import annotations

import os

# BLAS thread caps must be in the environment before numpy loads.
THREAD_CAPS = {
    var: "1"
    for var in ("KZFOX_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import check_records  # noqa: E402
from inputs import WORKLOADS, Campaign, generate  # noqa: E402
from reference import ReferenceSampler, reference_seconds  # noqa: E402

# Cheap campaigns that fill lazy caches before the timed passes.
WARM_UP = [
    Campaign("associator", 2, ["associator", "--degree", "2"]),
    Campaign("verify_algebra", 2, ["verify", "algebra", "--degree", "2"]),
]
SETUP_PROBES = 7
# Period of the reference work run during each timed campaign.
REFERENCE_PERIOD_S = 0.025
# Nominal time of one reference unit: setup_s is set-up time scaled to a host
# this fast.  A constant, so that two commits compare as ratios would.
REFERENCE_UNIT_S = 0.002
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {"wall_rel": "ref", "setup_s": "s", "peak_rss_mb": "MB",
                    "margin_digits": "digits"}

# Per-layer metrics: span name -> fields reported for it.
LAYER_FIELDS = {
    "kz_holonomy.holonomy_reg": ("calls", "busy_s", "self_s", "distinct_ratio"),
    "kz_holonomy.mu_bar_rhs": ("self_s",),
    "kz_holonomy.pentagon_projection_check": ("self_s",),
    "kz_holonomy.goldman_bracket_check": ("self_s",),
    "free_hopf.mul": ("calls", "busy_s"),
    "free_hopf.log": ("calls", "busy_s"),
    "free_hopf.exp": ("calls", "busy_s"),
    "free_hopf.inverse": ("calls", "busy_s"),
    "free_hopf.coproduct": ("calls", "busy_s"),
    "brackets_coactions.double_bracket_from_pairing": ("calls", "busy_s", "self_s"),
    "brackets_coactions.necklace_bracket": ("busy_s",),
    "brackets_coactions.necklace_cobracket": ("busy_s",),
    "brackets_coactions.coaction_mu_kks": ("busy_s",),
    "brackets_coactions.mu_bar_kks": ("busy_s",),
    "fox_calculus.d_left": ("busy_s",),
    "fox_calculus.d_right": ("busy_s",),
    "fox_calculus.rho_kks": ("busy_s",),
    "trivial_extension.square_z": ("busy_s",),
    "trivial_extension.square_w": ("busy_s",),
    "trivial_extension.square_zw": ("busy_s",),
    "kz_paths.intersections": ("calls", "busy_s"),
    "kz_paths.self_intersections": ("calls", "busy_s"),
    "kz_paths.subpath": ("calls", "busy_s"),
    "kz_paths.rotation_number": ("calls", "busy_s"),
    "rep_space.evaluate": ("calls", "busy_s"),
    "rep_space.verify_theorem2": ("self_s",),
    "rep_space.bivector_pi": ("busy_s",),
    "coefficients.r_zeta_series": ("busy_s",),
    "coefficients.r_am_series": ("busy_s",),
}
# One span per campaign entry of any workload: cli.<label>.<degree>
CLI_SPANS = ("verify_coaction.3", "verify_coaction.4", "verify_pentagon.3",
             "verify_pentagon.4", "associator.6", "verify_goldman.3",
             "verify_poisson.5", "verify_algebra.4")
FIELD_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "distinct_ratio": "ratio"}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span, fields in LAYER_FIELDS.items():
        for f in fields:
            units[f"{span}.{f}"] = FIELD_UNITS[f]
    for span in CLI_SPANS:
        units[f"cli.{span}.busy_s"] = "s"
    units["trace.wall_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: str):
    """HEAD of the checkout, read from .git when there is one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fp:
            head = fp.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as fp:
                return fp.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fp:
            for line in fp:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src: str) -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(src, "kzfox")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fp:
                digest.update(fp.read())
    return digest.hexdigest()[:16]


def environment(root: str, src: str) -> dict:
    import numpy

    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_caps": THREAD_CAPS,
        "git_commit": _git_commit(root),
        "source_sha256_16": _source_digest(src),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------
def summarize(values):
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def setup_times(src: str, files):
    """Set-up seconds of SETUP_PROBES fresh processes, raw and scaled.

    Each probe also times the reference work right after its set-up.  The
    scaled time is the set-up time on a host where one reference unit takes
    ``REFERENCE_UNIT_S``, which takes out the drift of the host's speed.
    Returns (raw seconds, scaled seconds, reference seconds), one per probe.
    """
    probe = os.path.join(HERE, "setup_probe.py")
    raw, scaled, refs = [], [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, probe, src, *files], check=True, capture_output=True,
            text=True, timeout=PROBE_TIMEOUT_S,
        )
        setup, reference = map(float, out.stdout.strip().splitlines()[-1].split())
        raw.append(setup)
        scaled.append(setup / reference * REFERENCE_UNIT_S)
        refs.append(reference)
    return raw, scaled, refs


class Runner:
    """Runs campaigns in-process and checks each one's output."""

    def __init__(self, workdir: str, tracer=None):
        from kzfox.cli import main

        self._main = main
        self._out = os.path.join(workdir, "records.jsonl")
        self.tracer = tracer
        self.attempted = 0
        self.failures = []

    def campaign(self, c, sampler=None):
        """Wall seconds of one campaign, and its margin in digits (0 if it failed).

        With a ``ReferenceSampler``, the reference work it runs during the
        campaign is not counted in the seconds.
        """
        if os.path.exists(self._out):
            os.remove(self._out)
        err = io.StringIO()
        span = (self.tracer.span(f"cli.{c.label}.{c.degree}") if self.tracer
                else contextlib.nullcontext())
        reason = None
        t0 = time.perf_counter()
        try:
            with span, sampler or contextlib.nullcontext(), contextlib.redirect_stderr(err):
                rc = self._main(c.argv + ["--out", self._out])
        except Exception as exc:  # a crash is one failed operation
            rc, reason = None, f"raised {exc!r}"
        dt = time.perf_counter() - t0
        if sampler is not None:
            dt -= math.fsum(sampler.samples)
        self.attempted += 1
        digits = 0.0
        if reason is None and rc != 0:
            reason = f"exit code {rc}"
        if reason is None:
            try:
                with open(self._out, encoding="utf-8") as fp:
                    records = [json.loads(line) for line in fp if line.strip()]
            except (OSError, ValueError) as exc:
                records, reason = [], f"unreadable records: {exc}"
            if reason is None:
                reason, digits = check_records(records, c.expect)
        if reason is not None:
            self.failures.append(f"{' '.join(c.argv)}: {reason}")
            print(f"FAILED {' '.join(c.argv)}: {reason}\n{err.getvalue()}",
                  file=sys.stderr)
        return dt, digits

    def round_robin(self, campaigns, seconds: float):
        """Cycle through the campaigns for about ``seconds``.

        Makes at least one full pass, then stops before the first campaign
        whose median time would carry it past ``seconds``.  Samples the
        reference work during every campaign.  Returns each campaign's
        durations, their ratios to the mean reference time during them,
        the mean reference time of each campaign and the smallest margin
        seen.
        """
        times = [[] for _ in campaigns]
        ratios = [[] for _ in campaigns]
        refs = []
        margin = math.inf
        sampler = ReferenceSampler(REFERENCE_PERIOD_S)
        start = time.perf_counter()
        for i in itertools.cycle(range(len(campaigns))):
            elapsed = time.perf_counter() - start
            if times[-1] and elapsed + statistics.median(times[i]) > seconds:
                return times, ratios, refs, margin
            dt, digits = self.campaign(campaigns[i], sampler)
            refs.append(sampler.mean_seconds())
            times[i].append(dt)
            ratios[i].append(dt / refs[-1])
            margin = min(margin, digits)

    def traced_passes(self, campaigns, seconds: float):
        """Repeat whole passes until the next one would end after ``seconds``.

        Returns per-pass (wall seconds, tracer stats of that pass).
        """
        results = []
        start = time.perf_counter()
        while True:
            self.tracer.reset()
            t0 = time.perf_counter()
            for c in campaigns:
                self.campaign(c)
            results.append((time.perf_counter() - t0, self.tracer.stats))
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(r[0] for r in results) > seconds:
                return results


def pass_time(times) -> dict:
    """A pass total: the sum over campaigns of their median (and quartile) values.

    ``times`` holds one list of samples per campaign: seconds, or ratios to
    the reference time.
    """
    parts = [summarize(t) for t in times]
    out = {k: math.fsum(p[k] for p in parts) for k in ("median", "q1", "q3")}
    out["n"] = min(p["n"] for p in parts)
    out["campaign_samples"] = [p["n"] for p in parts]
    return out


def layer_values(stats, wall: float) -> dict:
    values = {}
    for span, fields in LAYER_FIELDS.items():
        s = stats.get(span)
        for f in fields:
            if f == "distinct_ratio":
                v = len(s.keys) / s.calls if s and s.calls else 0.0
            else:
                v = getattr(s, f) if s else 0
            values[f"{span}.{f}"] = v
    for span in CLI_SPANS:
        s = stats.get(f"cli.{span}")
        values[f"cli.{span}.busy_s"] = s.busy_s if s else 0.0
    values["trace.wall_s"] = wall
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "kzfox", "__init__.py")):
        print(f"error: no kzfox sources under {src}; run from a kzfox checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import kzfox

    if os.path.dirname(os.path.abspath(kzfox.__file__)) != os.path.join(src, "kzfox"):
        print(f"error: imported kzfox from {kzfox.__file__}, not {src}", file=sys.stderr)
        return 2
    # load every module the tracer wraps before any timing
    import kzfox.cli  # noqa: F401
    import kzfox.kz_holonomy  # noqa: F401
    import kzfox.rep_space  # noqa: F401

    scratch = os.path.join(HERE, "_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        inputs = generate(args.workload, args.seed, workdir)
        env = environment(root, src)
        if not args.trace:
            setup_raw, setup, setup_refs = setup_times(src, inputs.files)

        runner = Runner(workdir)
        for c in WARM_UP:
            runner.campaign(c)
            reference_seconds()
        times, ratios, refs, margin = runner.round_robin(inputs.campaigns, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wall = pass_time(times)

        if args.trace:
            from tracer import Tracer

            runner.tracer = Tracer()
            runner.tracer.install()
            try:
                traced = runner.traced_passes(inputs.campaigns, args.seconds)
            finally:
                runner.tracer.uninstall()
            per_pass = [layer_values(stats, t) for t, stats in traced]
            units = per_layer_units()
            summary = {
                name: summarize([p[name] for p in per_pass])
                for name in units if name != "trace.overhead_ratio"
            }
            metrics = {name: {"value": s["median"], "unit": units[name]}
                       for name, s in summary.items()}
            metrics["trace.overhead_ratio"] = {
                "value": summary["trace.wall_s"]["median"] / wall["median"],
                "unit": "ratio",
            }
            metrics = {name: metrics[name] for name in units}
        else:
            summary = {
                "wall_rel": pass_time(ratios),
                "wall_s": wall,
                "reference_s": summarize(refs),
                "setup_s": summarize(setup),
                "setup_raw_s": summarize(setup_raw),
                "setup_reference_s": summarize(setup_refs),
                "peak_rss_mb": summarize([peak_rss_mb]),
                "margin_digits": summarize([margin]),
            }
            metrics = {name: {"value": summary[name]["median"], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"environment": env, "workload": args.workload, "seed": args.seed,
                      "campaigns_per_pass": len(inputs.campaigns)}))
    print(json.dumps({"summary": summary}))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
