"""Degree reach of the verification campaigns.

Runs each campaign of the ROADMAP reach table at its default degree and at
its stretch degrees, each run a fresh `python -m kzfox` process (so through
`kzfox.cli.main`, start-up included), and writes the median wall time of
3 runs per degree with the machine, Python and numpy versions:

    python tools/reach.py --out BENCH_<n>.json

A campaign's reach is the largest listed degree whose runs all pass (exit 0)
with a median within 60 s; higher degrees are not run once one does not.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "tests", "data")
REACH_S = 60.0
REPEATS = 3
# one BLAS thread per run, whatever the caller's environment says
THREAD_CAPS = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")
}


def _data(name: str) -> str:
    return os.path.join(DATA, name)


# campaign -> (arguments without --degree, default and stretch degrees)
CAMPAIGNS = {
    "coaction": (["--path", _data("fig8.json")], (3, 7, 8, 9, 10, 11, 12, 13)),
    "pentagon": (["--path", _data("fig8.json")], (3, 8, 9, 10, 11, 12, 13)),
    # a pair whose necklace bracket is of size 1, so the bracket side is timed
    "goldman": (
        ["--loops", _data("loop_pair1_1.json"), "--loops", _data("loop_pair1_2.json")],
        (3, 6, 7, 8, 9, 10, 11, 12, 13),
    ),
    "poisson": (
        ["--loops", _data("loop_a4.json"), "--loops", _data("loop_bup.json")],
        (5, 9, 10, 11, 12),
    ),
}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _run(argv, env) -> tuple:
    """(wall seconds, exit code); a run stopped after 2 * REACH_S has code None."""
    start = time.perf_counter()
    try:
        code = subprocess.run(
            [sys.executable, "-m", "kzfox", *argv],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=2 * REACH_S,
        ).returncode
    except subprocess.TimeoutExpired:
        code = None
    return time.perf_counter() - start, code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args()
    env = dict(os.environ, **THREAD_CAPS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    import numpy

    runs, reach = [], {}
    for name, (extra, degrees) in CAMPAIGNS.items():
        for degree in degrees:
            argv = ["verify", name, *extra, "--degree", str(degree)]
            samples = []
            # once most repeats are over the limit, so is the median
            while len(samples) < REPEATS and 2 * sum(
                t > REACH_S for t, _ in samples
            ) <= REPEATS:
                samples.append(_run(argv, env))
            median = statistics.median(t for t, _ in samples)
            codes = [code for _, code in samples]
            runs.append({
                "campaign": name,
                "degree": degree,
                "wall_s": [round(t, 3) for t, _ in samples],
                "median_s": round(median, 3),
                "exit_codes": codes,
            })
            print(f"{name} degree {degree}: {median:.2f} s, exit {codes}", flush=True)
            if median > REACH_S or any(code != 0 for code in codes):
                break
            reach[name] = degree
    record = {
        "environment": {
            "cpu_model": _cpu_model(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "thread_caps": THREAD_CAPS,
        },
        "repeats": REPEATS,
        "reach_limit_s": REACH_S,
        "reach": reach,
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as fp:
        json.dump(record, fp, indent=1)
        fp.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
