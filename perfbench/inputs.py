"""Seeded inputs for the benchmark workloads.

The benchmark seed picks everything the program receives: a small jitter of
the interior polyline vertices of the fixture paths, the matrix-tuple seeds of
``verify poisson`` and the suite seeds of ``verify algebra``.  The first and
last listed vertices of every fixture lie on the anchor rays (the tangential
tails) and are never moved.  A draw is redrawn when the library's ``PLPath``
validation rejects it, or when it changes a path's self-crossing count, its
snapped rotation number, or the crossing count of a loop pair.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

# Fixture geometry, all among the punctures 0, 1, 2 on the real axis.  Each
# entry is (start anchor, end anchor, vertices); an anchor is (puncture,
# direction), both tangential.
PUNCTURES = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
FIXTURES: Dict[str, Tuple[Tuple[int, float], Tuple[int, float], List[List[float]]]] = {
    # n=3 path with one self-crossing
    "fig8": ((1, 1.0), (3, -1.0), [
        [0.25, 0.0], [0.2, 0.3], [1.3, 0.3], [1.3, 0.55], [0.6, 0.55],
        [0.6, -0.3], [1.6, -0.3], [1.6, 0.0]]),
    # embedded n=3 path, no crossing
    "embedded3": ((1, 1.0), (3, -1.0), [
        [0.2, 0.0], [0.25, 0.35], [1.75, 0.35], [1.8, 0.0]]),
    # loops based at the tangential point of puncture 1
    "loop_a1": ((1, 1.0), (1, 1.0), [
        [0.4, 0.0], [0.4, 0.3], [1.5, 0.3], [1.5, -0.3], [0.4, -0.3], [0.4, 0.0]]),
    "loop_a4": ((1, 1.0), (1, 1.0), [
        [0.3, 0.0], [0.3, -0.35], [1.5, -0.35], [1.5, 0.35], [0.7, 0.35], [0.7, 0.0]]),
    "loop_a5": ((1, 1.0), (1, 1.0), [
        [0.7, 0.0], [0.7, 0.35], [1.5, 0.35], [1.5, -0.35], [0.3, -0.35], [0.3, 0.0]]),
    "loop_b1": ((1, 1.0), (1, 1.0), [
        [0.5, 0.0], [0.5, 0.5], [2.5, 0.5], [2.5, -0.4], [0.2, -0.4], [0.2, 0.0]]),
    "loop_bup": ((1, 1.0), (1, 1.0), [
        [0.15, 0.0], [0.15, 0.5], [2.5, 0.5], [2.5, -0.45], [0.5, -0.45],
        [0.5, 0.25], [0.45, 0.25], [0.45, 0.0]]),
}

# Crossing counts of the loop pairs the workloads use (loop1, loop2).
PAIR_CROSSINGS = {
    ("loop_a5", "loop_b1"): 0,
    ("loop_a1", "loop_b1"): 1,
    ("loop_a4", "loop_bup"): 2,
}

WORKLOADS = ("paths", "loops", "repspace", "exact")
EXACT_SUITE_SEEDS = 5
JITTER = 0.01  # largest shift of an interior vertex coordinate
_MAX_DRAWS = 200


@dataclass
class Campaign:
    """One CLI invocation of a workload pass."""

    label: str  # per-layer name: cli.<label>.<degree>
    degree: int
    argv: List[str]
    expect: Dict[str, object] = field(default_factory=dict)


@dataclass
class Inputs:
    campaigns: List[Campaign]
    files: List[str]  # path files the campaigns read


def _path_json(name: str, vertices: List[List[float]]) -> dict:
    (p0, d0), (p1, d1), _ = FIXTURES[name]
    return {
        "punctures": PUNCTURES,
        "start": {"kind": "tangential", "puncture": p0, "direction": [d0, 0.0]},
        "end": {"kind": "tangential", "puncture": p1, "direction": [d1, 0.0]},
        "points": vertices,
    }


def _jittered(rng: random.Random, name: str) -> List[List[float]]:
    vertices = FIXTURES[name][2]
    out = [list(vertices[0])]
    for x, y in vertices[1:-1]:
        out.append([
            round(x + rng.uniform(-JITTER, JITTER), 6),
            round(y + rng.uniform(-JITTER, JITTER), 6),
        ])
    out.append(list(vertices[-1]))
    return out


def _invariants(path) -> Tuple[int, float]:
    from kzfox.kz_paths import rotation_number, self_intersections, snap_half_integer

    return len(self_intersections(path)), snap_half_integer(rotation_number(path))


def draw_paths(seed: int, names: List[str], pairs: List[Tuple[str, str]]) -> Dict[str, dict]:
    """Jittered path JSON objects for ``names``, keeping every invariant."""
    from kzfox.errors import KzfoxError
    from kzfox.kz_paths import Anchor, PLPath, PunctureConfig, intersections

    punctures = PunctureConfig([complex(x, y) for x, y in PUNCTURES])

    def build(name, vertices):
        (p0, d0), (p1, d1), _ = FIXTURES[name]
        return PLPath(punctures, Anchor.tangential(p0, d0), Anchor.tangential(p1, d1),
                      [complex(x, y) for x, y in vertices])

    reference = {name: _invariants(build(name, FIXTURES[name][2])) for name in names}
    rng = random.Random(seed)
    for _ in range(_MAX_DRAWS):
        drawn, paths = {}, {}
        try:
            for name in names:
                drawn[name] = _jittered(rng, name)
                paths[name] = build(name, drawn[name])
                if _invariants(paths[name]) != reference[name]:
                    raise ValueError(name)
            for a, b in pairs:
                if len(intersections(paths[a], paths[b])) != PAIR_CROSSINGS[(a, b)]:
                    raise ValueError((a, b))
        except (KzfoxError, ValueError):
            continue
        return {name: _path_json(name, drawn[name]) for name in names}
    raise RuntimeError(f"no admissible jitter for {names} after {_MAX_DRAWS} draws")


def _write(workdir: str, objects: Dict[str, dict]) -> Dict[str, str]:
    files = {}
    for name, obj in objects.items():
        files[name] = os.path.join(workdir, f"{name}.json")
        with open(files[name], "w", encoding="utf-8") as fp:
            json.dump(obj, fp)
    return files


def generate(workload: str, seed: int, workdir: str) -> Inputs:
    """Write the workload's input files into ``workdir`` and list its pass."""
    rng = random.Random(f"{workload}:{seed}")
    sub_seed = rng.randrange(2**31)
    if workload == "paths":
        files = _write(workdir, draw_paths(sub_seed, ["fig8", "embedded3"], []))
        campaigns = []
        for degree in (3, 4):
            for which in ("coaction", "pentagon"):
                for name, crossings in (("fig8", 1), ("embedded3", 0)):
                    expect = {"n_crossings": crossings} if which == "pentagon" else {}
                    campaigns.append(Campaign(
                        f"verify_{which}", degree,
                        ["verify", which, "--path", files[name], "--degree", str(degree)],
                        expect))
        campaigns.append(Campaign("associator", 6, ["associator", "--degree", "6"],
                                  {"zeta_oracle": True}))
        return Inputs(campaigns, list(files.values()))
    if workload == "loops":
        pairs = list(PAIR_CROSSINGS)
        names = sorted({n for pair in pairs for n in pair})
        files = _write(workdir, draw_paths(sub_seed, names, pairs))
        campaigns = [
            Campaign("verify_goldman", 3,
                     ["verify", "goldman", "--loops", files[a], "--loops", files[b],
                      "--degree", "3"],
                     {"n_crossings": PAIR_CROSSINGS[(a, b)]})
            for a, b in pairs
        ]
        return Inputs(campaigns, list(files.values()))
    if workload == "repspace":
        pair = ("loop_a4", "loop_bup")
        files = _write(workdir, draw_paths(sub_seed, list(pair), [pair]))
        loops = ["--loops", files[pair[0]], "--loops", files[pair[1]]]
        campaigns = [
            Campaign("verify_poisson", 5,
                     ["verify", "poisson", *loops, "--degree", "5", "--N", str(N),
                      "--seed", str(rng.randrange(10**6))],
                     {"n_crossings": PAIR_CROSSINGS[pair]})
            for N in (2, 2, 3)
        ]
        return Inputs(campaigns, list(files.values()))
    if workload == "exact":
        campaigns = [
            Campaign("verify_algebra", 4,
                     ["verify", "algebra", "--degree", "4",
                      "--seed", str(rng.randrange(10**6))])
            for _ in range(EXACT_SUITE_SEEDS)
        ]
        return Inputs(campaigns, [])
    raise ValueError(f"unknown workload {workload!r}")

