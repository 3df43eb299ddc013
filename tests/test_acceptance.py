"""Acceptance suite: the eight headline checks, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print; each test also asserts, so a plain ``pytest`` run fails loudly.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from kzfox.cli import main
from kzfox.coefficients import r_am_series, r_zeta_series
from kzfox.exact_suite import algebra_suite
from kzfox.free_hopf import COMPLEX, FreeSeries
from kzfox.kz_holonomy import (
    ConnectionSpec,
    associator,
    coaction_check,
    goldman_bracket_check,
    holonomy_reg,
    pentagon_projection_check,
)
from kzfox.kz_paths import (
    Anchor,
    PLPath,
    PunctureConfig,
    compose,
    rotation_number,
    snap_half_integer,
    subpath,
)
from kzfox.rep_space import MatrixTuple, verify_theorem2
from kzfox.trivial_extension import _algebra_map, generator_images

# shared geometry -----------------------------------------------------------
DATA = Path(__file__).parent / "data"
P2 = PunctureConfig([0.0, 1.0])
P3 = PunctureConfig([0.0, 1.0, 2.0])
BASE = Anchor.tangential(1, 1.0)

EMBEDDED2 = PLPath(P2, Anchor.tangential(1, 1.0), Anchor.tangential(2, -1.0), [])
EMBEDDED3 = PLPath(
    P3,
    Anchor.tangential(1, 1.0),
    Anchor.tangential(3, -1.0),
    [0.2, 0.25 + 0.35j, 1.75 + 0.35j, 1.8],
)
FIG8 = PLPath(
    P3,
    BASE,
    Anchor.tangential(3, -1.0),
    [0.25, 0.2 + 0.3j, 1.3 + 0.3j, 1.3 + 0.55j, 0.6 + 0.55j, 0.6 - 0.3j,
     1.6 - 0.3j, 1.6 + 0j],
)

LOOP_A1 = PLPath(P3, BASE, BASE, [0.4, 0.4 + 0.3j, 1.5 + 0.3j, 1.5 - 0.3j,
                                  0.4 - 0.3j, 0.4])
LOOP_B1 = PLPath(P3, BASE, BASE, [0.5, 0.5 + 0.5j, 2.5 + 0.5j, 2.5 - 0.4j,
                                  0.2 - 0.4j, 0.2])
LOOP_A4 = PLPath(P3, BASE, BASE, [0.3, 0.3 - 0.35j, 1.5 - 0.35j, 1.5 + 0.35j,
                                  0.7 + 0.35j, 0.7])
LOOP_BUP = PLPath(P3, BASE, BASE, [0.15, 0.15 + 0.5j, 2.5 + 0.5j, 2.5 - 0.45j,
                                   0.5 - 0.45j, 0.5 + 0.25j, 0.45 + 0.25j, 0.45])


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion-{num}: {detail}")
    assert ok, f"criterion-{num}: {detail}"


# ---------------------------------------------------------------------------
# 1. exact identity suite on the rational backend
# ---------------------------------------------------------------------------
def test_criterion_1_exact_algebra_suite():
    t0 = time.time()
    results = algebra_suite(seed=0, n=2, degree=4, cases=10)
    results += algebra_suite(seed=1, n=3, degree=3, cases=2)
    elapsed = time.time() - t0
    total = sum(rec["cases"] for _, rec in results)
    failed = [name for name, rec in results if not rec["passed"]]
    ok = not failed and total >= 200 and elapsed < 60.0
    _report(
        1,
        ok,
        f"exact identity suite, {total} cases, {len(results)} checks, "
        f"{elapsed:.1f}s" + (f", failed: {failed}" if failed else ""),
    )


# ---------------------------------------------------------------------------
# 2. consistency of the two regularizing series
# ---------------------------------------------------------------------------
def test_criterion_2_series_consistency():
    t0 = time.time()
    D = 12
    lhs = r_am_series(1, D, 1)
    rhs = (
        r_zeta_series(1, D, 1)
        - r_zeta_series(1, D, 1, negate_variable=True)
        - FreeSeries.unit(1, D, COMPLEX).scale(0.5)
    )
    disc = (lhs - rhs).norm_inf()
    elapsed = time.time() - t0
    ok = disc <= 1e-12 and elapsed < 1.0
    _report(2, ok, f"regularizing-series identity to degree {D}, "
                   f"max coefficient discrepancy {disc:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. zeta values from the numeric associator
# ---------------------------------------------------------------------------
def test_criterion_3_associator_zeta_recovery():
    t0 = time.time()
    D = 4
    # the corner-term convention matches the inverse of our path orientation
    s = associator(D).inverse()
    n = s.n
    z, w, crossed = generator_images(n, D, COMPLEX)
    corners = (
        # x1 -> marked-left image, x2 -> crossed generator: the zeta series
        # at -x_1
        ([None, z[0], crossed], r_zeta_series(1, D, n, negate_variable=True)),
        # x1 -> crossed generator, x2 -> marked-right image: minus the zeta
        # series at x_1
        ([None, crossed, w[0]], -r_zeta_series(1, D, n)),
    )
    worst = {2: 0.0, 3: 0.0, 4: 0.0}
    for images, predicted in corners:
        tail = _algebra_map(s, images).m_part
        for m in (2, 3, 4):
            w = (1,) * (m - 1)
            got = complex(tail.coefficient(w))
            want = complex(predicted.coefficient(w))
            worst[m] = max(worst[m], abs(got - want) / abs(want))
    elapsed = time.time() - t0
    ok = (
        worst[2] <= 1e-5 and worst[3] <= 1e-5 and worst[4] <= 1e-4
        and elapsed < 300.0
    )
    _report(3, ok, "zeta recovery from the degree-4 associator, rel errs "
                   f"m=2: {worst[2]:.1e}, m=3: {worst[3]:.1e}, "
                   f"m=4: {worst[4]:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. reduced-coaction formula end to end
# ---------------------------------------------------------------------------
def test_criterion_4_reduced_coaction_formula():
    t0 = time.time()
    cases = ((EMBEDDED2, "embedded n=2"), (EMBEDDED3, "embedded n=3"),
             (FIG8, "figure-eight"))
    details = []
    ok = True
    for degree, tol in ((3, 1e-5), (4, 1e-4)):
        for path, label in cases:
            conn = ConnectionSpec(path.punctures, degree + 1)
            disc = coaction_check(conn, path)["max_discrepancy"]
            ok = ok and disc <= tol
            details.append(f"{label} D={degree}: {disc:.1e}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 600.0
    _report(4, ok, "; ".join(details) + f"; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. pentagon projection
# ---------------------------------------------------------------------------
def test_criterion_5_pentagon_projection():
    t0 = time.time()
    details = []
    ok = True
    for path, label in ((EMBEDDED2, "embedded n=2"), (EMBEDDED3, "embedded n=3"),
                        (FIG8, "figure-eight")):
        conn = ConnectionSpec(path.punctures, 4)  # comparison degree 3
        report = pentagon_projection_check(conn, path)
        ok = ok and report["max_discrepancy"] <= 1e-5
        details.append(f"{label}: {report['max_discrepancy']:.1e}")
    elapsed = time.time() - t0
    _report(5, ok, "pentagon projection at D=3, " + "; ".join(details)
                   + f"; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. loop bracket and cobracket
# ---------------------------------------------------------------------------
def test_criterion_6_loop_bracket_and_cobracket(tmp_path):
    t0 = time.time()
    conn = ConnectionSpec(P3, 4)  # comparison degree 3
    report = goldman_bracket_check(conn, LOOP_B1, LOOP_A1)
    ok = report["n_crossings"] == 1 and report["max_discrepancy"] <= 1e-5
    # two fixture pairs whose necklace bracket is of size 1, so the bracket
    # side of the identity is seen: goldman at degree 7 and default poisson
    worst = 0.0
    for pair in (1, 8):
        loops = [arg for j in (1, 2) for arg in
                 ("--loops", str(DATA / f"loop_pair{pair}_{j}.json"))]
        for argv in (["goldman", "--degree", "7"], ["poisson"]):
            out = tmp_path / f"{pair}_{argv[0]}.jsonl"
            ok = ok and main(["verify", *argv, *loops, "--out", str(out)]) == 0
            (record,) = [json.loads(l) for l in out.read_text().splitlines()]
            if argv[0] == "goldman":
                worst = max(worst, record["max_discrepancy"])
    ok = ok and worst <= 1e-13
    elapsed = time.time() - t0
    _report(6, ok, f"one-crossing loop pair at D=3, bracket "
                   f"{report['bracket_discrepancy']:.1e}, cobracket "
                   f"{max(report['cobracket_discrepancy']):.1e}; nonzero-bracket "
                   f"pairs at D=7 {worst:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. three-way bracket agreement on a representation space
# ---------------------------------------------------------------------------
def test_criterion_7_three_way_bracket_agreement():
    t0 = time.time()
    conn = ConnectionSpec(P3, 5)
    worst = 0.0
    worst_pi = 0.0
    worst_trace = 0.0
    ok = True
    for seed in range(10):
        X = MatrixTuple.random(3, 2, radius=0.1, seed=seed)
        rep = verify_theorem2(conn, LOOP_BUP, LOOP_A4, X)
        tolerance = max(1e-4, rep["tail_bound"])
        worst = max(worst, rep["max_discrepancy"])
        worst_pi = max(worst_pi, rep["trace_pi_contribution"])
        worst_trace = max(worst_trace, rep["trace_crossing_gap"])
        ok = ok and rep["max_discrepancy"] <= tolerance
        ok = ok and rep["trace_pi_contribution"] <= 1e-6
        ok = ok and worst_trace <= tolerance
    elapsed = time.time() - t0
    ok = ok and elapsed < 600.0
    _report(7, ok, f"10 seeds, N=2 n=3 D=5: max pairwise discrepancy "
                   f"{worst:.1e}, bivector trace contribution {worst_pi:.1e}, "
                   f"trace vs crossing {worst_trace:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. composition laws
# ---------------------------------------------------------------------------
def test_criterion_8_composition_laws():
    t0 = time.time()
    ok = True
    # rotation-number arithmetic, exact after half-integer snapping
    for a, b in ((LOOP_A1, LOOP_B1), (LOOP_B1, LOOP_A1), (LOOP_A1, LOOP_A1)):
        lhs = snap_half_integer(rotation_number(compose(b, a)))
        rhs = (
            snap_half_integer(rotation_number(a))
            + snap_half_integer(rotation_number(b))
            - 0.5
        )
        ok = ok and lhs == rhs
    # multiplicativity at a regular interior split
    conn = ConnectionSpec(P3, 4)
    h = holonomy_reg(conn, LOOP_A4).series
    reg_disc = 0.0
    for t in (0.3, 0.62):
        head = holonomy_reg(conn, subpath(LOOP_A4, 0.0, t)).series
        tail = holonomy_reg(conn, subpath(LOOP_A4, t, 1.0)).series
        reg_disc = max(reg_disc, (h - tail * head).norm_inf())
    # multiplicativity across a tangential composition
    ha = holonomy_reg(conn, LOOP_A1).series
    hb = holonomy_reg(conn, LOOP_B1).series
    hc = holonomy_reg(conn, compose(LOOP_B1, LOOP_A1)).series
    tan_disc = (hc - hb * ha).norm_inf()
    elapsed = time.time() - t0
    ok = ok and reg_disc <= 1e-8 and tan_disc <= 1e-6
    _report(8, ok, f"rotation arithmetic exact; regular-split holonomy "
                   f"{reg_disc:.1e}, tangential composition {tan_disc:.1e}, "
                   f"{elapsed:.1f}s")
