"""Mutation audit of the assembled identities: the corner rule of the pairing
formula, the sign of every other assembled term, the bivector core, the exact
gradient, the evaluation seed and its generator count check, the generator
images and cocycle of the pentagon projection, the exact crossing and
puncture predicates, and the branch of the local frame.

Each mutant is one text replacement in one file: the old text occurs exactly
once there.  For each mutant the script copies `src/`, `tests/` and
`pyproject.toml` into a temporary directory, applies the replacement to the
copy, and runs the mutant's pytest node ids there.  It prints "killed" when
they fail and "survived" when they pass, and exits 1 if any mutant survived
(2 if a run could not be made: a missing text or a pytest usage error).  The
checkout itself is never written.

    python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDED = "tests/test_kz_holonomy.py::test_rho_paths_on_seeded_open_path_pairs"
GOLDMAN = ("tests/test_cli.py::test_goldman_campaign",)
COACTION = ("tests/test_acceptance.py::test_criterion_4_reduced_coaction_formula",)
LOOP_COACTION = ("tests/test_kz_holonomy.py::test_mu_bar_identity_loop",)
THREE_WAY = ("tests/test_acceptance.py::test_criterion_7_three_way_bracket_agreement",)
SQUARE_MAPS = ("tests/test_trivial_extension.py::test_square_maps_equal_fox_derivatives",)
BIVECTOR = ("tests/test_rep_space.py::test_bivector_core_matches_loop_construction",)
GRADIENT = ("tests/test_rep_space.py::test_level_gradient_matches_finite_differences",)
SEGMENTS = ("tests/test_kz_paths.py::test_degenerate_segment_pairs_match_the_fraction_reference",)
PUNCTURE = ("tests/test_kz_paths.py::test_puncture_cases_match_the_fraction_reference",)
PATHS = "src/kzfox/kz_paths.py"
HOLONOMY = "src/kzfox/kz_holonomy.py"
LEVELS = "src/kzfox/levels.py"
EXTENSION = "src/kzfox/trivial_extension.py"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    old: str
    new: str
    tests: Tuple[str, ...]


MUTANTS = [
    Mutant("the sign rule inverted", "src/kzfox/kz_paths.py",
           '1.0 if (x == "in") != (y == "in") else -1.0',
           '1.0 if (x == "in") == (y == "in") else -1.0',
           ("tests/test_kz_holonomy.py::test_base_linking_is_the_alternating_corner_sum",)),
    Mutant("the [x>y] term dropped", "src/kzfox/kz_holonomy.py",
           "corner[0] += order", "corner[0] += 0.0",
           (f"{SEEDED}[shared_start]",)),
    Mutant("the order read as [y>x]", "src/kzfox/kz_paths.py",
           "above((path1, x), (path2, y))", "above((path2, y), (path1, x))",
           (f"{SEEDED}[shared_start]",)),
    Mutant("L attached when y arrives", "src/kzfox/kz_holonomy.py",
           'if y == "out" else corner', 'if y == "in" else corner',
           (f"{SEEDED}[shared_middle]",)),
    Mutant("R attached when x leaves", "src/kzfox/kz_holonomy.py",
           'h1) if x == "in" else', 'h1) if x == "out" else',
           (f"{SEEDED}[shared_middle]",)),
    Mutant("r_am at the other endpoint's puncture", "src/kzfox/kz_holonomy.py",
           'q if x == "in" else p', 'p if x == "in" else q',
           (f"{SEEDED}[shared_middle]",)),
    Mutant("route (ii) t_a and t_b swapped", "src/kzfox/rep_space.py",
           "for t in (t_a, t_b)", "for t in (t_b, t_a)",
           ("tests/test_rep_space.py::test_three_way_agreement_on_pairs_with_nonzero_brackets",)),
    Mutant("the coaction closure read as [p>P]", "src/kzfox/kz_holonomy.py",
           'above((path, "out"), (path, "in"))', 'above((path, "in"), (path, "out"))',
           LOOP_COACTION),
    # the sign of every other assembled term
    Mutant("goldman: bracket sign", HOLONOMY,
           "(-1.0, levels.necklace_bracket(h2, h1, n))",
           "(1.0, levels.necklace_bracket(h2, h1, n))",
           ("tests/test_kz_holonomy.py::test_goldman_on_seeded_pairs_with_nonzero_brackets",)),
    Mutant("goldman: crossing sign", HOLONOMY,
           "terms.append((float(c.sign), levels.mul(r1, r2)))",
           "terms.append((-float(c.sign), levels.mul(r1, r2)))", GOLDMAN),
    Mutant("goldman: base sign", HOLONOMY,
           "(base_sign, levels.mul(h1, h2))", "(-base_sign, levels.mul(h1, h2))", GOLDMAN),
    Mutant("cobracket: rotation sign", HOLONOMY,
           "(rot, levels.unit(n, deg), hol.levels)", "(-rot, levels.unit(n, deg), hol.levels)",
           GOLDMAN),
    Mutant("cobracket: crossing sign", HOLONOMY,
           "(c.sign, hol.piece(c.t, c.s),", "(-c.sign, hol.piece(c.t, c.s),",
           ("tests/test_cli.py::test_self_crossing_loop_meets_the_cobracket_crossing_term",)),
    Mutant("cobracket: leg order", HOLONOMY,
           "np.outer(u[i], v[j])", "np.outer(v[i], u[j])", GOLDMAN),
    Mutant("coaction: zeta sign at p", HOLONOMY,
           "(1.0, levels.mul(h, levels.letter(n, p,", "(-1.0, levels.mul(h, levels.letter(n, p,",
           COACTION),
    Mutant("coaction: zeta sign at q", HOLONOMY,
           "(-1.0, levels.mul(levels.letter(n, q,", "(1.0, levels.mul(levels.letter(n, q,",
           COACTION),
    Mutant("coaction: sign of the zeta variable", HOLONOMY,
           "r_zeta_coefficients(deg, -1)", "r_zeta_coefficients(deg, 1)", COACTION),
    Mutant("coaction: rotation sign", HOLONOMY, "(rot, h),", "(-rot, h),", LOOP_COACTION),
    Mutant("coaction: Fox sign at p", HOLONOMY,
           "(-1.0, levels.fox(h, p, n, True))", "(1.0, levels.fox(h, p, n, True))", COACTION),
    Mutant("coaction: Fox sign at q", HOLONOMY,
           "(-1.0, levels.fox(h, q, n, False))", "(1.0, levels.fox(h, q, n, False))", COACTION),
    Mutant("coaction: closure sign", HOLONOMY,
           "terms.append((1.0, closure))", "terms.append((-1.0, closure))", LOOP_COACTION),
    Mutant("shared crossing terms: sign", HOLONOMY,
           "return [(float(c.sign), levels.mul(", "return [(-float(c.sign), levels.mul(",
           COACTION),
    Mutant("rho_paths: Fox sign of h2 at p", HOLONOMY,
           "(-1.0, levels.fox(hol2.levels, p, n, True))",
           "(1.0, levels.fox(hol2.levels, p, n, True))",
           ("tests/test_kz_holonomy.py::test_rho_paths_disjoint",)),
    Mutant("rho_paths: Fox sign of h1 at s", HOLONOMY,
           "(-1.0, levels.fox(hol1.levels, s, n, False))",
           "(1.0, levels.fox(hol1.levels, s, n, False))",
           ("tests/test_kz_holonomy.py::test_rho_paths_disjoint",)),
    Mutant("rho_paths: Fox sign of h2 at q", HOLONOMY,
           "(1.0, levels.mul(levels.fox(hol2.levels, q, n, True), h1))",
           "(-1.0, levels.mul(levels.fox(hol2.levels, q, n, True), h1))",
           ("tests/test_kz_holonomy.py::test_rho_paths_disjoint",)),
    Mutant("rho_paths: Fox sign of h1 at r", HOLONOMY,
           "(1.0, levels.mul(h2, levels.fox(hol1.levels, r, n, False)))",
           "(-1.0, levels.mul(h2, levels.fox(hol1.levels, r, n, False)))",
           ("tests/test_kz_holonomy.py::test_rho_paths_disjoint",)),
    Mutant("rho_paths: corner sign", HOLONOMY,
           "terms.append((sign, levels.mul(corner, h1)", "terms.append((-sign, levels.mul(corner, h1)",
           ("tests/test_kz_holonomy.py::test_rho_paths_shared_middle",)),
    Mutant("route (ii): crossing sign", "src/kzfox/rep_space.py",
           "terms = [(float(c.sign), at(", "terms = [(-float(c.sign), at(", THREE_WAY),
    Mutant("route (ii): crossing - pi", "src/kzfox/rep_space.py",
           "formula = crossing + pi", "formula = crossing - pi", THREE_WAY),
    # the bivector core, the exact gradient and the evaluation seed
    Mutant("bivector: sign of [c = m] ad_d", "src/kzfox/rep_space.py",
           "core[m - 1] += ad.transpose(1, 0, 2)", "core[m - 1] -= ad.transpose(1, 0, 2)",
           BIVECTOR),
    Mutant("bivector: sign of [d = m] ad_c", "src/kzfox/rep_space.py",
           "core[:, :, m - 1] += ad", "core[:, :, m - 1] -= ad", BIVECTOR),
    Mutant("gradient: (a, b) transposed", LEVELS,
           ".transpose(2, 1, 3, 0, 4)", ".transpose(2, 3, 1, 0, 4)", GRADIENT),
    Mutant("gradient: suffix stack read at the prefix length", LEVELS,
           "@ words[k - p - 1]", "@ words[p]", GRADIENT),
    Mutant("evaluate: seed with the generators transposed", LEVELS,
           '"iv,iac->cva"', '"iv,ica->cva"',
           ("tests/test_rep_space.py::test_level_evaluation_matches_word_products",)),
    Mutant("evaluate: generator count check inverted", LEVELS,
           "len(levels[1]) != n", "len(levels[1]) == n",
           ("tests/test_rep_space.py::test_evaluate_rejects_generator_mismatch",)),
    # the projection of the pentagon equation: generator images and cocycle
    Mutant("projection: crossed image +e", EXTENSION,
           "from_m(-one)", "from_m(one)", SQUARE_MAPS),
    Mutant("projection: t_iz sent to 1 (x) x_i", EXTENSION,
           "TensorSeries.outer(x, one)", "TensorSeries.outer(one, x)", SQUARE_MAPS),
    Mutant("projection: cocycle sign", EXTENSION,
           "+ rho_kks(left, right)", "- rho_kks(left, right)", SQUARE_MAPS),
    Mutant("projection: delta_zw sums u - v", EXTENSION,
           "u + v for u, v", "u - v for u, v", SQUARE_MAPS),
    Mutant("projection: crossed image dropped at the marked generator", EXTENSION,
           "im + crossed if i == marked", "im if i == marked", SQUARE_MAPS),
    # the exact predicates on integer coordinates, and the frame's branch
    Mutant("crossing: denominator sign not normalized", PATHS,
           "den, tn, un = sign * den, sign * (qx * sy - qy * sx), sign * (qx * ry - qy * rx)",
           "den, tn, un = den, qx * sy - qy * sx, qx * ry - qy * rx", SEGMENTS),
    Mutant("crossing: 0 <= tn taken as proper", PATHS,
           "if 0 < tn < den and 0 < un < den:", "if 0 <= tn < den and 0 < un < den:",
           SEGMENTS),
    Mutant("integer points: scale from the smallest denominator", PATHS,
           "scale = max(den for _, den in ratios)", "scale = min(den for _, den in ratios)",
           SEGMENTS),
    Mutant("crossing: collinear touch at the far end read as overlap", PATHS,
           "if hi == 0 or lo == rr:", "if hi == 0:", SEGMENTS),
    Mutant("puncture: collinearity by the wrong cross product", PATHS,
           "if rx * wy - ry * wx != 0:", "if rx * wy + ry * wx != 0:", PUNCTURE),
    Mutant("local frame: branch sign flipped", HOLONOMY,
           "c = math.log(r) / TWO_PI_I", "c = -math.log(r) / TWO_PI_I",
           ("tests/test_kz_holonomy.py::test_associator_duality",)),
]


def run(mutant: Mutant) -> int:
    """The pytest exit code of the mutant's tests on a mutated copy."""
    with tempfile.TemporaryDirectory(prefix="kzfox-mutant-") as tmp:
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
        for tree in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, tree), os.path.join(tmp, tree), ignore=ignore)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
        target = os.path.join(tmp, mutant.path)
        with open(target, encoding="utf-8") as fp:
            text = fp.read()
        if text.count(mutant.old) != 1:
            print(f"{mutant.path}: {mutant.old!r} does not occur exactly once",
                  file=sys.stderr)
            raise SystemExit(2)
        with open(target, "w", encoding="utf-8") as fp:
            fp.write(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode


def main() -> int:
    survived = 0
    for mutant in MUTANTS:
        code = run(mutant)
        if code not in (0, 1):
            print(f"error     {mutant.name} (pytest exit {code})")
            return 2
        print(f"{'survived' if code == 0 else 'killed  '}  {mutant.name}")
        survived += code == 0
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
