"""Command-line front end for holonomy computations and verification
campaigns.

Subcommands
-----------
``kzfox associator``
    Compute the regularized holonomy series of the straight path between two
    punctures and emit it as JSON.
``kzfox verify WHICH``
    Run one of the verification campaigns: ``algebra`` (seed-pinned exact
    identity suite over the rational backend), ``coaction`` / ``pentagon``
    (holonomy identities of a single path), ``goldman`` (loop bracket and
    cobracket on cyclic words), ``poisson`` (three-way bracket comparison on
    a matrix representation space).

Reports are JSON lines written to ``--out`` (default: stdout); a one-line
human summary per check goes to stderr.  Exit codes: 0 all checks passed,
1 usage or input error, 2 a check exceeded its tolerance (or an accuracy
target could not be met).
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import click

from .brackets_coactions import (
    CyclicByFree,
    alpha,
    alpha_inv,
    beta,
    beta_inv,
    coaction_mu_kks,
    double_bracket_from_pairing,
    double_bracket_kks,
    double_derivation_from_fox,
    mu_bar_kks,
)
from .errors import AccuracyError, KzfoxError, ValidationError
from .fox_calculus import (
    FoxPairing,
    d_left,
    d_right,
    rho_inner,
    rho_kks,
    rho_kks_pairing,
    rho_left,
    rho_right,
    transpose,
)
from .free_hopf import RATIONAL, FreeSeries, TensorSeries, _accumulate, _graded_pairs
from .kz_holonomy import (
    ConnectionSpec,
    associator,
    coaction_check,
    goldman_bracket_check,
    pentagon_projection_check,
)
from .kz_paths import Anchor, PLPath, PunctureConfig
from .rep_space import MatrixTuple, verify_theorem2
from .trivial_extension import (
    GEN_ZW,
    TrivExtElement,
    gen_w,
    gen_z,
    pi_generator,
    square_w,
    square_z,
    square_zw,
    trivext_mul,
)

VERIFY_CHOICES = ("algebra", "coaction", "pentagon", "goldman", "poisson")

_DEFAULT_DEGREE = {
    "associator": 3,
    "algebra": 4,
    "coaction": 3,
    "pentagon": 3,
    "goldman": 3,
    "poisson": 5,
}


class ToleranceFailure(KzfoxError):
    """A verification campaign exceeded its tolerance."""


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------
@dataclass
class RunConfig:
    """Validated bundle of command-line settings for one run."""

    degree: int
    accuracy: float = 1e-10
    tolerance: Optional[float] = None
    path_file: Optional[str] = None
    loops: Tuple[str, ...] = ()
    punctures: Optional[str] = None
    matrix_size: int = 2
    radius: float = 0.1
    seed: int = 0
    out: Optional[str] = None

    def __post_init__(self):
        if self.degree < 0:
            raise ValidationError("degree must be >= 0")
        if not 0 < self.accuracy < math.inf:
            raise ValidationError("accuracy must be finite and > 0")
        if self.tolerance is not None and not 0 < self.tolerance < math.inf:
            raise ValidationError("tolerance must be finite and > 0")
        if not math.isfinite(self.radius):
            raise ValidationError("radius must be finite")
        if self.matrix_size < 1:
            raise ValidationError("matrix size --N must be >= 1")

    def default_tolerance(self) -> float:
        """Numeric campaigns: 1e-5 through degree 3, 1e-4 above."""
        if self.tolerance is not None:
            return self.tolerance
        return 1e-5 if self.degree <= 3 else 1e-4


# ---------------------------------------------------------------------------
# input files
# ---------------------------------------------------------------------------
def _as_complex(value, where: str) -> complex:
    """A number or an [re, im] pair; JSON booleans are not numbers here."""
    pair = value if isinstance(value, (list, tuple)) and len(value) == 2 else (value, 0)
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair):
        try:
            return complex(pair[0], pair[1])
        except OverflowError:
            raise ValidationError(f"{where}: number out of range")
    raise ValidationError(f"{where}: expected a number or [re, im] pair")


def _parse_anchor(obj, where: str) -> Anchor:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError(f"{where}: expected an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "regular":
        if "point" not in obj:
            raise ValidationError(f"{where}: regular anchor needs a 'point' field")
        return Anchor.regular(_as_complex(obj["point"], f"{where}.point"))
    if kind == "tangential":
        if "puncture" not in obj:
            raise ValidationError(
                f"{where}: tangential anchor needs a 'puncture' field"
            )
        direction = (
            _as_complex(obj["direction"], f"{where}.direction")
            if "direction" in obj
            else 1.0
        )
        return Anchor.tangential(obj["puncture"], direction)
    raise ValidationError(f"{where}.kind: must be 'regular' or 'tangential'")


def parse_punctures(text: str) -> PunctureConfig:
    """Parse a semicolon-separated list of complex points, e.g. '0;1;2+1j'."""
    points = []
    for k, token in enumerate(text.split(";")):
        try:
            points.append(complex(token.strip()))
        except ValueError:
            raise ValidationError(
                f"--punctures entry {k}: {token.strip()!r} is not a complex number"
            )
    return PunctureConfig(points)


def load_path_file(
    filename: str, punctures: Optional[PunctureConfig] = None
) -> PLPath:
    """Read a path description: {'punctures': [...], 'start': anchor,
    'end': anchor, 'points': [...]}; an explicit PunctureConfig overrides
    the file's 'punctures' field."""
    try:
        with open(filename, "r", encoding="utf-8") as fp:
            data = json.load(fp)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{filename}: not valid JSON ({exc})")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{filename}: not UTF-8 text ({exc})")
    except RecursionError:
        raise ValidationError(f"{filename}: JSON nested too deeply")
    if not isinstance(data, dict):
        raise ValidationError(f"{filename}: expected a JSON object")
    for key in ("punctures", "points"):
        if not isinstance(data.get(key, []), list):
            raise ValidationError(f"{filename}: '{key}' must be a list")
    if punctures is None:
        if "punctures" not in data:
            raise ValidationError(f"{filename}: missing 'punctures' field")
        punctures = PunctureConfig(
            [
                _as_complex(p, f"{filename}: punctures[{k}]")
                for k, p in enumerate(data["punctures"])
            ]
        )
    for key in ("start", "end"):
        if key not in data:
            raise ValidationError(f"{filename}: missing '{key}' field")
    points = [
        _as_complex(p, f"{filename}: points[{k}]")
        for k, p in enumerate(data.get("points", []))
    ]
    return PLPath(
        punctures,
        _parse_anchor(data["start"], f"{filename}: start"),
        _parse_anchor(data["end"], f"{filename}: end"),
        points,
    )


# ---------------------------------------------------------------------------
# report output
# ---------------------------------------------------------------------------
class _Reporter:
    def __init__(self, out: Optional[str]):
        self._path = out
        self._lines: List[str] = []
        self.all_passed = True

    def emit(self, record: dict) -> None:
        self._lines.append(json.dumps(record, sort_keys=True))
        if record.get("passed") is False:
            self.all_passed = False
        status = record.get("passed")
        if status is not None:
            tag = "PASS" if status else "FAIL"
            name = record.get("check", record.get("command", "?"))
            disc = record.get("max_discrepancy")
            extra = "" if disc is None else f": max discrepancy {disc:.3e}"
            tol = record.get("tolerance")
            extra += "" if tol is None else f" (tol {tol:.1e})"
            click.echo(f"[{tag}] {name}{extra}", err=True)

    def close(self) -> None:
        text = "\n".join(self._lines) + ("\n" if self._lines else "")
        if self._path is None:
            sys.stdout.write(text)
        else:
            with open(self._path, "w", encoding="utf-8") as fp:
                fp.write(text)


# ---------------------------------------------------------------------------
# exact identity suite (rational backend)
# ---------------------------------------------------------------------------
def _random_series(rng, n, degree, max_word=3, terms=5) -> FreeSeries:
    coeffs = {}
    for _ in range(terms):
        k = rng.randint(0, max_word)
        w = tuple(rng.randint(1, n) for _ in range(k))
        coeffs[w] = coeffs.get(w, 0) + Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return FreeSeries(n, degree, coeffs, RATIONAL)


def _triple_coproduct(a: FreeSeries, split_left: bool) -> dict:
    """Triple Sweedler coefficients, splitting the indicated leg again."""

    def terms():
        for (u, v), c in a.coproduct().coeffs.items():
            leg = u if split_left else v
            inner = FreeSeries.from_word(leg, a.n, a.degree, a.backend).coproduct()
            for (p, q), c2 in inner.coeffs.items():
                yield ((p, q, v) if split_left else (u, p, q)), c * c2

    return _accumulate(a.backend, terms())


def _cbf_mul_free_right(t: CyclicByFree, b: FreeSeries) -> CyclicByFree:
    terms = (
        ((cw, w + wb), c * cb) for (cw, w), c, wb, cb in _graded_pairs(t, b, t.degree)
    )
    return CyclicByFree._trusted(t.n, t.degree, terms, t.backend)


def _cbf_mul_free_left(a: FreeSeries, t: CyclicByFree) -> CyclicByFree:
    terms = (
        ((cw, wa + w), ca * c) for (cw, w), c, wa, ca in _graded_pairs(t, a, t.degree)
    )
    return CyclicByFree._trusted(t.n, t.degree, terms, t.backend)


def _random_trivext(rng, n, degree) -> TrivExtElement:
    t = TensorSeries.outer(
        _random_series(rng, n, degree, 2), _random_series(rng, n, degree, 2)
    )
    return TrivExtElement.from_tensor(t) + TrivExtElement.from_m(
        _random_series(rng, n, degree, 2)
    )


def algebra_suite(seed: int = 0, n: int = 2, degree: int = 4, cases: int = 12):
    """Seed-pinned randomized exact-identity suite over the rational backend.

    Returns an ordered list of (check name, record) pairs; every record has
    ``cases`` and ``passed`` fields, and equality is exact (no tolerances).
    Identities that mix degree-preserving and degree-lowering terms are
    compared through degree ``degree - 1``, the range on which truncation
    keeps them exact.
    """
    rng = random.Random(seed)
    D = degree
    unit = FreeSeries.unit(n, D, RATIONAL)
    rho0 = rho_kks_pairing()

    def rnd(max_word=3):
        return _random_series(rng, n, D, max_word)

    results: List[Tuple[str, dict]] = []

    def run(name: str, check, count=cases):
        ok = True
        for _ in range(count):
            if not check():
                ok = False
                break
        results.append((name, {"cases": count, "passed": ok}))

    # --- Hopf axioms -------------------------------------------------------
    def counit_axiom():
        a = rnd()
        da = a.coproduct()
        return da.eps_left() == a and da.eps_right() == a

    run("hopf_counit", counit_axiom)

    def coassociativity():
        a = rnd()
        return _triple_coproduct(a, True) == _triple_coproduct(a, False)

    run("hopf_coassociativity", coassociativity)

    def antipode_axiom():
        a = rnd()
        da = a.coproduct()
        target = unit.scale(a.counit())
        left = da.map_left(lambda s: s.antipode()).multiply_legs()
        right = da.map_right(lambda s: s.antipode()).multiply_legs()
        return left == target and right == target

    run("hopf_antipode", antipode_axiom)

    run("hopf_antipode_involutive", lambda: (a := rnd()).antipode().antipode() == a)

    def coproduct_multiplicative():
        a, b = rnd(2), rnd(2)
        return (a * b).coproduct() == a.coproduct() * b.coproduct()

    run("hopf_coproduct_multiplicative", coproduct_multiplicative)

    # --- Fox derivatives ---------------------------------------------------
    def fox_reconstruction():
        a = rnd()
        gens = [FreeSeries.generator(i, n, D, RATIONAL) for i in range(1, n + 1)]
        from_right = sum(
            (g * d_right(i + 1, a) for i, g in enumerate(gens)),
            FreeSeries.zero(n, D, RATIONAL),
        )
        from_left = sum(
            (d_left(i + 1, a) * g for i, g in enumerate(gens)),
            FreeSeries.zero(n, D, RATIONAL),
        )
        reduced = a - unit.scale(a.counit())
        return from_right == reduced and from_left == reduced

    run("fox_reconstruction", fox_reconstruction)

    # --- Fox-pairing axioms ------------------------------------------------
    def fox_axioms(rho: FoxPairing):
        def check():
            a, b, c = rnd(2), rnd(2), rnd(2)
            first_slot = rho(a * b, c) == a * rho(b, c) + rho(a, c).scale(b.counit())
            second_slot = rho(a, b * c) == rho(a, b) * c + rho(a, c).scale(b.counit())
            return first_slot and second_slot

        return check

    run("fox_axioms_adjacent_pairing", fox_axioms(rho0))
    run("fox_axioms_inner_pairing", fox_axioms(rho_inner(rnd(2))))
    run("fox_axioms_left_pairing", fox_axioms(rho_left(rng.randint(1, n))))
    run("fox_axioms_right_pairing", fox_axioms(rho_right(rng.randint(1, n))))

    def skew_symmetry():
        a, b = rnd(), rnd()
        return transpose(rho0)(a, b) == -rho_kks(a, b)

    run("adjacent_pairing_skew", skew_symmetry)

    # --- double bracket ----------------------------------------------------
    def db_antisymmetry():
        a, b = rnd(), rnd()
        return double_bracket_kks(a, b) == -double_bracket_kks(b, a).swap()

    run("double_bracket_antisymmetry", db_antisymmetry)

    def db_derivations():
        a, b, c = rnd(2), rnd(2), rnd(2)
        second = double_bracket_kks(a, b * c) == double_bracket_kks(a, c).map_left(
            lambda s: b * s
        ) + double_bracket_kks(a, b).map_right(lambda s: s * c)
        first = double_bracket_kks(a * b, c) == double_bracket_kks(b, c).map_right(
            lambda s: a * s
        ) + double_bracket_kks(a, c).map_left(lambda s: s * b)
        return second and first

    run("double_bracket_derivations", db_derivations)

    def db_counit_recovers_pairing():
        a, b = rnd(), rnd()
        return double_bracket_kks(a, b).eps_left() == rho_kks(a, b)

    run("double_bracket_counit", db_counit_recovers_pairing)

    # --- coaction ----------------------------------------------------------
    def quasi_derivation():
        a, b = rnd(), rnd()
        lhs = mu_bar_kks(a * b)
        rhs = mu_bar_kks(a) * b + a * mu_bar_kks(b) + rho_kks(a, b)
        return (lhs - rhs).norm_through(D - 1) == 0

    run("reduced_coaction_quasi_derivation", quasi_derivation)

    def coaction_product_rule():
        a, b = rnd(), rnd()
        lhs = coaction_mu_kks(a * b)
        rhs = (
            _cbf_mul_free_right(coaction_mu_kks(a), b)
            + _cbf_mul_free_left(a, coaction_mu_kks(b))
            + CyclicByFree.from_tensor(double_bracket_kks(a, b))
        )
        return (lhs - rhs).norm_through(D - 1) == 0

    run("coaction_product_rule", coaction_product_rule)

    # --- cyclic vanishing --------------------------------------------------
    def cyclic_vanishing():
        a, b = rnd(), rnd()
        for rho in (
            rho_inner(rnd(2)),
            rho_left(rng.randint(1, n)),
            rho_right(rng.randint(1, n)),
        ):
            db = double_bracket_from_pairing(rho, a, b)
            if not db.multiply_legs().cyclic_project().is_zero():
                return False
        return True

    run("cyclic_projection_vanishing", cyclic_vanishing)

    def double_derivations_agree():
        a = rnd()
        m = rng.randint(1, n)
        return double_derivation_from_fox(
            "left", m, a
        ) == double_derivation_from_fox("right", m, a)

    run("double_derivation_left_right", double_derivations_agree)

    def twist_inverses():
        t = TensorSeries.outer(rnd(2), rnd(2))
        return (
            alpha_inv(alpha(t)) == t
            and alpha(alpha_inv(t)) == t
            and beta_inv(beta(t)) == t
            and beta(beta_inv(t)) == t
        )

    run("twist_maps_invertible", twist_inverses)

    # --- square-zero extension ---------------------------------------------
    def trivext_associativity():
        u = _random_trivext(rng, n, D)
        v = _random_trivext(rng, n, D)
        w = _random_trivext(rng, n, D)
        return trivext_mul(trivext_mul(u, v), w) == trivext_mul(u, trivext_mul(v, w))

    run("trivext_associativity", trivext_associativity)

    def generator_relations():
        def image(g):
            return pi_generator(g, n, D, RATIONAL)

        def commutator(u, v):
            return trivext_mul(u, v) - trivext_mul(v, u)

        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j and not commutator(image(gen_z(i)), image(gen_w(j))).is_zero():
                    return False
            mixed = image(gen_z(i)) + image(gen_w(i))
            if not commutator(image(GEN_ZW), mixed).is_zero():
                return False
        return trivext_mul(image(GEN_ZW), image(GEN_ZW)).is_zero()

    run("generator_relations_vanish", generator_relations, count=1)

    def square_maps():
        a = rnd()
        q = rng.randint(1, n)
        p = rng.randint(1, n)
        return (
            square_z(q, a) == d_right(q, a)
            and square_w(p, a) == d_left(p, a)
            and square_zw(a) == -mu_bar_kks(a)
        )

    run("square_maps_match_derivatives", square_maps)

    return results


# ---------------------------------------------------------------------------
# verification campaigns
# ---------------------------------------------------------------------------
def _verify_algebra(config: RunConfig, reporter: _Reporter) -> None:
    for name, record in algebra_suite(seed=config.seed, degree=config.degree):
        reporter.emit(
            {
                "command": "verify",
                "which": "algebra",
                "check": name,
                "seed": config.seed,
                "degree": config.degree,
                **record,
            }
        )


def _verify_coaction(config: RunConfig, reporter: _Reporter) -> None:
    path = _load_single_path(config)
    conn = ConnectionSpec(path.punctures, config.degree + 1)
    disc = coaction_check(conn, path, config.accuracy)["max_discrepancy"]
    tol = config.default_tolerance()
    reporter.emit(
        {
            "command": "verify",
            "which": "coaction",
            "check": "reduced_coaction_formula",
            "degree": config.degree,
            "max_discrepancy": disc,
            "tolerance": tol,
            "passed": disc <= tol,
        }
    )


def _verify_pentagon(config: RunConfig, reporter: _Reporter) -> None:
    path = _load_single_path(config)
    conn = ConnectionSpec(path.punctures, config.degree + 1)
    report = pentagon_projection_check(conn, path, config.accuracy)
    tol = config.default_tolerance()
    reporter.emit(
        {
            "command": "verify",
            "which": "pentagon",
            "check": "pentagon_projection",
            "degree": config.degree,
            "rot": report["rot"],
            "n_crossings": report["n_crossings"],
            "max_discrepancy": report["max_discrepancy"],
            "tolerance": tol,
            "passed": report["max_discrepancy"] <= tol,
        }
    )


def _verify_goldman(config: RunConfig, reporter: _Reporter) -> None:
    loop1, loop2 = _load_loop_pair(config)
    conn = ConnectionSpec(loop1.punctures, config.degree + 1)
    report = goldman_bracket_check(conn, loop2, loop1, config.accuracy)
    tol = config.default_tolerance()
    reporter.emit(
        {
            "command": "verify",
            "which": "goldman",
            "check": "loop_bracket_and_cobracket",
            "degree": config.degree,
            "n_crossings": report["n_crossings"],
            "base_linking": report["base_linking"],
            "bracket_discrepancy": report["bracket_discrepancy"],
            "cobracket_discrepancy": report["cobracket_discrepancy"],
            "max_discrepancy": report["max_discrepancy"],
            "tolerance": tol,
            "passed": report["max_discrepancy"] <= tol,
        }
    )


def _verify_poisson(config: RunConfig, reporter: _Reporter) -> None:
    loop1, loop2 = _load_loop_pair(config)
    conn = ConnectionSpec(loop1.punctures, config.degree)
    X = MatrixTuple.random(
        loop1.punctures.n, config.matrix_size, config.radius, config.seed
    )
    report = verify_theorem2(conn, loop2, loop1, X, config.accuracy, config.tolerance)
    record = report.to_json_dict()
    reporter.emit(
        {
            "command": "verify",
            "which": "poisson",
            "check": "representation_bracket_three_way",
            "degree": config.degree,
            "N": config.matrix_size,
            "radius": config.radius,
            "seed": config.seed,
            "max_discrepancy": report.max_discrepancy,
            **record,
        }
    )


_VERIFIERS = {
    "algebra": _verify_algebra,
    "coaction": _verify_coaction,
    "pentagon": _verify_pentagon,
    "goldman": _verify_goldman,
    "poisson": _verify_poisson,
}


def _load_single_path(config: RunConfig) -> PLPath:
    if config.path_file is None:
        raise ValidationError("this campaign needs --path FILE")
    override = parse_punctures(config.punctures) if config.punctures else None
    return load_path_file(config.path_file, override)


def _load_loop_pair(config: RunConfig) -> Tuple[PLPath, PLPath]:
    if len(config.loops) != 2:
        raise ValidationError("this campaign needs --loops FILE1 --loops FILE2")
    override = parse_punctures(config.punctures) if config.punctures else None
    loop1 = load_path_file(config.loops[0], override)
    loop2 = load_path_file(config.loops[1], override)
    if loop1.punctures.points != loop2.punctures.points:
        raise ValidationError("the two loop files use different punctures")
    return loop1, loop2


# ---------------------------------------------------------------------------
# click wiring
# ---------------------------------------------------------------------------
@click.group(name="kzfox")
def cli() -> None:
    """Holonomy series of the logarithmic flat connection and verification
    campaigns for the associated bracket/coaction identities."""


@cli.command(name="associator")
@click.option("--degree", type=int, default=_DEFAULT_DEGREE["associator"], show_default=True)
@click.option("--accuracy", type=float, default=1e-10, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_associator(degree: int, accuracy: float, out: Optional[str]) -> None:
    """Regularized holonomy of the straight path between two punctures."""
    config = RunConfig(degree, accuracy, out=out)
    series = associator(config.degree, config.accuracy)
    reporter = _Reporter(config.out)
    reporter.emit(
        {
            "command": "associator",
            "degree": config.degree,
            "accuracy": config.accuracy,
            "series": series.to_json_dict(),
            "passed": True,
        }
    )
    reporter.close()


@cli.command(name="verify")
@click.argument("which", type=click.Choice(VERIFY_CHOICES))
@click.option("--degree", type=int, default=None, help="Comparison degree.")
@click.option("--accuracy", type=float, default=1e-10, show_default=True)
@click.option("--tol", "tolerance", type=float, default=None, help="Override tolerance.")
@click.option("--path", "path_file", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--loops", multiple=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--punctures", default=None, help="Semicolon-separated complex points.")
@click.option("--N", "matrix_size", type=int, default=2, show_default=True)
@click.option("--radius", type=float, default=0.1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_verify(
    which: str,
    degree: Optional[int],
    accuracy: float,
    tolerance: Optional[float],
    path_file: Optional[str],
    loops: Tuple[str, ...],
    punctures: Optional[str],
    matrix_size: int,
    radius: float,
    seed: int,
    out: Optional[str],
) -> None:
    """Run one verification campaign and report JSON lines."""
    config = RunConfig(
        degree=degree if degree is not None else _DEFAULT_DEGREE[which],
        accuracy=accuracy,
        tolerance=tolerance,
        path_file=path_file,
        loops=loops,
        punctures=punctures,
        matrix_size=matrix_size,
        radius=radius,
        seed=seed,
        out=out,
    )
    reporter = _Reporter(config.out)
    _VERIFIERS[which](config, reporter)
    reporter.close()
    if not reporter.all_passed:
        raise ToleranceFailure(f"{which}: at least one check exceeded tolerance")


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point mapping outcomes to exit codes 0/1/2."""
    try:
        cli.main(args=argv, prog_name="kzfox", standalone_mode=False)
    except (ToleranceFailure, AccuracyError) as exc:
        click.echo(f"FAIL: {exc}", err=True)
        return 2
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return 1
    except (KzfoxError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except MemoryError as exc:
        click.echo(f"error: out of memory: {exc}", err=True)
        return 1
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
