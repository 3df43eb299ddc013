"""Command-line front end for holonomy computations and verification
campaigns.

Subcommands
-----------
``kzfox associator``
    Compute the regularized holonomy series of the straight path between two
    punctures and emit it as JSON, judged by its duality discrepancy.
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
    double_derivation_left,
    double_derivation_right,
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
)
from .free_hopf import RATIONAL, FreeSeries, TensorSeries, _accumulate, _graded_pairs
from .kz_holonomy import (
    ConnectionSpec,
    associator,
    coaction_check,
    duality_discrepancy,
    goldman_bracket_check,
    pentagon_projection_check,
)
from .kz_paths import Anchor, PLPath, PunctureConfig
from .rep_space import MatrixTuple, verify_theorem2
from .trivial_extension import (
    TrivExtElement,
    generator_images,
    square_w,
    square_z,
    square_zw,
    trivext_mul,
)


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


def _named(where: str, build, *args, **kwargs):
    """build(*args, **kwargs), its `ValidationError` prefixed with `where`."""
    try:
        return build(*args, **kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _parse_anchor(obj, where: str, punctures: PunctureConfig) -> Anchor:
    """An anchor object: its numbers converted, only the fields of its kind
    passed to `Anchor`, which checks them, and its location read from the
    punctures, which checks a puncture index."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected an object with a 'kind' field")
    kind = obj.get("kind")
    values = {"direction": 1 + 0j} if kind == "tangential" else {}
    for key in {"regular": ("point",), "tangential": ("puncture", "direction")}.get(kind, ()):
        if key in obj:
            values[key] = obj[key] if key == "puncture" else _as_complex(obj[key], f"{where}.{key}")
    anchor = _named(where, Anchor, kind, **values)
    _named(where, anchor.location, punctures)
    return anchor


def load_path_file(filename: str) -> PLPath:
    """Read a path description: {'punctures': [...], 'start': anchor,
    'end': anchor, 'points': [...]}.  The file is the one source of the
    path's punctures.  Every refusal names the file."""
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
    if "punctures" not in data:
        raise ValidationError(f"{filename}: missing 'punctures' field")
    punctures = _named(filename, PunctureConfig, [
        _as_complex(p, f"{filename}: punctures[{k}]")
        for k, p in enumerate(data["punctures"])
    ])
    for key in ("start", "end"):
        if key not in data:
            raise ValidationError(f"{filename}: missing '{key}' field")
    points = [
        _as_complex(p, f"{filename}: points[{k}]")
        for k, p in enumerate(data.get("points", []))
    ]
    start, end = (_parse_anchor(data[key], f"{filename}: {key}", punctures)
                  for key in ("start", "end"))
    return _named(filename, PLPath, punctures, start, end, points)


# ---------------------------------------------------------------------------
# report output
# ---------------------------------------------------------------------------
def _write_records(out: Optional[str], name: str, records: List[dict]) -> None:
    """Write the records as JSON lines to `out` (stdout when None), with a
    one-line summary of each judged record on stderr; a failed record ends
    the run in exit code 2."""
    for record in records:
        if "passed" in record:
            tag = "PASS" if record["passed"] else "FAIL"
            disc, tol = record.get("max_discrepancy"), record.get("tolerance")
            extra = "" if disc is None else f": max discrepancy {disc:.3e}"
            extra += "" if tol is None else f" (tol {tol:.1e})"
            click.echo(f"[{tag}] {record.get('check', name)}{extra}", err=True)
    text = "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fp:
            fp.write(text)
    if not all(record.get("passed", True) for record in records):
        raise ToleranceFailure(f"{name}: at least one check exceeded tolerance")


# ---------------------------------------------------------------------------
# exact identity suite (rational backend)
# ---------------------------------------------------------------------------
def _random_series(rng, n, degree, max_word=3) -> FreeSeries:
    """Five random (word, coefficient) draws; the constructor sums repeated
    words and drops zeros."""

    def draw():
        word = tuple(rng.randint(1, n) for _ in range(rng.randint(0, max_word)))
        return word, Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    return FreeSeries(n, degree, [draw() for _ in range(5)], RATIONAL)


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
        return rho0.transpose()(a, b) == -rho_kks(a, b)

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
        return double_derivation_left(m, a) == double_derivation_right(m, a)

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
        z, w, crossed = generator_images(n, D, RATIONAL)

        def commutator(u, v):
            return trivext_mul(u, v) - trivext_mul(v, u)

        for i in range(n):
            for j in range(n):
                if i != j and not commutator(z[i], w[j]).is_zero():
                    return False
            if not commutator(crossed, z[i] + w[i]).is_zero():
                return False
        return trivext_mul(crossed, crossed).is_zero()

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
#
# Each campaign returns its records with its check's report spread into them;
# `_judged` gives a numeric record its tolerance and verdict, and `cmd_verify`
# adds the fields that every record shares.  The checks are
# called through this module's names at call time, never through a stored
# reference, so a wrapper installed on those names sees every call.
# ---------------------------------------------------------------------------
def _load_paths(config: RunConfig, loops: bool) -> List[PLPath]:
    """The --path file, or the two --loops files, which must list the same
    punctures: each path's punctures are read from its file."""
    if loops and len(config.loops) != 2:
        raise ValidationError("this campaign needs --loops FILE1 --loops FILE2")
    if not loops and config.path_file is None:
        raise ValidationError("this campaign needs --path FILE")
    files = config.loops if loops else [config.path_file]
    paths = [load_path_file(f) for f in files]
    if len({path.punctures.points for path in paths}) > 1:
        raise ValidationError("the two loop files use different punctures")
    return paths


def _judged(config: RunConfig, check: str, report: dict) -> dict:
    """A numeric check's record: its report, tolerance and verdict.  This is
    the one tolerance rule: ``--tol`` if given; otherwise 1e-5 through degree
    3 and 1e-4 above, raised to the report's ``tail_bound`` if it has one."""
    tol = config.tolerance
    if tol is None:
        tol = max(1e-5 if config.degree <= 3 else 1e-4, report.get("tail_bound", 0.0))
    passed = report["max_discrepancy"] <= tol
    return {"check": check, **report, "tolerance": tol, "passed": passed}


def _verify_algebra(config: RunConfig, which: str) -> List[dict]:
    suite = algebra_suite(seed=config.seed, degree=config.degree)
    return [{"check": name, "seed": config.seed, **record} for name, record in suite]


def _verify_path(config: RunConfig, which: str) -> List[dict]:
    """coaction, or pentagon: the same check after refusing loops."""
    (path,) = _load_paths(config, loops=False)
    conn = ConnectionSpec(path.punctures, config.degree + 1)
    if which == "pentagon":
        report = pentagon_projection_check(conn, path, config.accuracy)
        return [_judged(config, "pentagon_projection", report)]
    report = coaction_check(conn, path, config.accuracy)
    return [_judged(config, "reduced_coaction_formula", report)]


def _verify_goldman(config: RunConfig, which: str) -> List[dict]:
    loop1, loop2 = _load_paths(config, loops=True)
    conn = ConnectionSpec(loop1.punctures, config.degree + 1)
    report = goldman_bracket_check(conn, loop2, loop1, config.accuracy)
    return [_judged(config, "loop_bracket_and_cobracket", report)]


def _verify_poisson(config: RunConfig, which: str) -> List[dict]:
    loop1, loop2 = _load_paths(config, loops=True)
    conn = ConnectionSpec(loop1.punctures, config.degree)
    X = MatrixTuple.random(
        loop1.punctures.n, config.matrix_size, config.radius, config.seed
    )
    report = verify_theorem2(conn, loop2, loop1, X, config.accuracy)
    settings = {"N": config.matrix_size, "radius": config.radius, "seed": config.seed}
    return [_judged(config, "representation_bracket_three_way", {**settings, **report})]


# campaign name -> (default degree, campaign)
_CAMPAIGNS = {
    "algebra": (4, _verify_algebra),
    "coaction": (3, _verify_path),
    "pentagon": (3, _verify_path),
    "goldman": (3, _verify_goldman),
    "poisson": (5, _verify_poisson),
}


# ---------------------------------------------------------------------------
# click wiring
# ---------------------------------------------------------------------------
@click.group(name="kzfox")
def cli() -> None:
    """Holonomy series of the logarithmic flat connection and verification
    campaigns for the associated bracket/coaction identities."""


@cli.command(name="associator")
@click.option("--degree", type=int, default=3, show_default=True)
@click.option("--accuracy", type=float, default=1e-10, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_associator(degree: int, accuracy: float, out: Optional[str]) -> None:
    """Regularized holonomy of the straight path between two punctures,
    judged by its duality discrepancy max |swap(Phi) Phi - 1|."""
    config = RunConfig(degree, accuracy, out=out)
    series = associator(config.degree, config.accuracy)
    report = {"max_discrepancy": duality_discrepancy(series)}
    record = {"command": "associator", "degree": config.degree,
              "accuracy": config.accuracy, "series": series.to_json_dict(),
              **_judged(config, "associator_duality", report)}
    _write_records(config.out, "associator", [record])


@cli.command(name="verify")
@click.argument("which", type=click.Choice(tuple(_CAMPAIGNS)))
@click.option("--degree", type=int, default=None, help="Comparison degree.")
@click.option("--accuracy", type=float, default=1e-10, show_default=True)
@click.option("--tol", "tolerance", type=float, default=None, help="Override tolerance.")
@click.option("--path", "path_file", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--loops", multiple=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--N", "matrix_size", type=int, default=2, show_default=True)
@click.option("--radius", type=float, default=0.1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_verify(which: str, degree: Optional[int], **settings) -> None:
    """Run one verification campaign and report JSON lines."""
    default_degree, campaign = _CAMPAIGNS[which]
    config = RunConfig(default_degree if degree is None else degree, **settings)
    shared = {"command": "verify", "which": which, "degree": config.degree}
    records = [{**shared, **record} for record in campaign(config, which)]
    _write_records(config.out, which, records)


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
