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

Each command looks its check up in the check's own module at call time: the
exact suite in `kzfox.exact_suite`, the holonomy identities in
`kzfox.kz_holonomy` and `kzfox.rep_space`.  The numeric modules, and numpy
with them, are imported only by the commands that run them, so ``verify
algebra`` loads none of them.

Reports are JSON lines written to ``--out`` (default: stdout); a one-line
human summary per check goes to stderr.  Exit codes: 0 all checks passed,
1 usage or input error, 2 a check exceeded its tolerance (or an accuracy
target could not be met).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import List, Optional, Tuple

import click

from . import exact_suite
from .errors import AccuracyError, KzfoxError, ValidationError
from .kz_paths import DEFAULT_ACCURACY, Anchor, PLPath, PunctureConfig


class ToleranceFailure(KzfoxError):
    """A verification campaign exceeded its tolerance."""


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------
@dataclass
class RunConfig:
    """Validated bundle of command-line settings for one run."""

    degree: int
    accuracy: float = DEFAULT_ACCURACY
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
# verification campaigns
#
# Each campaign returns its records with its check's report spread into them;
# `_judged` gives a numeric record its tolerance and verdict, and `cmd_verify`
# adds the fields that every record shares.  Each check is looked up in its
# own module (`exact_suite`, `kz_holonomy`, `rep_space`) at call time, never
# through a stored reference, so a wrapper installed on that module's name
# sees every call.
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
    suite = exact_suite.algebra_suite(seed=config.seed, degree=config.degree)
    return [{"check": name, "seed": config.seed, **record} for name, record in suite]


def _verify_path(config: RunConfig, which: str) -> List[dict]:
    """coaction, or pentagon: the same check after refusing loops."""
    from . import kz_holonomy  # numpy: imported by the numeric campaigns only

    (path,) = _load_paths(config, loops=False)
    conn = kz_holonomy.ConnectionSpec(path.punctures, config.degree + 1)
    if which == "pentagon":
        report = kz_holonomy.pentagon_projection_check(conn, path, config.accuracy)
        return [_judged(config, "pentagon_projection", report)]
    report = kz_holonomy.coaction_check(conn, path, config.accuracy)
    return [_judged(config, "reduced_coaction_formula", report)]


def _verify_goldman(config: RunConfig, which: str) -> List[dict]:
    from . import kz_holonomy  # numpy: imported by the numeric campaigns only

    loop1, loop2 = _load_paths(config, loops=True)
    conn = kz_holonomy.ConnectionSpec(loop1.punctures, config.degree + 1)
    report = kz_holonomy.goldman_bracket_check(conn, loop2, loop1, config.accuracy)
    return [_judged(config, "loop_bracket_and_cobracket", report)]


def _verify_poisson(config: RunConfig, which: str) -> List[dict]:
    from . import kz_holonomy, rep_space  # numpy: imported by the numeric campaigns only

    loop1, loop2 = _load_paths(config, loops=True)
    conn = kz_holonomy.ConnectionSpec(loop1.punctures, config.degree)
    X = rep_space.MatrixTuple.random(
        loop1.punctures.n, config.matrix_size, config.radius, config.seed
    )
    report = rep_space.verify_theorem2(conn, loop2, loop1, X, config.accuracy)
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
@click.option("--accuracy", type=float, default=DEFAULT_ACCURACY, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_associator(degree: int, accuracy: float, out: Optional[str]) -> None:
    """Regularized holonomy of the straight path between two punctures,
    judged by its duality discrepancy max |swap(Phi) Phi - 1|."""
    from . import kz_holonomy  # numpy: imported by the numeric commands only

    config = RunConfig(degree, accuracy, out=out)
    series = kz_holonomy.associator(config.degree, config.accuracy)
    report = {"max_discrepancy": kz_holonomy.duality_discrepancy(series)}
    record = {"command": "associator", "degree": config.degree,
              "accuracy": config.accuracy, "series": series.to_json_dict(),
              **_judged(config, "associator_duality", report)}
    _write_records(config.out, "associator", [record])


@cli.command(name="verify")
@click.argument("which", type=click.Choice(tuple(_CAMPAIGNS)))
@click.option("--degree", type=int, default=None, help="Comparison degree.")
@click.option("--accuracy", type=float, default=DEFAULT_ACCURACY, show_default=True)
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
