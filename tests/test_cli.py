"""Command-line interface: argument handling, exit codes, JSON output."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from kzfox import COMPLEX, RATIONAL, FreeSeries, cli
from kzfox.cli import _random_series, load_path_file, main
from kzfox.errors import ValidationError

DATA = os.path.join(os.path.dirname(__file__), "data")


def _path(name):
    return os.path.join(DATA, name)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def test_load_path_file(tmp_path):
    path = load_path_file(_path("fig8.json"))
    assert path.start.puncture == 1
    assert path.end.puncture == 3
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"punctures": [[0, 0], [1, 0]], "start": {"kind": "odd"},'
        ' "end": {"kind": "tangential", "puncture": 2, "direction": [-1, 0]},'
        ' "points": []}'
    )
    with pytest.raises(ValidationError) as err:
        load_path_file(str(bad))
    assert "start" in str(err.value)
    notjson = tmp_path / "broken.json"
    notjson.write_text("{")
    with pytest.raises(ValidationError):
        load_path_file(str(notjson))


@pytest.mark.parametrize(
    "field, value",
    [
        (("points",), 5),
        (("punctures",), 5),
        (("points", 2), [float("nan"), 0.3]),
        (("points", 2), [float("inf"), 0.3]),
        (("punctures", 1, 0), float("nan")),
        (("start", "puncture"), "a"),
        (("start", "puncture"), 1.5),
        (("end", "direction"), [float("nan"), 0.0]),
        (("points", 3), [True, 0.55]),
        (("punctures", 1), [True, False]),
        (("punctures", 1, 0), 10**400),
        (("end", "puncture"), 7),
        (("end",), {"kind": "tangential", "puncture": 3}),
        (("points", 1), [0.25, 0.0]),
        (("points", 3), [0.7, -0.3]),
        (("punctures", 1), [0.0, 0.0]),
    ],
    ids=[
        "points_not_a_list",
        "punctures_not_a_list",
        "vertex_nan",
        "vertex_infinite",
        "puncture_coordinate_nan",
        "anchor_puncture_string",
        "anchor_puncture_float",
        "anchor_direction_nan",
        "vertex_boolean",
        "puncture_boolean",
        "puncture_integer_overflow",
        "anchor_puncture_out_of_range",
        "anchor_direction_missing_and_off_the_ray",
        "vertex_repeated",
        "segment_through_puncture",
        "punctures_not_distinct",
    ],
)
def test_malformed_path_field_exits_1(field, value, tmp_path, capsys):
    """fig8.json with one field set to a malformed value: exit 1 with one
    error line that names the file, not a traceback or a NaN discrepancy
    that fails a check."""
    with open(_path("fig8.json"), encoding="utf-8") as fp:
        data = json.load(fp)
    *parents, last = field
    obj = data
    for key in parents:
        obj = obj[key]
    obj[last] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["verify", "coaction", "--path", str(bad), "--degree", "2"]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        err.strip()
    ]
    assert f"{bad}:" in err
    assert "Traceback" not in err
    if field == ("end", "puncture"):
        assert f"{bad}: end: puncture index 7 out of range 1..3" in err


@pytest.mark.parametrize(
    "which, anchor",
    [
        ("start", 3),
        ("start", {"puncture": 1, "direction": [1.0, 0.0]}),
        ("end", {"kind": "odd", "puncture": 3, "direction": [-1.0, 0.0]}),
        ("start", {"kind": "regular"}),
        ("end", {"kind": "tangential", "direction": [-1.0, 0.0]}),
        ("start", {"kind": "tangential", "puncture": "1", "direction": [1.0, 0.0]}),
        ("end", {"kind": "tangential", "puncture": 3.0, "direction": [-1.0, 0.0]}),
        ("start", {"kind": "tangential", "puncture": True, "direction": [1.0, 0.0]}),
        ("end", {"kind": "tangential", "puncture": 3, "direction": [float("nan"), 0.0]}),
        ("start", {"kind": "tangential", "puncture": 1, "direction": [2.0, 0.0]}),
    ],
    ids=[
        "not_an_object",
        "kind_missing",
        "kind_unknown",
        "regular_without_point",
        "tangential_without_puncture",
        "puncture_string",
        "puncture_float",
        "puncture_boolean",
        "direction_nan",
        "direction_not_unit",
    ],
)
def test_malformed_anchor_exits_1_naming_file_and_anchor(which, anchor, tmp_path, capsys):
    """fig8.json with one anchor replaced by one that `Anchor` refuses: exit 1
    with one error line that names the file and the anchor."""
    with open(_path("fig8.json"), encoding="utf-8") as fp:
        data = json.load(fp)
    data[which] = anchor
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["verify", "coaction", "--path", str(bad), "--degree", "2"]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        err.strip()
    ]
    assert f"{bad}: {which}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "content",
    [b'\xff\xfe{"punctures": []}', b"[" * 100000],
    ids=["not_utf8", "nested_too_deeply"],
)
def test_undecodable_path_file_exits_1(content, tmp_path, capsys):
    """A file json cannot decode at all (bad bytes, nesting beyond the
    recursion limit) ends in one error line naming it, not a traceback."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["verify", "coaction", "--path", str(bad), "--degree", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------
def test_unknown_command_exits_1(capsys):
    assert main(["frobnicate"]) == 1


def test_missing_loop_argument_exits_1(capsys):
    assert main(["verify", "goldman"]) == 1


def test_punctures_come_only_from_the_path_files(capsys):
    argv = ["verify", "goldman", "--punctures", "0;1;2",
            "--loops", _path("loop_b1.json"), "--loops", _path("loop_a1.json")]
    assert main(argv) == 1
    assert "--punctures" in capsys.readouterr().err


def test_missing_path_argument_exits_1(capsys):
    assert main(["verify", "coaction"]) == 1
    assert "--path" in capsys.readouterr().err


def test_loop_files_with_different_punctures_exit_1(tmp_path, capsys):
    with open(_path("loop_a1.json"), encoding="utf-8") as fp:
        moved = json.load(fp)
    moved["punctures"][2] = [2.0, 0.5]
    other = tmp_path / "moved.json"
    other.write_text(json.dumps(moved))
    for which in ("goldman", "poisson"):
        argv = ["verify", which, "--loops", _path("loop_b1.json"), "--loops", str(other)]
        assert main(argv) == 1
        assert "different punctures" in capsys.readouterr().err


def test_malformed_path_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"punctures": [[0, 0], [1, 0]], "start": 3,'
        ' "end": {"kind": "tangential", "puncture": 2, "direction": [-1, 0]},'
        ' "points": []}'
    )
    code = main(["verify", "coaction", "--path", str(bad), "--degree", "2"])
    assert code == 1
    assert "start" in capsys.readouterr().err


def test_tolerance_failure_exits_2(capsys):
    code = main(
        [
            "verify",
            "coaction",
            "--path",
            _path("path_embedded2.json"),
            "--degree",
            "2",
            "--tol",
            "1e-20",
        ]
    )
    assert code == 2
    assert "[FAIL]" in capsys.readouterr().err


# L1's segment from (0.6, 0) to (0.8, 0) lies on the anchor ray inside L2's
# tail; the open path S from puncture 1 to 3 runs back over its own tail
# between (0.3, 0) and (0.1, 0).  Neither segment belongs to a tail.
ON_RAY_OFF_TAIL = {
    "L1": [[0.2, 0], [0.2, 0.3], [0.6, 0.3], [0.6, 0], [0.8, 0], [0.8, -0.3],
           [1.5, -0.3], [1.5, 0.45], [0.35, 0.45], [0.35, 0]],
    "L2": [[0.9, 0], [0.9, -0.2], [1.7, -0.2], [1.7, -0.6], [0.1, -0.6], [0.1, 0]],
    "S": [[0.6, 0], [0.6, 0.3], [0.3, 0.3], [0.3, 0], [0.1, 0], [0.1, -0.3],
          [1.6, -0.3], [1.6, 0]],
}


@pytest.mark.parametrize(
    "which, files",
    [("goldman", ["L1", "L2"]), ("poisson", ["L1", "L2"]),
     ("coaction", ["S"]), ("pentagon", ["S"])],
)
def test_segment_on_the_ray_off_the_tails_exits_1(which, files, tmp_path, capsys):
    """A contact between a tail and a segment on the anchor ray that is not
    part of a tail is refused as non-transverse, not skipped as a tail
    contact (which left a crossing uncounted and failed the identity)."""
    base = {"kind": "tangential", "puncture": 1, "direction": [1, 0]}
    end3 = {"kind": "tangential", "puncture": 3, "direction": [-1, 0]}
    argv = ["verify", which]
    for name in files:
        path_file = tmp_path / f"{name}.json"
        path_file.write_text(json.dumps({
            "punctures": [[0, 0], [1, 0], [2, 0]],
            "start": base,
            "end": end3 if name == "S" else base,
            "points": ON_RAY_OFF_TAIL[name],
        }))
        argv += ["--path" if name == "S" else "--loops", str(path_file)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: non-transverse touching between segments"), err


@pytest.mark.parametrize("tol, code", [("1e-30", 2), ("1e-6", 0)])
def test_poisson_tol_is_the_tolerance(tol, code, capsys):
    """--tol sets the poisson tolerance, as in the other campaigns, not a
    floor under the tail bound (1.0e-3 here; the discrepancy is 5.9e-8)."""
    argv = ["verify", "poisson", "--loops", _path("loop_a4.json")]
    argv += ["--loops", _path("loop_bup.json"), "--tol", tol]
    assert main(argv) == code
    record = json.loads(capsys.readouterr().out)
    assert record["tolerance"] == float(tol)
    assert record["tail_bound"] > 1e-4


@pytest.mark.parametrize(
    "args, expected",
    [
        (["coaction", "--path", "fig8.json", "--degree", "3"], 1e-5),
        (["coaction", "--path", "fig8.json", "--degree", "4"], 1e-4),
        (["pentagon", "--path", "fig8.json", "--degree", "3"], 1e-5),
        (["pentagon", "--path", "fig8.json", "--degree", "4"], 1e-4),
        (["goldman", "--loops", "loop_a1.json", "--loops", "loop_b1.json",
          "--degree", "3"], 1e-5),
        (["poisson", "--loops", "loop_a4.json", "--loops", "loop_bup.json"], 1.0414e-3),
        (["poisson", "--loops", "loop_a5.json", "--loops", "loop_b1.json",
          "--degree", "2", "--radius", "0.01"], 2.7835e-5),
    ],
    ids=["coaction-3", "coaction-4", "pentagon-3", "pentagon-4", "goldman-3",
         "poisson-default", "poisson-2-tail-above-1e-5"],
)
def test_default_tolerance_of_each_campaign(args, expected, capsys):
    """Without --tol a numeric record's tolerance is 1e-5 through degree 3
    and 1e-4 above, raised to the report's tail_bound when it has one (the
    poisson records; at degree 2 the tail bound 2.8e-5 is the tolerance)."""
    argv = ["verify"] + [_path(a) if a.endswith(".json") else a for a in args]
    assert main(argv) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["tolerance"] == pytest.approx(expected, rel=1e-4)
    floor = 1e-5 if record["degree"] <= 3 else 1e-4
    assert record["tolerance"] == max(floor, record.get("tail_bound", 0.0))


def test_unknown_option_exits_1_with_clicks_error(capsys):
    """An option the command does not have ends in click's usage text and
    its one error line, not a traceback."""
    argv = ["verify", "coaction", "--path", _path("path_embedded2.json")]
    assert main(argv + ["--backend", "rational"]) == 1
    err = capsys.readouterr().err
    (line,) = [line for line in err.splitlines() if line.startswith("Error:")]
    assert "No such option" in line and "--backend" in line
    assert "Traceback" not in err


@pytest.mark.parametrize("size", ["0", "-2"])
def test_nonpositive_matrix_size_exits_1(size, capsys):
    argv = ["verify", "poisson", "--loops", _path("loop_a4.json")]
    argv += ["--loops", _path("loop_bup.json"), "--N", size]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "--N must be >= 1" in err
    assert "Traceback" not in err


def test_oversized_matrix_size_exits_1(capsys):
    """An --N whose matrix tuple cannot be allocated ends in one error line:
    numpy refuses the 8 TB request at once, so nothing is allocated."""
    argv = ["verify", "poisson", "--loops", _path("loop_a4.json")]
    argv += ["--loops", _path("loop_bup.json"), "--N", "1000000"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_poisson_with_infinite_tail_bound_exits_1(capsys):
    """With n * ||X|| >= 1 the series' tail diverges, so the truncated series
    bounds nothing: the campaign is refused instead of passing, also when
    --tol sets a finite tolerance."""
    argv = ["verify", "poisson", "--loops", _path("loop_a4.json")]
    argv += ["--loops", _path("loop_bup.json"), "--degree", "3", "--radius", "5"]
    for tol in ([], ["--tol", "1e-6"]):
        assert main(argv + tol) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: n * ||X|| = 15 >= 1: ")
        assert "tail diverges" in captured.err and "tolerance" not in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("option", ["--tol", "--accuracy", "--radius"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_setting_exits_1(option, value, capsys):
    """A non-finite tolerance would pass every check and write invalid JSON;
    a non-finite accuracy or radius is no setting either."""
    argv = ["verify", "poisson", "--loops", _path("loop_a1.json")]
    argv += ["--loops", _path("loop_b1.json"), option, value]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "must be finite" in captured.err
    assert captured.out == ""


def test_python_m_kzfox_runs_from_a_checkout():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-m", "kzfox", "--help"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "verify" in result.stdout


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------
def test_associator_degree_zero(capsys):
    assert main(["associator", "--degree", "0"]) == 0
    out = capsys.readouterr().out
    (line,) = [l for l in out.splitlines() if l.strip()]
    record = json.loads(line)
    assert record["degree"] == 0


def test_associator_record_is_judged_by_duality(capsys, monkeypatch):
    """The associator record carries its duality discrepancy, tolerance and
    verdict; a series that is not dual fails the run with exit code 2."""
    assert main(["associator", "--degree", "6"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["check"] == "associator_duality"
    assert record["max_discrepancy"] < 1e-15 and record["tolerance"] == 1e-4
    assert record["passed"] is True
    not_dual = FreeSeries(2, 2, {(): 1.0, (1,): 1.0}, COMPLEX)
    monkeypatch.setattr(cli, "associator", lambda degree, accuracy: not_dual)
    assert main(["associator", "--degree", "2"]) == 2
    captured = capsys.readouterr()
    record = json.loads(captured.out)
    assert (record["max_discrepancy"], record["passed"]) == (1.0, False)
    assert "[FAIL] associator_duality" in captured.err


def test_negative_seed(capsys):
    """A negative seed is a domain error for the matrix tuple of `verify
    poisson`, while the algebra suite's seed takes any integer."""
    loops = ["--loops", _path("loop_a4.json"), "--loops", _path("loop_bup.json")]
    assert main(["verify", "poisson", *loops, "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err
    assert "Traceback" not in err
    assert main(["verify", "algebra", "--degree", "2", "--seed", "-1"]) == 0


def test_algebra_campaign_deterministic(capsys):
    assert main(["verify", "algebra", "--degree", "3"]) == 0
    first = capsys.readouterr()
    assert main(["verify", "algebra", "--degree", "3"]) == 0
    second = capsys.readouterr()
    assert first.out == second.out
    records = [json.loads(l) for l in first.out.splitlines() if l.strip()]
    assert records
    assert all(r["passed"] for r in records)
    assert "[PASS]" in first.err


def test_coaction_campaign_writes_out_file(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    code = main(
        [
            "verify",
            "coaction",
            "--path",
            _path("path_embedded2.json"),
            "--degree",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    records = [json.loads(l) for l in out.read_text().splitlines() if l.strip()]
    assert records and all(r["passed"] for r in records)
    assert all(r["max_discrepancy"] <= r["tolerance"] for r in records)


def test_goldman_campaign(capsys):
    code = main(
        [
            "verify",
            "goldman",
            "--loops",
            _path("loop_b1.json"),
            "--loops",
            _path("loop_a1.json"),
            "--degree",
            "2",
        ]
    )
    assert code == 0
    records = [json.loads(l) for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert any(r.get("n_crossings") == 1 for r in records)


def test_goldman_campaign_reaches_degree_5(tmp_path, capsys):
    out = tmp_path / "goldman.jsonl"
    code = main(
        [
            "verify",
            "goldman",
            "--loops",
            _path("loop_a1.json"),
            "--loops",
            _path("loop_b1.json"),
            "--degree",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    records = [json.loads(l) for l in out.read_text().splitlines() if l.strip()]
    assert records and all(r["passed"] is True for r in records)
    assert all(r["degree"] == 5 for r in records)


def test_goldman_campaign_reaches_degree_7(tmp_path, capsys):
    out = tmp_path / "goldman.jsonl"
    code = main(
        [
            "verify",
            "goldman",
            "--loops",
            _path("loop_a1.json"),
            "--loops",
            _path("loop_b1.json"),
            "--degree",
            "7",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    records = [json.loads(l) for l in out.read_text().splitlines() if l.strip()]
    assert records and all(r["passed"] is True for r in records)
    assert all(r["degree"] == 7 for r in records)


def _dict_draw(rng, n, degree, max_word):
    """The reference draw of `cli._random_series`: the same five draws summed
    into a dict before the constructor."""
    coeffs = {}
    for _ in range(5):
        k = rng.randint(0, max_word)
        w = tuple(rng.randint(1, n) for _ in range(k))
        coeffs[w] = coeffs.get(w, 0) + Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return FreeSeries(n, degree, coeffs, RATIONAL)


def test_random_series_matches_the_dict_draw():
    """Passing the draws straight to the constructor gives the same series
    and leaves the generator in the same state, over 1000 seeds."""
    for seed in range(1000):
        for n, degree, max_word in ((2, 4, 3), (3, 3, 2), (2, 2, 3)):
            rng, ref = random.Random(seed), random.Random(seed)
            assert _random_series(rng, n, degree, max_word) == _dict_draw(
                ref, n, degree, max_word)
            assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("pair, crossings", [(1, 3), (8, 1)])
def test_loop_pairs_with_a_nonzero_bracket(pair, crossings, tmp_path):
    """Pairs 1 and 8 of `random_loop_pairs(11, 9)`, written as fixtures, have
    a necklace bracket of size 1, so their goldman check sees the bracket
    side of the identity: it holds to 1e-13 at degree 7, and the default
    poisson campaign passes on them."""
    loops = ["--loops", _path(f"loop_pair{pair}_1.json"),
             "--loops", _path(f"loop_pair{pair}_2.json")]
    for k, argv in enumerate((["goldman", "--degree", "7"], ["poisson"])):
        out = tmp_path / f"{k}.jsonl"
        assert main(["verify", *argv, *loops, "--out", str(out)]) == 0
        (record,) = [json.loads(l) for l in out.read_text().splitlines() if l.strip()]
        assert record["passed"] is True and record["n_crossings"] == crossings
        if k == 0:
            assert record["max_discrepancy"] <= 1e-13


def test_poisson_degree_zero_exits_1_before_transport(monkeypatch, capsys):
    """Every two-path identity is exact through D-1, so the poisson campaign
    refuses --degree 0 with exit code 1 and no transport."""
    from kzfox import kz_holonomy

    calls = []
    monkeypatch.setattr(kz_holonomy, "holonomy_reg", lambda *args: calls.append(args))
    argv = ["verify", "poisson", "--loops", _path("loop_a1.json"),
            "--loops", _path("loop_b1.json"), "--degree", "0", "--radius", "0.01"]
    assert main(argv) == 1
    assert "truncation degree >= 1" in capsys.readouterr().err
    assert calls == []


def test_self_crossing_loop_meets_the_cobracket_crossing_term(tmp_path):
    """`loop_fig8` crosses itself once (rot 1/2), so its cobracket check runs
    the self-crossing term, which no other fixture loop reaches: the goldman
    check against `loop_a1` in both orders at degree 5, and the coaction on
    it, hold to 1e-13 (without the term the cobracket misses by 1.0)."""
    fig8, a1 = _path("loop_fig8.json"), _path("loop_a1.json")
    for k, argv in enumerate((
        ["goldman", "--degree", "5", "--loops", fig8, "--loops", a1],
        ["goldman", "--degree", "5", "--loops", a1, "--loops", fig8],
        ["coaction", "--path", fig8],
    )):
        out = tmp_path / f"{k}.jsonl"
        assert main(["verify", *argv, "--tol", "1e-13", "--out", str(out)]) == 0
        (record,) = [json.loads(l) for l in out.read_text().splitlines() if l.strip()]
        assert record["max_discrepancy"] <= 1e-13
    assert (record["n_crossings"], record["rot"]) == (1, 0.5)


def test_pentagon_campaign_reaches_degree_6(tmp_path):
    out = tmp_path / "pentagon.jsonl"
    code = main(
        [
            "verify",
            "pentagon",
            "--path",
            _path("fig8.json"),
            "--degree",
            "6",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    records = [json.loads(l) for l in out.read_text().splitlines() if l.strip()]
    assert records and all(r["passed"] is True for r in records)
    assert all(r["degree"] == 6 for r in records)


def test_coaction_campaign_reaches_degree_7(tmp_path):
    out = tmp_path / "coaction.jsonl"
    code = main(
        [
            "verify",
            "coaction",
            "--path",
            _path("fig8.json"),
            "--degree",
            "7",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    records = [json.loads(l) for l in out.read_text().splitlines() if l.strip()]
    assert records and all(r["passed"] is True for r in records)
    assert all(r["degree"] == 7 for r in records)


# ---------------------------------------------------------------------------
# work counters
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("which", ["coaction", "pentagon"])
def test_campaign_scans_crossings_once(monkeypatch, capsys, which):
    """The crossings and the rotation number found for the transport's
    breakpoints are the ones the reduced-coaction assembly uses."""
    from kzfox import kz_holonomy

    calls = {"self_intersections": 0, "rotation_number": 0}
    for name in calls:
        def counting(*args, _name=name, _original=getattr(kz_holonomy, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(kz_holonomy, name, counting)
    assert main(["verify", which, "--path", _path("fig8.json")]) == 0
    assert calls == {"self_intersections": 1, "rotation_number": 1}


def test_pentagon_makes_no_extension_products(monkeypatch, capsys):
    """The pentagon campaign runs the closed forms, not the square-zero
    extension: no algebra-map extension and no extension product."""
    from kzfox import cli, trivial_extension

    calls = {"_algebra_map": 0, "trivext_mul": 0}
    for module, name in (
        (trivial_extension, "_algebra_map"),
        (trivial_extension, "trivext_mul"),
        (cli, "trivext_mul"),
    ):
        def counting(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    assert main(["verify", "pentagon", "--path", _path("fig8.json"), "--degree", "4"]) == 0
    assert calls == {"_algebra_map": 0, "trivext_mul": 0}
    # the counters see calls: the algebra suite extends through them
    assert main(["verify", "algebra", "--degree", "2"]) == 0
    assert calls["_algebra_map"] > 0 and calls["trivext_mul"] > 0


def test_goldman_builds_no_double_bracket(monkeypatch, capsys):
    """The necklace bracket runs on cyclic classes: the goldman campaign
    builds no double-bracket series."""
    from kzfox import brackets_coactions, cli

    calls = []
    original = brackets_coactions.double_bracket_from_pairing

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (brackets_coactions, cli):
        monkeypatch.setattr(module, "double_bracket_from_pairing", counting)
    argv = ["verify", "goldman", "--loops", _path("loop_a1.json"),
            "--loops", _path("loop_b1.json")]
    assert main(argv) == 0
    assert calls == []
    # the counter sees calls: the algebra suite builds double brackets
    assert main(["verify", "algebra", "--degree", "2"]) == 0
    assert calls


@pytest.mark.parametrize(
    "argv, transports",
    [
        (["coaction", "--path", _path("fig8.json")], 1),
        (["pentagon", "--path", _path("fig8.json")], 1),
        (["goldman", "--loops", _path("loop_a4.json"),
          "--loops", _path("loop_bup.json")], 2),
        (["poisson", "--degree", "3", "--loops", _path("loop_a4.json"),
          "--loops", _path("loop_bup.json")], 2),
    ],
)
def test_campaign_transports_each_path_once(monkeypatch, capsys, argv, transports):
    from kzfox import kz_holonomy

    calls = []
    transport = kz_holonomy.holonomy_reg

    def counting(conn, path, *args, **kwargs):
        calls.append(path)
        return transport(conn, path, *args, **kwargs)

    monkeypatch.setattr(kz_holonomy, "holonomy_reg", counting)
    assert main(["verify"] + argv) == 0
    assert len(calls) == transports
    assert len({id(path) for path in calls}) == transports
