"""Command-line interface: argument handling, exit codes, JSON output."""

import json
import os
import subprocess
import sys

import pytest

from kzfox.cli import load_path_file, main, parse_punctures
from kzfox.errors import ValidationError

DATA = os.path.join(os.path.dirname(__file__), "data")


def _path(name):
    return os.path.join(DATA, name)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def test_parse_punctures():
    cfg = parse_punctures("0;1;2+0.5j")
    assert cfg.points == (0j, 1 + 0j, 2 + 0.5j)
    with pytest.raises(ValidationError):
        parse_punctures("0;;1")
    with pytest.raises(ValidationError):
        parse_punctures("0;zebra")


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
    ],
)
def test_malformed_path_field_exits_1(field, value, tmp_path, capsys):
    """fig8.json with one field set to a malformed value: exit 1 with one
    error line, not a traceback or a NaN discrepancy that fails a check."""
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
    assert main(["verify", "goldman", "--punctures", "0;1;2"]) == 1


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


def test_rational_backend_rejected_for_numeric_campaigns(capsys):
    code = main(
        [
            "verify",
            "coaction",
            "--path",
            _path("path_embedded2.json"),
            "--backend",
            "rational",
        ]
    )
    assert code == 1


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
    """With n * ||X|| >= 1 the tail bound, and so the tolerance, would be
    infinite: the campaign is refused instead of passing."""
    argv = ["verify", "poisson", "--loops", _path("loop_a4.json")]
    argv += ["--loops", _path("loop_bup.json"), "--degree", "3", "--radius", "5"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "n * ||X|| = 15 >= 1" in captured.err
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
            "--punctures",
            "0;1;2",
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
    from kzfox import kz_holonomy, rep_space

    calls = []
    transport = kz_holonomy.holonomy_reg

    def counting(conn, path, *args, **kwargs):
        calls.append(path)
        return transport(conn, path, *args, **kwargs)

    monkeypatch.setattr(kz_holonomy, "holonomy_reg", counting)
    monkeypatch.setattr(rep_space, "holonomy_reg", counting)
    assert main(["verify"] + argv) == 0
    assert len(calls) == transports
    assert len({id(path) for path in calls}) == transports
