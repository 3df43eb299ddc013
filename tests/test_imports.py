"""What a fresh process imports on the exact path, and the README's library
quick start run as written."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NUMERIC = ("numpy", "kzfox.kz_holonomy", "kzfox.rep_space")


def _run_python(code, cwd):
    """Run `code` in a fresh interpreter that imports kzfox from `src/`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_verify_algebra_loads_no_numeric_module(tmp_path, data_dir):
    """`verify algebra` runs the exact suite without importing numpy or the
    numeric kernel; a numeric campaign from the same process still passes."""
    code = f"""
import json, sys
from kzfox.cli import main
exact = main(["verify", "algebra", "--degree", "2", "--out", "algebra.jsonl"])
loaded = [name for name in {NUMERIC!r} if name in sys.modules]
numeric = main(["verify", "coaction", "--path", {str(data_dir / "fig8.json")!r},
                "--out", "coaction.jsonl"])
print(json.dumps([exact, loaded, numeric]))
"""
    proc = _run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    exact, loaded, numeric = json.loads(proc.stdout.splitlines()[-1])
    assert (exact, loaded, numeric) == (0, [], 0)
    for name in ("algebra", "coaction"):
        records = [json.loads(line) for line in
                   (tmp_path / f"{name}.jsonl").read_text().splitlines()]
        assert records and all(r["passed"] is True for r in records)


def test_readme_quick_start_runs_as_written(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Quick start (library)"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    proc = _run_python(block, tmp_path)
    assert proc.returncode == 0, proc.stderr
    bracket, numeric = proc.stdout.splitlines()
    assert bracket == "TensorSeries((1)*((), (1,)) + (-1)*((1,), ()))"
    grouplike, norm = numeric.split()
    assert grouplike == "True" and abs(float(norm) - 0.5) < 1e-8
