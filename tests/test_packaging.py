"""The package as a user meets it: no third-party module at run time, and a
README quick tour and research scripts that run as written."""

import ast
import contextlib
import importlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Runs ``python -m katolab`` with numpy made unimportable (and, with -S, no
# site-packages), then lists every loaded module outside the standard library
# and the package itself.  Before the run it lists which of the heavy standard
# modules that ``import katolab`` no longer needs were loaded by it.
NO_THIRD_PARTY = """
import runpy, sys
sys.modules["numpy"] = None
import katolab
print("start-up:", sorted({"dataclasses", "inspect"} & set(sys.modules)), file=sys.stderr)
sys.argv = ["katolab", "invariants", "1,0,2;0,0,1;0,1,2"]
try:
    runpy.run_module("katolab", run_name="__main__")
finally:
    extra = sorted(
        name
        for name, module in sys.modules.items()
        if module is not None
        and name.partition(".")[0] not in sys.stdlib_module_names | {"__main__", "katolab"}
    )
    print("third-party:", extra, file=sys.stderr)
"""


def test_traced_benchmark_targets_resolve():
    """Every function the traced benchmark run wraps still exists under its name."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    (targets,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    ]
    assert targets
    for module, qualname, _ in targets:
        obj = importlib.import_module(f"katolab.{module}")
        for part in qualname.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module, qualname)


def test_runs_without_any_third_party_module():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", NO_THIRD_PARTY], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "perron_alpha: " in proc.stdout
    assert "third-party: []" in proc.stderr
    assert "start-up: []" in proc.stderr


def test_readme_quick_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    assert out.getvalue().split() == ["4", "1", "K", "=", "L⊗O(-A_(1)-C)"]


@pytest.mark.parametrize(
    "argv",
    [
        ("invariant_survey.py", "--samples", "20"),
        ("contraction_probe.py", "--n", "3", "--max-len", "3"),
        ("nullity_scan.py", "--samples", "2"),
    ],
)
def test_readme_research_scripts_run(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
