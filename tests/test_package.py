"""The `fidmod` namespace: its supported names, and the README tour."""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import fidmod

ROOT = Path(__file__).resolve().parents[1]

SUPPORTED = {
    "Decomposition", "FreeModuleSpec", "PaddedLabel",
    "InsufficientPoints", "InvalidPartition", "NoExactFit", "NoStabilization",
    "constituent_multiplicity", "decompose", "decompose_at",
    "default_dims_window", "default_multiplicity_window", "dim_at",
    "fit_exponential_polynomial", "fit_polynomial", "induce_trivial_product",
    "multiplicity_series", "padded_multiplicity", "pieri_product",
    "stabilized_padded_multiplicity", "verify_stability",
}


def test_namespace_is_the_supported_api():
    public = {
        name for name, value in vars(fidmod).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == SUPPORTED


def test_bench_tracer_installs_on_bare_import():
    # A fresh interpreter: `fidmod.cli`, once imported by another test,
    # would hold bindings that the package namespace may have lost.
    script = (
        "import sys, fidmod, tracer\n"
        "assert 'fidmod.cli' not in sys.modules\n"
        "t = tracer.Tracer()\n"
        "t.install()\n"
        "t.uninstall()\n"
    )
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text()
    (tour,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    exec(compile(tour, "README.md", "exec"), {})
