"""The `fidmod` namespace: its supported names, and the README's examples."""

import inspect
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import fidmod
from fidmod.cli import main

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


def _key_paths(value, prefix=""):
    """Dotted paths of every key; a list contributes its first element's."""
    if isinstance(value, dict):
        return {
            path
            for key, item in value.items()
            for path in {prefix + key} | _key_paths(item, f"{prefix}{key}.")
        }
    if isinstance(value, list) and value:
        return _key_paths(value[0], prefix)
    return set()


def test_readme_cli_block_runs(capsys, monkeypatch):
    readme = (ROOT / "README.md").read_text()
    commands = [
        line[len("fidmod ") :]
        for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
        for line in block.splitlines()
        if line.startswith("fidmod ")
    ]
    outputs = {}
    for command in commands:
        assert main(shlex.split(command)) == 0, command
        outputs[command] = capsys.readouterr().out

    stdin_example = r"echo '(.*?)' \\\n\s*\| fidmod (.*?)\n"
    payload, command = re.search(stdin_example, readme, flags=re.S).groups()
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    assert main(shlex.split(command)) == 0, command
    assert json.loads(capsys.readouterr().out)["polynomials"] == [[], ["1"]]

    schemas = readme.split("### JSON schemas")[1].split("## Library tour")[0]
    samples = dict(re.findall(r"\(`([^`]+)`\):.*?```json\n(.*?)```", schemas, flags=re.S))
    assert set(samples) == {"decompose", "stabilize", "fit --mode dims", "fit --mode mult"}
    for label, sample in samples.items():
        (command,) = [c for c in commands if c.startswith(label + " ")]
        documented = json.loads(sample.replace(", ...", ""))
        assert _key_paths(documented) == _key_paths(json.loads(outputs[command])), label
