"""The `fidmod` namespace: its supported names, and the README's examples."""

import argparse
import ast
import inspect
import io
import json
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import fidmod
from fidmod import cli
from fidmod.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]

SUPPORTED = {
    "Decomposition", "FreeModuleSpec",
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


#: Top-level names in src/fidmod that nothing in src/ reads, kept on purpose.
KEPT_UNUSED = {
    "is_constituent": "the greedy constituent test: the statement acceptance criterion 04 checks",
    "count_standard_tableaux": "criterion 01 checks the hook formula against this tableau count",
    "clear_caches": "the one call that empties every memo table, for callers and tests",
}


def _names_read(node):
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def _top_level_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            yield from ((t.id, node) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def test_every_package_name_is_used_or_supported():
    # A helper that only tests call belongs in tests/oracles.py or nowhere.
    trees = [ast.parse(path.read_text()) for path in (ROOT / "src" / "fidmod").glob("*.py")]
    reads = sum((_names_read(tree) for tree in trees), Counter())
    unused = {
        name
        for tree in trees
        for name, node in _top_level_definitions(tree)
        if not name.startswith("__")
        and name not in SUPPORTED
        and reads[name] == _names_read(node)[name]
    }
    assert unused == set(KEPT_UNUSED)


#: Modules on the production path; the character oracle only checks them.
KERNEL_MODULES = ("partitions", "pieri", "free_modules", "stability")


def _imports(path):
    """Last dotted part of every module and name that a source file imports,
    in function bodies too."""
    return {
        name.rpartition(".")[2]
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in [getattr(node, "module", None) or "", *(a.name for a in node.names)]
    }


def test_no_kernel_module_imports_the_character_oracle():
    src = ROOT / "src" / "fidmod"
    importers = [name for name in KERNEL_MODULES if "characters" in _imports(src / f"{name}.py")]
    assert importers == []


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


def test_cli_import_loads_no_source_introspection():
    # `dataclasses` pulls in inspect, ast, dis and tokenize: ~17 ms of every
    # CLI process; `fractions` pulls in `decimal`: ~3 ms, needed by fits only.
    # -S keeps site-packages' own imports out of the check.
    forbidden = {"dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal"}
    script = f"import sys, fidmod.cli\nprint(sorted({forbidden!r} & set(sys.modules)))\n"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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


def _readme_cli_commands() -> tuple[list[str], tuple[str, str]]:
    """The `fidmod` lines of the README's sh blocks, and the stdin example as
    (payload, command)."""
    readme = (ROOT / "README.md").read_text()
    commands = [
        line[len("fidmod ") :]
        for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
        for line in block.splitlines()
        if line.startswith("fidmod ")
    ]
    stdin_example = r"echo '(.*?)' \\\n\s*\| fidmod (.*?)\n"
    return commands, re.search(stdin_example, readme, flags=re.S).groups()


def test_readme_cli_block_runs(capsys, monkeypatch):
    readme = (ROOT / "README.md").read_text()
    commands, (payload, stdin_command) = _readme_cli_commands()
    outputs = {}
    for command in commands:
        assert main(shlex.split(command)) == 0, command
        outputs[command] = capsys.readouterr().out

    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    assert main(shlex.split(stdin_command)) == 0, stdin_command
    assert json.loads(capsys.readouterr().out)["polynomials"] == [[], ["1"]]

    schemas = readme.split("### JSON schemas")[1].split("## Library tour")[0]
    samples = dict(re.findall(r"\(`([^`]+)`\):.*?```json\n(.*?)```", schemas, flags=re.S))
    assert set(samples) == {"decompose", "stabilize", "fit --mode dims", "fit --mode mult"}
    for label, sample in samples.items():
        (command,) = [c for c in commands if c.startswith(label + " ")]
        documented = json.loads(sample.replace(", ...", ""))
        assert _key_paths(documented) == _key_paths(json.loads(outputs[command])), label


def test_commands_return_their_text_and_main_alone_writes_it(capsys, monkeypatch):
    commands, (payload, stdin_command) = _readme_cli_commands()
    for command in commands + [stdin_command]:
        argv = shlex.split(command)
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        args = build_parser().parse_args(argv)
        code, text = args.func(args)
        assert capsys.readouterr().out == "", command
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        assert main(argv) == code, command
        assert capsys.readouterr().out == text != "", command


def test_readme_names_only_options_the_parser_has():
    # Everything from the CLI section on documents `fidmod`; the sections
    # before it show pip and pytest flags.
    cli_docs = (ROOT / "README.md").read_text().split("## CLI", 1)[1]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", cli_docs))
    (commands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    defined = {
        option
        for subparser in commands.choices.values()
        for action in subparser._actions
        for option in action.option_strings
    }
    assert documented and documented <= defined, documented - defined


def test_readme_and_cli_bound_constants_name_each_other():
    bounds = {name for name in vars(cli) if name.startswith("MAX_")} | {"ORACLE_LIMIT"}
    documented = set(re.findall(r"`fidmod\.cli\.(\w+)`", (ROOT / "README.md").read_text()))
    assert bounds <= documented, bounds - documented
    assert all(hasattr(cli, name) for name in documented), documented - set(vars(cli))
