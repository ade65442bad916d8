"""The runtime needs only the standard library: every absolute import in
``src/diagalg`` names a standard-library module, and importing the command
line stays clear of the costly ones."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "diagalg"


def absolute_imports(path):
    """(line, top-level module name) of each absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_every_absolute_import_is_stdlib():
    files = sorted(SRC.glob("*.py"))
    assert files
    stray = [f"{path.name}:{line}: {name}" for path in files
             for line, name in absolute_imports(path)
             if name not in sys.stdlib_module_names]
    assert not stray


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # each costs milliseconds in every process the command line starts
    code = ("import sys; before = set(sys.modules); import diagalg.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    paths = [str(SRC.parent)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.strip() == "[]"
