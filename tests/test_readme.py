"""README's documented entry points stay valid: every `crsadder ...`
line parses with the CLI's parser, the Library import runs, and it
names exactly the package's public names."""

import ast
import pathlib
import re
import shlex
import types

import crsadder
from crsadder import cli

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)


def _cli_lines():
    return [line for lang, body in BLOCKS if lang == ""
            for line in body.splitlines() if line.startswith("crsadder ")]


def _library_import():
    python = [body for lang, body in BLOCKS if lang == "python"]
    assert len(python) == 1
    first = ast.parse(python[0]).body[0]
    assert isinstance(first, ast.ImportFrom) and first.module == "crsadder"
    return first


def test_readme_cli_lines_parse():
    lines = _cli_lines()
    assert len(lines) >= 14
    for line in lines:
        args = cli.build_parser().parse_args(shlex.split(line)[1:])
        assert callable(args.func), line


def test_readme_library_import_runs():
    first = _library_import()
    namespace = {}
    exec(compile(ast.Module([first], type_ignores=[]), "README.md", "exec"),
         namespace)
    assert all(alias.name in namespace for alias in first.names)


def test_package_root_exports_the_library_import():
    # a new name at the package root needs a documented use
    public = {name for name, value in vars(crsadder).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == {alias.name for alias in _library_import().names}
