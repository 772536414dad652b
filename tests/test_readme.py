"""The README's tables name what the package defines and the CLI offers."""

import importlib
import inspect
import re
from pathlib import Path

import atforest
import atforest.cli as cli
from test_cli import _is_group, _parsers

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _table(heading: str) -> list:
    """The cells of each body row of the one table in the section `heading`."""
    section = README.split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[2:]]


def _names(cell: str) -> set:
    return set(re.findall(r"`([^`]+)`", cell))


def test_library_table_names_every_public_function_and_class():
    rows = {_names(module).pop(): _names(names) for module, names, _ in _table("## Library overview")}
    package = Path(atforest.__file__).parent
    assert set(rows) == {f"atforest.{p.stem}" for p in package.glob("*.py") if p.stem != "__init__"}
    for module_name, listed in rows.items():
        module = importlib.import_module(module_name)
        defined = {name for name, obj in vars(module).items()
                   if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
                   and obj.__module__ == module_name}
        assert defined <= listed, (module_name, sorted(defined - listed))


def test_trust_table_has_one_row_per_leaf_command():
    leaves = {" ".join(path) for path, p in _parsers(cli._build_parser()) if not _is_group(p)}
    commands = [_names(row[0]).pop() for row in _table("## Trust")]
    assert len(commands) == len(set(commands))
    assert set(commands) == leaves
    # every row says what the command emits, what re-reads it and what it trusts
    assert all(len(row) == 4 and all(row) for row in _table("## Trust"))
