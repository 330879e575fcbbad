"""Design metrics of the fewbody sources, printed as one JSON line.

    python3 tools/design_metrics.py

src_lines         lines of the .py files under src/fewbody
defaulted_params  parameters with a default, over every def in src/fewbody
config_keys       keys the config parser accepts, over all sections
cli_options       option flags summed over the subcommand parsers, --help excluded
csv_headers       emit_csv calls in cli.py whose columns are written out, not a dataclass
numeric_constants module-level names bound to one int or float literal, with an
                  optional unary minus (tolerances and cutoffs; tuples and tables
                  do not count)

Standard library plus the fewbody package of this checkout.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from fewbody import cli  # noqa: E402


def _sources() -> list[Path]:
    return sorted((SRC / "fewbody").glob("*.py"))


def defaulted_params(text: str) -> int:
    """Parameters with a default over every function definition in the source text."""
    count = 0
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    return count


def cli_options(parser: argparse.ArgumentParser) -> int:
    """Option actions of every leaf subcommand parser, --help excluded."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return sum(
            1 for a in parser._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)
        )
    return sum(cli_options(p) for a in subs for p in a.choices.values())


def _names_dataclass(node: ast.expr, namespace: dict) -> bool:
    """Whether node is a module-level name, or module.name, bound to a dataclass."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return dataclasses.is_dataclass(getattr(namespace.get(node.value.id), node.attr, None))
    return isinstance(node, ast.Name) and dataclasses.is_dataclass(namespace.get(node.id))


def csv_headers(text: str, namespace: dict) -> int:
    """emit_csv calls in the source text whose columns argument does not name a dataclass."""
    return sum(
        1 for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "emit_csv"
        and not _names_dataclass(node.args[1], namespace)
    )


def _is_number(node: ast.expr) -> bool:
    """An int or float literal (not a bool), optionally negated."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool))


def numeric_constants(text: str) -> int:
    """Module-level names of the source text bound to one number literal."""
    count = 0
    for node in ast.parse(text).body:
        if isinstance(node, ast.Assign) and _is_number(node.value):
            count += sum(isinstance(t, ast.Name) for t in node.targets)
        elif isinstance(node, ast.AnnAssign) and node.value and _is_number(node.value):
            count += isinstance(node.target, ast.Name)
    return count


def metrics() -> dict:
    texts = [p.read_text() for p in _sources()]
    return {
        "src_lines": sum(len(t.splitlines()) for t in texts),
        "defaulted_params": sum(defaulted_params(t) for t in texts),
        "config_keys": len(set().union(*cli._SECTION_KEYS.values())),
        "cli_options": cli_options(cli.build_parser()),
        "csv_headers": csv_headers(Path(cli.__file__).read_text(), vars(cli)),
        "numeric_constants": sum(numeric_constants(t) for t in texts),
    }


if __name__ == "__main__":
    print(json.dumps(metrics()))
