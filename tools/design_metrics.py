"""Design metrics of the fewbody sources, printed as one JSON line.

    python3 tools/design_metrics.py

src_lines         lines of the .py files under src/fewbody
defaulted_params  parameters with a default, over every def in src/fewbody
config_keys       keys the config parser accepts, over all sections
cli_options       option flags summed over the subcommand parsers, --help excluded

Standard library plus the fewbody package of this checkout.
"""

from __future__ import annotations

import argparse
import ast
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


def metrics() -> dict:
    texts = [p.read_text() for p in _sources()]
    return {
        "src_lines": sum(len(t.splitlines()) for t in texts),
        "defaulted_params": sum(defaulted_params(t) for t in texts),
        "config_keys": len(set().union(*cli._SECTION_KEYS.values())),
        "cli_options": cli_options(cli.build_parser()),
    }


if __name__ == "__main__":
    print(json.dumps(metrics()))
