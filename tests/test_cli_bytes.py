import importlib.util
from pathlib import Path

import pytest

from fewbody import cli

SCRIPT = Path(__file__).parents[1] / "tools" / "cli_bytes.py"


@pytest.fixture(scope="module")
def cli_bytes():
    spec = importlib.util.spec_from_file_location("cli_bytes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(exit_code, stdout="", stderr=""):
    return {"exit": exit_code, "stdout": stdout, "stderr": stderr}


def test_compare_normalizes_each_side_by_its_root(cli_bytes):
    roots = (Path("/tmp/parent"), Path("/src/change"))
    warning = "{}/src/fewbody/faddeev.py:9: RuntimeWarning: Mean of empty slice\n"
    parent = {
        "same": record(0, "a\r\n"),
        "moved path only": record(0, "z\r\n", warning.format(roots[0])),
        "exit": record(3, "", "numeric failure: x\n"),
        "stdout": record(0, "1\r\n"),
    }
    change = {
        "same": record(0, "a\r\n"),
        "moved path only": record(0, "z\r\n", warning.format(roots[1])),
        "exit": record(2, "", "config error: x\n"),
        "stdout": record(0, "2\r\n"),
    }
    summary = cli_bytes.compare(parent, change, roots)
    assert summary["runs"] == 4 and summary["matched"] == 2
    assert summary["differ"] == [
        {"run": "exit", "parent": {"exit": 3, "stderr": "numeric failure: x\n"},
         "change": {"exit": 2, "stderr": "config error: x\n"}},
        {"run": "stdout", "parent": {"stdout": "1\r\n"}, "change": {"stdout": "2\r\n"}},
    ]


def test_normalize_replaces_root(cli_bytes):
    rec = cli_bytes.normalize(record(1, "", "File \"/a/b/src/x.py\"\n"), Path("/a/b"))
    assert rec == record(1, "", f"File \"{cli_bytes.PLACEHOLDER}/src/x.py\"\n")


def test_matrix_covers_every_subcommand_and_variant(cli_bytes):
    assert cli_bytes.SUBCOMMANDS == [tuple(filter(None, c)) for c in cli._SUBCOMMANDS]
    texts = cli_bytes.config_texts(Path(__file__).parent / "test_cli.py")
    assert {"FULL", "MINIMAL", "CV_CFG", "EMPTY_LISTS_CFG"} <= set(texts)
    configs, runs = cli_bytes.matrix(texts)
    assert len(configs) == len(texts) + len(cli_bytes.VARIANTS)
    per_config = 1 + len(cli_bytes.SUBCOMMANDS)
    assert len(runs) == len(texts) * (2 * per_config - 1) + len(cli_bytes.VARIANTS) * per_config
    assert len({run_id for run_id, _, _ in runs}) == len(runs)
    variant = configs["FULL+experiment.theta_bracket=x"]
    assert "theta_bracket = x\n" in variant and variant.count("theta_bracket") == 1
