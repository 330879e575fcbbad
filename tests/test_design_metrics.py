import importlib.util
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).parents[1] / "tools" / "design_metrics.py"


def test_prints_the_counts():
    out = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                         check=True).stdout
    metrics = json.loads(out)
    assert list(metrics) == ["src_lines", "defaulted_params", "config_keys", "cli_options",
                             "csv_headers", "numeric_constants"]
    assert all(isinstance(v, int) and v >= 0 for v in metrics.values())


def test_numeric_constants_count_number_literals_only():
    spec = importlib.util.spec_from_file_location("design_metrics", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    text = """\
TOL = 1e-8
_CUT: float = -0.5
N = 3
FLAG = True
EDGES = (0.5, 1.0)
SCALE = 2.0**512
NAME = "x"

def f():
    LOCAL = 1.0
"""
    assert module.numeric_constants(text) == 3
