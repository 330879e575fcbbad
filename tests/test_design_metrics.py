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
                             "csv_headers"]
    assert all(isinstance(v, int) and v >= 0 for v in metrics.values())
