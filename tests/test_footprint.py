import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).parents[1] / "tools" / "footprint.py"


def test_ground_runs_on_numpy_alone():
    # one fresh interpreter per step; neither the import nor ground loads scipy
    done = subprocess.run([sys.executable, str(SCRIPT), "--command", "three-body", "ground"],
                          capture_output=True, text=True, check=True)
    result = json.loads(done.stdout)
    assert result["config"] == "FULL" and list(result["steps"]) == ["import", "three-body ground"]
    for record in result["steps"].values():
        assert record["exit"] == 0 and record["scipy"] == []
        assert record["wall_s"] > 0.0 and record["peak_rss_mb"] > 0.0
