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


def test_solver_paths_run_on_numpy_alone():
    # the coupled solver's Lanczos and the variational pencil solve are numpy code
    commands = [("three-body", c) for c in ("bs-radius", "sweep", "dichotomy", "cross-validate")]
    argv = [arg for command in commands for arg in ("--command", *command)]
    done = subprocess.run([sys.executable, str(SCRIPT), *argv],
                          capture_output=True, text=True, check=True)
    steps = json.loads(done.stdout)["steps"]
    assert list(steps) == ["import", *(" ".join(c) for c in commands)]
    for name, record in steps.items():
        assert record["exit"] == 0 and record["scipy"] == [], name


def test_square_well_ground_runs_on_numpy_alone(tmp_path):
    # the variant step: a non-Gaussian (23) well takes the radial quadrature,
    # and hvz_bottom proves it unbound without shooting
    sys.path.insert(0, str(SCRIPT.parent))
    try:
        import footprint
    finally:
        sys.path.remove(str(SCRIPT.parent))
    [(command, (section, key, value))] = footprint.VARIANT_STEPS
    config = tmp_path / "variant.cfg"
    full = footprint.config_texts(SCRIPT.parents[1] / "tests" / "test_cli.py")["FULL"]
    config.write_text(footprint.with_key(full, section, key, value))
    assert "pair23.kind = square_well" in config.read_text()
    record = footprint.step(config, command)
    assert record["exit"] == 0 and record["scipy"] == []
