"""Wall time, peak RSS and loaded scipy modules of CLI subcommands, as one JSON line.

    python3 tools/footprint.py                                # import, then every subcommand
    python3 tools/footprint.py --command three-body ground    # import, then one

Every step runs in a fresh interpreter on the FULL config of
tests/test_cli.py (read with ast, as in cli_bytes.py), with this checkout's
``src`` first on the path and BLAS pinned to one thread.  The ``import``
step imports ``fewbody.cli`` and stops; a subcommand step imports it and
runs ``cli.main`` with ``--quiet`` and the CSV sent to the null device.
Each step reports its exit code, its wall time from before the import to
the end of the command (``wall_s``), the interpreter's peak resident set
(``peak_rss_mb``, ``ru_maxrss``) and the sorted ``scipy`` modules loaded by
then (``scipy``).  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT  # noqa: E402
from cli_bytes import SUBCOMMANDS, config_texts  # noqa: E402

_CHILD = """\
import json, os, resource, sys, time
start = time.perf_counter()
from fewbody import cli
code = cli.main([*sys.argv[2:], "--config", sys.argv[1], "--quiet", "--out", os.devnull]) \\
    if len(sys.argv) > 2 else 0
print(json.dumps({
    "exit": code,
    "wall_s": time.perf_counter() - start,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
}))
"""


def step(config: Path, command: tuple[str, ...]) -> dict:
    """The child's record of one step: no command is the import step."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _CHILD, str(config), *command], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--command", nargs="+", action="append", metavar="WORD",
                        help="one subcommand, e.g. three-body ground (repeatable); "
                             "default: every subcommand")
    args = parser.parse_args(argv)
    commands = [tuple(c) for c in args.command] if args.command else SUBCOMMANDS
    unknown = [c for c in commands if c not in SUBCOMMANDS]
    if unknown:
        parser.error(f"unknown subcommand {' '.join(unknown[0])!r}")

    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "full.cfg"
        config.write_text(config_texts(ROOT / "tests" / "test_cli.py")["FULL"])
        steps = {"import": step(config, ())}
        for command in commands:
            steps[" ".join(command)] = step(config, command)
            print(f"{' '.join(command)}: {json.dumps(steps[' '.join(command)])}", file=sys.stderr)
    print(json.dumps({"config": "FULL", "blas_threads": 1, "steps": steps}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
