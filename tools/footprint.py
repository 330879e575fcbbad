"""Wall time, peak RSS and loaded scipy modules of CLI subcommands, as one JSON line.

    python3 tools/footprint.py                                # import, then every subcommand
    python3 tools/footprint.py --command three-body ground    # import, then one

Every step runs in a fresh interpreter on the FULL config of
tests/test_cli.py (read with ast, as in cli_bytes.py), with this checkout's
``src`` first on the path and BLAS pinned to one thread.  The ``import``
step imports ``fewbody.cli`` and stops; a subcommand step imports it and
runs ``cli.main`` with ``--quiet`` and the CSV sent to the null device.
Without ``--command`` the subcommands are followed by the VARIANT_STEPS:
a subcommand on FULL with one key set, named like
``three-body ground [model.pair23.kind=square_well]``.
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
from cli_bytes import SUBCOMMANDS, config_texts, with_key  # noqa: E402

# (subcommand, (section, key, value)) run on FULL with that key set: FULL's
# wells are all Gaussian, whose matrix elements are closed form; a square
# well takes the radial quadrature of every other kind
VARIANT_STEPS = [(("three-body", "ground"), ("model", "pair23.kind", "square_well"))]

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
        full = config_texts(ROOT / "tests" / "test_cli.py")["FULL"]
        config = Path(tmp) / "full.cfg"
        config.write_text(full)
        runs = [(" ".join(command), config, command) for command in commands]
        for k, (command, (section, key, value)) in enumerate([] if args.command
                                                              else VARIANT_STEPS):
            variant = Path(tmp) / f"variant{k}.cfg"
            variant.write_text(with_key(full, section, key, value))
            runs.append((f"{' '.join(command)} [{section}.{key}={value}]", variant, command))
        steps = {"import": step(config, ())}
        for name, path, command in runs:
            steps[name] = step(path, command)
            print(f"{name}: {json.dumps(steps[name])}", file=sys.stderr)
    print(json.dumps({"config": "FULL", "blas_threads": 1, "steps": steps}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
