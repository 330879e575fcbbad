"""The CLI's exit codes, stdout and stderr at a parent revision and here, as one JSON line.

    python3 tools/cli_bytes.py --parent HEAD~1

The config texts are the upper-case string constants of tests/test_cli.py
that hold an INI text (read with ast, so nothing of the tests is imported),
plus VARIANTS: FULL with one key set.  Every subcommand runs on every config
as ``python -m fewbody.cli``; the base configs run with and without
``--quiet``, the variants with ``--quiet`` only.  Each config's
``config_hash()`` is one more run.  Both sides read the same config files:
the parent in its own tree (``git worktree``, as in bench_pairs.py), the
change in this checkout as it stands on disk, each with BLAS pinned to one
thread.  The tree's path in the output becomes ``<checkout>`` before the
runs are compared.  The summary gives the number of runs, the number that
match and, for each run that differs, the fields that differ on each side.
Progress goes to stderr.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, _git, worktree  # noqa: E402

SUBCOMMANDS = [
    ("two-body", "threshold"), ("two-body", "mu-curve"), ("two-body", "classify"),
    ("two-body", "w-probe"), ("three-body", "ground"), ("three-body", "sweep"),
    ("three-body", "dichotomy"), ("three-body", "efimov"), ("three-body", "theta0"),
    ("three-body", "bs-radius"), ("three-body", "cross-validate"), ("checks", "bounds"),
    ("checks", "green6"), ("checks", "jlog"), ("checks", "merkuriev"), ("validate-config",),
]

# (section, key, value) set in FULL: malformed and out-of-range values, the
# brackets, the energy targets, the sweep grid, the coupled-solver grid keys,
# the least radial grid and one with panels wider than 24 nodes, unequal
# masses, a wide (23) well, large Green's-function arguments, and a (12)
# coupling on each side of lam* = 2.684 above the Hilbert-Schmidt bound
# 0.9863 lam*, where hvz_bottom shoots: unbound at 2.67, bound at 2.7; then
# in-range extremes: Green's-function arguments at float64's ends, a z whose
# square overflows, a stochastic basis with no seed and a (12) well of range 1e-30;
# then the branches no other config reaches: a square (23) well (unbound at
# 2.1472) and an exponential one (bound, so hvz_bottom and classify shoot), a
# correlations-mode and a (12)-symmetrized basis, and envelope_b2 out of range
# and at 100, where the envelope b1 of FULL's Gaussian (12) well overflows
VARIANTS = [
    ("model", "m1", "x"),
    ("model", "m1", "-1"),
    ("model", "m2", "0.7"),
    ("model", "lambda12", "2.67"),
    ("model", "lambda12", "2.7"),
    ("model", "pair23.range", "20"),
    ("numerics", "radial_nodes", "3"),
    ("numerics", "radial_nodes", "20"),
    ("numerics", "radial_nodes", "192"),
    ("numerics", "basis.n_x", "x"),
    ("numerics", "basis.correlations", "0.1,nan"),
    ("numerics", "seed", "x"),
    ("numerics", "angle_nodes", "8"),
    ("numerics", "angle_nodes", "48"),
    ("numerics", "faddeev_nodes", "20"),
    ("experiment", "r0", "-1"),
    ("experiment", "r0", "0"),
    ("experiment", "z_list", "nan,1e-2"),
    ("experiment", "k_list", "0,1e-3"),
    ("experiment", "xi_list", "0.5,30,80"),
    ("experiment", "scenario", "bogus"),
    ("experiment", "theta_bracket", "x"),
    ("experiment", "theta_bracket", "1.8788"),
    ("experiment", "theta_bracket", "1.8,2.0,3.4"),
    ("experiment", "scale_bracket", "0.9"),
    ("experiment", "scale_bracket", "0.9,1.0,1.2"),
    ("experiment", "scale_bracket", "1.2,0.9"),
    ("experiment", "energy_targets", ""),
    ("experiment", "envelope_b1", "x"),
    ("experiment", "scale_grid", ""),
    ("experiment", "xi_list", "1e300"),
    ("experiment", "xi_list", "1e-300"),
    ("experiment", "z_list", "1e300"),
    ("numerics", "basis.n_random", "3"),
    ("model", "pair12.range", "1e-30"),
    ("model", "pair23.kind", "square_well"),
    ("model", "pair23.kind", "exponential"),
    ("numerics", "basis.correlations", "-0.6,0.0,0.6"),
    ("numerics", "basis.symmetrize_12", "true"),
    ("experiment", "envelope_b2", "0"),
    ("experiment", "envelope_b2", "100"),
]

PLACEHOLDER = "<checkout>"

_HASH = """\
import sys
from fewbody.cli import ConfigError, parse_config
try:
    print(parse_config(sys.argv[1]).config_hash())
except ConfigError as err:
    print(f"config error: {err}")
"""


def config_texts(path: Path) -> dict[str, str]:
    """name -> text of each upper-case module constant of path that is an INI text.

    A value is evaluated with the texts bound before it as its only names,
    so FULL.replace(...) works and anything else is skipped.
    """
    texts: dict[str, str] = {}
    for node in ast.parse(path.read_text()).body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and node.targets[0].id.isupper()):
            continue
        try:
            value = eval(compile(ast.Expression(node.value), str(path), "eval"),
                         {"__builtins__": {}}, dict(texts))
        except NameError:  # a name that is not an earlier text
            continue
        if isinstance(value, str) and value.lstrip().startswith("["):
            texts[node.targets[0].id] = value
    return texts


def with_key(text: str, section: str, key: str, value: str) -> str:
    """text with section.key set to value: its own line dropped, the new one first in section."""
    text = "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith(f"{key} ="))
    return text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")


def matrix(texts: dict[str, str]) -> tuple[dict[str, str], list[tuple[str, str, list[str]]]]:
    """Every config (name -> text) and every run (run id, config name, interpreter argv)."""
    configs = dict(texts)
    configs.update({f"FULL+{s}.{k}={v}": with_key(texts["FULL"], s, k, v)
                    for s, k, v in VARIANTS})
    runs = []
    for name in configs:
        runs.append((f"{name}: config_hash", name, ["-c", _HASH]))
        for command in SUBCOMMANDS:
            for quiet in (["--quiet"], []) if name in texts else (["--quiet"],):
                argv = ["-m", "fewbody.cli", *command, *quiet]
                runs.append((f"{name}: {' '.join(command + tuple(quiet))}", name, argv))
    return configs, runs


def normalize(record: dict, root: Path) -> dict:
    """record with root in its stdout and stderr replaced by PLACEHOLDER."""
    return {k: v.replace(str(root), PLACEHOLDER) if isinstance(v, str) else v
            for k, v in record.items()}


def compare(parent: dict, change: dict, roots: tuple[Path, Path]) -> dict:
    """Matched and differing runs of two {run id: record} maps, each side normalized by its root."""
    differ = []
    for run in parent:
        p, c = normalize(parent[run], roots[0]), normalize(change[run], roots[1])
        keys = [k for k in p if p[k] != c[k]]
        if keys:
            differ.append({"run": run, "parent": {k: p[k] for k in keys},
                           "change": {k: c[k] for k in keys}})
    return {"runs": len(parent), "matched": len(parent) - len(differ), "differ": differ}


def run(tree: Path, argv: list[str], config: Path) -> dict:
    """Exit code, stdout and stderr of the interpreter on argv in tree, with config appended."""
    tail = [str(config)] if argv[0] == "-c" else ["--config", str(config)]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, *argv, *tail], cwd=tree, env=env,
                          capture_output=True)
    # bytes decoded by hand: text mode would turn the CSV's \r\n into \n
    return {"exit": done.returncode,
            "stdout": done.stdout.decode("utf-8", "backslashreplace"),
            "stderr": done.stderr.decode("utf-8", "backslashreplace")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    args = parser.parse_args(argv)

    parent_rev = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    configs, runs = matrix(config_texts(ROOT / "tests" / "test_cli.py"))
    records: dict = {"parent": {}, "change": {}}
    with worktree(parent_rev) as parent_tree, tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for i, name in enumerate(configs):
            paths[name] = Path(tmp) / f"config{i}.cfg"
            paths[name].write_text(configs[name])
        for i, (run_id, name, argv) in enumerate(runs, 1):
            for side, tree in (("parent", parent_tree), ("change", ROOT)):
                records[side][run_id] = run(tree, argv, paths[name])
            if i % 50 == 0 or i == len(runs):
                print(f"{i}/{len(runs)} runs", file=sys.stderr)
        summary = compare(records["parent"], records["change"], (parent_tree, ROOT))

    print(json.dumps({
        "parent": parent_rev,
        "change": _git("rev-parse", "HEAD") + ("+dirty" if _git("status", "--porcelain") else ""),
        **summary,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
