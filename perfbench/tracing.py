"""Timing spans around the public functions of each fewbody module.

The wrappers are installed from outside the package: every name is replaced
where its caller looks it up (a module attribute, or the class attribute for
``Quadrature.build``), so nothing under ``src/`` changes.  Spans are kept in
memory as ``(name, start, end, parent, op)`` and written out when the run
ends.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from collections import defaultdict

# (module, attribute) -> span name.  A function bound into a second module at
# import time is wrapped there too, under the name of the module defining it.
TARGETS = {
    ("cli", "main"): "cli.main",
    ("cli", "parse_config"): "cli.parse_config",
    ("cli", "emit_csv"): "cli.emit_csv",
    ("experiments", "cross_validate"): "experiments.cross_validate",
    ("twobody", "greens_matrix"): "twobody.greens_matrix",
    ("twobody", "assemble_bs"): "twobody.assemble_bs",
    ("twobody", "shooting_ground_energy"): "twobody.shooting_ground_energy",
    ("faddeev", "build_mixed_grid"): "faddeev.build_mixed_grid",
    ("faddeev", "kinematic_rotation"): "faddeev.kinematic_rotation",
    ("faddeev", "assemble_diagonal_block"): "faddeev.assemble_diagonal_block",
    ("faddeev", "assemble_offdiagonal_block"): "faddeev.assemble_offdiagonal_block",
    ("faddeev", "assemble_block_operator"): "faddeev.assemble_block_operator",
    ("faddeev", "faddeev_solve"): "faddeev.faddeev_solve",
    ("faddeev", "spectral_radius"): "faddeev.spectral_radius",
    ("faddeev", "radius_at_zero"): "faddeev.radius_at_zero",
    ("faddeev", "bs_threshold_coupling"): "faddeev.bs_threshold_coupling",
    ("variational", "kinematic_rotation"): "faddeev.kinematic_rotation",
    ("variational", "build_basis"): "variational.build_basis",
    ("variational", "hamiltonian_matrices"): "variational.hamiltonian_matrices",
    ("variational", "solve_ground"): "variational.solve_ground",
    ("variational", "hvz_bottom"): "variational.hvz_bottom",
    ("variational", "ball_overlap"): "variational.ball_overlap",
    ("variational", "probability_inside"): "variational.probability_inside",
}
QUADRATURE_BUILD = "model.Quadrature.build"
MODULES = ("model", "twobody", "faddeev", "variational", "experiments", "cli")


def _grid_key(k, quad) -> str:
    """Content key of a greens_matrix call: k and the grid's nodes, weights, panels."""
    h = hashlib.sha1(quad.nodes.tobytes())
    h.update(quad.weights.tobytes())
    h.update(repr(quad.panels).encode())
    return f"{float(k)!r}:{h.hexdigest()}"


class Tracer:
    """Span recorder; records only while ``op`` is set to an operation id."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self.greens_keys: dict = defaultdict(list)
        self._stack: list[int] = []
        self._restore: list = []

    def wrap(self, name: str, fn, key=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            if key is not None:
                self.greens_keys[self.op].append(key(*args, **kwargs))
            sid = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op]
            self.spans.append(span)
            self._stack.append(sid)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every target; ``modules`` maps short names to fewbody modules."""
        wrapped = {}
        for (mod, attr), name in TARGETS.items():
            module = modules[mod]
            original = getattr(module, attr)
            if id(original) not in wrapped:
                key = _grid_key if name == "twobody.greens_matrix" else None
                wrapped[id(original)] = self.wrap(name, original, key)
            self._restore.append((module, attr, original))
            setattr(module, attr, wrapped[id(original)])
        quad_cls = modules["model"].Quadrature
        build = quad_cls.__dict__["build"]
        self._restore.append((quad_cls, "build", build))
        setattr(quad_cls, "build", classmethod(self.wrap(QUADRATURE_BUILD, build.__func__)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c0, c1 in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


def op_profile(spans, self_s, greens_keys) -> dict:
    """Per-operation calls and self time per span name and per module.

    Returns {op: {"calls": {name: n}, "self_s": {name or module: s},
    "greens_distinct": n}}.
    """
    prof: dict = {}
    for span, s in zip(spans, self_s):
        name, op = span[0], span[4]
        p = prof.setdefault(op, {"calls": defaultdict(int), "self_s": defaultdict(float)})
        p["calls"][name] += 1
        p["self_s"][name] += s
        p["self_s"][name.split(".", 1)[0]] += s
    for op, p in prof.items():
        p["greens_distinct"] = len(set(greens_keys.get(op, ())))
    return prof
