"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import functools
import json
import math
from types import SimpleNamespace

import pytest

import run
import tracing
import workloads
from workloads import WORKLOADS


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def _fake_fewbody():
    """Just enough of the package for run_loop's cache bookkeeping."""
    return SimpleNamespace(
        twobody=SimpleNamespace(shooting_ground_energy=functools.lru_cache()(lambda: None))
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_for_a_seed(name, workdir):
    w = WORKLOADS[name]
    for i in range(3):
        a, b = w.prepare(7, i, workdir), w.prepare(7, i, workdir)
        assert a.spec == b.spec
        if a.config is not None:
            assert a.config.read_text() == b.config.read_text()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_seeds_and_two_operations_give_different_models(name, workdir):
    w = WORKLOADS[name]
    specs = [w.prepare(seed, i, workdir).spec for seed in (0, 1) for i in (0, 1)]
    assert len({json.dumps(s, sort_keys=True) for s in specs}) == len(specs)


def test_pair_thresholds_match_the_program(workdir):
    fewbody = run.import_fewbody()
    masses = (1.0, 0.6, 1.7)
    model = fewbody.model.ModelSpec(
        fewbody.model.MassSet(*masses), *[fewbody.model.PotentialSpec("gaussian")] * 3,
        fewbody.model.CouplingConfig(1.0, 1.0, 1.0),
    )
    for pair in workloads.PAIRS:
        pot = model.scaled_potential(pair)
        lam = fewbody.twobody.critical_coupling(pot, fewbody.model.Quadrature.for_potential(pot))
        assert workloads.pair_threshold(masses, pair) == pytest.approx(lam, rel=1e-9)


def _coupled_csv(r3=1.1, r2=1.2, res=1e-15):
    return ("z,spectral_radius,residual\r\n"
            f"0.001,{r3!r},{res!r}\r\n0.01,{r2!r},{res!r}\r\n")


def _loc_csv(e_gr=-0.04, e_thr=0.0, p10=0.96, p30=0.9999):
    return ("e_gr,e_thr,bound_states,basis_size,p_r10,p_r30\r\n"
            f"{e_gr!r},{e_thr!r},1,411,{p10!r},{p30!r}\r\n")


class _Canned:
    """A workload whose operation returns a fixed output, checked by the real check."""

    def __init__(self, base, output):
        self.base, self.output = base, output

    def prepare(self, seed, i, workdir):
        return workloads.Op(spec={"i": i})

    def run(self, op, fewbody):
        return self.output

    def check(self, op, output, ref):
        return self.base.check(op, output, ref)

    def summary(self, output):
        return self.base.summary(output)


GOOD = [
    ("coupled-radius", {"exit_code": 0, "csv": _coupled_csv()}),
    ("localization", {"exit_code": 0, "csv": _loc_csv()}),
    ("cross-threshold", {"passed": True, "variational_scale": 0.99, "bs_scale": 0.99}),
]
CORRUPTED = [
    ("coupled-radius", {"exit_code": 0, "csv": _coupled_csv(r2=float("nan"))}),
    ("coupled-radius", {"exit_code": 0, "csv": _coupled_csv(r3=-0.5)}),
    ("coupled-radius", {"exit_code": 0, "csv": _coupled_csv(res=1e-3)}),
    ("coupled-radius", {"exit_code": 3, "csv": ""}),
    ("coupled-radius", {"exit_code": 0, "csv": _coupled_csv().split("\r\n", 2)[0]}),
    ("localization", {"exit_code": 0, "csv": _loc_csv(e_gr=0.1)}),
    ("localization", {"exit_code": 0, "csv": _loc_csv(p10=0.999999)}),
    ("localization", {"exit_code": 0, "csv": _loc_csv(p30=1.5)}),
    ("localization", {"exit_code": 4, "csv": _loc_csv()}),
    ("localization", {"exit_code": 0, "csv": _loc_csv().replace("0.96,", ",")}),
    ("cross-threshold", {"passed": False, "variational_scale": 0.99, "bs_scale": 1.2}),
]


def _run_one(workload, reference=()):
    records, _ = run.run_loop(workload, _fake_fewbody(), 0, 0.0, None, list(reference))
    assert len(records) == 1
    return records[0]


@pytest.mark.parametrize("name,output", GOOD)
def test_a_good_output_passes(name, output):
    assert _run_one(_Canned(WORKLOADS[name], output))["ok"]


@pytest.mark.parametrize("name,output", CORRUPTED)
def test_a_corrupted_output_is_a_failed_operation(name, output):
    record = _run_one(_Canned(WORKLOADS[name], output))
    assert not record["ok"] and record["problems"]


@pytest.mark.parametrize("name,output", GOOD)
def test_a_reference_breach_is_a_failed_operation(name, output):
    w = WORKLOADS[name]
    ref = {"spec": {"i": 0}, "output": w.summary(output)}
    assert _run_one(_Canned(w, output), [ref])["ok"]
    off = json.loads(json.dumps(ref))
    key = {"coupled-radius": "radius", "localization": "p_r10",
           "cross-threshold": "bs_scale"}[name]
    if key == "radius":
        off["output"]["radius"][1] *= 1.0 + 1e-9
    else:
        off["output"][key] *= 1.0 + 1e-3
    assert not _run_one(_Canned(w, output), [off])["ok"]
    moved = dict(ref, spec={"i": 1})
    assert not _run_one(_Canned(w, output), [moved])["ok"]


def test_an_exception_is_a_failed_operation():
    class Raising(_Canned):
        def run(self, op, fewbody):
            raise ValueError("boom")

    record = _run_one(Raising(WORKLOADS["localization"], None))
    assert not record["ok"] and "boom" in record["problems"][0]


@pytest.mark.parametrize("seconds,n_ops", [(34.0, 3), (36.0, 4), (1.0, 1)])
def test_the_loop_ends_at_the_operation_nearest_its_length(monkeypatch, seconds, n_ops):
    clock = [0.0]

    class TenSeconds(_Canned):
        def run(self, op, fewbody):
            clock[0] += 10.0
            return self.output

    monkeypatch.setattr(run, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    output = {"passed": True, "variational_scale": 0.99, "bs_scale": 0.99}
    records, loop_s = run.run_loop(TenSeconds(WORKLOADS["cross-threshold"], output),
                                   _fake_fewbody(), 0, seconds, None, [])
    assert len(records) == n_ops and loop_s == 10.0 * n_ops


def test_self_time_on_synthetic_nested_spans():
    # name, start, end, parent, op
    spans = [
        ["cli.main", 0.0, 10.0, None, 0],
        ["faddeev.radius_at_zero", 1.0, 4.0, 0, 0],
        ["twobody.greens_matrix", 2.0, 3.0, 1, 0],
        ["faddeev.faddeev_solve", 5.0, 6.0, 0, 0],
        ["twobody.greens_matrix", 6.5, 7.0, 0, 0],
        ["cli.main", 20.0, 21.0, None, 2],
    ]
    assert tracing.self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.0, 0.5, 1.0])
    prof = tracing.op_profile(spans, tracing.self_times(spans), {0: ["a", "a", "b"]})
    assert prof[0]["calls"]["twobody.greens_matrix"] == 2
    assert prof[0]["self_s"]["twobody.greens_matrix"] == pytest.approx(1.5)
    assert prof[0]["self_s"]["faddeev"] == pytest.approx(3.0)
    assert prof[0]["self_s"]["cli"] == pytest.approx(5.5)
    assert prof[0]["greens_distinct"] == 2
    assert prof[2]["self_s"]["cli"] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 4.0, None, 0], ["a", 1.0, 3.0, 0, 0], ["b", 2.0, 5.0, 0, 0]]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_wraps_where_callers_look_names_up_and_restores_them():
    fewbody = run.import_fewbody()
    modules = {m: getattr(fewbody, m) for m in tracing.MODULES}
    originals = {key: getattr(modules[key[0]], key[1]) for key in tracing.TARGETS}
    build = fewbody.model.Quadrature.__dict__["build"]
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        tracer.op = 0
        spec = fewbody.variational.BasisSpec(n_x=2, n_y=2, correlations="frames")
        fewbody.variational.build_basis(spec, fewbody.model.MassSet(1.0, 1.0, 1.0))
        fewbody.model.Quadrature.for_potential(fewbody.model.PotentialSpec("gaussian"), n=8)
        tracer.op = None
        fewbody.model.Quadrature.build(r_max=1.0, n=8)  # not recorded
    finally:
        tracer.uninstall()
    prof = tracing.op_profile(tracer.spans, tracing.self_times(tracer.spans), {})
    assert prof[0]["calls"] == {"variational.build_basis": 1, "faddeev.kinematic_rotation": 3,
                                "model.Quadrature.build": 1}
    assert all(getattr(modules[k[0]], k[1]) is fn for k, fn in originals.items())
    assert fewbody.model.Quadrature.__dict__["build"] is build


def test_tail_needs_ten_operations_beyond_it():
    assert run.tail([1.0] * 19) is None
    t = run.tail([float(i) for i in range(40)])
    assert t["value"] == 29.0 and t["percentile"] == 75.0 and t["ops"] == 40


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in run.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in run.PER_LAYER]
    records = [{"seconds": 1.0, "ok": True}, {"seconds": 2.0, "ok": True}]
    e2e = run.end_to_end(records, 3.0, [0.5, 0.7, 0.6])
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert [m["unit"] for m in spec["end_to_end"]] == [v["unit"] for v in e2e.values()]
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert e2e["ops_per_min"]["value"] == pytest.approx(40.0)
    assert all(math.isfinite(v["value"]) and v["value"] > 0 for v in e2e.values())
