"""Tests for the benchmark's own machinery.

Run from the checkout root: python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import NOMINAL_PASS_S, WORKLOADS, config_doc  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def record(tree, recorder, clock):
    """Replay (name, start, end, children) tuples through the recorder."""
    events = []

    def flatten(node):
        name, start, end, children = node
        events.append((start, 0, name))
        for child in children:
            flatten(child)
        events.append((end, 1, name))

    for node in tree:
        flatten(node)
    stack = []
    for at, closing, name in events:
        clock.now = at
        if closing:
            recorder.close(stack.pop())
        else:
            stack.append(recorder.open(name, name.split(".")[0]))


def synthetic_spans(tree):
    clock = FakeClock()
    recorder = spans.Recorder(clock=clock)
    record(tree, recorder, clock)
    return recorder.by_pass().get(0, [])


TREE = [
    ("runner.run", 0.0, 10.0, [
        ("config.config_from_dict", 0.0, 1.0, []),
        ("dynamics_lab.orbit", 1.0, 8.0, [
            ("dynamics_lab.step", 2.0, 6.0, [
                ("kalish.apply_T", 3.0, 5.0, [
                    ("kalish.grid_angles", 3.5, 4.0, []),
                ]),
            ]),
        ]),
        ("jsonio.write_json", 8.0, 9.0, []),
    ]),
]


def test_self_time_arithmetic_on_nested_tree():
    tree = synthetic_spans(TREE)
    exclusive, own = spans.self_times(tree)
    by_name = {s.name: i for i, s in enumerate(tree)}
    assert exclusive[by_name["dynamics_lab.orbit"]] == pytest.approx(3.0)
    # orbit minus the kalish span below its same-layer child step
    assert own[by_name["dynamics_lab.orbit"]] == pytest.approx(5.0)
    assert own[by_name["dynamics_lab.step"]] == pytest.approx(2.0)
    # grid_angles is the same layer, so apply_T keeps it
    assert own[by_name["kalish.apply_T"]] == pytest.approx(2.0)
    assert exclusive[by_name["kalish.apply_T"]] == pytest.approx(1.5)

    m = spans.pass_metrics(tree)
    assert m["runner.self_s"] == pytest.approx(1.0)
    assert m["config.self_s"] == pytest.approx(1.0)
    assert m["dynamics_lab.self_s"] == pytest.approx(5.0)
    assert m["kalish.self_s"] == pytest.approx(2.0)
    assert m["jsonio.self_s"] == pytest.approx(1.0)
    layer_total = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layer_total == pytest.approx(10.0)
    assert m["dynamics_lab.calls"] == 2
    assert m["kalish.calls"] == 2
    assert m["dynamics_lab.orbit.self_s"] == pytest.approx(5.0)
    assert m["kalish.apply_T.self_s"] == pytest.approx(2.0)
    assert m["kalish.grid_angles.calls"] == 1
    assert m["jsonio.write_json.self_s"] == pytest.approx(1.0)
    assert spans.coverage(tree, 10.0) == pytest.approx(1.0)


def test_recursive_calls_count_once_in_self_and_total_time():
    tree = synthetic_spans([
        ("dynamics_lab.weak_mixing_probe", 0.0, 4.0, [
            ("dynamics_lab.weak_mixing_probe", 1.0, 3.0, [
                ("hitting_sets.difference_set", 1.5, 2.5, []),
            ]),
        ]),
    ])
    m = spans.pass_metrics(tree)
    assert m["dynamics_lab.weak_mixing_probe.total_s"] == pytest.approx(4.0)
    assert m["dynamics_lab.self_s"] == pytest.approx(3.0)
    assert m["hitting_sets.difference_set.self_s"] == pytest.approx(1.0)


def test_cache_hit_ratio_counts_calls_that_built_no_model():
    tree = synthetic_spans([
        ("dynamics_lab.default_gauss_model", 0.0, 3.0, [
            ("gauss_model.build_model", 1.0, 2.0, []),
        ]),
        ("dynamics_lab.default_gauss_model", 3.0, 3.5, []),
        ("dynamics_lab.default_gauss_model", 4.0, 4.5, []),
        ("dynamics_lab.default_gauss_model", 5.0, 5.5, []),
    ])
    assert spans.pass_metrics(tree)[spans.HIT_RATIO] == pytest.approx(0.75)
    assert spans.pass_metrics([])[spans.HIT_RATIO] == 0.0


ALPHA = '''
def double(x):
    return 2 * x

def boom():
    raise KeyError("boom")

def _private():
    return "private"
'''

BETA = '''
from fakepkg.alpha import double, boom

def twice_double(x):
    return double(double(x))

def call_boom():
    return boom()
'''


@pytest.fixture
def fake_package():
    names = ("fakepkg", "fakepkg.alpha", "fakepkg.beta")
    pkg = types.ModuleType("fakepkg")
    sys.modules["fakepkg"] = pkg
    for name, source in (("fakepkg.alpha", ALPHA), ("fakepkg.beta", BETA)):
        module = types.ModuleType(name)
        sys.modules[name] = module
        exec(compile(source, name, "exec"), module.__dict__)
        setattr(pkg, name.split(".")[1], module)
    pkg.double = sys.modules["fakepkg.alpha"].double
    yield pkg
    for name in names:
        sys.modules.pop(name)


def test_wrapper_passes_through_and_restores(fake_package):
    alpha, beta = fake_package.alpha, fake_package.beta
    originals = {"double": alpha.double, "boom": alpha.boom,
                 "twice_double": beta.twice_double, "_private": alpha._private}
    recorder = spans.Recorder()
    with spans.traced("fakepkg", recorder, layers=("alpha", "beta")):
        for binding in (alpha.double, beta.double, fake_package.double):
            assert binding is not originals["double"]
        assert alpha._private is originals["_private"]
        assert beta.twice_double(3) == 12
        with pytest.raises(KeyError, match="boom"):
            beta.call_boom()
    assert [s.name for s in recorder.spans] == [
        "beta.twice_double", "alpha.double", "alpha.double",
        "beta.call_boom", "alpha.boom"]
    assert [s.parent for s in recorder.spans] == [-1, 0, 0, -1, 3]
    assert all(s.end >= s.start for s in recorder.spans)
    assert alpha.double is beta.double is fake_package.double
    assert alpha.double is originals["double"]
    assert alpha.boom is beta.boom is originals["boom"]
    assert beta.twice_double is originals["twice_double"]


def test_wrapper_restores_when_the_body_raises(fake_package):
    original = fake_package.alpha.double
    with pytest.raises(RuntimeError):
        with spans.traced("fakepkg", spans.Recorder(), layers=("alpha",)):
            raise RuntimeError("stop")
    assert fake_package.beta.double is original


def test_traced_patches_every_hyperlab_binding_and_restores():
    hyperlab = run.import_hyperlab()
    apply_t = hyperlab.kalish.apply_T
    bindings = (hyperlab, hyperlab.kalish, hyperlab.gauss_model,
                hyperlab.dynamics_lab, hyperlab.runner)
    recorder = spans.Recorder()
    with spans.traced("hyperlab", recorder):
        wrapped = hyperlab.kalish.apply_T
        assert wrapped is not apply_t
        assert all(m.apply_T is wrapped for m in bindings)
        f = hyperlab.CircleFunction.constant(1.0, 64)
        hyperlab.runner.apply_T(f)
    top, *inner = recorder.spans
    assert (top.name, top.parent, top.work) == ("kalish.apply_T", -1, 64)
    assert all(s.parent >= 0 for s in inner)
    assert all(m.apply_T is apply_t for m in bindings)


def run_battery(hyperlab, seed, out_dir):
    took, status = run.timed_pass(hyperlab, config_doc("battery-w1000", seed),
                                  out_dir)
    return run.read_pass("warm", out_dir, seed, took, 1.0, status)


def test_same_seed_same_digest_and_different_seeds_differ(tmp_path):
    hyperlab = run.import_hyperlab()
    first = run_battery(hyperlab, 7, tmp_path / "a")
    other = run_battery(hyperlab, 8, tmp_path / "b")
    setup, took, status = run.cold_probe("battery-w1000", 7, tmp_path / "c")
    cold = run.read_pass("cold", tmp_path / "c", 7, took, 1.0, status)
    assert setup > 0 and took > 0
    assert cold.digest == first.digest
    assert first.digest != other.digest
    assert run.grade_pass(cold, first) == (0, [])
    assert first.artifact_files == 4 and first.artifact_bytes > 0


def test_pass_plan_depends_on_the_arguments_alone():
    plan = run.pass_plan("battery-w1000", 0, 30)
    assert plan == run.pass_plan("battery-w1000", 0, 30)
    assert len(plan) == round(30 / NOMINAL_PASS_S["battery-w1000"]) - 1
    assert plan[:4] == ["warm", "cold", "warm", "cold"]
    short = run.pass_plan("gauss-g16384", 1, 1)
    assert short == ["warm", "traced"] * run.MIN_CYCLES


def test_hostspeed_scales_to_the_reference():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.speed(ref, ref) == pytest.approx(1.0)
    # A host running the kernel twice as slowly halves the seconds.
    assert hostspeed.speed(2 * ref, 2 * ref) == pytest.approx(0.5)
    assert hostspeed.reference_seconds() > 0


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "first_pass_s", "pass_s", "peak_rss_mb"}
    assert [m["name"] for m in spec["per_layer"]] == spans.layer_metric_names()
    for m in spec["per_layer"]:
        assert (m["unit"], m["better"]) == spans.metric_unit(m["name"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "battery-w1000",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
