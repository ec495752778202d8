"""Fast checks of the benchmark's tracer and inputs: python -m pytest bench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from kernel_spectra import iterated, quadrature, spectra, tails  # noqa: E402


def small_outputs():
    rule = quadrature.uniform_rule(4, 4)
    spec = spectra.eigensolve(spectra.assemble(rule))
    xc = spectra.cross_validate_k2(rule, count=3, spectrum=spec)
    points = [iterated.k2_closed(0.3, 0.7), iterated.k2_quadrature(0.3, 0.7),
              tails.kernel_moment(0.2, 1.5), iterated.i0_eval(0.4, 0.5)]
    return spec.eigenvalues, xc.k2_matrix_eigenvalues, np.array(points)


def test_traced_values_are_bit_identical():
    plain = small_outputs()
    tracer = spans.Tracer()
    with tracer:
        traced = small_outputs()
    assert tracer.take()
    for a, b in zip(plain, traced):
        assert a.tobytes() == b.tobytes()


def test_uninstall_restores_every_namespace():
    before = {name: getattr(mod, name) for mod in (spectra, iterated, tails)
              for name in dir(mod) if callable(getattr(mod, name))}
    with spans.Tracer():
        assert spectra.k2_closed is not before["k2_closed"]
        assert spectra.k2_closed is iterated.k2_closed  # one wrapper per function
    after = {name: getattr(mod, name) for mod in (spectra, iterated, tails)
             for name in dir(mod) if callable(getattr(mod, name))}
    assert after == before


def test_spans_nest_and_share_requests():
    tracer = spans.Tracer()
    with tracer:
        iterated.k2_closed(0.3, 0.7)
        iterated.k2_closed(0.4, 0.6)
    recorded = tracer.take()
    names = spans.LAYER_NAMES
    roots = [i for i, s in enumerate(recorded) if s[3] == -1]
    assert [names[recorded[i][0]] for i in roots] == ["iterated.k2_closed"] * 2
    assert recorded[roots[0]][4] != recorded[roots[1]][4]
    for name, start, end, parent, request in recorded:
        assert start <= end
        if parent >= 0:
            _, p_start, p_end, _, p_request = recorded[parent]
            assert p_start <= start and end <= p_end and request == p_request
    summary = spans.summarize(recorded)
    calls, total, own = summary["iterated.k2_closed"]
    assert calls == 2 and 0 <= own <= total
    assert summary["tails.mixed_power_tail"][0] == 2


def test_self_time_subtracts_direct_children():
    k2 = spans.LAYER_NAMES.index("iterated.k2_closed")
    tail = spans.LAYER_NAMES.index("tails.tilde_power_tail")
    rule = spans.LAYER_NAMES.index("quadrature.composite_rule")
    recorded = [(k2, 0, 100, -1, 0), (tail, 10, 50, 0, 0), (rule, 20, 30, 1, 0), (tail, 60, 70, 0, 0)]
    summary = spans.summarize(recorded)
    assert summary["iterated.k2_closed"] == (1, 100, 50)
    assert summary["tails.tilde_power_tail"] == (2, 50, 40)
    assert summary["quadrature.composite_rule"] == (1, 10, 10)


def test_pointwise_inputs_follow_seed_and_pass():
    a, b = workloads.Pointwise(5), workloads.Pointwise(5)
    assert a.queries == b.queries
    first = list(a.queries)
    a.prepare(1)
    assert a.queries != first and len(a.queries) == len(first)
    assert workloads.Pointwise(6).queries != first
    assert a.rational_share == pytest.approx(workloads.Pointwise.RATIONAL_SHARE)
    for kind, args in a.queries:
        if workloads.POINTWISE_KINDS[kind][0] in ("k2_closed", "k2_quadrature", "i0_eval"):
            assert all(0.0 < t <= 1.0 for t in args[:2])


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("traces", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run([sys.executable] + cmd[1:] + ["--workload", "spectrum", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
