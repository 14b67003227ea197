"""Self-tests of the benchmark: its inputs, its checker and its span arithmetic.

Not part of the library's test suite; run them with

    python3 -m pytest bench -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import wmpinv  # noqa: E402
import wmpinv.cli  # noqa: E402,F401


def _arrays(wl):
    if isinstance(wl, workloads.CliVerdicts):
        return [Path(c[0]).read_text() for c in wl.cases]
    if isinstance(wl, workloads.Limits):
        cases = [c[:2] + (c[2].matrix, c[3].matrix) for c in wl.t_cases] + [c[:2] for c in wl.lam_cases]
        return [a for case in cases for a in case]
    return [x for inst in wl.instances for x in (inst.a, inst.m, inst.n)]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_seed_gives_identical_inputs(name, tmp_path):
    first = _arrays(workloads.build(name, wmpinv, 7, tmp_path / "a"))
    again = _arrays(workloads.build(name, wmpinv, 7, tmp_path / "b"))
    other = _arrays(workloads.build(name, wmpinv, 8, tmp_path / "c"))
    assert len(first) == len(again)
    assert all(np.array_equal(x, y) for x, y in zip(first, again))
    assert not all(np.array_equal(x, y) for x, y in zip(first, other))


def test_singular_constructions_are_exact_and_weights_well_conditioned(tmp_path):
    wl = workloads.CliVerdicts(wmpinv, 3, tmp_path)
    seen = set()
    for _, a, m, n, rank, expected in wl.cases:
        assert ref.cond(m) <= 10 and ref.cond(n) <= 10
        u, _, vh = np.linalg.svd(a)
        mi = np.linalg.inv(m)
        n00 = vh[rank:] @ n @ vh[rank:].conj().T
        mi00 = u[:, rank:].conj().T @ mi @ u[:, rank:]
        singular = {ref.LABEL_R: ref.cond(n00) > 1e12, ref.LABEL_L: ref.cond(mi00) > 1e12}
        if expected is None:
            assert not any(singular.values())
        else:
            assert singular[expected]
            assert sum(singular.values()) == 1
        seen.add(expected)
    assert seen == {None, ref.LABEL_R, ref.LABEL_L}


def test_checker_fails_a_perturbed_inverse_and_a_flipped_verdict(tmp_path):
    wl = workloads.Pool(wmpinv, 5, tmp_path, count=40)
    rng = np.random.default_rng(0)
    checked = 0
    for i, inst in enumerate(wl.instances):
        if inst.rank == 0 or not inst.exists:
            continue
        x = wl.call(i).inverse
        assert wl.check(i, (True, x)) is None
        e = workloads.gaussian(rng, *x.shape)
        assert wl.check(i, (True, x + 1e-6 * e / ref.opnorm(e))) is not None
        assert wl.check(i, (False, None)) is not None
        checked += 1
    assert checked > 10

    cli = workloads.CliVerdicts(wmpinv, 5, tmp_path / "cli")
    for i in range(cli.cycle):
        code, text = cli.call(i)
        assert cli.check(i, (code, text)) is None
        report = json.loads(text)
        report["exists"] = not report["exists"]
        assert cli.check(i, (code, json.dumps(report))) is not None
        assert cli.check(i, (2 - code, text)) is not None


def test_limit_checker_fails_a_perturbed_target(tmp_path):
    wl = workloads.Limits(wmpinv, 5, tmp_path, count=1)
    parts = wl.result(0, wl.call(0))[1]
    assert wl.check(0, parts) is None
    (flag, target, final), lam = parts
    assert wl.check(0, [(flag, target * (1 + 1e-6), final), lam]) is not None
    assert wl.check(0, [(False, target, final), lam]) is not None


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("a.x", 1.5, 2.0, 1, 0),
        ("a.y", 2.0, 3.5, 1, 0),
        ("b", 3.0, 5.0, 0, 0),  # overlaps a: the union counts [3, 4] once
        ("c", 6.0, 7.0, 0, 0),
        ("root", 20.0, 21.0, -1, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 1.0, 0.5, 1.5, 2.0, 1.0, 1.0])


def test_layer_metrics_normalise_per_call_and_count_decompositions():
    spans = [
        ("core.wmp_inverse", 0.0, 0.010, -1, 0),
        ("lapack.svd", 0.001, 0.003, 0, 0),
        ("lapack.norm2", 0.004, 0.005, 0, 0),
        ("core.wmp_inverse", 0.020, 0.030, -1, 1),
        ("lapack.svd", 0.021, 0.023, 3, 1),
    ]
    m = tracing.layer_metrics(spans, calls=2, points=0, scale=[1.0, 2.0])
    assert m["lapack.svd.calls"]["value"] == 1.0
    assert m["lapack.decomp.calls"]["value"] == 1.5
    # call 0: 10 - 3 = 7 ms; call 1: (10 - 2) * 2 = 16 ms; per call 11.5 ms
    assert m["core.wmp_inverse.self_ms"]["value"] == pytest.approx(11.5)
    names = {e["name"] for e in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]}
    assert names == set(m) | {"trace.overhead_ratio"}
