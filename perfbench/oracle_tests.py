"""Tests of the benchmark itself: every oracle must reject a wrong answer.

    python3 -m pytest -q perfbench/oracle_tests.py

Each test runs the small version of one job kind through the same loop the
benchmark times, with the result replaced by a deliberately wrong one, and
requires the loop to count it as a failure (fail_frac = 1).  The unmodified
result must pass, so a test cannot succeed by an oracle that rejects
everything.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import jobs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from plrf import data, population, records  # noqa: E402


def _scaled(key, factor, index=None):
    def mutate(res):
        out = dict(res)
        eig = np.array(res[key], dtype=float)
        if index is None:
            eig *= factor
        else:
            eig[index] *= factor
        out[key] = eig
        return out

    return mutate


def _perturb_layer(res):
    out = dict(res)
    eig = [np.array(e) for e in res["eig"]]
    eig[1][40] *= 1.0 + 1e-6  # one eigenvalue in the fit range, order kept
    out["eig"] = eig
    return out


def _zero_iterated(stages):
    out = [np.array(s) for s in stages]
    out[2][-1] = 0.0  # one fewer nonzero eigenvalue than the stage dimension
    return out


def _drop_tuple(res):
    """k tuples with one from the middle missing and the (k+1)-th in its place.

    Values, order and CSV stay consistent, as a wrongly pruned branch would
    leave them; only the completeness count can see the gap.
    """
    prm = jobs.KINDS["topk"].make(None, True)
    v, parts = prm["cases"][0]
    more = population.hpi_top_k(population.PowerLawSpectrum(prm["alpha"], v), parts, prm["k"] + 1)
    wrong = population.TopTuples([e for i, e in enumerate(more) if i != prm["k"] // 2])
    est = records.SpectrumEstimate(wrong.values(), (v, len(parts)), 0, "tuple-product", 0)
    data.write_spectrum_csv(est, res[0]["path"])
    return [{"top": wrong, "path": res[0]["path"]}] + res[1:]


def _csv_digit(res):
    """One CSV value written 5 ulp away from the returned value."""
    path = res[1]["path"]
    lines = Path(path).read_text().split("\n")
    j, lam = lines[5].split(",")
    lines[5] = f"{j},{float(lam) * (1 + 1e-15)!r}"
    Path(path).write_text("\n".join(lines))
    return res


def _theory_eps(res):
    out = {p: dict(r) for p, r in res.items()}
    eps = np.array(out[3]["eps"])
    eps[100] *= 1.0 + 1e-6
    out[3]["eps"] = eps
    return out


def _lattice_off_by_one(res):
    out = dict(res)
    out[(1, 1, 1)] += 1
    return out


def _exact_eig(res):
    out = dict(res)
    eig = np.array(res["eig"])
    eig[0] *= 1.0 + 1e-6
    out["eig"] = eig
    return out


MUTATIONS = [
    ("mc_gauss_p2", _scaled("eig", 2.0, index=0), "leading"),  # leading eigenvalue doubled
    ("mc_gauss_p3", _scaled("eig", 0.5), "trace"),  # a factor-2 scale error
    ("mc_heavy", _scaled("eig", 1.25), "bulk"),  # Student-t draws without unit-variance scaling
    ("exact_kernel", _exact_eig, "trace"),  # one perturbed eigenvalue
    ("iterated", _zero_iterated, "nonzero"),  # a rank-deficient stage
    ("layers", _perturb_layer, "refit"),  # one perturbed eigenvalue
    ("topk", _drop_tuple, "lie above"),  # one dropped top-k tuple
    ("topk", _csv_digit, "CSV"),  # a CSV that does not read back
    ("theory", _theory_eps, "N(u_j)"),  # one perturbed predicted eigenvalue
    ("lattice", _lattice_off_by_one, "oracle"),  # a count off by one
]


def _loop(workload, tmp_path, mutate=None, seed=1):
    return run.measure(workload, seed, 0.0, tmp_path, small=True, mutate=mutate)


@pytest.mark.parametrize("workload", list(jobs.WORKLOADS))
def test_correct_results_pass(workload, tmp_path):
    loop = _loop(workload, tmp_path)
    assert loop["failures"] == []


def test_every_kind_has_a_mutation():
    assert {kind for kind, _, _ in MUTATIONS} == set(jobs.KINDS)


@pytest.mark.parametrize("kind, wrong, caught_by", MUTATIONS, ids=[f"{k}-{m}" for k, _, m in MUTATIONS])
def test_wrong_result_counts_as_failure(kind, wrong, caught_by, tmp_path):
    workload = next(w for w, kinds in jobs.WORKLOADS.items() if kind in kinds)
    loop = _loop(workload, tmp_path, mutate=lambda k, res: wrong(res) if k == kind else res)
    assert [f["kind"] for f in loop["failures"]] == [kind]
    assert any(caught_by in p for p in loop["failures"][0]["problems"])
    fail_frac = len(loop["failures"]) / sum(len(v) for v in loop["runs"].values())
    assert fail_frac == pytest.approx(1 / len(jobs.WORKLOADS[workload]))


def test_job_that_raises_counts_as_failure(tmp_path, monkeypatch):
    def boom(params, workdir):
        raise ArithmeticError("injected")

    monkeypatch.setitem(jobs.KINDS, "theory", dataclasses.replace(jobs.KINDS["theory"], run=boom))
    loop = _loop("population_lattice", tmp_path)
    assert [f["kind"] for f in loop["failures"]] == ["theory"]
    assert "ArithmeticError" in loop["failures"][0]["problems"][0]


def test_job_times_are_rescaled_by_the_neighbouring_references(tmp_path, monkeypatch):
    ticks = iter(range(1, 100))
    monkeypatch.setattr(run, "reference", lambda workload: 0.001 * next(ticks))
    loop = _loop("population_lattice", tmp_path)  # one round: references 1, 2, 3 ms before the jobs, 4 ms after
    nominal = run.REFERENCE["population_lattice"][1]
    for slot, kind in enumerate(jobs.WORKLOADS["population_lattice"]):
        mean_ref = 0.001 * (slot + 1.5)
        assert loop["scaled"][kind] == [pytest.approx(loop["runs"][kind][0] * nominal / mean_ref)]


def test_job_list_is_a_function_of_the_seed():
    for workload, kinds in jobs.WORKLOADS.items():
        for slot in range(len(kinds)):
            a = jobs.make_job(workload, 5, 2, slot)
            assert a == jobs.make_job(workload, 5, 2, slot)
            if a.kind != "topk":  # topk inputs are fixed on purpose, see README
                assert a != jobs.make_job(workload, 6, 2, slot)


def test_held_out_seed_passes(tmp_path):
    for workload in jobs.WORKLOADS:
        assert _loop(workload, tmp_path, seed=run.HELD_OUT_SEED)["failures"] == []


def test_oracle_count_matches_brute_force():
    h = oracles.power_law(1.3, 40)
    for parts in [(1, 1), (1, 2), (2, 1), (1, 1, 1), (1, 2, 1)]:
        grids = np.meshgrid(*[np.arange(40)] * len(parts), indexing="ij")
        idx = np.stack([g.ravel() for g in grids], axis=1)
        idx = idx[np.all(np.diff(idx, axis=1) > 0, axis=1)]
        vals = np.prod([h[idx[:, t]] ** a for t, a in enumerate(parts)], axis=0)
        for x in np.quantile(vals, [0.0, 0.5, 0.9, 0.999]) * (1.0 + 1e-9):  # off any tie, as in the loop
            assert oracles.tuple_count_above(h, parts, x) == int(np.sum(vals > x))


def test_divisor_sieve_matches_golden():
    golden = json.loads((HERE.parent / "tests" / "golden" / "lattice_counts.json").read_text())
    D = oracles.divisor_prefix(10**5)
    for X, want in golden["1,1,1"].items():
        if int(X) <= 10**5:
            assert oracles.count_111(int(X), D) == want == oracles.GOLDEN_111.get(int(X), want)


def test_tracer_spans_nest_and_restore(tmp_path):
    import plrf.simulate

    original = plrf.simulate.mc_covariance
    tracer = tracing.Tracer()
    tracer.install()
    try:
        loop = run.measure("mc_sampling", 1, 0.0, tmp_path, tracer, small=True)
    finally:
        tracer.uninstall()
    assert plrf.simulate.mc_covariance is original
    assert loop["failures"] == []
    metrics = tracer.layer_metrics(loop["rounds"])
    assert metrics["simulate.DataDistribution.draw_unit.calls"] == 3  # one block per job
    assert metrics["spectral.gram_spectrum.calls"] == 3
    assert metrics["population.hpi_top_k.self_s"] == 0.0
    roots = [s for s in tracer.spans if s[3] is None]
    assert len(roots) == 3
    totals = tracer.totals()
    assert math.isclose(sum(totals["self"][n] for n in tracing.LAYERS + ("bench",)), sum(s[2] - s[1] for s in roots))


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
