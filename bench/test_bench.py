"""Tests of the benchmark itself: seeded inputs, references and trace counters.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest
from numpy.polynomial import chebyshev as C

import reference as ref
import run
import workloads
from tracing import Tracer

T = np.linspace(-0.9, 0.9, 7)


def _inputs(workload, seed, index):
    ops = workloads.deck(workload, seed, index)
    return [op.argv for op in ops], [op.files for op in ops]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_argv_and_csv_bytes(name):
    workload = workloads.WORKLOADS[name]
    assert _inputs(workload, 7, 0) == _inputs(workload, 7, 0)
    assert _inputs(workload, 7, 0)[0] != _inputs(workload, 8, 0)[0]
    assert _inputs(workload, 7, 0)[0] != _inputs(workload, 7, 1)[0]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_deck_mix_is_fixed(name):
    workload = workloads.WORKLOADS[name]
    kinds = [sorted(op.kind for op in workloads.deck(workload, seed, 0)
                    if not op.kind.startswith("invalid")) for seed in (1, 2)]
    assert kinds[0] == kinds[1]
    assert len(workloads.deck(workload, 1, 0)) == sum(count for count, _ in workload.mix)


def test_readme_examples():
    # T(w)(0.25) = -0.25 for w = sqrt(1 - x^2), in either basis
    assert ref.weight_transform([1.0], 0.25) == pytest.approx(-0.25, abs=1e-15)
    assert ref.weight_transform(ref.u_to_t([1.0]), 0.25) == pytest.approx(-0.25, abs=1e-15)
    # the kernel: T(1/w) = 0
    assert np.max(np.abs(ref.inverse_weight_transform([1.0], T))) == 0.0
    # g = T_1 in the high regime gives f = -w U_0
    a, b, basis, coeffs = ref.solve_high([0.0, 1.0])
    assert (a, b, basis, list(coeffs)) == (0.5, 0.5, "U", [-1.0])
    # lambda = 0 is an eigenvalue on L^1.5
    assert ref.classify_point("lebesgue", 1.5, None, 0.0) == "point"
    assert ref.fine_spectrum("lebesgue", 1.5) == ("interior(1.5)", "empty", "boundary(1.5)")


def test_plain_transform_of_one_and_of_monomials():
    assert np.allclose(ref.plain_transform([1.0], T), np.log((1 - T) / (1 + T)) / math.pi,
                       rtol=0, atol=1e-15)
    rng = np.random.default_rng(0)
    mono = rng.standard_normal(7)
    cheb = C.poly2cheb(mono)
    assert ref.rel_err(ref.plain_transform(cheb, T), ref.monomial_transform(mono, T)) < 1e-13


@pytest.mark.parametrize("degree", [3, 20])
def test_grid_and_pointwise_references_agree(degree):
    rng = np.random.default_rng(degree)
    tc = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    grid = np.linspace(-0.95, 0.95, 200)
    one_by_one = np.array([ref.plain_transform(tc, t) for t in grid])
    assert ref.rel_err(ref.plain_transform(tc, grid), one_by_one) < 1e-13
    mono = tc[:9]
    one_by_one = np.array([ref.monomial_transform(mono, t) for t in grid])
    assert ref.rel_err(ref.monomial_transform(mono, grid), one_by_one) < 1e-13


def test_basis_changes_round_trip():
    tc = np.random.default_rng(1).standard_normal(12)
    assert np.allclose(ref.u_to_t(ref.t_to_u(tc)), tc, rtol=0, atol=1e-13)
    assert np.allclose(ref.cheb_eval(ref.t_to_u(tc), "U", T), C.chebval(T, tc), atol=1e-13)


@pytest.mark.parametrize("n", [0, 1, 4])
def test_jacobi_formula_matches_canonical_weights(n):
    # a = b = 1/2: P_n is a multiple of U_n, so w P_n -> -T_{n+1}
    assert ref.rel_err(ref.jacobi_transform(n, 0.5, 0.5, T),
                       ref.weight_transform(ref.jacobi_cheb(n, 0.5, 0.5), T)) < 1e-12
    # a = b = -1/2: P_n is a multiple of T_n, so T_n / w -> U_{n-1}
    assert ref.rel_err(ref.jacobi_transform(n, -0.5, -0.5, T),
                       ref.inverse_weight_transform(ref.jacobi_cheb(n, -0.5, -0.5), T)) < 1e-12


def test_eigen_and_norm_references():
    assert ref.gamma_of_lambda(0.3) == 2.0
    assert 1.0 < ref.gamma_of_lambda(0.2 + 0.3j) < 2.0
    for p in (1.2, 1.8):
        ratio = ref.norm_sup_ratio(p, family_size=3, seed=5)
        assert 0.0 < ratio <= math.tan(math.pi / (2 * p))


@pytest.fixture(scope="module")
def cli():
    module = run.load_cli()
    assert module is not None
    return module


def _traced(cli, ops):
    run.write_files(ops)
    tracer = Tracer()
    tracer.install()
    try:
        outcomes = run.run_ops(cli, ops, run.Tally(), tracer=tracer)
    finally:
        tracer.uninstall()
        shutil.rmtree(run.ROOT / workloads.WORK_DIR, ignore_errors=True)
    codes = [o.code for o in outcomes]
    return {k: v["value"] for k, v in run.layer_metrics(tracer, ops, codes, 1.0).items()}


def test_closed_form_deck_passes_and_never_reaches_quadrature(cli):
    ops = workloads.deck(workloads.CLOSED_FORM, 3, 0)
    run.write_files(ops)
    tally = run.Tally()
    try:
        run.run_ops(cli, ops, tally)
    finally:
        shutil.rmtree(run.ROOT / workloads.WORK_DIR, ignore_errors=True)
    assert tally.unexpected == []
    metrics = _traced(cli, ops)
    assert metrics["engine.closed_form.points"] > 0
    assert metrics["engine.quad.calls"] == 0
    assert metrics["engine.pointwise.calls"] == 0
    harness = {k: v for k, v in metrics.items() if k.startswith("harness.")}
    assert harness and all(v == 0 for v in harness.values())
    assert cli.main.__module__ == "finitehilbert.cli"  # the wrappers are gone


def test_exact_counts_repeat(cli):
    deck = workloads.deck(workloads.QUADRATURE, 4, 0)
    ops = [op for kind in ("invert", "jacobi_points", "unsolvable")
           for op in [op for op in deck if op.kind == kind][:3]]
    first, second = _traced(cli, ops), _traced(cli, ops)
    for name in ("engine.quad.calls", "engine.quad.evals", "engine.closed_form.points",
                 "airfoil.solves_per_invert", "series.eval.calls"):
        assert first[name] == second[name]
    assert first["engine.quad.evals"] > 0
    assert first["airfoil.solves_per_invert"] == 2.0


class _FakeCli:
    """Stands in for the program: prints out, then returns code or raises."""

    def __init__(self, code=0, out="", raises=None):
        self.code, self.out, self.raises = code, out, raises

    def main(self, argv):
        if self.raises is not None:
            raise self.raises
        print(self.out, end="")
        return self.code


def _laeng_payload(residuals):
    reports = [{"name": "laeng", "tolerance": 1e-3, "max_abs_residual": r, "pass": r <= 1e-3}
               for r in residuals]
    return json.dumps({"reports": reports, "pass": all(r["pass"] for r in reports)})


def test_known_defect_covers_only_its_own_failure(cli):
    rng = np.random.default_rng(0)
    crash = workloads.op_invalid(rng, ["crash_norms"])
    assert run.execute(cli, crash).known
    assert run.execute(_FakeCli(raises=ValueError("p")), crash).known
    for fake in (_FakeCli(raises=KeyError("p")), _FakeCli(code=1)):
        outcome = run.execute(fake, crash)
        assert outcome.problem is not None and not outcome.known

    laeng = workloads.op_laeng(rng, None, failing=True)
    assert run.execute(cli, laeng).known
    assert run.execute(_FakeCli(1, _laeng_payload([0.01, 1e-4])), laeng).known
    for fake in (_FakeCli(1, _laeng_payload([1e-4, 1e-4])), _FakeCli(1, "not json"),
                 _FakeCli(3, _laeng_payload([0.01, 1e-4]))):
        outcome = run.execute(fake, laeng)
        assert outcome.problem is not None and not outcome.known

    high = workloads.op_high_degree(rng, workloads.Slot("high", 0.9))
    assert run.execute(cli, high).known
    for fake in (_FakeCli(0, "not json"), _FakeCli(1)):
        outcome = run.execute(fake, high)
        assert outcome.problem is not None and not outcome.known


def test_fails_without_the_program():
    bare = run.ROOT / workloads.WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "closed_form",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(run.ROOT / workloads.WORK_DIR, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
