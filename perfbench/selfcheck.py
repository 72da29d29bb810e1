"""Tests of the benchmark itself: generators, output checks, tracing, names.

Run from the repository root (kept out of the package's test collection):

    python3 -m pytest perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    assert workloads.make_pass(workload, 7, 0) == workloads.make_pass(workload, 7, 0)
    assert workloads.make_pass(workload, 7, 0) != workloads.make_pass(workload, 8, 0)
    assert workloads.make_pass(workload, 7, 0) != workloads.make_pass(workload, 7, 1)
    assert workloads.make_warmup(workload, 7) == workloads.make_warmup(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pass_composition_is_fixed(workload):
    def sizes(seed):
        return sorted((op.cls, op.size) if workload == "levels" else op.size
                      for op in workloads.make_pass(workload, seed, 0))

    assert sizes(1) == sizes(2)


def test_params_respect_their_class():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b, c = workloads.make_params("large_ratio", rng)
        assert a > b > c > 0 and 30.0 <= a / c <= 200.0
        a, b, c = workloads.make_params("near_degenerate", rng)
        assert a > b > c > 0 and 1e-7 <= (a - b) / b <= 1e-5 * (1 + 1e-9)
        assert a - b > 1e-9 * a  # above the strict-ordering threshold
        a, b, c = workloads.make_params("generic", rng)
        assert a - b >= 0.3 and b - c >= 0.3


def test_levels_asks_for_lame_only_up_to_its_cap():
    ops = workloads.make_pass("levels", 5, 0)
    for op in ops:
        want = workloads.ROUTES if op.jmax <= workloads.LAME_JMAX[op.cls] else ("wigner", "lambda")
        assert op.routes == want
    assert any(len(op.routes) == 2 for op in ops) and any(len(op.routes) == 3 for op in ops)


@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_levels_check_reads_only_requested_routes(fmt):
    op = workloads.LevelsOp("large_ratio", (90.0, 40.0, 1.0), 5, fmt, ("wigner", "lambda"))
    rc, out = op.execute()
    assert rc == 0 and op.check((rc, out)) is None
    assert op.check((0, _perturb_levels(op, out, 20, 1e-6))) == "check:trace-rule"


def test_verify_inputs_pass_the_pde_residual_check():
    from asymtop.spectra import TopParams
    from asymtop.verify import check_pde_residual

    for op in workloads.make_pass("verify", 3, 0):
        assert op.redraws >= 0
        assert check_pde_residual(TopParams(*op.params), seed=op.seed).passed


@pytest.fixture(scope="module", params=("csv", "json"))
def levels_output(request):
    op = workloads.LevelsOp("generic", (3.3, 2.1, 0.7), 6, request.param)
    rc, out = op.execute()
    assert rc == 0
    return op, out


def test_levels_check_accepts_real_output(levels_output):
    op, out = levels_output
    assert op.check((0, out)) is None


def _perturb_levels(op, out, row, rel):
    if op.fmt == "json":
        doc = json.loads(out)
        doc["levels"][row]["E_lambda"] *= 1.0 + rel
        return json.dumps(doc)
    lines = out.splitlines()
    cells = lines[row + 1].split(",")
    cells[4] = repr(float(cells[4]) * (1.0 + rel))
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_levels_check_rejects_perturbed_level(levels_output):
    op, out = levels_output
    assert op.check((0, _perturb_levels(op, out, 30, 1e-6))) == "check:trace-rule"
    assert op.check((0, _perturb_levels(op, out, 2, 1e-9))) == "check:j1-levels"


def test_levels_check_rejects_missing_row_and_exit_code(levels_output):
    op, out = levels_output
    if op.fmt == "csv":
        truncated = "\n".join(out.splitlines()[:-1])
    else:
        doc = json.loads(out)
        doc["levels"].pop()
        truncated = json.dumps(doc)
    assert op.check((0, truncated)) == "check:row-count"
    assert op.check((2, out)) == "exit2"


def test_states_checks():
    rng = np.random.default_rng(3)
    op = workloads._states_op(6, rng)
    result = op.execute()
    assert op.check(result) is None

    direct, via_kernel, (d12, d1, d2), completeness, coeffs = result
    flipped = d12.copy()
    flipped[2, 3] = -flipped[2, 3]
    assert workloads.check_homomorphism(flipped, d1, d2) == "check:homomorphism"
    bad_psi = [direct[0] * (1 + 1e-8)] + list(direct[1:])
    assert workloads.check_psi_agreement(bad_psi, via_kernel) == "check:psi-kernel"
    assert workloads.check_norm(coeffs * (1 + 1e-8), op.j) == "check:norm"
    assert workloads.check_completeness(1e-3, op.j, op.q[1]) == "check:completeness"


@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_verify_check_rejects_a_failed_row(fmt):
    op = workloads.VerifyOp("generic", (3.0, 2.0, 1.0), 1, 42, fmt)
    rc, out = op.execute()
    assert rc == 0 and op.check((rc, out)) is None
    if fmt == "csv":
        bad = out.replace("casimir,true", "casimir,false")
    else:
        doc = json.loads(out)
        doc["checks"][1]["passed"] = False
        bad = json.dumps(doc)
    assert bad != out
    assert op.check((0, bad)) is not None
    dropped = "\n".join(line for line in out.splitlines() if "uncertainty" not in line)
    assert workloads.check_verify_output(dropped, fmt) in ("check:names", "check:parse")


def test_metric_names():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(name) for name in declared)
    assert len(declared) == len(set(declared))
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layer == tracing.per_layer_metrics()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_wraps_every_binding_and_restores_them():
    import asymtop
    from asymtop import cli, spectra, verify, wavefunctions

    originals = (asymtop.spectrum, cli.spectrum, verify.spectrum, spectra.spectrum)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.spectrum is not originals[0] and verify.spectrum is cli.spectrum
        assert wavefunctions.phi_state is spectra.phi_state is asymtop.phi_state
        tracer.op = 0
        workloads.LevelsOp("generic", (3.0, 2.0, 1.0), 3, "csv").execute()
        tracer.op = 1
        workloads._states_op(3, np.random.default_rng(1)).execute()
    finally:
        tracer.uninstall()
    assert (asymtop.spectrum, cli.spectrum, verify.spectrum, spectra.spectrum) == originals

    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "spectra.spectrum.lame", "wigner.wigner_d_matrix"} <= names
    summary = tracer.summary([1.0, 1.0])
    assert summary["spectra.spectrum.wigner.calls"] == 4 / 2  # j = 0..3, one op of two
    assert summary["cli.main.busy_s"] >= summary["cli.main.self_s"] > 0
    for name, _, _ in tracing.per_layer_metrics():
        if name.startswith(("cli.stdout", "spectra.degeneracy", "levels.", "verify.pde_residual", "trace.")):
            continue  # filled in by the run loop, not from spans
        assert name in summary
