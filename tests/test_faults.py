"""The fault table: seeded faults in the closed forms, and the verify checks
that catch each.

A row scales what one builder of spectra returns by 1 + 1e-10, at one entry
or at all, and runs run_all(TopParams(3, 2, 1), jmax=10, seed=42) with the
table cache and the slots cleared around it (cold_caches), so no table built
before the fault, or with it, is read.  A row names the checks that must
fail.  A fault that no check catches yet is a strict xfail naming the open
ROADMAP item that will catch it: when that item lands, the row passes, and
strictness makes the change that lands it flip the row.
"""

import numpy as np
import pytest

from asymtop import TopParams, run_all, spectra


def _scaled(build, by=1e-10):
    """build, its values times 1 + by."""
    return lambda *args: build(*args) * (1.0 + by)


def _scaled_at(build, j, m, by=1e-10):
    """build(j, m, p), its value at one (j, m) times 1 + by; the route's
    builders take j and m (or n) as broadcasting arrays."""

    def faulty(js, ms, p):
        value = build(js, ms, p)
        return np.where((np.asarray(js) == j) & (np.asarray(ms) == m), value * (1.0 + by), value)

    return faulty


# each moves the levels of its route by 4e-12 to 6e-11 of max|E_j| at j = 7
ITEM_13 = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 13: route agreement in units of eps max|E_j| is to catch 1e-10 entry faults"
)

FAULTS = [
    pytest.param("_lambda_diagonal", _scaled(spectra._lambda_diagonal), {"gram-hermiticity", "pde-residual"}, id="lambda-diagonal"),
    pytest.param(
        "_wigner_diagonal", _scaled_at(spectra._wigner_diagonal, 7, -3), {"route-agreement"}, id="wigner-diagonal-entry", marks=ITEM_13
    ),
    pytest.param(
        "_wigner_offdiagonal", _scaled_at(spectra._wigner_offdiagonal, 7, -3), {"route-agreement"}, id="wigner-offdiagonal-entry", marks=ITEM_13
    ),
    pytest.param("_wigner_offdiagonal", _scaled(spectra._wigner_offdiagonal), {"route-agreement"}, id="wigner-offdiagonals", marks=ITEM_13),
    pytest.param("_gamma", _scaled(spectra._gamma), {"route-agreement"}, id="lame-gamma", marks=ITEM_13),
]


@pytest.mark.parametrize("target, fault, catches", FAULTS)
def test_seeded_fault_fails_the_checks_that_catch_it(monkeypatch, cold_caches, target, fault, catches):
    monkeypatch.setattr(spectra, target, fault)
    failed = {r.name for r in run_all(TopParams(3.0, 2.0, 1.0), jmax=10, seed=42) if not r.passed}
    assert failed == catches


def test_seeded_faults_move_the_levels_of_their_route(monkeypatch, cold_caches):
    # the rows above test a fault that acts: each moves its route's levels
    # at j = 7 and leaves the other routes' bits alone
    p, routes = TopParams(3.0, 2.0, 1.0), ("wigner", "lambda", "lame")
    clean = {r: np.array([level.E for level in spectra.spectrum(7, p, route=r)]) for r in routes}
    moved = {"_lambda_diagonal": "lambda", "_wigner_diagonal": "wigner", "_wigner_offdiagonal": "wigner", "_gamma": "lame"}
    for row in FAULTS:
        target, fault, _ = row.values
        with monkeypatch.context() as patch:
            patch.setattr(spectra, target, fault)
            spectra._SLOTS.clear()
            for route in routes:
                levels = np.array([level.E for level in spectra.spectrum(7, p, route=route)])
                change = np.max(np.abs(levels - clean[route])) / np.max(np.abs(clean[route]))
                if route == moved[target]:
                    assert 1e-12 < change < 1e-9, row.id
                else:
                    assert change == 0.0, row.id
        spectra._SLOTS.clear()
