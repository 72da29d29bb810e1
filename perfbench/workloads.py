"""Seeded operations of the three benchmark workloads and their output checks.

A workload runs in *passes*.  Every pass has the same fixed composition (how
many operations of each size and parameter class); only the drawn values
(parameters, states, rotations, seeds, order) change with the workload seed
and the pass index.  Fixing the composition keeps every per-pass statistic
reading the same kind of operation on every seed.  (One exception: the class
of the single jmax=150 levels operation cycles with the pass index, the same
way on every seed.)

No operation of a workload is expected to fail on the program as it stands
(see ``LAME_JMAX`` and ``VerifyOp.redraws``); the known defects that this
keeps out of the timed loops are measured by ``lame_probe`` and counted in
``VerifyOp.redraws`` instead.

The checks here recompute identities from the program's outputs with the
benchmark's own arithmetic; they never call the program's verify suite.  A
check returns None when the output is right, or a reason string.  Reasons
that start with ``check:`` mean the program reported success but the output
is wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from asymtop import cli, spectra, verify, wavefunctions, wigner
from asymtop.lambda_rep import ComplexQ
from asymtop.so3 import EulerAngles, compose

WORKLOADS = ("levels", "states", "verify")
PARAM_CLASSES = ("generic", "large_ratio", "near_degenerate")

# Operations per pass, keyed by jmax (levels, per parameter class), j (states)
# or jmax (verify).  A levels pass also has one jmax=150 operation, whose
# class cycles with the pass index; it alone takes about a quarter of the
# pass, and one per class would leave room for one pass per run only.  The
# multiplicities put the per-pass median and the eleventh-largest latency
# (the tail statistic) inside one stratum of operations each, so neither
# statistic jumps between strata from seed to seed:
#   levels (133 ops): tail among jmax=80, median among jmax=8;
#   states (35 ops):  tail among j=32, median among j=24;
#   verify (33 ops):  tail among jmax=10, median among jmax=4 and 10.
LEVELS_TOP_JMAX = 150
LEVELS_MIX = {80: 4, 40: 2, 20: 2, 8: 36}
STATES_MIX = {48: 4, 40: 4, 32: 7, 24: 5, 16: 5, 8: 10}
VERIFY_MIX = {10: 13, 4: 20}

ROUTES = ("wigner", "lambda", "lame")
# Largest jmax at which a levels operation asks for the Lame route, per
# parameter class; above it the operation asks for wigner and lambda only.
# The Lame route loses agreement with the others (exit 2) or its root count
# (exit 3) as j grows.  On sampled tops, the worst relative disagreement
# with the Wigner route (the levels command fails above 1e-8) was:
#   large ratio:     4e-11 at j=12 (1000 tops); 2 of 1000 fail at j=16, and
#                    282 of 300 by j=30;
#   generic:         8e-10 at j=80 (250 tops); 3 of 60 fail at j=100;
#   near-degenerate: 7e-10 at j=80 (250 tops); 1 of 12 fails at j=150.
# No operation fails below the caps; lame_probe measures the defect above.
LAME_JMAX = {"generic": 80, "large_ratio": 12, "near_degenerate": 80}
# lame_probe: tops per class, and the j at which each is probed
LAME_PROBES = 4
LAME_PROBE_J = {"generic": 150, "large_ratio": 40, "near_degenerate": 150}

STATES_ROTATIONS = 12  # psi_eval at each, all sharing one state
STATES_KERNEL = 3  # of those, also evaluated through the kernel

VERIFY_CHECKS = (
    "route-agreement",
    "casimir",
    "commutators",
    "gram-hermiticity",
    "wigner-orthogonality",
    "kernel-group",
    "bridge",
    "pde-residual",
    "completeness",
    "measure-quadrature",
    "uncertainty",
)

TRACE_RTOL = 1e-8  # the program's own route-agreement tolerance
J1_RTOL = 1e-12
PSI_RTOL = 1e-10
HOMOMORPHISM_TOL = 1e-10
COMPLETENESS_RTOL = 1e-8
NORM_RTOL = 1e-10


# --- generated inputs ---------------------------------------------------


def make_params(cls: str, rng: np.random.Generator) -> tuple[float, float, float]:
    """(A, B, C) with A > B > C > 0 from one parameter class."""
    if cls == "generic":  # O(1) gaps
        c = rng.uniform(0.5, 2.0)
        b = c + rng.uniform(0.3, 2.0)
        a = b + rng.uniform(0.3, 2.0)
    elif cls == "large_ratio":  # A/C between 30 and 200
        c = rng.uniform(0.5, 2.0)
        a = c * math.exp(rng.uniform(math.log(30.0), math.log(200.0)))
        b = c + rng.uniform(0.05, 0.95) * (a - c)
    elif cls == "near_degenerate":  # A-B between 1e-7 and 1e-5 of B
        b = rng.uniform(1.0, 3.0)
        c = b * rng.uniform(0.3, 0.8)
        a = b * (1.0 + 10.0 ** rng.uniform(-7.0, -5.0))
    else:
        raise ValueError(f"unknown parameter class {cls!r}")
    return float(a), float(b), float(c)


def _angles(rng: np.random.Generator) -> tuple[float, float, float]:
    # theta stays off the poles, where the closed forms are singular
    return (
        float(rng.uniform(0.0, 2.0 * math.pi)),
        float(rng.uniform(0.4, math.pi - 0.4)),
        float(rng.uniform(0.0, 2.0 * math.pi)),
    )


def _param_args(params: tuple[float, float, float]) -> list[str]:
    a, b, c = params
    return ["--A", repr(a), "--B", repr(b), "--C", repr(c)]


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """asymtop.cli.main in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 3
    return rc, out.getvalue()


class _CliOp:
    """An operation that is one in-process call of `asymtop.cli.main`."""

    def argv(self) -> list[str]:
        raise NotImplementedError

    def check_output(self, out: str) -> str | None:
        raise NotImplementedError

    def execute(self) -> tuple[int, str]:
        return _run_cli(self.argv())

    def check(self, result) -> str | None:
        rc, out = result
        if rc != 0:
            return f"exit{rc}"
        return self.check_output(out)

    @staticmethod
    def stdout_bytes(result) -> int:
        return len(result[1].encode())


@dataclass(frozen=True)
class LevelsOp(_CliOp):
    """`asymtop levels` on generated parameters."""

    cls: str
    params: tuple[float, float, float]
    jmax: int
    fmt: str
    routes: tuple[str, ...] = ROUTES

    @property
    def size(self) -> int:
        return self.jmax

    @property
    def units(self) -> int:
        """Levels in the output: sum of 2j+1 over j <= jmax."""
        return (self.jmax + 1) ** 2

    def argv(self) -> list[str]:
        return [
            "levels", *_param_args(self.params), "--jmax", str(self.jmax),
            "--routes", ",".join(self.routes), "--format", self.fmt,
        ]

    def check_output(self, out: str) -> str | None:
        return check_levels_output(out, self.fmt, self.params, self.jmax, self.routes)


@dataclass(frozen=True)
class StatesOp:
    """Closed-form, kernel and D-matrix evaluations around one state."""

    cls: str
    params: tuple[float, float, float]
    j: int
    s: int
    q: tuple[float, float]
    rotations: tuple[tuple[float, float, float], ...]
    g1: tuple[float, float, float]
    g2: tuple[float, float, float]

    @property
    def size(self) -> int:
        return self.j

    @property
    def units(self) -> int:
        """Wavefunction values checked: one psi_eval per rotation."""
        return len(self.rotations)

    def execute(self):
        p = spectra.TopParams(*self.params)
        q = ComplexQ(*self.q)
        gs = [EulerAngles(*g) for g in self.rotations]
        direct = [wavefunctions.psi_eval(q, self.j, self.s, p, g) for g in gs]
        via_kernel = [
            wavefunctions.psi_via_kernel(q, self.j, self.s, p, g)
            for g in gs[:STATES_KERNEL]
        ]
        g1, g2 = EulerAngles(*self.g1), EulerAngles(*self.g2)
        d12 = wigner.wigner_D_matrix(self.j, compose(g1, g2))
        d1 = wigner.wigner_D_matrix(self.j, g1)
        d2 = wigner.wigner_D_matrix(self.j, g2)
        completeness = wavefunctions.completeness_defect(self.j, p, q)
        coeffs = spectra.phi_state(self.j, self.s, p).coeffs
        return direct, via_kernel, (d12, d1, d2), completeness, coeffs

    def check(self, result) -> str | None:
        direct, via_kernel, (d12, d1, d2), completeness, coeffs = result
        return (
            check_psi_agreement(direct, via_kernel)
            or check_homomorphism(d12, d1, d2)
            or check_completeness(completeness, self.j, self.q[1])
            or check_norm(coeffs, self.j)
        )

    @staticmethod
    def stdout_bytes(result) -> int:
        return 0


@dataclass(frozen=True)
class VerifyOp(_CliOp):
    """`asymtop verify` on generated strict parameters and check seed."""

    cls: str
    params: tuple[float, float, float]
    jmax: int
    seed: int
    fmt: str
    redraws: int = 0  # draws before this one that the pde-residual check fails

    @property
    def size(self) -> int:
        return self.jmax

    @property
    def units(self) -> int:
        return len(VERIFY_CHECKS)

    def argv(self) -> list[str]:
        return [
            "verify", *_param_args(self.params), "--jmax", str(self.jmax),
            "--seed", str(self.seed), "--format", self.fmt,
        ]

    def check_output(self, out: str) -> str | None:
        return check_verify_output(out, self.fmt)


WARMUP_PASS = 2**32 - 1  # stream index of the warm-up operation


def _rng(workload: str, seed: int, pass_index: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, WORKLOADS.index(workload), pass_index])


def _fmt(k: int) -> str:
    return ("csv", "json")[k % 2]


def make_pass(workload: str, seed: int, pass_index: int) -> list:
    """The operations of one pass, in execution order."""
    rng = _rng(workload, seed, pass_index)
    ops: list = []
    if workload == "levels":
        cls = PARAM_CLASSES[pass_index % len(PARAM_CLASSES)]
        ops.append(_levels_op(cls, LEVELS_TOP_JMAX, _fmt(pass_index), rng))
        for ci, cls in enumerate(PARAM_CLASSES):
            for ji, (jmax, count) in enumerate(LEVELS_MIX.items()):
                for k in range(count):
                    ops.append(_levels_op(cls, jmax, _fmt(ci + ji + k), rng))
    elif workload == "states":
        for j, count in STATES_MIX.items():
            for _ in range(count):
                ops.append(_states_op(j, rng))
    elif workload == "verify":
        for ji, (jmax, count) in enumerate(VERIFY_MIX.items()):
            for k in range(count):
                params, seed_k, redraws = _verify_inputs(rng)
                ops.append(VerifyOp("generic", params, jmax, seed_k, _fmt(ji + k), redraws))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [ops[i] for i in rng.permutation(len(ops))]


def _levels_op(cls: str, jmax: int, fmt: str, rng: np.random.Generator) -> LevelsOp:
    routes = ROUTES if jmax <= LAME_JMAX[cls] else ROUTES[:2]
    return LevelsOp(cls, make_params(cls, rng), jmax, fmt, routes)


def _states_op(j: int, rng: np.random.Generator) -> StatesOp:
    cls = PARAM_CLASSES[int(rng.integers(len(PARAM_CLASSES)))]
    return StatesOp(
        cls=cls,
        params=make_params(cls, rng),
        j=j,
        s=int(rng.integers(-j, j + 1)),
        q=(float(rng.uniform(0.0, 2.0 * math.pi)), float(rng.uniform(-0.5, 0.5))),
        rotations=tuple(_angles(rng) for _ in range(STATES_ROTATIONS)),
        g1=_angles(rng),
        g2=_angles(rng),
    )


def _verify_inputs(rng: np.random.Generator) -> tuple[tuple[float, float, float], int, int]:
    """Generic params and a check seed on which the program's pde-residual
    check passes, and how many draws before them it failed on.

    That check compares finite-difference residuals at steps 1e-3 and 5e-4
    and, at about 1% of random (params, seed), reads rounding noise as a
    failed convergence rate.  It samples j <= 3 whatever the verify jmax.
    """
    redraws = 0
    while True:
        params = make_params("generic", rng)
        seed = int(rng.integers(0, 2**31))
        if verify.check_pde_residual(spectra.TopParams(*params), seed=seed).passed:
            return params, seed, redraws
        redraws += 1


def lame_probe(seed: int) -> dict[str, float]:
    """Share of generated tops, per parameter class, on which the Lame route
    at LAME_PROBE_J[cls] raises or disagrees with the Wigner route by more
    than the levels command's default tolerance (relative to max(1, |E|))."""
    rng = np.random.default_rng([seed % 2**64, len(WORKLOADS)])
    out = {}
    for cls in PARAM_CLASSES:
        j, failed = LAME_PROBE_J[cls], 0
        for _ in range(LAME_PROBES):
            p = spectra.TopParams(*make_params(cls, rng))
            try:
                lame = np.array([lv.E for lv in spectra.spectrum(j, p, route="lame")])
            except Exception:
                failed += 1
                continue
            ref = np.array([lv.E for lv in spectra.spectrum(j, p, route="wigner")])
            scale = max(1.0, float(np.max(np.abs(ref))))
            failed += int(np.max(np.abs(lame - ref)) > TRACE_RTOL * scale)
        out[cls] = failed / LAME_PROBES
    return out


def make_warmup(workload: str, seed: int):
    """One smallest-size operation, run before timing starts."""
    rng = _rng(workload, seed, WARMUP_PASS)
    params = make_params("generic", rng)
    if workload == "levels":
        return LevelsOp("generic", params, 2, "csv")
    if workload == "states":
        return _states_op(2, rng)
    if workload == "verify":
        return VerifyOp("generic", params, 1, 1, "csv")
    raise ValueError(f"unknown workload {workload!r}")


# --- independent output checks -------------------------------------------


def _parse_levels(out: str, fmt: str, params, columns) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(j, s, energies[n, column]) from `asymtop levels` output."""
    if fmt == "json":
        doc = json.loads(out)
        echo = doc["params"]
        if (echo["A"], echo["B"], echo["C"]) != tuple(params):
            raise ValueError("params echo differs from the input")
        rows = doc["levels"]
        js = np.array([r["j"] for r in rows], dtype=int)
        ss = np.array([r["s"] for r in rows], dtype=int)
        energies = np.array([[r[c] for c in columns] for r in rows], dtype=float)
        return js, ss, energies
    lines = out.splitlines()
    header = lines[0].split(",")
    cols = [header.index(c) for c in ("j", "s", *columns)]
    table = [line.split(",") for line in lines[1:]]
    js = np.array([int(r[cols[0]]) for r in table], dtype=int)
    ss = np.array([int(r[cols[1]]) for r in table], dtype=int)
    energies = np.array([[float(r[c]) for c in cols[2:]] for r in table], dtype=float)
    return js, ss, energies


def check_levels_output(out: str, fmt: str, params, jmax: int, routes=ROUTES) -> str | None:
    """Row count, labels, ordering, trace rule per requested route, and j=1
    levels."""
    try:
        js, ss, energies = _parse_levels(out, fmt, params, [f"E_{r}" for r in routes])
    except (ValueError, KeyError, IndexError, TypeError):
        return "check:parse"
    if len(js) != (jmax + 1) ** 2:
        return "check:row-count"
    want_j = np.repeat(np.arange(jmax + 1), 2 * np.arange(jmax + 1) + 1)
    want_s = np.concatenate([np.arange(-j, j + 1) for j in range(jmax + 1)])
    if not (np.array_equal(js, want_j) and np.array_equal(ss, want_s)):
        return "check:labels"
    if not np.all(np.isfinite(energies)):
        return "check:finite"
    a, b, c = params
    starts = np.concatenate(([0], np.cumsum(2 * np.arange(jmax + 1) + 1)))
    for j in range(jmax + 1):
        block = energies[starts[j] : starts[j + 1]]
        if np.any(np.diff(block, axis=0) < 0.0):
            return "check:ascending"
        target = (a + b + c) * j * (j + 1) * (2 * j + 1) / 3.0
        if np.max(np.abs(block.sum(axis=0) - target)) > TRACE_RTOL * max(1.0, target):
            return "check:trace-rule"
    if jmax >= 1:
        want = np.array(sorted([b + c, a + c, a + b]))
        got = energies[1:4]
        if np.max(np.abs(got - want[:, None])) > J1_RTOL * max(1.0, float(want[-1])):
            return "check:j1-levels"
    return None


def check_psi_agreement(direct, via_kernel) -> str | None:
    """psi_eval vs psi_via_kernel, relative to max(1, |psi|)."""
    values = np.asarray(direct, dtype=complex)
    if not np.all(np.isfinite(values)):
        return "check:psi-finite"
    for v1, v2 in zip(values, via_kernel):
        if abs(v1 - v2) > PSI_RTOL * max(1.0, abs(v1)):
            return "check:psi-kernel"
    return None


def check_homomorphism(d12: np.ndarray, d1: np.ndarray, d2: np.ndarray) -> str | None:
    """D(g1 g2) = D(g1) D(g2), entrywise."""
    if float(np.max(np.abs(d12 - d1 @ d2))) > HOMOMORPHISM_TOL:
        return "check:homomorphism"
    return None


def delta_scale(j: int, beta: float) -> float:
    """max(1, delta_j(q, conj q)) = 2^j (1 + cosh 2 beta)^j / binom(2j, j)."""
    log_delta = j * math.log(2.0 * (1.0 + math.cosh(2.0 * beta))) - math.log(math.comb(2 * j, j))
    return max(1.0, math.exp(log_delta))


def check_completeness(defect: float, j: int, beta: float) -> str | None:
    """Completeness defect relative to max(1, delta_j(q, conj q))."""
    if not defect <= COMPLETENESS_RTOL * delta_scale(j, beta):
        return "check:completeness"
    return None


def check_norm(coeffs: np.ndarray, j: int) -> str | None:
    """(Phi, Phi)_Q = sum |c_n|^2 / B_nj = 2j+1, B_nj = binom(2j, j+n)/binom(2j, j)."""
    weights = np.array([math.comb(2 * j, j + n) for n in range(-j, j + 1)], dtype=float)
    weights /= math.comb(2 * j, j)
    norm = float(np.sum(np.abs(coeffs) ** 2 / weights))
    if not abs(norm - (2 * j + 1)) <= NORM_RTOL * (2 * j + 1):
        return "check:norm"
    return None


def check_verify_output(out: str, fmt: str) -> str | None:
    """All eleven named checks present once, passed, with defect < tol."""
    try:
        if fmt == "json":
            doc = json.loads(out)
            rows = [(r["check"], r["passed"], float(r["defect"]), float(r["tol"])) for r in doc["checks"]]
            if doc["all_passed"] is not True:
                return "check:all-passed"
        else:
            lines = out.splitlines()
            if lines[0] != "check,passed,defect,tol":
                return "check:parse"
            rows = []
            for line in lines[1:]:
                name, passed, defect, tol = line.split(",")
                rows.append((name, {"true": True, "false": False}[passed], float(defect), float(tol)))
    except (ValueError, KeyError, IndexError, TypeError):
        return "check:parse"
    if sorted(r[0] for r in rows) != sorted(VERIFY_CHECKS):
        return "check:names"
    for name, passed, defect, tol in rows:
        if passed is not True or not defect < tol:
            return f"check:{name}"
    return None
