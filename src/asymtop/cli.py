"""Command line interface.

Subcommands:
    levels   energy levels by every requested route, with cross-route defects
    wave     closed-form wavefunction sampled on an Euler-angle grid
    kernel   reproducing kernel at one point, with optional identity check
    verify   the full self-check suite, one line per check

Shared flags (also settable as key=value lines in a --config file; explicit
flags win, and a key that names no flag is an error): --A --B --C --jmax
--routes --format --seed and one --tol-<check> per check name.

Exit codes: 0 success, 1 verify found a failing check, 2 levels found a
cross-route disagreement above tol-route-agreement, 3 invalid parameters or
anything else that prevented computation, running out of memory included.  All output is deterministic for a
fixed command line: data rows go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from .errors import DegenerateParamsError, DomainError
from .lambda_rep import ComplexQ, delta_j
from .so3 import IDENTITY, EulerAngles
from .spectra import ROUTES, SpectrumBatch, TopParams, phi_state, require_strict, spectrum
from .verify import CHECKS, run_all
from .wavefunctions import kernel_conj_defect, kernel_eval, psi_grid

_DEFAULTS = {"A": 3.0, "B": 2.0, "C": 1.0, "jmax": 4, "seed": 42, "routes": ",".join(ROUTES), "format": "csv"}
_DEFAULTS.update({f"tol-{c.name}": c.tol for c in CHECKS})

LEVELS_HEADER = "j,s,class,E_wigner,E_lambda,E_lame,max_disagreement"
WAVE_HEADER = "phi,theta,psi,re_psi,im_psi"


def _rows(head: str, row: str, columns: list[tuple[str, object]], sep: str, tail: str) -> None:
    """Print head, then row % (one value of each column) for every row,
    joined by sep, then tail: one format string per row.

    columns are the (cell format, values) pairs of row's cells; a format
    with no % is a constant cell (its values are not read).  "%.17g" cells
    print x + 0.0, which folds -0.0 into 0; "%r" cells print the float's
    repr, as json.dumps does (-0.0 included), and refuse a non-finite
    value, which JSON cannot hold.
    """
    cells = []
    for f, v in columns:
        if f in ("%.17g", "%r"):
            v = np.asarray(v, dtype=float)
            if f == "%r" and not np.isfinite(v).all():
                raise ValueError("non-finite value in JSON output")
            v = (v + 0.0 if f == "%.17g" else v).tolist()
        if "%" in f:
            cells.append(v)
    print(head + sep.join(row % values for values in zip(*cells)) + tail)


def _csv(header: str, columns: list[tuple[str, object]]) -> None:
    """Print header and one CSV row per entry of the (cell format, values)
    columns (_rows); a "" format is an empty cell."""
    _rows(header + "\n", ",".join(f for f, _ in columns), columns, "\n", "")


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 3, not argparse's default 2 (taken by levels)
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _add_shared(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--A", type=float, default=None, help="largest coefficient")
    sp.add_argument("--B", type=float, default=None, help="middle coefficient")
    sp.add_argument("--C", type=float, default=None, help="smallest coefficient")
    sp.add_argument("--jmax", type=int, default=None, help="largest j (default 4)")
    sp.add_argument(
        "--routes",
        default=None,
        help="comma-separated subset of %s (levels only)" % ",".join(ROUTES),
    )
    sp.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None)
    sp.add_argument("--seed", type=int, default=None, help="seed for sampled checks")
    sp.add_argument("--config", default=None, help="key=value file; flags override")
    for c in CHECKS:
        sp.add_argument(
            f"--tol-{c.name}",
            type=float,
            default=None,
            help=f"tolerance for the {c.name} check (default {c.tol:g})",
        )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The asymtop parser, built once per process: parse_args leaves it
    unchanged and every flag defaults to None, so calls share nothing."""
    parser = _Parser(prog="asymtop", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_levels = sub.add_parser("levels", help="energy levels by every route")
    _add_shared(p_levels)

    p_wave = sub.add_parser("wave", help="sample one wavefunction on a grid")
    _add_shared(p_wave)
    p_wave.add_argument("--j", type=int, required=True)
    p_wave.add_argument("--s", type=int, required=True)
    p_wave.add_argument("--q-re", type=float, default=0.0)
    p_wave.add_argument("--q-im", type=float, default=0.0)
    p_wave.add_argument("--grid-n", type=int, default=8, help="points per angle")

    p_kernel = sub.add_parser("kernel", help="kernel value at one point")
    _add_shared(p_kernel)
    p_kernel.add_argument("--j", type=int, required=True)
    p_kernel.add_argument("--q-re", type=float, default=0.0)
    p_kernel.add_argument("--q-im", type=float, default=0.0)
    p_kernel.add_argument("--qp-re", type=float, default=0.0)
    p_kernel.add_argument("--qp-im", type=float, default=0.0)
    p_kernel.add_argument("--g-phi", type=float, default=0.0)
    p_kernel.add_argument("--g-theta", type=float, default=0.0)
    p_kernel.add_argument("--g-psi", type=float, default=0.0)
    p_kernel.add_argument(
        "--identity-check",
        action="store_true",
        help="also report delta_j and the kernel-at-identity defect",
    )

    p_verify = sub.add_parser("verify", help="run the self-check suite")
    _add_shared(p_verify)
    return parser


def load_config(path: str) -> dict[str, str]:
    """Flat key=value file; blank lines and # comments are skipped.  Every
    key must be one of the shared settings, so a misspelt key is an error."""
    cfg: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"config line is not key=value: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _DEFAULTS:
            raise DomainError(f"unknown config key {key!r} in {path}")
        cfg[key] = val
    return cfg


def _resolve(args, cfg: dict[str, str], key: str, cast):
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    if key in cfg:
        return cast(cfg[key])
    return _DEFAULTS[key]


def _settings(args):
    cfg = load_config(args.config) if args.config else {}
    p = TopParams(
        A=_resolve(args, cfg, "A", float),
        B=_resolve(args, cfg, "B", float),
        C=_resolve(args, cfg, "C", float),
    )
    jmax = int(_resolve(args, cfg, "jmax", int))
    if jmax < 0:
        raise DomainError("jmax must be >= 0")
    seed = int(_resolve(args, cfg, "seed", int))
    fmt = getattr(args, "fmt", None) or cfg.get("format") or _DEFAULTS["format"]
    if fmt not in ("csv", "json"):
        raise DomainError(f"unknown format {fmt!r}")
    routes = str(_resolve(args, cfg, "routes", str))
    route_list = tuple(r.strip() for r in routes.split(",") if r.strip())
    for r in route_list:
        if r not in ROUTES:
            raise DomainError(f"unknown route {r!r}; choose from {ROUTES}")
    if not route_list:
        raise DomainError("at least one route is required")
    tols = {c.name: _resolve(args, cfg, f"tol-{c.name}", float) for c in CHECKS}
    return p, jmax, seed, fmt, route_list, tols


def cmd_levels(args) -> int:
    p, jmax, _seed, fmt, routes, tols = _settings(args)
    skip_lame = False
    if "lame" in routes:
        try:
            require_strict(p)
        except DegenerateParamsError as exc:
            skip_lame = True
            print(f"warning: {exc}; lame column left empty", file=sys.stderr)
    # one flat list of energies per distinct route, over every (j, s) row;
    # each route solves all of 0..jmax in one batch, and j runs outermost so
    # a refusal names the smallest offending j over all routes
    energies = {r: [] for r in routes if not (r == "lame" and skip_lame)}
    classes: list[int] = []
    with SpectrumBatch(range(jmax + 1)) as batch:
        for j in batch.js:
            for r, flat in energies.items():
                _, _, E, _, N = zip(*spectrum(j, p, route=r))
                flat.extend(E)
                if r == "lame":
                    classes.extend(N)
    chain = itertools.chain.from_iterable
    js = list(chain(itertools.repeat(j, 2 * j + 1) for j in range(jmax + 1)))
    ss = list(chain(range(-j, j + 1) for j in range(jmax + 1)))
    spread = None
    worst_rel = 0.0
    if len(energies) >= 2:
        table = np.array(list(energies.values()))
        spread = table.max(axis=0) - table.min(axis=0)
        worst_rel = float((spread / np.maximum(1.0, np.abs(table).max(axis=0))).max())
    has_class = "lame" in energies
    if fmt == "csv":
        columns = [("%d", js), ("%d", ss), ("%d" if has_class else "", classes)]
        columns += [("%.17g" if r in energies else "", energies.get(r)) for r in ROUTES]
        _csv(LEVELS_HEADER, columns + [("" if spread is None else "%.17g", spread)])
    else:
        keys = LEVELS_HEADER.split(",")
        cells = [("%d", js), ("%d", ss), ("%d" if has_class else "null", classes)]
        cells += [("%r" if r in energies else "null", energies.get(r)) for r in ROUTES]
        cells.append(("null" if spread is None else "%r", spread))
        row = "{" + ", ".join(f'"{k}": {f}' for k, (f, _) in zip(keys, cells)) + "}"
        head = json.dumps({"params": {"A": p.A, "B": p.B, "C": p.C}, "levels": []})[:-2]  # up to "levels": [
        _rows(head, row, cells, ", ", "]}")
    if worst_rel > tols["route-agreement"]:
        print(
            f"error: cross-route disagreement {worst_rel:.3e} exceeds "
            f"tol-route-agreement {tols['route-agreement']:.3e}",
            file=sys.stderr,
        )
        return 2
    return 0


def cmd_wave(args) -> int:
    p, _jmax, _seed, fmt, _routes, _tols = _settings(args)
    j, s, n = args.j, args.s, args.grid_n
    if j < 0 or abs(s) > j:
        raise DomainError(f"need j >= 0 and |s| <= j, got j={j}, s={s}")
    if n < 2:
        raise DomainError("grid-n must be >= 2")
    qv = complex(args.q_re, args.q_im)
    coeffs = phi_state(j, s, p).coeffs
    az = 2.0 * np.pi * np.arange(n) / n
    th = np.pi * (np.arange(n) + 1.0) / (n + 1.0)  # interior: poles excluded
    phi_g, th_g, psi_g = np.meshgrid(az, th, az, indexing="ij")
    vals = psi_grid(qv, coeffs, phi_g.ravel(), th_g.ravel(), psi_g.ravel())
    cols = np.column_stack(
        [phi_g.ravel(), th_g.ravel(), psi_g.ravel(), vals.real, vals.imag]
    )
    if fmt == "csv":
        _csv(WAVE_HEADER, [("%.17g", col) for col in cols.T])
    else:
        print(
            json.dumps(
                {
                    "j": j,
                    "s": s,
                    "q": [qv.real, qv.imag],
                    "columns": WAVE_HEADER.split(","),
                    "rows": cols.tolist(),
                }
            )
        )
    return 0


def cmd_kernel(args) -> int:
    _p, _jmax, _seed, fmt, _routes, _tols = _settings(args)
    j = args.j
    if j < 0:
        raise DomainError("j must be >= 0")
    q = ComplexQ(args.q_re, args.q_im)
    qp = ComplexQ(args.qp_re, args.qp_im)
    g = EulerAngles(args.g_phi, args.g_theta, args.g_psi)
    val = kernel_eval(q, qp, j, g)
    out = {
        "kernel_re": val.real,
        "kernel_im": val.imag,
        "conj_defect": kernel_conj_defect(q, qp, j, g),
    }
    if args.identity_check:
        expected = delta_j(q, qp, j)
        out["delta_re"] = expected.real
        out["delta_im"] = expected.imag
        out["identity_defect"] = abs(kernel_eval(q, qp, j, IDENTITY) - expected)
    if fmt == "csv":
        _csv("quantity,value", [("%s", out.keys()), ("%.17g", list(out.values()))])
    else:
        print(json.dumps(out))
    return 0


def cmd_verify(args) -> int:
    p, jmax, seed, fmt, _routes, tols = _settings(args)
    require_strict(p)
    results = run_all(p, jmax=jmax, seed=seed, tols=tols)
    if fmt == "csv":
        names, passed, defects, limits = zip(*((r.name, str(r.passed).lower(), r.defect, r.tol) for r in results))
        _csv("check,passed,defect,tol", [("%s", names), ("%s", passed), ("%.17g", defects), ("%.17g", limits)])
    else:
        print(
            json.dumps(
                {
                    "checks": [
                        {
                            "check": r.name,
                            "passed": r.passed,
                            "defect": r.defect,
                            "tol": r.tol,
                        }
                        for r in results
                    ],
                    "all_passed": all(r.passed for r in results),
                }
            )
        )
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} checks passed", file=sys.stderr)
    return 0 if n_pass == len(results) else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    handlers = {
        "levels": cmd_levels,
        "wave": cmd_wave,
        "kernel": cmd_kernel,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, RuntimeError, ArithmeticError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
