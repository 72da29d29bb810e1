"""Command line interface.

Subcommands, and the shared settings each one reads:
    levels   energy levels by every requested route, with cross-route defects
             (A B C jmax routes format tol-route-agreement)
    wave     closed-form wavefunction sampled on an Euler-angle grid (A B C format)
    kernel   reproducing kernel at one point, with optional identity check (format)
    verify   the full self-check suite, one line per check
             (A B C jmax format seed, and tol-<check> for every check name)

Each shared setting is declared once, in SETTINGS.  A subcommand takes the
settings it reads as --flags and refuses the others as unrecognized (exit 3).
Each setting is also a key=value line of a --config file: an explicit flag
wins, then the file, then the default.  One file serves every subcommand: a
key that names a setting the subcommand does not read is skipped, and a key
that names no setting is an error.

Exit codes: 0 success, 1 verify found a failing check, 2 levels found a
cross-route disagreement above tol-route-agreement, 3 invalid parameters or
anything else that prevented computation, running out of memory included.
All output is deterministic for a fixed command line: data rows go to
stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import operator
import sys
from pathlib import Path

import numpy as np

from .errors import DegenerateParamsError, DomainError
from .lambda_rep import ComplexQ, delta_j
from .so3 import IDENTITY, EulerAngles
from .spectra import ROUTES, TopParams, phi_state, require_strict, solve_levels, spectrum
from .verify import CHECKS, run_all
from .wavefunctions import kernel_conj_defect, kernel_eval, psi_grid

# Every shared setting: name -> (type, default, --help text).  A tuple type
# is the setting's choices.
SETTINGS = {
    "A": (float, 3.0, "largest coefficient"),
    "B": (float, 2.0, "middle coefficient"),
    "C": (float, 1.0, "smallest coefficient"),
    "jmax": (int, 4, "largest j (default 4)"),
    "routes": (str, ",".join(ROUTES), "comma-separated subset of %s (levels only)" % ",".join(ROUTES)),
    "format": (("csv", "json"), "csv", None),
    "seed": (int, 42, "seed for sampled checks"),
    **{f"tol-{c.name}": (float, c.tol, f"tolerance for the {c.name} check (default {c.tol:g})") for c in CHECKS},
}

LEVELS_HEADER = "j,s,class,E_wigner,E_lambda,E_lame,max_disagreement"
# the E and lame_class fields of an EnergyLevel row
_ENERGY, _LAME_CLASS = operator.itemgetter(2), operator.itemgetter(4)
WAVE_HEADER = "phi,theta,psi,re_psi,im_psi"


# rows per block of _rows' output: a block's float cells are formatted once
# per distinct value and the block is written in one piece, so no whole-output
# string or list of all rows is built
ROWS_PER_BLOCK = 4096


def _rows(head: str, row: str, columns: list[tuple[str, object]], sep: str, tail: str) -> None:
    """Write head, then row % (one value of each column) for every row,
    joined by sep, then tail and a newline to sys.stdout.

    columns are the (cell format, values) pairs of row's cells; a format
    with no % is a constant cell (its values are not read).  "%.17g" cells
    print x + 0.0, which folds -0.0 into 0; "%r" cells print the float's
    repr, as json.dumps does (-0.0 included), and refuse a non-finite
    value, which JSON cannot hold.  Every refusal comes before the first
    write.  The rows then go out in blocks of ROWS_PER_BLOCK: in each, the
    float cells of one format are deduplicated by their bit patterns (which
    keep -0.0 apart from 0.0 and every nan apart from the numbers), each
    distinct value is formatted once, and row takes the texts by %s.
    """
    cells, floats = [], {}  # floats: float cell format -> its cells' indices
    for f, v in columns:
        if f in ("%.17g", "%r"):
            v = np.asarray(v, dtype=float)
            if f == "%r" and not np.isfinite(v).all():
                raise ValueError("non-finite value in JSON output")
            floats.setdefault(f, []).append(len(cells))
            cells.append((v + 0.0 if f == "%.17g" else v).view(np.int64))
        elif "%" in f:
            cells.append(list(v))
    row = row.replace("%.17g", "%s").replace("%r", "%s")
    n = min(map(len, cells), default=0)
    write = sys.stdout.write
    write(head)
    for lo in range(0, n, ROWS_PER_BLOCK):
        block = [c[lo : lo + ROWS_PER_BLOCK] for c in cells]
        for f, at in floats.items():
            bits, inverse = np.unique(np.concatenate([block[i] for i in at]), return_inverse=True)
            texts = np.array(list(map(f.__mod__, bits.view(float).tolist())), dtype=object)[inverse]
            for i, t in zip(at, texts.reshape(len(at), -1)):
                block[i] = t.tolist()
        write((sep if lo else "") + sep.join(map(row.__mod__, zip(*block))))
    write(tail + "\n")


def _csv(header: str, columns: list[tuple[str, object]]) -> None:
    """Write header and one CSV row per entry of the (cell format, values)
    columns (_rows); a "" format is an empty cell."""
    _rows(header + "\n", ",".join(f for f, _ in columns), columns, "\n", "")


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 3, not argparse's default 2 (taken by levels)
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(3)


class _Subparser(_Parser):
    # a subcommand refuses what follows it and it does not take, with its
    # own usage line (argparse leaves such arguments to the top parser)
    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def _subcommand(sub, name: str, text: str, run, names: str, checks=()) -> argparse.ArgumentParser:
    """The subparser of run: a --flag for each named setting, then --config,
    then --tol-<c> for each check name c.  Each flag defaults to None, so
    that main can tell a given flag from an absent one."""
    sp = sub.add_parser(name, help=text)

    def flag(setting: str) -> None:
        kind, _, doc = SETTINGS[setting]
        choices = kind if isinstance(kind, tuple) else None
        sp.add_argument(f"--{setting}", type=None if choices else kind, choices=choices, default=None, help=doc)

    tols = [f"tol-{c}" for c in checks]
    sp.set_defaults(run=run, settings=names.split() + tols)
    for setting in names.split():
        flag(setting)
    sp.add_argument("--config", default=None, help="key=value file; flags override")
    for setting in tols:
        flag(setting)
    return sp


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The asymtop parser, built once per process: parse_args leaves it
    unchanged and every flag defaults to None, so calls share nothing."""
    parser = _Parser(prog="asymtop", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subparser)
    _subcommand(sub, "levels", "energy levels by every route", cmd_levels, "A B C jmax routes format", ["route-agreement"])

    p_wave = _subcommand(sub, "wave", "sample one wavefunction on a grid", cmd_wave, "A B C format")
    p_wave.add_argument("--j", type=int, required=True)
    p_wave.add_argument("--s", type=int, required=True)
    p_wave.add_argument("--q-re", type=float, default=0.0)
    p_wave.add_argument("--q-im", type=float, default=0.0)
    p_wave.add_argument("--grid-n", type=int, default=8, help="points per angle")

    p_kernel = _subcommand(sub, "kernel", "kernel value at one point", cmd_kernel, "format")
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

    _subcommand(sub, "verify", "run the self-check suite", cmd_verify, "A B C jmax format seed", [c.name for c in CHECKS])
    return parser


def load_config(path: str) -> dict[str, str]:
    """Flat key=value file; blank lines and # comments are skipped.  Every
    key must name a setting of SETTINGS, so a misspelt key is an error."""
    cfg: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"config line is not key=value: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in SETTINGS:
            raise DomainError(f"unknown config key {key!r} in {path}")
        cfg[key] = val
    return cfg


def _parse(name: str, text: str):
    """A config file's value of a setting, read as its flag reads it."""
    kind = SETTINGS[name][0]
    if not isinstance(kind, tuple):
        return kind(text)
    if text not in kind:
        raise DomainError(f"unknown {name} {text!r}")
    return text


def cmd_levels(args) -> int:
    p, jmax = TopParams(args.A, args.B, args.C), args.jmax
    if jmax < 0:
        raise DomainError("jmax must be >= 0")
    routes = tuple(r.strip() for r in args.routes.split(",") if r.strip())
    for r in routes:
        if r not in ROUTES:
            raise DomainError(f"unknown route {r!r}; choose from {ROUTES}")
    if not routes:
        raise DomainError("at least one route is required")
    skip_lame = False
    if "lame" in routes:
        try:
            require_strict(p)
        except DegenerateParamsError as exc:
            if set(routes) == {"lame"}:
                raise  # no route left to print
            skip_lame = True
            print(f"warning: {exc}; lame column left empty", file=sys.stderr)
    # one flat list of energies per distinct route, over every (j, s) row;
    # each route solves all of 0..jmax in one range solve (a refused one
    # keeps nothing: each read then solves its own j), and j runs outermost
    # so a refusal names the smallest offending j over all routes
    energies = {r: [] for r in routes if not (r == "lame" and skip_lame)}
    classes: list[int] = []
    for r in energies:
        solve_levels(range(jmax + 1), p, r)
    for j in range(jmax + 1):
        for r, flat in energies.items():
            rows = spectrum(j, p, route=r)
            flat.extend(map(_ENERGY, rows))
            if r == "lame":
                classes.extend(map(_LAME_CLASS, rows))
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
    if args.format == "csv":
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
    if worst_rel > args.tol_route_agreement:
        print(
            f"error: cross-route disagreement {worst_rel:.3e} exceeds "
            f"tol-route-agreement {args.tol_route_agreement:.3e}",
            file=sys.stderr,
        )
        return 2
    return 0


def cmd_wave(args) -> int:
    p = TopParams(args.A, args.B, args.C)
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
    if args.format == "csv":
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
    if args.format == "csv":
        _csv("quantity,value", [("%s", out.keys()), ("%.17g", list(out.values()))])
    else:
        print(json.dumps(out))
    return 0


def cmd_verify(args) -> int:
    p = TopParams(args.A, args.B, args.C)
    if args.jmax < 0:
        raise DomainError("jmax must be >= 0")
    require_strict(p)
    tols = {c.name: getattr(args, "tol_" + c.name.replace("-", "_")) for c in CHECKS}
    results = run_all(p, jmax=args.jmax, seed=args.seed, tols=tols)
    if args.format == "csv":
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
    try:
        # each setting the subcommand reads: its flag, else the config file, else its default
        cfg = load_config(args.config) if args.config else {}
        for name in args.settings:
            if getattr(args, dest := name.replace("-", "_")) is None:
                setattr(args, dest, _parse(name, cfg[name]) if name in cfg else SETTINGS[name][1])
        return args.run(args)
    except (ValueError, RuntimeError, ArithmeticError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
