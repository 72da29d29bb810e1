import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from asymtop import DegenerateParamsError, ROUTES, TopParams, cli, require_strict, spectrum
from asymtop.cli import LEVELS_HEADER, WAVE_HEADER, build_parser, load_config, main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_levels_csv_shape(capsys):
    code, out, err = run_cli(capsys, ["levels", "--jmax", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == LEVELS_HEADER
    assert len(lines) == 1 + sum(2 * j + 1 for j in range(4))
    # every data row parses and the routes agree
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 7
        assert float(cells[6]) < 1e-8


def test_levels_json(capsys):
    code, out, _ = run_cli(capsys, ["levels", "--jmax", "2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["params"] == {"A": 3.0, "B": 2.0, "C": 1.0}
    assert len(doc["levels"]) == 9
    first = doc["levels"][0]
    assert set(first) >= {"j", "s", "E_wigner", "E_lambda", "E_lame"}


def test_levels_honors_routes_subset(capsys):
    code, out, _ = run_cli(capsys, ["levels", "--jmax", "1", "--routes", "wigner"])
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[3] != "" and row[4] == "" and row[5] == ""


def test_levels_disagreement_exit(capsys):
    code, _, err = run_cli(
        capsys, ["levels", "--jmax", "2", "--tol-route-agreement", "1e-30"]
    )
    assert code == 2
    assert "disagree" in err


def test_levels_degenerate_params_warns_and_skips_lame(capsys):
    code, out, err = run_cli(
        capsys, ["levels", "--jmax", "1", "--A", "3", "--B", "2", "--C", "2"]
    )
    assert code == 0
    assert "warning" in err
    for line in out.strip().splitlines()[1:]:
        cells = line.split(",")
        assert cells[2] == "" and cells[5] == ""  # class and E_lame empty


def test_levels_lame_alone_on_degenerate_params_exits_3(capsys):
    # the only route asked for cannot run: no table of empty cells
    code, out, err = run_cli(capsys, ["levels", "--routes", "lame", "--A", "2", "--B", "2", "--C", "1"])
    assert code == 3 and out == ""
    with pytest.raises(DegenerateParamsError) as exc:
        require_strict(TopParams(2.0, 2.0, 1.0))
    assert err == f"error: {exc.value}\n"
    code, out, _ = run_cli(capsys, ["levels", "--routes", "lame,lame", "--jmax", "1", "--A", "2", "--B", "2", "--C", "1"])
    assert code == 3 and out == ""


def levels_oracle(p: TopParams, jmax: int, routes: list[str], fmt: str) -> str:
    """`asymtop levels` stdout rebuilt row by row from spectrum calls: one
    level list per j and route, "%.17g" of x + 0.0 (no -0) in every csv
    float cell, raw floats in json."""
    skip_lame = False
    try:
        require_strict(p)
    except DegenerateParamsError:
        skip_lame = True
    table = []
    for j in range(jmax + 1):
        per_route = {r: spectrum(j, p, route=r) for r in routes if not (r == "lame" and skip_lame)}
        energies = {r: [lv.E for lv in levels] for r, levels in per_route.items()}
        none = [None] * (2 * j + 1)
        cls = [lv.lame_class for lv in per_route["lame"]] if "lame" in per_route else none
        dis = none
        if len(energies) >= 2:
            E = np.array(list(energies.values()))
            dis = (E.max(axis=0) - E.min(axis=0)).tolist()
        columns = (energies.get(r, none) for r in ROUTES)
        table.extend(zip([j] * (2 * j + 1), range(-j, j + 1), cls, *columns, dis))
    if fmt == "csv":
        lines = [LEVELS_HEADER]
        for j, s, c, *values in table:
            cells = [str(j), str(s), "" if c is None else str(c)]
            cells += ["" if v is None else "%.17g" % (v + 0.0) for v in values]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"
    rows = [dict(zip(LEVELS_HEADER.split(","), row)) for row in table]
    return json.dumps({"params": {"A": p.A, "B": p.B, "C": p.C}, "levels": rows}) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "params, jmax, routes",
    [
        ((3.0, 2.0, 1.0), 12, "wigner,lambda,lame"),
        ((100.0, 2.0, 1.0), 9, "wigner,lambda,lame"),
        ((1 + 1e-6, 1.0, 0.5), 9, "wigner"),
        ((5.3, 2.1, 0.4), 9, "lame,lambda"),
        ((3.0, 2.0, 1.0), 7, "wigner,wigner"),
        ((2.0, 2.0, 1.0), 7, "wigner,lambda,lame"),  # degenerate: lame skipped
        ((3.0, 2.0, 2.0), 6, "lame,wigner"),  # degenerate: lame skipped
        ((3.0, 2.0, 1.0), 0, "wigner,lambda,lame"),
        ((3.0, 2.0, 1.0), 0, "lame"),
        # 5041 rows: past the first block of cli.ROWS_PER_BLOCK
        ((3.0, 2.0, 1.0), 70, "wigner,lambda,lame"),
        ((100.0, 2.0, 1.0), 70, "wigner,lambda"),
    ],
)
def test_levels_rows_match_the_per_row_oracle(capsys, params, jmax, routes, fmt):
    A, B, C = params
    argv = ["levels", "--jmax", str(jmax), "--routes", routes, "--format", fmt]
    code, out, _ = run_cli(capsys, argv + ["--A", repr(A), "--B", repr(B), "--C", repr(C)])
    assert code == 0
    assert out == levels_oracle(TopParams(A, B, C), jmax, routes.split(","), fmt)


def test_levels_rows_cross_a_block():
    assert cli.ROWS_PER_BLOCK < 71**2


def rows_oracle(head, row, columns, sep, tail):
    """cli._rows' stdout, one row % values at a time."""
    cells = []
    for f, v in columns:
        if f in ("%.17g", "%r"):
            v = [float(x) + 0.0 if f == "%.17g" else float(x) for x in v]
        if "%" in f:
            cells.append(list(v))
    return head + sep.join(row % values for values in zip(*cells)) + tail + "\n"


class Writes(list):
    """A stdout that keeps each write."""

    def write(self, text):
        self.append(text)


ROWS_CASES = {
    # one float's bits in several columns and blocks, with both signs of zero
    "%r": ([0.1, -0.0, 0.0, 0.1, 1e-300, -0.0, 2.5, 0.1, 0.0, -0.0], [0.0, 0.1, -0.0, 2.5, 0.1, 0.1, 0.0, 1e-300, 0.1, -0.0]),
    # nan and inf print as %.17g prints them, -0.0 as 0
    "%.17g": ([math.nan, math.inf, -math.inf, -0.0, 0.1, math.nan, 0.1, -math.nan, 1.0, 0.0], [0.1, -0.0, math.inf, 0.1, math.nan, 1.0, 0.0, 0.1, -math.inf, 0.1]),
}


@pytest.mark.parametrize("block", [1, 3, 10, 4096])
@pytest.mark.parametrize("fmt", ["%r", "%.17g"])
def test_rows_formats_each_cell_as_one_row_at_a_time(capsys, monkeypatch, fmt, block):
    monkeypatch.setattr(cli, "ROWS_PER_BLOCK", block)
    x, y = ROWS_CASES[fmt]
    ks = list(range(len(x)))
    columns = [("%d", ks), (fmt, x), ("", None), (fmt, np.array(y)), ("%s", map(str, ks))]
    row = f"<%d|{fmt}|-|{fmt}|%s>"
    cli._rows("[", row, columns, ";", "]")
    out = capsys.readouterr().out
    assert out == rows_oracle("[", row, [("%d", ks), (fmt, x), ("", None), (fmt, y), ("%s", map(str, ks))], ";", "]")
    first = [line.split("|")[1] for line in out[1:-2].split(";")]
    if fmt == "%r":
        assert first[:3] == ["0.1", "-0.0", "0.0"]
    else:
        assert first[:4] + first[7:8] == ["nan", "inf", "-inf", "0", "nan"]


def test_rows_format_each_cell_by_its_own_format(capsys, monkeypatch):
    # one bit pattern in a %r and a %.17g column keeps each column's text
    monkeypatch.setattr(cli, "ROWS_PER_BLOCK", 2)
    columns = [("%r", [0.1, -0.0, 0.1]), ("%.17g", [0.1, -0.0, 0.3]), ("%r", [0.3, 0.1, -0.0])]
    cli._rows("", "%r %.17g %r", columns, "\n", "")
    assert capsys.readouterr().out == "0.1 0.10000000000000001 0.3\n-0.0 0 0.1\n0.1 0.29999999999999999 -0.0\n"


def test_rows_writes_one_piece_per_block(monkeypatch):
    monkeypatch.setattr(cli, "ROWS_PER_BLOCK", 3)
    monkeypatch.setattr(sys, "stdout", Writes())
    cli._rows("head;", "%d,%.17g", [("%d", range(7)), ("%.17g", np.arange(7.0))], ";", ";tail")
    assert sys.stdout == ["head;", "0,0;1,1;2,2", ";3,3;4,4;5,5", ";6,6", ";tail\n"]
    monkeypatch.setattr(sys, "stdout", Writes())
    cli._rows("head", "%d", [("%d", [])], ";", "tail")
    assert sys.stdout == ["head", "tail\n"]


def test_rows_refuse_a_non_finite_json_value_in_the_last_block_before_writing(monkeypatch):
    monkeypatch.setattr(cli, "ROWS_PER_BLOCK", 3)
    monkeypatch.setattr(sys, "stdout", Writes())
    with pytest.raises(ValueError, match="non-finite"):
        cli._rows("[", "%r", [("%r", [0.0] * 6 + [math.inf])], ", ", "]")
    assert sys.stdout == []


def test_levels_json_refuses_a_non_finite_value_in_the_last_block(capsys, monkeypatch):
    solve = cli.spectrum
    monkeypatch.setattr(
        cli, "spectrum", lambda j, p, route: [lv._replace(E=math.inf) if j == 70 else lv for lv in solve(j, p, route=route)]
    )
    code, out, err = run_cli(capsys, ["levels", "--jmax", "70", "--routes", "wigner", "--format", "json"])
    assert code == 3 and out == "" and "non-finite" in err


def test_levels_keeps_negative_zero_in_json_only(capsys):
    # j = 0 gives E = -0.0 on the lame route: json keeps it, csv prints 0
    _, out, _ = run_cli(capsys, ["levels", "--jmax", "0", "--routes", "lame", "--format", "json"])
    assert '"E_lame": -0.0' in out
    _, out, _ = run_cli(capsys, ["levels", "--jmax", "0", "--routes", "lame"])
    assert out.splitlines()[1] == "0,0,1,,,0,"


def test_levels_json_refuses_a_non_finite_value(capsys, monkeypatch):
    # JSON has no NaN: the writer raises instead of printing it
    solve = cli.spectrum
    monkeypatch.setattr(
        cli, "spectrum", lambda j, p, route: [lv._replace(E=math.nan) if j == 1 else lv for lv in solve(j, p, route=route)]
    )
    code, out, err = run_cli(capsys, ["levels", "--jmax", "2", "--routes", "wigner", "--format", "json"])
    assert code == 3 and out == "" and "non-finite" in err


def test_levels_refuses_symmetrized_entries_out_of_range(capsys):
    huge = ["--A", "1e300", "--B", "5e299", "--C", "1e299"]
    for route in ("lambda", "lame"):
        code, out, err = run_cli(capsys, ["levels", "--jmax", "5", "--routes", route] + huge)
        assert code == 3 and out == ""
        assert err.startswith(f"error: {route} route at j=")
    tiny = ["--A", "1e-300", "--B", "5e-301", "--C", "1e-301"]
    code, _, err = run_cli(capsys, ["levels", "--jmax", "5", "--routes", "wigner,lambda"] + tiny)
    assert code == 3 and err.startswith("error: lambda route at j=1:")
    code, out, _ = run_cli(capsys, ["levels", "--jmax", "5", "--routes", "wigner"] + huge)
    assert code == 0 and len(out.splitlines()) == 1 + 36


def test_levels_refuses_diagonal_overflow(capsys):
    # the wigner and lambda diagonals overflow from j = 42 at A = B = 1e305
    overflow = ["--A", "1e305", "--B", "1e305", "--C", "1"]
    for route in ("wigner", "lambda"):
        code, out, err = run_cli(capsys, ["levels", "--jmax", "100", "--routes", route] + overflow)
        assert code == 3 and out == ""
        assert err.startswith(f"error: {route} route at j=42:")


def test_levels_refusal_names_the_smallest_j_over_all_routes(capsys):
    # the lambda products (A-B)^2 overflow from j = 1; the wigner entries
    # only from j = 45: the refusal is the lambda one, as one j at a time
    params = ["--A", "1e305", "--B", "5e304", "--C", "1"]
    code, out, err = run_cli(capsys, ["levels", "--jmax", "80"] + params)
    assert code == 3 and out == ""
    assert err.startswith("error: lambda route at j=1: off-diagonal products")
    code, _, err = run_cli(capsys, ["levels", "--jmax", "80", "--routes", "wigner"] + params)
    assert code == 3 and err.startswith("error: wigner route at j=")


def test_invalid_params_exit_code(capsys):
    code, _, err = run_cli(capsys, ["levels", "--A", "1", "--B", "2", "--C", "3"])
    assert code == 3
    assert err.startswith("error:")


def test_invalid_route_exit_code(capsys):
    code, _, err = run_cli(capsys, ["levels", "--routes", "wigner,exact"])
    assert code == 3


def test_wave_csv_shape(capsys):
    code, out, _ = run_cli(capsys, ["wave", "--j", "1", "--s", "0", "--grid-n", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == WAVE_HEADER
    assert len(lines) == 1 + 27
    for line in lines[1:]:
        assert len(line.split(",")) == 5


def test_wave_bad_quantum_numbers(capsys):
    code, _, _ = run_cli(capsys, ["wave", "--j", "1", "--s", "2"])
    assert code == 3
    code, _, _ = run_cli(capsys, ["wave", "--j", "1", "--s", "0", "--grid-n", "1"])
    assert code == 3


def test_wave_refuses_overflowing_values(capsys):
    # Psi reaches 1.4e335 on this grid (40-digit mpmath at g = (0, pi/3, 0))
    code, out, err = run_cli(capsys, ["wave", "--j", "40", "--s", "0", "--q-im", "20"])
    assert code == 3 and out == ""
    assert err.startswith("error:")


def test_non_finite_and_far_complex_angles_exit_3_with_the_refusal(capsys):
    # no numpy RuntimeWarning first: the error::RuntimeWarning filter would
    # raise it out of main instead
    for argv, message in [
        (["wave", "--j", "2", "--s", "0", "--q-re", "inf"], "error: non-finite input: q=(inf+0j)\n"),
        (["wave", "--j", "2", "--s", "0", "--q-im", "800"], "error: |Im q| reaches 800, above 340\n"),
        (["kernel", "--j", "1030"], "error: C_j at j=1030 leaves the float range\n"),
    ]:
        code, out, err = run_cli(capsys, argv)
        assert (code, out, err) == (3, "", message)


def test_kernel_rows(capsys):
    base = ["kernel", "--j", "1", "--q-re", "0.3", "--qp-re", "1.0", "--g-theta", "0.5"]
    code, out, _ = run_cli(capsys, base)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "quantity,value"
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == ["kernel_re", "kernel_im", "conj_defect"]
    code, out, _ = run_cli(capsys, base + ["--identity-check"])
    names = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
    assert names == [
        "kernel_re",
        "kernel_im",
        "conj_defect",
        "delta_re",
        "delta_im",
        "identity_defect",
    ]


def test_kernel_identity_defect_small(capsys):
    code, out, _ = run_cli(
        capsys, ["kernel", "--j", "2", "--q-re", "0.4", "--qp-re", "0.9",
                 "--identity-check"]
    )
    assert code == 0
    rows = dict(line.split(",") for line in out.strip().splitlines()[1:])
    assert float(rows["identity_defect"]) < 1e-10
    assert float(rows["conj_defect"]) < 1e-10


def test_verify_csv_and_exit_codes(capsys):
    code, out, err = run_cli(capsys, ["verify", "--jmax", "2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "check,passed,defect,tol"
    assert len(lines) == 12
    assert all(line.split(",")[1] == "true" for line in lines[1:])
    assert "11/11 checks passed" in err
    code, _, err = run_cli(capsys, ["verify", "--jmax", "2", "--tol-casimir", "1e-30"])
    assert code == 1
    assert "10/11" in err


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--jmax", "2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert len(doc["checks"]) == 11


def test_output_deterministic(capsys):
    argv = ["levels", "--jmax", "2"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2
    argv = ["verify", "--jmax", "2", "--seed", "7"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "top.cfg"
    cfg.write_text("A = 10\nB = 4\n# comment\nC = 1.5\njmax = 1\nformat = json\n")
    code, out, _ = run_cli(capsys, ["levels", "--config", str(cfg)])
    assert code == 0
    assert json.loads(out)["params"] == {"A": 10.0, "B": 4.0, "C": 1.5}
    # flags beat the file
    code, out, _ = run_cli(
        capsys, ["levels", "--config", str(cfg), "--B", "9", "--format", "csv"]
    )
    assert code == 0
    assert out.startswith(LEVELS_HEADER)


def test_config_bad_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("A = 10\nnot a pair\n")
    code, _, err = run_cli(capsys, ["levels", "--config", str(cfg)])
    assert code == 3
    assert err.startswith("error:")


def test_config_unknown_key(tmp_path, capsys):
    # a misspelt key must not silently fall back to the default
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("jmax = 1\ntol-route-agrement = 1e-30\n")
    code, out, err = run_cli(capsys, ["levels", "--config", str(cfg)])
    assert code == 3
    assert out == ""
    assert "tol-route-agrement" in err


def test_load_config_parses(tmp_path):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("A=2\n\n# note\nseed = 5\n")
    assert load_config(str(cfg)) == {"A": "2", "seed": "5"}


def test_missing_config_exit_code(capsys):
    code, _, err = run_cli(capsys, ["levels", "--config", "/nonexistent/x.cfg"])
    assert code == 3


def test_unknown_flag_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["levels", "--bogus"])
    assert exc.value.code == 3
    capsys.readouterr()


def test_successive_main_calls_share_no_state(capsys):
    # the parser is built once per process; a flag given to one call must
    # not leak into the next
    code, out, _ = run_cli(capsys, ["levels", "--jmax", "2", "--A", "5", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["A"] == 5.0 and len(doc["levels"]) == 9
    code, out, _ = run_cli(capsys, ["levels"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == LEVELS_HEADER and len(lines) == 1 + 25
    assert float(lines[3].split(",")[3]) == pytest.approx(4.0)  # A + C at A = 3, not 5


def test_wave_refuses_states_past_the_float_range(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["wave", "--j", "560", "--s", "0"])
    assert code == 3 and out == ""
    assert "j=560" in err


def test_out_of_memory_exits_3(capsys, monkeypatch):
    # `levels --jmax 1000000` asks numpy for terabytes; exit 1 is verify's
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(cli, "spectrum", exhausted)
    code, out, err = run_cli(capsys, ["levels", "--jmax", "2"])
    assert code == 3 and out == ""
    assert err == "error: Unable to allocate 7.28 TiB\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "asymtop.cli", "levels", "--jmax", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith(LEVELS_HEADER)


def test_verify_does_not_import_numpy_polynomial():
    # a fresh process: gauss_legendre is plain numpy, and numpy loads
    # numpy.polynomial (8 modules) only when something asks for it
    script = "import sys; from asymtop.cli import main; print(main(['verify', '--jmax', '10']), 'numpy.polynomial' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_kernel_refuses_overflowing_values(capsys):
    # base^40 reaches e^1544 here; this used to print nan and exit 0
    argv = ["kernel", "--j", "40", "--q-im", "20", "--qp-im", "20", "--g-theta", "0.5"]
    code, out, err = run_cli(capsys, argv)
    assert code == 3 and out == ""
    assert err.startswith("error:") and "j=40" in err


# the shared settings each subcommand reads, and the defaults they have always had
REQUIRED = {"levels": [], "wave": ["--j", "1", "--s", "0"], "kernel": ["--j", "1"], "verify": ["--jmax", "0"]}
DEFAULTS = {"A": 3.0, "B": 2.0, "C": 1.0, "jmax": 4, "routes": "wigner,lambda,lame", "format": "csv", "seed": 42}
TOLS = {
    "route-agreement": 1e-8,
    "casimir": 1e-10,
    "commutators": 1e-10,
    "gram-hermiticity": 1e-12,
    "wigner-orthogonality": 1e-10,
    "kernel-group": 1e-10,
    "bridge": 1e-10,
    "pde-residual": 1e-12,
    "completeness": 1e-8,
    "measure-quadrature": 1e-12,
    "uncertainty": 1e-10,
}
TAKES = {
    "levels": ["A", "B", "C", "jmax", "routes", "format", "tol-route-agreement"],
    "wave": ["A", "B", "C", "format"],
    "kernel": ["format"],
    "verify": ["A", "B", "C", "jmax", "format", "seed"] + [f"tol-{name}" for name in TOLS],
}


@pytest.mark.parametrize("command", list(TAKES))
def test_each_subcommand_takes_only_the_settings_it_reads(capsys, command):
    for name, (_, default, _) in cli.SETTINGS.items():
        argv = [command, *REQUIRED[command], f"--{name}", str(default)]
        if name in TAKES[command]:
            assert getattr(build_parser().parse_args(argv), name.replace("-", "_")) == default
            continue
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 3 and out == "", name
        assert f"unrecognized arguments: --{name}" in err


@pytest.mark.parametrize("command", list(TAKES))
def test_unrecognized_argument_shows_the_subcommand_usage(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, *REQUIRED[command], "--bogus", "1"])
    out, err = capsys.readouterr()
    assert exc.value.code == 3 and out == ""
    assert err.startswith(f"usage: asymtop {command} [-h]")
    assert "error: unrecognized arguments: --bogus 1" in err
    # before the subcommand, an argument is the top parser's
    with pytest.raises(SystemExit) as exc:
        main(["--bogus", command, *REQUIRED[command]])
    out, err = capsys.readouterr()
    assert exc.value.code == 3 and out == ""
    assert err.startswith("usage: asymtop [-h] {levels,wave,kernel,verify}")


def test_settings_keep_their_defaults(capsys, monkeypatch):
    assert {name: default for name, (_, default, _) in cli.SETTINGS.items()} == {
        **DEFAULTS,
        **{f"tol-{name}": tol for name, tol in TOLS.items()},
    }
    # and main hands them to each subcommand
    calls = []
    solve, states, checks = cli.spectrum, cli.phi_state, cli.run_all
    monkeypatch.setattr(cli, "spectrum", lambda j, p, route: calls.append((j, p, route)) or solve(j, p, route=route))
    monkeypatch.setattr(cli, "phi_state", lambda j, s, p: calls.append(p) or states(j, s, p))
    monkeypatch.setattr(
        cli, "run_all", lambda p, jmax, seed, tols: calls.append((p, jmax, seed, tols)) or checks(p, jmax=0, seed=seed, tols=tols)
    )
    top = TopParams(3.0, 2.0, 1.0)
    code, out, _ = run_cli(capsys, ["levels"])
    assert code == 0 and out.startswith(LEVELS_HEADER)
    assert calls == [(j, top, route) for j in range(5) for route in ROUTES]
    calls.clear()
    code, out, _ = run_cli(capsys, ["wave", "--j", "1", "--s", "0"])
    assert code == 0 and out.startswith(WAVE_HEADER) and calls == [top]
    code, out, _ = run_cli(capsys, ["kernel", "--j", "1"])
    assert code == 0 and out.startswith("quantity,value\n")
    calls.clear()
    code, out, _ = run_cli(capsys, ["verify"])
    assert code == 0 and out.startswith("check,passed,defect,tol\n")
    assert calls == [(top, 4, 42, TOLS)]


@pytest.mark.parametrize("eps, code", [(0.9e-8, 0), (1.1e-8, 2)])
def test_levels_route_agreement_defaults_to_1e_8(capsys, monkeypatch, eps, code):
    # one route's levels moved by a relative eps: the default tolerance sits between
    solve = cli.spectrum
    monkeypatch.setattr(
        cli, "spectrum", lambda j, p, route: [lv._replace(E=lv.E * (1 + eps * (route == "lame"))) for lv in solve(j, p, route=route)]
    )
    assert run_cli(capsys, ["levels", "--jmax", "3"])[0] == code


@pytest.mark.parametrize(
    "argv, text",
    [
        (["kernel", "--j", "3", "--identity-check"], "A = 1\nB = 2\nC = 3\n"),  # a top kernel never reads
        (["wave", "--j", "2", "--s", "1"], "routes = bogus\njmax = -1\nseed = x\n"),  # nor wave these
    ],
)
def test_config_settings_a_subcommand_does_not_read_are_skipped(tmp_path, capsys, argv, text):
    cfg = tmp_path / "other.cfg"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, argv + ["--config", str(cfg)])
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, argv)[1]


@pytest.mark.parametrize("command", list(TAKES))
def test_config_unknown_key_on_every_subcommand(tmp_path, capsys, command):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("jmax = 0\nfromat = json\n")
    code, out, err = run_cli(capsys, [command, *REQUIRED[command], "--config", str(cfg)])
    assert code == 3 and out == ""
    assert err == f"error: unknown config key 'fromat' in {cfg}\n"


@pytest.mark.parametrize("command", list(TAKES))
def test_config_format_outside_its_choices(tmp_path, capsys, command):
    # the file's value is checked as the flag's choices check it; an empty
    # value is refused too, not read as the default
    cfg = tmp_path / "format.cfg"
    for value in ("xml", ""):
        cfg.write_text(f"format = {value}\n")
        code, out, err = run_cli(capsys, [command, *REQUIRED[command], "--config", str(cfg)])
        assert (code, out, err) == (3, "", f"error: unknown format {value!r}\n")
