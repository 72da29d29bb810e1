"""spectrum_range: every level of a j range from one flat build per route."""

import math
import re
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymtop import (
    ComplexQ,
    DegenerateParamsError,
    DomainError,
    EnergyLevel,
    EulerAngles,
    ROUTES,
    RootCountError,
    SpectrumTable,
    TopParams,
    completeness_defect,
    h_matrix_lambda,
    h_matrix_wigner,
    lame_recurrence,
    phi_state,
    phi_states,
    psi_eval,
    psi_via_kernel,
    spectrum,
    spectrum_range,
)
from asymtop import caching, spectra

RANGE_PARAMS = [(3.0, 2.0, 1.0), (5.3, 2.1, 0.4), (100.0, 2.0, 1.0), (1 + 1e-6, 1.0, 0.5)]


def assert_table_is_per_j_rows(table: SpectrumTable, js: range, p: TopParams, route: str):
    """The table, bit for bit, against one spectrum call per j."""
    rows = [lv for j in js for lv in spectrum(j, p, route=route)]
    assert table.E.tobytes() == np.array([lv.E for lv in rows]).tobytes()
    if route == "lame":
        assert table.lame_class.tolist() == [lv.lame_class for lv in rows]
    else:
        assert table.lame_class is None


@pytest.mark.parametrize("params", RANGE_PARAMS)
@pytest.mark.parametrize("route", ROUTES)
def test_range_table_is_the_per_j_rows(params, route):
    p = TopParams(*params)
    js = range(151)
    table = spectrum_range(js, p, route)
    assert len(table.E) == 151**2
    assert_table_is_per_j_rows(table, js, p, route)
    # a range that starts above 0 is the same rows
    sub = spectrum_range(range(37, 60), p, route)
    assert sub.E.tobytes() == table.E[37**2 : 60**2].tobytes()


@st.composite
def tops_and_ranges(draw):
    c = draw(st.floats(0.05, 20.0))
    b = c * (1.0 + draw(st.floats(1e-6, 30.0)))
    a = b * (1.0 + draw(st.floats(1e-6, 30.0)))
    start = draw(st.integers(0, 30))
    return TopParams(a, b, c), range(start, start + draw(st.integers(0, 12)))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(tops_and_ranges())
def test_range_table_is_the_per_j_rows_on_drawn_tops(point):
    p, js = point
    for route in ROUTES:
        assert_table_is_per_j_rows(spectrum_range(js, p, route), js, p, route)


def log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def tops_and_ranges_over_the_float_range(draw):
    """The strategy above over the whole float range: relative gaps
    1e-9..3 (or 0: A = B, B = C), B/C up to 2500 so that A/C reaches 1e4,
    ranges of up to 15 j from 0..60, any route, and scales log-uniform over
    1e-308..1e308 or over the band where the diagonals overflow in js."""
    gap_u = draw(st.one_of(st.just(0.0), log_uniform(1e-9, 3.0)))
    gap_v = draw(st.one_of(st.just(0.0), log_uniform(1e-9, 3.0), log_uniform(3.0, 2500.0)))
    start = draw(st.integers(0, 60))
    js = range(start, start + draw(st.integers(1, 15)))
    ratio = (1.0 + gap_u) * (1.0 + gap_v)  # A / C
    # the band: A where the diagonals, about A j^2, leave the float range
    # inside js, a few decades that log-uniform scales rarely reach (A <=
    # 1e308 in both)
    top = 308.0 - math.log10(ratio)
    lo, hi = (min(math.log10(np.finfo(float).max / j**2 / ratio), top) for j in (js.stop, js.start + 1))
    c = 10.0 ** draw(st.one_of(st.floats(-308.0, top), st.floats(lo, hi)))
    b = c * (1.0 + gap_v)
    return TopParams(b * (1.0 + gap_u), b, c), js, draw(st.sampled_from(ROUTES))


def assert_ascending_levels(table: SpectrumTable, js: range):
    assert len(table.E) == js.stop**2 - js.start**2
    assert np.isfinite(table.E).all()
    for j in js:
        assert (np.diff(table.E[j * j - js.start**2 : (j + 1) ** 2 - js.start**2]) >= 0).all()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tops_and_ranges_over_the_float_range())
def test_range_solves_or_refuses_at_its_first_offending_j(point):
    # a refusal names a j of the range, the single-j call there raises the
    # same error and the range below it solves: no route refuses a j it
    # would serve alone
    p, js, route = point
    try:
        assert_ascending_levels(spectrum_range(js, p, route), js)
    except DegenerateParamsError:
        assert route == "lame"
        with pytest.raises(DegenerateParamsError):
            spectra.require_strict(p)
    except (DomainError, RootCountError) as refusal:
        j = int(re.match(rf"{route} route at j=(\d+)", str(refusal)).group(1))
        assert j in js
        with pytest.raises((DomainError, RootCountError)) as single:
            spectrum(j, p, route)
        assert (type(single.value), str(single.value)) == (type(refusal), str(refusal))
        assert_ascending_levels(spectrum_range(range(js.start, j), p, route), range(js.start, j))


def symmetric_levels(m: np.ndarray) -> np.ndarray:
    """eigvalsh of the symmetric matrix similar to a real tridiagonal-pattern
    matrix whose mirrored entries have products >= 0: sqrt(M_ik M_ki)."""
    return np.linalg.eigvalsh(np.sqrt(m * m.T))


@pytest.mark.parametrize("params", RANGE_PARAMS)
def test_range_table_matches_the_dense_matrices(params):
    # the dense builders know nothing of the Wang fold, the block layout or
    # the sort; their eigenvalues are an independent oracle
    p = TopParams(*params)
    tables = {r: spectrum_range(range(61), p, r) for r in ROUTES}
    for j in (0, 1, 2, 7, 24, 60):
        dense = {
            "wigner": np.linalg.eigvalsh(h_matrix_wigner(j, p)),
            "lambda": symmetric_levels(h_matrix_lambda(j, p).real),
            "lame": np.sort(np.concatenate([symmetric_levels(lame_recurrence(N, j, p)) for N in (1, 2, 3, 4)])),
        }
        for route, ref in dense.items():
            got = tables[route].E[j * j : (j + 1) ** 2]
            assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) < 1e-12, (route, j)


@pytest.mark.parametrize("route", ROUTES)
def test_range_makes_one_eigvalsh_call_per_block_size(route, monkeypatch):
    calls = []
    original = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    spectrum_range(range(151), TopParams(5.3, 2.1, 0.4), route)
    sizes = [shape[-1] for shape in calls]
    assert sorted(sizes) == list(range(1, 77))  # K = 1..76, each once


def test_range_refusals_name_the_smallest_offending_j():
    overflow = TopParams(1e305, 1e305, 1.0)  # diagonals overflow from j = 42
    for route in ("wigner", "lambda"):
        with pytest.raises(DomainError, match=f"^{route} route at j=42:"):
            spectrum_range(range(101), overflow, route)
        with pytest.raises(DomainError, match=f"^{route} route at j=50:"):
            spectrum_range(range(50, 60), overflow, route)
        assert len(spectrum_range(range(42), overflow, route).E) == 42**2
    tiny = TopParams(1e-300, 5e-301, 1e-301)
    with pytest.raises(DomainError, match="^lambda route at j=1: off-diagonal products"):
        spectrum_range(range(6), tiny, "lambda")
    with pytest.raises(DomainError, match="^lame route at j=2, class 1:"):
        spectrum_range(range(6), TopParams(1e300, 5e299, 1e299), "lame")
    with pytest.raises(DomainError, match="^lame route at j=2, class 1: off-diagonal products"):
        spectrum_range(range(6), tiny, "lame")


def test_range_refuses_odd_entries_the_fold_takes_out_of_range():
    # every entry is finite, but the n = -1, 1 coupling takes the first odd
    # diagonal entry past the float range: 0.75 A j(j+1) > max float; this
    # used to give NaN and negative levels with no error
    j = 100
    p = TopParams(1.9 / 0.75 * (1e308 / (j * (j + 1))), 1.0, 0.5)
    with pytest.raises(DomainError, match=f"^wigner route at j={j}: matrix entries"):
        spectrum_range(range(j, j + 1), p, "wigner")
    # in a range the shifted entries count with the others: j = 3 has
    # diagonal entries past the float range, j = 2 only a shifted one, and
    # the range used to name j = 3
    p = TopParams(3.821905949940881e307, 1.9109529749704406e307, 1.9109529749704406e307)
    with pytest.raises(DomainError, match="^wigner route at j=2: matrix entries"):
        spectrum_range(range(4), p, "wigner")


def test_range_refuses_levels_past_the_float_range():
    # every entry at j = 17 is finite, but its top level, about A j^2, is
    # not: it used to come back as inf with no error, and the range named
    # j = 18, the first j with entries past the float range
    p = TopParams(6.324555320336759e305, 3.1622776601683794e305, 3.1622776601683794e305)
    assert np.isfinite(spectrum_range(range(17), p, "wigner").E).all()
    for js in (range(17, 18), range(3, 19)):
        with pytest.raises(DomainError, match="^wigner route at j=17: levels leave the float range$") as refused:
            spectrum_range(js, p, "wigner")
        # the refusal names its j and carries nothing else
        assert refused.value.j == 17 and not hasattr(refused.value, "below")


def test_range_refuses_unsymmetrizable_lame_blocks(monkeypatch):
    original = spectra._lame_entries

    def flipped(js, p):
        lay, d, upper, lower = original(js, p)
        last = np.flatnonzero((lay.off_cls == 2) & (lay.off_j == 9))[-1:]
        lower[last] *= -1.0  # the last (k+1, k) entry of class 3 at j = 9
        return lay, d, upper, lower

    monkeypatch.setattr(spectra, "_lame_entries", flipped)
    with pytest.raises(RootCountError, match="^lame route at j=9, class 3: off-diagonal product"):
        spectrum_range(range(10), TopParams(3.0, 2.0, 1.0), "lame")


def test_range_validation():
    p = TopParams(3.0, 2.0, 1.0)
    with pytest.raises(DomainError):
        spectrum_range(range(0, 10, 2), p)
    with pytest.raises(DomainError):
        spectrum_range(range(-1, 3), p)
    with pytest.raises(DomainError):
        spectrum_range(range(3), p, "exact")
    empty = spectrum_range(range(4, 4), p, "lame")
    assert len(empty.E) == len(empty.lame_class) == 0


def test_layout_is_cached_and_read_only(cold_caches):
    spectrum(5, TopParams(3.0, 2.0, 1.0))
    lay, held = spectra._layout(5, 6, "wang"), caching.TABLES.nbytes
    spectrum(5, TopParams(5.3, 2.1, 0.4), "lambda")
    # the second top reads the first one's layout: nothing is built or kept
    assert spectra._layout(5, 6, "wang") is lay and caching.TABLES.nbytes == held
    with pytest.raises(ValueError):
        lay.x[0] = 1


def bits(value):
    """Levels and states down to their bytes (so -0.0 is not 0.0)."""
    if isinstance(value, list):
        return [bits(v) for v in value]
    if isinstance(value, EnergyLevel):
        return value._replace(E=value.E.hex())
    return value.coeffs.tobytes()


def outcome(call, *args):
    """The bits of call(*args), or the type and message of what it raises."""
    try:
        return bits(call(*args))
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


def count_level_solves(monkeypatch) -> list[tuple[range, str]]:
    """The js and route of every spectrum_range call from now on."""
    calls = []
    original = spectra.spectrum_range
    monkeypatch.setattr(
        spectra, "spectrum_range", lambda js, p, route="wigner": calls.append((js, route)) or original(js, p, route)
    )
    return calls


@pytest.mark.parametrize("route", ROUTES)
def test_batched_spectrum_is_the_single_j_call(route):
    # j inside and outside a range solve's range, on a served range and on
    # ranges that refuse from j = 42 (wigner, lambda), from j = 1 or 2
    # (lambda, lame), at every j (lame on A = B or B = C) or where the wigner
    # levels leave the float range (j = 17): the same rows or the same
    # error, and the range solve itself raises none of those refusals
    js = range(-1, 55)
    past = (6.324555320336759e305, 3.1622776601683794e305, 3.1622776601683794e305)
    for params in [(5.3, 2.1, 0.4), (1e305, 1e305, 1.0), (1e-300, 5e-301, 1e-301), past]:
        p = TopParams(*params)
        single = [outcome(spectrum, j, p, route) for j in js]  # one-j reads
        spectra.solve_levels(range(3, 50), p, route)
        assert [outcome(spectrum, j, p, route) for j in js] == single


def test_batch_solves_each_route_once(monkeypatch):
    calls = count_level_solves(monkeypatch)
    p, js = TopParams(3.0, 2.0, 1.0), range(12)
    for route in ROUTES:
        spectra.solve_levels(js, p, route)
    for j in js:
        for route in ROUTES:
            spectrum(j, p, route)
    assert calls == [(js, route) for route in ROUTES]


@pytest.mark.parametrize("route", ROUTES)
def test_a_refused_batch_keeps_the_slot_as_it_was(route, monkeypatch):
    # the diagonals overflow from j = 42, and (past) the wigner levels leave
    # the float range at j = 17; lame refuses both tops at every j (A = B,
    # B = C)
    overflow = TopParams(1e305, 1e305, 1.0)
    past = TopParams(6.324555320336759e305, 3.1622776601683794e305, 3.1622776601683794e305)
    for top, js in ((overflow, (0, 41, 42, 43, 100)), (past, (3, 16, 17, 18))):
        single = {j: outcome(spectrum, j, top, route) for j in js}  # one-j reads
        spectra.solve_levels(range(5), TopParams(3.0, 2.0, 1.0), route)
        held = spectra._SLOTS[route]
        calls = count_level_solves(monkeypatch)
        refusal = outcome(spectra.spectrum_range, range(101), top, route)
        assert refusal[0] in (DomainError, DegenerateParamsError)
        expected = calls[:]  # the range, and the one below its entry refusal
        del calls[:]
        spectra.solve_levels(range(101), top, route)
        assert spectra._SLOTS[route] is held
        # the range solve refuses and keeps nothing, so each read below, at
        # and past the refusal solves its one j: once where it is served,
        # on every read where it is refused
        for j in js:
            for _ in range(2):
                assert outcome(spectrum, j, top, route) == single[j]
            expected += [(range(j, j + 1), route)] * (2 if isinstance(single[j], tuple) else 1)
        assert calls == expected
        monkeypatch.undo()


def count_state_solves(monkeypatch) -> list[range]:
    """The js of every _state_rows call from now on."""
    solved = []
    original = spectra._state_rows
    monkeypatch.setattr(spectra, "_state_rows", lambda js, p: solved.append(js) or original(js, p))
    return solved


def count_phasings(monkeypatch) -> list[tuple[int, list[bytes]]]:
    """The j and the bytes of each row of every _phase call from now on."""
    phased = []
    original = spectra._phase
    monkeypatch.setattr(
        spectra, "_phase", lambda rows, j: phased.append((j, [r.tobytes() for r in rows])) or original(rows, j)
    )
    return phased


def phased_once(phased: list[tuple[int, list[bytes]]]) -> bool:
    """Whether no state (row) was phased twice."""
    rows = [row for _, call in phased for row in call]
    return len(set(rows)) == len(rows)


@pytest.mark.parametrize("params", RANGE_PARAMS)
def test_batched_states_are_the_unbatched_ones(params, monkeypatch):
    # states solved in one range solve inside a batch, as run_all solves
    # them, are the one-j reads bit for bit
    p = TopParams(*params)
    js = range(49)  # the range solve holds j < 20: past it reads are one-j
    single = {j: [outcome(phi_state, j, s, p) for s in range(-j, j + 1)] for j in js}
    every = {j: outcome(phi_states, j, p) for j in js}
    refusals = [(phi_state, 3, 4, p), (phi_state, -1, 0, p), (phi_state, 600, 0, p), (phi_states, 600, p)]
    refused = [outcome(*call) for call in refusals]
    spectra._SLOTS.clear()  # the reads above kept one-j solves
    solved, phased = count_state_solves(monkeypatch), count_phasings(monkeypatch)
    for route in ROUTES:  # levels solved beside the states change no state
        spectra.solve_levels(range(20), p, route)
    spectra.solve_states(range(20), p)
    for j in js:
        for s in range(-j, j + 1):
            assert outcome(phi_state, j, s, p) == single[j][s + j]
            phi_state(j, s, p).coeffs[:] = 7.0  # the caller's copy, not the kept rows
        assert outcome(phi_states, j, p) == every[j]
        phi_states(j, p)[0].coeffs[:] = 7.0
        assert outcome(phi_state, j, -j, p) == single[j][0]
    assert [outcome(*call) for call in refusals] == refused
    # one solve of the range; past it each j solves alone, once (the reads
    # of a j come together, and each one-j solve is kept as the slot), and
    # a refused j (not kept) on every read.  Every j is phased once, whole,
    # in one _phase call: those of the range when it is solved.
    assert solved == [range(20)] + [range(j, j + 1) for j in js[20:]] + [range(600, 601)] * 2
    assert [(j, len(rows)) for j, rows in phased] == [(j, 2 * j + 1) for j in js]
    assert phased_once(phased)
    # j = 4, whose range solve the reads past it replaced, solves alone
    # once and is kept again
    del solved[:]
    phi_state(4, 0, p)
    phi_states(4, p)
    assert solved == [range(4, 5)]


def test_batch_serves_a_second_top_from_its_own_solve(monkeypatch):
    p, q = TopParams(3.0, 2.0, 1.0), TopParams(5.3, 2.1, 0.4)
    expected = {top: [bits(phi_states(j, top)) for j in range(6)] for top in (p, q)}
    spectra._SLOTS.clear()
    solved, phased = count_state_solves(monkeypatch), count_phasings(monkeypatch)
    for top in (p, q):
        spectra.solve_states(range(6), top)
        for j in range(6):
            assert bits(phi_states(j, top)) == expected[top][j]
    assert solved == [range(6), range(6)]  # one per top, and no read solves
    # a second range solve over held j solves and phases none of them again
    spectra.solve_states(range(6), q)
    spectra.solve_states(range(2, 4), q)
    assert len(phased) == 12 and solved == [range(6)] * 2
    # q's solve replaced p's: a read at p solves its one j
    assert bits(phi_states(3, p)) == expected[p][3]
    assert solved == [range(6)] * 2 + [range(3, 4)]


@pytest.mark.parametrize(
    "params, js, low, high, solves",
    [
        # B_nj leaves the normal float range from j = 514: the range keeps
        # nothing, so j = 511 is solved alone on its first read and kept
        # (16.7 MB of rows), and the refused j = 514 on every read
        ((3.0, 2.0, 1.0), range(511, 516), 511, 514, [range(511, 516), range(511, 512)] + [range(514, 515)] * 4),
        # the lambda diagonals overflow from j = 42, inside the range 40..42,
        # at its first j, and at its only j: each keeps nothing
        ((1e305, 1e305, 1.0), range(40, 43), 41, 42, [range(40, 43), range(41, 42)] + [range(42, 43)] * 4),
        ((1e305, 1e305, 1.0), range(42, 44), 41, 42, [range(42, 44), range(41, 42)] + [range(42, 43)] * 4),
        ((1e305, 1e305, 1.0), range(42, 43), 41, 42, [range(42, 43), range(41, 42)] + [range(42, 43)] * 4),
    ],
)
def test_a_refusal_inside_a_batch_stays_at_its_j(params, js, low, high, solves, monkeypatch):
    p = TopParams(*params)
    single = {j: (outcome(phi_state, j, 0, p), outcome(phi_states, j, p)) for j in (low, high)}
    assert isinstance(single[low][1], list)  # the j below is served
    assert single[high][1][0] is DomainError
    spectra.solve_states(range(3), TopParams(3.0, 2.0, 1.0))
    held = spectra._SLOTS["states"]
    solved = count_state_solves(monkeypatch)
    spectra.solve_states(js, p)
    assert spectra._SLOTS["states"] is held  # the refused range keeps nothing
    for _ in range(2):
        for j in (low, high):
            assert (outcome(phi_state, j, 0, p), outcome(phi_states, j, p)) == single[j]
    # each j below the refusal solves alone once, and the refused j, not
    # kept, on every call
    assert solved == solves


def test_an_empty_range_solves_nothing(monkeypatch):
    p, q = TopParams(3.0, 2.0, 1.0), TopParams(5.3, 2.1, 0.4)
    calls, solved = count_level_solves(monkeypatch), count_state_solves(monkeypatch)
    for kept in (False, True):
        if kept:
            spectra.solve_levels(range(3), p, "wigner")
            spectra.solve_states(range(3), p)
            del calls[:], solved[:]
        held = dict(spectra._SLOTS)
        for top in (p, q):
            spectra.solve_levels(range(5, 5), top, "wigner")
            spectra.solve_states(range(5, 5), top)
        assert calls == solved == []
        assert spectra._SLOTS.keys() == held.keys()
        assert all(spectra._SLOTS[kind] is slot for kind, slot in held.items())


def test_one_state_of_a_wide_batch_solves_one_j(monkeypatch):
    # the range solve of j = 0..29 (575 840 bytes of rows) is kept whole,
    # and every read of it is the one-j solve bit for bit; a read past it
    # solves its one j, which replaces the range solve
    p = TopParams(3.0, 2.0, 1.0)
    alone = {j: bits(phi_states(j, p)) for j in range(31)}
    spectra._SLOTS.clear()
    solved = count_state_solves(monkeypatch)
    spectra.solve_states(range(30), p)
    for j in reversed(range(30)):
        assert bits(phi_states(j, p)) == alone[j]
    assert solved == [range(30)]
    assert bits(phi_states(30, p)) == alone[30]
    assert bits(phi_states(29, p)) == alone[29]
    assert solved == [range(30), range(30, 31), range(29, 30)]


def test_a_second_top_replaces_the_level_slot(monkeypatch):
    p, q = TopParams(3.0, 2.0, 1.0), TopParams(5.3, 2.1, 0.4)
    single = {(top, j): spectrum(j, top) for top in (p, q) for j in (2, 5, 12)}
    calls = count_level_solves(monkeypatch)
    spectra.solve_levels(range(10), p, "wigner")
    assert spectrum(5, p) == single[p, 5]
    assert spectrum(12, p) == single[p, 12]  # past the range: solved alone
    spectra.solve_levels(range(3), q, "wigner")
    assert spectrum(2, q) == single[q, 2]
    assert spectrum(5, q) == single[q, 5]  # past q's range: solved alone
    assert spectrum(5, p) == single[p, 5]  # p's slot is gone: solved alone
    assert spectrum(5, p) == single[p, 5]  # and kept as the slot
    assert [js for js, _ in calls] == [range(10), range(12, 13), range(3)] + [range(5, 6)] * 2
    # the level slots serve no state: a state read solves its one j, kept
    solved = count_state_solves(monkeypatch)
    phi_state(2, 0, q)
    phi_state(2, 1, q)
    assert solved == [range(2, 3)]


def test_threads_on_two_tops_read_their_own_rows(monkeypatch):
    # each of two threads replaces the slots with its own top's solve and
    # reads while the other does the same; every comparison of tops lets the
    # other thread run, so slots change under a read: the read misses the
    # slot or hits its own top's, never the other's.  Levels come first and
    # states after, so both threads mostly work on the same slots at once.
    tops = [TopParams(3.0, 2.0, 1.0), TopParams(5.3, 2.1, 0.4)]
    js = range(12)
    single = {(top, j, route): outcome(spectrum, j, top, route) for top in tops for j in js for route in ROUTES}
    states = {(top, j): outcome(phi_states, j, top) for top in tops for j in js}
    equal = TopParams.__eq__
    monkeypatch.setattr(TopParams, "__eq__", lambda self, other: time.sleep(0) or equal(self, other))

    def work(top: TopParams) -> list:
        wrong = []
        for _ in range(20):
            for route in ROUTES:
                spectra.solve_levels(js, top, route)
            wrong += [(j, r) for j in js for r in ROUTES if outcome(spectrum, j, top, r) != single[top, j, r]]
        for _ in range(20):
            spectra.solve_states(js, top)
            wrong += [(j, "states") for j in js if outcome(phi_states, j, top) != states[top, j]]
        return wrong

    with ThreadPoolExecutor(max_workers=2) as pool:
        assert [f.result() for f in [pool.submit(work, top) for top in tops]] == [[], []]


def test_one_j_reads_outside_a_batch_solve_once(monkeypatch):
    p, j, rng = TopParams(5.3, 2.1, 0.4), 24, np.random.default_rng(7)
    q = ComplexQ(rng.uniform(0, 2 * math.pi), rng.uniform(-0.7, 0.7))
    gs = [EulerAngles(*rng.uniform(0.3, 2.8, size=3)) for _ in range(12)]
    solved, phased = count_state_solves(monkeypatch), count_phasings(monkeypatch)
    for g in gs:
        psi_eval(q, j, 3, p, g)
    for g in gs[:3]:
        psi_via_kernel(q, j, 3, p, g)
    phi_states(j, p)
    phi_state(j, -j, p)
    assert solved == [range(j, j + 1)]
    # every state of j is phased on the first read, and nothing after:
    # each state once while the solve is kept
    assert [(at, len(rows)) for at, rows in phased] == [(j, 2 * j + 1)] and phased_once(phased)


def test_kept_states_are_the_cold_ones_bit_for_bit(monkeypatch):
    p, other, js = TopParams(3.0, 2.0, 1.0), TopParams(5.3, 2.1, 0.4), (0, 1, 9, 30)
    cold, every = {}, {}
    for j in js:
        for s in range(-j, j + 1):
            spectra._SLOTS.clear()
            cold[j, s] = bits(phi_state(j, s, p))
        spectra._SLOTS.clear()
        every[j] = bits(phi_states(j, p))
    spectra._SLOTS.clear()
    solved = count_state_solves(monkeypatch)
    for (j, s), expected in cold.items():  # warm from the second s of each j
        assert bits(phi_state(j, s, p)) == expected
    assert solved == [range(j, j + 1) for j in js]
    phi_state(77, 0, other)  # another top's solve replaces the slot
    assert spectra._SLOTS["states"][:2] == (other, range(77, 78))
    del solved[:]
    for (j, s), expected in cold.items():  # replaced, then solved again
        assert bits(phi_state(j, s, p)) == expected
    assert solved == [range(j, j + 1) for j in js]
    # after a range solve (j = 30 past it), and after one that holds them all
    for js in (range(10), range(31)):
        spectra.solve_states(js, p)
        for (j, s), expected in cold.items():
            assert bits(phi_state(j, s, p)) == expected
    assert [bits(phi_states(j, p)) for j in every] == list(every.values())


# tops whose rows need many derivative orders to phase: 41 at (100,2,1),
# j = 48, 78 at j = 77, and 29 at (5.3,2.1,0.4), j = 77
HEAVY = [((100.0, 2.0, 1.0), 48), ((100.0, 2.0, 1.0), 77), ((5.3, 2.1, 0.4), 77)]


def cold_rows(j: int, p: TopParams) -> list[bytes]:
    """Each Phi_{j,s} of a fresh solve, phased alone."""
    (rows,) = spectra._state_rows(range(j, j + 1), p)
    return [(row[None] * spectra._phase(row[None], j)[:, None]).tobytes() for row in rows]


def test_phased_rows_are_the_cold_one_row_ones_in_any_read_order():
    rng = np.random.default_rng(27)
    cases = [(TopParams(*params), j) for params, j in HEAVY]
    expected = {case: cold_rows(case[1], case[0]) for case in cases}

    def read(p: TopParams, j: int, kind: str) -> None:
        rows = expected[p, j]
        if kind == "state":
            s = int(rng.integers(-j, j + 1))
            assert bits(phi_state(j, s, p)) == rows[s + j]
        elif kind == "slice":
            a = int(rng.integers(0, 2 * j + 1))
            b = int(rng.integers(a + 1, 2 * j + 2))
            assert spectra._phased_rows(j, p, slice(a, b)).tobytes() == b"".join(rows[a:b])
        else:
            assert b"".join(bits(phi_states(j, p))) == b"".join(rows)

    # outside a batch: each one-j solve replaces the slot, so reads land
    # before and after a replacement
    evicted = 0
    for _ in range(4):
        for i in rng.permutation(len(cases)):
            p, j = cases[i]
            evicted += spectra._SLOTS.get("states", (None, None))[:2] != (p, range(j, j + 1))
            for kind in rng.choice(["state", "state", "slice", "states"], size=5):
                read(p, j, kind)
    assert evicted > len(cases)
    # each j after a range solve that ends at it
    for i in rng.permutation(3 * len(cases)):
        p, j = cases[i % len(cases)]
        spectra.solve_states(range(j - 2, j + 1), p)
        read(p, j, rng.choice(["state", "slice", "states"]))


def test_a_cold_one_state_read_phases_its_whole_j(monkeypatch):
    p, q, g = TopParams(100.0, 2.0, 1.0), ComplexQ(0.4, 0.2), EulerAngles(0.5, 1.1, 2.3)
    phased = count_phasings(monkeypatch)
    phi_state(48, 5, p)
    phi_state(48, -5, p)  # the phases are kept with the solve
    psi_eval(q, 20, -3, p, g)
    psi_eval(q, 20, 3, p, g)
    assert [(j, len(rows)) for j, rows in phased] == [(48, 97), (20, 41)]


def test_kept_states_are_read_only_and_reads_are_copies():
    p = TopParams(3.0, 2.0, 1.0)
    first, every = bits(phi_state(6, 2, p)), bits(phi_states(6, p))
    phi_state(6, 2, p).coeffs[:] = 7.0
    for state in phi_states(6, p):
        assert state.coeffs.flags.writeable
        state.coeffs[:] = 7.0
    assert bits(phi_state(6, 2, p)) == first and bits(phi_states(6, p)) == every
    (kept,) = spectra._SLOTS["states"][2]
    assert not kept.flags.writeable and kept.base is None
    with pytest.raises(ValueError, match="read-only"):
        kept[0, 0] = 7.0
    # so is every row a range solve keeps
    spectra.solve_states(range(12), p)
    assert len(spectra._SLOTS["states"][2]) == 12
    for kept in spectra._SLOTS["states"][2]:
        assert not kept.flags.writeable and kept.base is None


def test_refused_solves_are_not_kept_and_large_ones_are(monkeypatch):
    p = TopParams(3.0, 2.0, 1.0)
    solved = count_state_solves(monkeypatch)
    for _ in range(2):
        with pytest.raises(DomainError, match="^states at j=514 "):
            phi_state(514, 0, p)
        with pytest.raises(DomainError, match="^states at j=514 "):
            phi_states(514, p)
    assert solved == [range(514, 515)] * 4 and "states" not in spectra._SLOTS
    del solved[:]
    # the rows of j = 78 are kept whole, as those of any j, until the next
    # state solve replaces them
    first = bits(phi_state(78, 1, p))
    assert bits(phi_state(78, 1, p)) == first
    assert solved == [range(78, 79)]
    (kept,) = spectra._SLOTS["states"][2]
    assert kept.nbytes == 16 * 157**2


def test_two_tops_at_one_j_read_their_own_states(monkeypatch):
    p, q = TopParams(3.0, 2.0, 1.0), TopParams(5.3, 2.1, 0.4)
    solved = count_state_solves(monkeypatch)
    expected = {top: bits(phi_states(8, top)) for top in (p, q)}
    for top in (p, q, p, q):
        assert bits(phi_states(8, top)) == expected[top]
    # the slot holds one top: each read of the other solves its one j
    assert solved == [range(8, 9)] * 6
    assert expected[p] != expected[q]


def test_negative_j_is_refused_before_any_solve(monkeypatch):
    p = TopParams(3.0, 2.0, 1.0)
    solved = count_state_solves(monkeypatch)
    calls = [(phi_state, -1, 0, p), (phi_states, -1, p), (completeness_defect, -1, p, ComplexQ(0.3, 0.1))]
    for call, *args in calls:
        with pytest.raises(DomainError, match="^j must be >= 0$"):
            call(*args)
        spectra.solve_levels(range(3), p, "wigner")  # a level slot serves no state
        with pytest.raises(DomainError, match="^j must be >= 0$"):
            call(*args)
    # and so is a range solve that reaches below j = 0, or skips a j, and a
    # level solve on an unknown route
    for js in (range(-3, 3), range(0, 6, 2)):
        with pytest.raises(DomainError, match="^need consecutive j >= 0, got range"):
            spectra.solve_states(js, p)
        with pytest.raises(DomainError, match="^need consecutive j >= 0, got range"):
            spectra.solve_levels(js, p, "wigner")
    with pytest.raises(DomainError, match="^route must be one of"):
        spectra.solve_levels(range(3), p, "wang")
    with pytest.raises(DomainError, match="^j must be >= 0$"):
        spectrum(-1, p)
    assert solved == [] and list(spectra._SLOTS) == ["wigner"]
