"""Seeded benchmark of the asymtop package.

Run from the repository root:

    python3 perfbench/run.py --workload levels --seed 1 --seconds 30 --trace 0

One invocation runs one workload (``levels``, ``states`` or ``verify``, see
``workloads.py``) as a closed loop with a single client in this process,
against the package under ``src/``.  It repeats whole passes of the workload
for about ``--seconds``, checks every output independently of the program's
own checks, prints a report, and prints as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends the first
half of the time untraced and the second half replaying the same passes with
spans around the public functions of every asymtop module, and reports the
per-layer metrics plus the tracing overhead (traced over untraced operations
per second).  After the loop it also runs ``workloads.lame_probe``, which
measures the Lame route's large-j defect that the levels workload keeps out
of its operations.

Times are scaled to a nominal host speed.  The speed of a shared host drifts
by up to 1.7x within tens of seconds, for pure Python and BLAS code alike, so
a fixed reference loop is timed between consecutive operations, and each
operation's time is multiplied by REF_NOMINAL_S over the median of the
SCALE_WINDOW reference times before it and the SCALE_WINDOW after it.
Unscaled figures are in the report and the results file.

An operation fails when it raises, exits nonzero, or fails an output check.
``correct`` is false only when the program reported success with a wrong
output; loud failures are counted in ``failed``.

Full results go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BLAS_THREADS = 1  # single client: one BLAS thread keeps runs steady
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 11
TAIL_BEYOND = 10  # samples beyond the tail percentile
REF_NOMINAL_S = 0.004  # reference-loop time on the nominal host
SCALE_WINDOW = 5  # reference times on each side of an operation
HERE = Path(__file__).resolve().parent
END_TO_END = ("setup_s", "ops_per_s", "op_p50_s", "op_tail_s", "peak_rss_mb")
WORK_METRIC = {"levels": "levels_per_s", "states": "psi_evals_per_s", "verify": "checks_per_s"}


class HostSpeed:
    """Times a fixed mix of the kinds of work the package does: scalar
    Python math, many small numpy calls, LAPACK and memory streaming.  None
    of it calls the package, so a change to the package cannot move it."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        m = rng.standard_normal((96, 96))
        self._np = np
        self._sym = m + m.T
        self._small = rng.standard_normal(33)
        self._stream = rng.standard_normal(2**20)  # 8 MB, beyond the L2 cache

    def reference(self) -> float:
        np = self._np
        start = time.perf_counter()
        acc = 0.0
        for i in range(4000):
            acc += math.lgamma(i + 1.5) * math.sin(0.001 * i)
        for _ in range(150):
            acc += float(np.sum(np.exp(1j * self._small)).real)
        for _ in range(2):
            np.linalg.eigvalsh(self._sym)
        self._stream.sum()
        return time.perf_counter() - start


@dataclass
class OpRecord:
    pass_index: int
    op: object
    latency: float  # seconds, unscaled
    scale: float  # host-speed factor applied to latency, set by _apply_scales
    reason: str | None
    stdout_bytes: int
    degeneracy_warnings: int

    @property
    def scaled(self) -> float:
        return self.latency * self.scale


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORK_METRIC))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def _use_checkout_source() -> None:
    """Put ./src first on sys.path; the package must come from this checkout."""
    src = Path.cwd() / "src"
    if not (src / "asymtop" / "__init__.py").is_file():
        raise SystemExit("error: src/asymtop not found; run from the repository root")
    sys.path.insert(0, str(src))


def _execute(op, pass_index: int, tracer) -> OpRecord:
    from asymtop.errors import DegeneracyWarning

    if tracer is not None:
        tracer.op += 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            result = op.execute()
        except Exception as exc:  # an operation's failure is a measured outcome
            latency = time.perf_counter() - start
            result, reason = None, type(exc).__name__
        else:
            latency = time.perf_counter() - start
    if result is not None:
        reason = op.check(result)
    return OpRecord(
        pass_index=pass_index,
        op=op,
        latency=latency,
        scale=1.0,
        reason=reason,
        stdout_bytes=0 if result is None else op.stdout_bytes(result),
        degeneracy_warnings=sum(issubclass(w.category, DegeneracyWarning) for w in caught),
    )


def _run_passes(workload: str, seed: int, first_pass: int, seconds: float, speed, tracer=None):
    """Whole passes, as many as bring the loop nearest to `seconds` (at least
    one); returns (records, wall time)."""
    from workloads import make_pass

    records: list[OpRecord] = []
    refs = [speed.reference()]  # refs[k] and refs[k + 1] surround operation k
    pass_index = first_pass
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.enabled = False  # verify inputs are screened with package calls
        ops = make_pass(workload, seed, pass_index)
        if tracer is not None:
            tracer.enabled = True
        for op in ops:
            records.append(_execute(op, pass_index, tracer))
            refs.append(speed.reference())
        pass_index += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / (pass_index - first_pass) > seconds:
            _apply_scales(records, refs)
            return records, elapsed


def _apply_scales(records: list[OpRecord], refs: list[float]) -> None:
    """Each operation's host-speed factor: REF_NOMINAL_S over the median of
    the reference times in a window of SCALE_WINDOW on each side of it.  A
    window smooths out the noise of single 4 ms reference loops, which
    otherwise dominates the factor of operations that take much longer."""
    for k, record in enumerate(records):
        window = refs[max(0, k + 1 - SCALE_WINDOW) : k + 1 + SCALE_WINDOW]
        record.scale = REF_NOMINAL_S / statistics.median(window)


def _setup_seconds(workload: str, seed: int) -> list[tuple[float, float]]:
    """(seconds, host-speed factor) of import plus warm-up, each in a fresh
    interpreter that also times the reference loop right after.  Reference
    times taken in this process between probes are not used: each child's
    exit leaves the caches cold and slows the next reference loop."""
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        seconds, reference = (float(x) for x in proc.stdout.split()[-2:])
        probes.append((seconds, REF_NOMINAL_S / reference))
    return probes


def _loop_metrics(records: list[OpRecord], wall: float) -> dict[str, float]:
    """Throughput and per-pass latency statistics, host-speed scaled; the
    unscaled counterparts carry a `raw_` prefix."""
    ok = [r for r in records if r.reason is None]
    by_pass: dict[int, list[OpRecord]] = {}
    for r in records:
        by_pass.setdefault(r.pass_index, []).append(r)
    per_pass = len(next(iter(by_pass.values())))
    op_time = sum(r.scaled for r in records)
    out = {
        "ops_per_s": len(ok) / op_time,
        "fail_share": (len(records) - len(ok)) / len(records),
        "work_per_s": sum(r.op.units for r in ok) / op_time,
        "raw_ops_per_s": len(ok) / wall,
        "host_speed_scale": statistics.median(r.scale for r in records),
        "op_tail_percentile": 100.0 * (per_pass - TAIL_BEYOND) / per_pass,
        "op_samples_per_pass": per_pass,
        "passes": len(by_pass),
        "loop_s": wall,
    }
    for prefix, key in (("", "scaled"), ("raw_", "latency")):
        lat = [sorted(getattr(r, key) for r in rs) for rs in by_pass.values()]
        out[prefix + "op_p50_s"] = statistics.median(statistics.median(x) for x in lat)
        out[prefix + "op_tail_s"] = statistics.median(x[len(x) - TAIL_BEYOND - 1] for x in lat)
    return out


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _metadata(args, records: list[OpRecord]) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
        "git_commit": _git_commit(Path.cwd()),
        "ops_per_pass": sum(r.pass_index == records[0].pass_index for r in records),
        "ops_per_run": len(records),
        "ref_nominal_s": REF_NOMINAL_S,
        "machine": platform.machine(),
    }


def _traced_extras(records: list[OpRecord], untraced_rate: float, traced_rate: float, seed: int) -> dict:
    """Per-layer metrics that come from the run loop and the Lame probe
    rather than from spans."""
    from workloads import lame_probe

    n = len(records)
    out = {
        "cli.main.failed": sum(
            r.reason is not None and r.reason.startswith("exit") for r in records
        ) / n,
        "cli.stdout_bytes": sum(r.stdout_bytes for r in records) / n,
        "spectra.degeneracy_warnings": sum(r.degeneracy_warnings for r in records) / n,
        "verify.pde_residual.redraws": sum(getattr(r.op, "redraws", 0) for r in records) / n,
        "trace.overhead_ratio": traced_rate / untraced_rate,
    }
    for cls, share in lame_probe(seed).items():
        out[f"levels.lame_probe.{cls}.failed"] = share
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    _use_checkout_source()

    import workloads
    from tracing import Tracer, per_layer_metrics

    speed = HostSpeed()
    _execute(workloads.make_warmup(args.workload, args.seed), -1, None)
    probes = _setup_seconds(args.workload, args.seed)

    tracer = None
    if args.trace == 0:
        records, wall = _run_passes(args.workload, args.seed, 0, args.seconds, speed)
        loop = _loop_metrics(records, wall)
    else:
        half = args.seconds / 2.0
        plain, plain_wall = _run_passes(args.workload, args.seed, 0, half, speed)
        tracer = Tracer()
        tracer.install()
        try:  # replays the untraced passes, so the overhead compares equal work
            traced, traced_wall = _run_passes(args.workload, args.seed, 0, half, speed, tracer)
        finally:
            tracer.uninstall()
        records = plain + traced
        loop = _loop_metrics(plain, plain_wall)
        traced_loop = _loop_metrics(traced, traced_wall)

    end_to_end = {
        "setup_s": (statistics.median(t * f for t, f in probes), "s"),
        "ops_per_s": (loop["ops_per_s"], "1/s"),
        "op_p50_s": (loop["op_p50_s"], "s"),
        "op_tail_s": (loop["op_tail_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fail_share": (loop["fail_share"], "share"),
        WORK_METRIC[args.workload]: (loop["work_per_s"], "1/s"),
    }
    info = {k: v for k, v in loop.items() if k not in ("ops_per_s", "op_p50_s", "op_tail_s", "fail_share", "work_per_s")}
    info["raw_setup_s"] = statistics.median(t for t, _ in probes)
    info["failures"] = dict(sorted(Counter(f"{r.op.cls}/{r.reason}" for r in records if r.reason).items()))
    metadata = _metadata(args, records)
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)

    layer: dict[str, tuple[float, str]] = {}
    if tracer is None:
        reported = {k: end_to_end[k] for k in END_TO_END}
    else:
        values = tracer.summary([r.scale for r in traced])
        values.update(_traced_extras(traced, loop["ops_per_s"], traced_loop["ops_per_s"], args.seed))
        layer = {name: (values[name], unit) for name, unit, _ in per_layer_metrics()}
        reported = layer
        info.update(traced_ops=len(traced), traced_ops_per_s=traced_loop["ops_per_s"], spans=len(tracer.spans))
        tracer.write(results_dir / f"{args.workload}-seed{args.seed}-spans.jsonl.gz")

    print(f"asymtop benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("metadata " + json.dumps(metadata))
    print("info " + json.dumps(info))
    for name, (value, unit) in {**end_to_end, **layer}.items():
        print(f"{name:48s} {value:.6g} {unit}")

    summary = {
        "correct": not any(r.reason and r.reason.startswith("check:") for r in records),
        "attempted": len(records),
        "failed": sum(r.reason is not None for r in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }
    full = {
        "summary": summary,
        "metadata": metadata,
        "info": info,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layer.items()},
        "operations": [
            {
                "pass": r.pass_index,
                "class": r.op.cls,
                "size": r.op.size,
                "latency_s": r.latency,
                "scale": r.scale,
                "reason": r.reason,
            }
            for r in records
        ],
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(full, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
