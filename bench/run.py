"""cimeval benchmark: host time of the model's main jobs, end to end and by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --seed N --seconds 0 --trace 0 --smoke
    python3 bench/run.py --record-digests

Run it from the root of a checkout; it imports cimeval from ``src/`` of
that checkout and nowhere else.  One process, one thread, no workers.

A run writes the workload's inputs from the seed, times ``cimeval
validate`` cold starts in fresh interpreters (``setup_s``), warms up, then
repeats operations for ``--seconds``.  Every operation's output is checked
and its digest compared with ``digests.json``.  With ``--trace 0`` the
last stdout line holds the end-to-end metrics; with ``--trace 1`` the run
alternates untraced and traced cycles and reports per-layer metrics and
the tracing overhead instead.  README.md explains the workloads and the
metrics.  ``--smoke`` runs each workload at a tiny size for the test.
``--record-digests`` re-records the digest of every variant; only a
change that means to alter the model's outputs should need it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"

SETUP_PROBES = 7
TRACED_SETUP_PROBES = 3
TAIL_BEYOND = 10
PROBE_TIMEOUT_S = 60
# nominal time of _calibrate() on the reference host (a quiet 2-vCPU x86-64 VM,
# Python 3.11); end-to-end times are reported at that speed
CAL_REF_S = 0.010

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# per-layer metric of a traced cold start -> the span it reads
SETUP_LAYERS = {
    "setup.archspec_s": "archspec.parse",
    "setup.workload_s": "workload.parse",
    "setup.mapping_s": "mapping.check_valid",
    "setup.cli_s": "cli.main",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--record-digests", action="store_true")
    args = p.parse_args(argv)
    if not args.record_digests and args.workload is None:
        p.error("--workload is required")
    return args


def _import_cimeval():
    """Import cimeval from this checkout's src/, or exit with code 2."""
    if not (SRC / "cimeval" / "__init__.py").is_file():
        sys.stderr.write(f"error: no cimeval sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import cimeval

    if Path(cimeval.__file__).resolve().parent != SRC / "cimeval":
        sys.stderr.write(f"error: imported cimeval from {cimeval.__file__}\n")
        sys.exit(2)


def _probe(workdir: Path, groups, trace: bool) -> tuple[float, dict | None]:
    """One fresh-interpreter cold start; returns (wall s, traced layers)."""
    groups = [[str(workdir / a) if a.endswith(".yaml") else a for a in g] for g in groups]
    cmd = [sys.executable, str(BENCH / "coldstart.py"), str(SRC), "1" if trace else "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd + [json.dumps(groups)],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        cwd=ROOT,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed: {proc.stderr.strip()}")
    return wall, json.loads(proc.stdout.splitlines()[-1]) if trace else None


def _tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND operations beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Run:
    """State of one benchmark run: the workload, its checks and its tallies."""

    def __init__(self, workload, seed: int, digests: dict):
        self.wl = workload
        self.seed = seed
        self.expected = digests
        self.attempted = 0
        self.failed = 0
        self.seen: dict[int, str] = {}
        self.gaps: dict[int, float] = {}
        self.report_bytes: dict[int, int] = {}

    def op(self, v: int, timed=None):
        """Run and check one operation; returns its wall time, or None if
        it raised.  An operation that fails a check is still timed."""
        self.attempted += 1
        try:
            if timed is None:
                t0 = time.perf_counter()
                out = self.wl.op(v)
                wall = time.perf_counter() - t0
            else:
                out, wall = timed(self.wl.op, v)
            errors = self.wl.check(v, out)
            digest = self.wl.digest(out)
        except Exception as e:  # an operation that raises is a failed operation
            traceback.print_exc()
            errors, digest, wall = [f"{type(e).__name__}: {e}"], None, None
        if digest is not None:
            want = self.expected.get(str(v))
            if digest != want:
                errors.append(f"digest {digest[:12]} differs from recorded {str(want)[:12]}")
            self.seen[v] = digest
            self.report_bytes[v] = self.wl.report_bytes(out)
            gap = self.wl.gap(out)
            if gap is not None:
                self.gaps[v] = gap
        if errors:
            self.failed += 1
            sys.stderr.write(f"{self.wl.name} variant {v}: " + "; ".join(errors) + "\n")
        return wall


def _write_inputs(wl, seed: int) -> tuple[Path, dict[str, Path]]:
    workdir = OUT / f"work-{wl.name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, text in wl.files().items():
        paths[name] = workdir / name
        paths[name].write_text(text, encoding="utf-8")
    return workdir, paths


def _calibrate() -> float:
    """Wall time of a fixed pure-Python loop: the host's speed right now.

    The loop shares no code with cimeval, so no change to the package can
    move it; only the host can.
    """
    t0 = time.perf_counter()
    table = {i: (i, i * 3 % 7, str(i)) for i in range(20_000)}
    total = 0
    for a, b, c in table.values():
        total += a * b + len(c)
    sorted(table, key=lambda k: table[k][1])
    return time.perf_counter() - t0


def _at_reference_speed(timed: list[tuple[float, float, float]]) -> list[float]:
    """Scale each (wall, loop before, loop after) to the reference speed."""
    return [wall * 2.0 * CAL_REF_S / (before + after) for wall, before, after in timed]


def _stats(setup: list[float], times: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(times),
        "op_tail_s": _tail(times)[0],
        "ops_per_s": len(times) / sum(times),
    }


def _end_to_end(run: Run, specs, seconds: float, setup: list[tuple], lines) -> dict:
    """Time operations for `seconds`; `setup` holds the timed cold starts.

    Every time is taken between two calibration loops and scaled to the
    reference host speed by their mean; see README.md.
    """
    timed: list[tuple[float, float, float]] = []
    before = _calibrate()
    t_end = time.perf_counter() + seconds
    k = 0
    while k < len(specs) or time.perf_counter() < t_end:
        wall = run.op(specs[k % len(specs)])
        after = _calibrate()
        if wall is not None:
            timed.append((wall, before, after))
        before = after
        k += 1
    if not timed:
        raise RuntimeError("every operation raised")
    times = [t[0] for t in timed]
    raw = _stats([t[0] for t in setup], times)
    values = _stats(_at_reference_speed(setup), _at_reference_speed(timed))
    raw["peak_rss_mb"] = values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    pct = _tail(times)[1]
    notes = {
        "setup_s": f"median of {len(setup)} cold starts (import + cimeval validate)",
        "op_p50_s": f"median of {len(times)} timed operations",
        "op_tail_s": (
            f"p{pct:.1f}: {TAIL_BEYOND} of {len(times)} operations beyond it"
            if len(times) > TAIL_BEYOND
            else f"maximum: {len(times)} operations are too few for a tail"
        ),
        "ops_per_s": "operations per second of operation time",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    loops = [t[1] for t in timed] + [timed[-1][2]]
    lines.append(
        f"host speed: calibration loop median {statistics.median(loops) * 1e3:.4g} ms, "
        f"reference {CAL_REF_S * 1e3:g} ms"
    )
    lines.append(f"{'metric':<16} {'scaled':<14} {'wall':<14} unit")
    for name, value in values.items():
        lines.append(
            f"{name:<16} {value:<14.6g} {raw[name]:<14.6g} {END_TO_END_UNITS[name]:<6} {notes[name]}"
        )
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def _per_layer(run: Run, specs, seconds: float, setup: list[dict], lines) -> dict:
    from tracing import Tracer

    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    t_start = time.perf_counter()
    op_id = 0
    order = (False, True)
    while True:
        t_pair = time.perf_counter()
        for traced_cycle in order:
            for v in specs:
                if traced_cycle:
                    wall = run.op(v, timed=lambda fn, a: tracer.run_op(op_id, fn, a))
                    op_id += 1
                else:
                    wall = run.op(v)
                if wall is not None:
                    (traced if traced_cycle else untraced).append(wall)
        order = order[::-1]  # so that neither side always runs first
        # stop before a further pair of cycles would overrun the run time
        now = time.perf_counter()
        if now - t_start + (now - t_pair) > seconds:
            break
    n = op_id
    if not traced or not untraced:
        raise RuntimeError("every operation raised")
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{run.wl.name}-seed{run.seed}.json.gz"
    tracer.write(trace_path)

    st, c = tracer.self_time, tracer.counts
    metrics: dict[str, tuple[float, str]] = {}
    for name in tracer.names:  # self time per traced operation
        metrics[f"{name}_s"] = (st[name] / n, "s")
    metrics["engine.scan_per_candidate_us"] = (
        1e6 * st["engine.scan"] / c["engine.candidates"] if c["engine.candidates"] else 0.0,
        "us",
    )
    metrics["engine.oracle_per_point_us"] = (
        1e6 * st["engine.oracle"] / c["engine.oracle_points"]
        if c["engine.oracle_points"]
        else 0.0,
        "us",
    )
    metrics["mapping.valid_ratio"] = (
        c["mapping.valid"] / c["mapping.drawn"] if c["mapping.drawn"] else 0.0,
        "ratio",
    )
    metrics["mapping.drawn"] = (c["mapping.drawn"] / n, "count")
    metrics["mapping.space_total"] = (c["mapping.space_total"] / n, "count")
    metrics["valuemodel.levels_enumerated"] = (c["valuemodel.levels_enumerated"] / n, "count")
    metrics["engine.table_entries"] = (c["engine.table_entries"] / n, "count")
    metrics["cli.report_bytes"] = (
        sum(run.report_bytes[v] for v in specs) / len(specs),
        "count",
    )
    metrics["engine.oracle_gap_max"] = (max(run.gaps.values(), default=0.0), "ratio")
    traced_op = sum(traced) / len(traced)
    metrics["trace.op_s"] = (traced_op, "s")
    metrics["trace.overhead"] = (traced_op / (sum(untraced) / len(untraced)) - 1.0, "ratio")
    for metric, span in SETUP_LAYERS.items():
        metrics[metric] = (statistics.median(p["self_time"][span] for p in setup), "s")
    metrics["setup.import_s"] = (statistics.median(p["import_s"] for p in setup), "s")

    layer_sum = sum(st.values()) / n
    lines.append(
        f"traced {n} operations in {n // len(specs)} cycles; spans in {trace_path.relative_to(ROOT)}"
    )
    lines.append(
        f"layer self times + other = {layer_sum:.6g} s per operation; "
        f"traced operation wall = {traced_op:.6g} s; "
        f"overhead vs untraced {metrics['trace.overhead'][0]:+.2%}"
    )
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:<34} {value:<22.6g} {unit}")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_workload(args) -> int:
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}\n")
        return 2
    wl = WORKLOADS[args.workload](smoke=args.smoke)
    recorded = json.loads(DIGESTS.read_text())
    digests = recorded["smoke" if args.smoke else "full"][wl.name]
    run = Run(wl, args.seed, digests)
    workdir, paths = _write_inputs(wl, args.seed)
    try:
        n_probes = 1 if args.smoke else (TRACED_SETUP_PROBES if args.trace else SETUP_PROBES)
        probes = []
        before = _calibrate()
        for _ in range(n_probes):
            wall, layers = _probe(workdir, wl.groups(), bool(args.trace))
            after = _calibrate()
            probes.append((wall, before, after, layers))
            before = after
        wl.load(paths)
        specs = wl.specs(args.seed)
        if not args.smoke:
            run.op(specs[0])  # warm-up: lazy imports, first-call caches
        lines = [
            f"workload {wl.name}  seed {args.seed}  trace {args.trace}"
            f"{'  smoke' if args.smoke else ''}  variants {specs}"
        ]
        if args.trace:
            metrics = _per_layer(run, specs, args.seconds, [p[3] for p in probes], lines)
        else:
            metrics = _end_to_end(run, specs, args.seconds, [p[:3] for p in probes], lines)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    gap_text = (
        f"{max(run.gaps.values()):.6g} over variants {sorted(run.gaps)}" if run.gaps else "n/a"
    )
    error_rate = run.failed / run.attempted
    lines.append(f"{'error_rate':<16} {error_rate:<22.6g} ratio  {run.failed} failed of {run.attempted} attempted")
    lines.append(f"{'oracle_gap_max':<16} {gap_text}")
    digest_ok = all(run.expected.get(str(v)) == d for v, d in run.seen.items())
    lines.append(
        f"digests: {len(run.seen)} variants {'match' if digest_ok else 'DIFFER FROM'} "
        f"{DIGESTS.relative_to(ROOT)}"
    )
    print("\n".join(lines))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def record_digests() -> int:
    from workloads import WORKLOADS

    doc = {}
    for mode in ("full", "smoke"):
        doc[mode] = {}
        for name, cls in WORKLOADS.items():
            wl = cls(smoke=mode == "smoke")
            workdir, paths = _write_inputs(wl, 0)
            try:
                wl.load(paths)
                table = {}
                for v in range(wl.pool):
                    out = wl.op(v)
                    errors = wl.check(v, out)
                    if errors:
                        sys.stderr.write(f"{mode} {name} variant {v}: {errors}\n")
                        return 1
                    table[str(v)] = wl.digest(out)
                doc[mode][name] = table
                sys.stderr.write(f"recorded {mode} {name}: {len(table)} variants\n")
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_cimeval()
    if args.record_digests:
        return record_digests()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
