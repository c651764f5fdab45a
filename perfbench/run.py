"""Benchmark of hypermap: three seeded workloads, oracle-gated outputs, traced layers.

Usage (from the repository root):

    python3 perfbench/run.py --workload foliage --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --write-spec        # regenerate BENCHMARK.json

The program is imported from ``src/`` next to this directory.  With
``--trace 0`` the run is a closed loop with one client over the rounds of
jobs that ``--seconds`` buys on the reference machine (see workloads.py),
and the end-to-end metrics are printed.  With ``--trace 1`` a fixed, seed-determined
job set runs twice, untraced and then traced, and the per-layer metrics are
printed.  Job times are CPU times, speed-normalised against a probe of the
machine's speed taken around and during each job (clock.py).  Every job's output goes
through the gate in gates.py.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Fresh interpreters timed for setup_s (after one that warms the byte-code cache).
SETUP_REPEATS = 11
#: vCPUs whose speed a cone sweep's time depends on: its pool has
#: min(cpu count, chunks) workers (clock.py).
THREADED_CPUS = os.sched_getaffinity(0)

SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import hypermap, hypermap.cli"


def _import_program():
    sys.path.insert(0, str(SRC))
    try:
        import hypermap
        import hypermap.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import hypermap from {SRC}: {exc}")
    if not Path(hypermap.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: hypermap was imported from {hypermap.__file__}, not from {SRC}")
    return hypermap


@dataclass
class Record:
    """One executed job: timing, exit code, digest and gate verdict."""

    index: int
    kind: str
    #: Speed-normalised CPU seconds of the call (clock.py); ``wall`` is its wall time.
    seconds: float
    wall: float
    rc: int | None
    digest: str
    problems: list[str] = field(default_factory=list)
    csv_rows: int = 0
    verdict_fail: int = 0
    output_bytes: int = 0
    self_seconds: float = 0.0

    @property
    def failed(self) -> bool:
        return bool(self.problems)


class Runner:
    """Executes jobs in this process, gates their outputs and keeps the records."""

    def __init__(self, hypermap, workdir: Path):
        import gates

        self.hm = hypermap
        self.gates = gates
        self.workdir = workdir
        self.library = {
            "no_tangency_scan": lambda a: hypermap.no_tangency_scan(hypermap.MapParams(a[0]), a[1]),
            "tangency_landmarks": lambda a: [
                hypermap.tangency_landmarks(hypermap.MapParams(k)) for k in a],
            "orbit_expansion": lambda a: [
                hypermap.orbit_expansion(hypermap.TorusPoint(x, y), th, hypermap.MapParams(k), 2, n)
                for k, x, y, th, n in a],
            "hyperbolic_frame": lambda a: [
                hypermap.hyperbolic_frame(hypermap.TorusPoint(x, y), hypermap.MapParams(k), n)
                for k, x, y, n in a],
        }

    def _cli(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.hm.cli.run(argv)
        return rc, out.getvalue(), err.getvalue()

    def run(self, job, tracer=None) -> Record:
        argv = list(job.argv)
        figdir = self.workdir / f"figures-{job.index}"
        if job.kind == "figures":
            argv += ["--out", str(figdir)]
        if job.is_cli:
            call, arg, name = self._cli, argv, "cli.run"
        else:
            call, arg, name = self.library[job.kind], job.args, f"lib.{job.kind}"
        rc, out, err, files, result, error = None, "", "", {}, None, None
        self_seconds = 0.0
        gc.collect()  # no job pays for collecting its predecessors' garbage
        try:
            with clock.timed(THREADED_CPUS if job.kind == "cones" else None) as timing:
                if tracer is None:
                    value = call(arg)
                else:
                    value, _, self_seconds = tracer.root(name, job.index, call, arg)
        except Exception:  # noqa: BLE001 - a job's exception is a counted failure, not an abort
            error = traceback.format_exc()
        else:
            if job.is_cli:
                rc, out, err = value
            else:
                result = value
        if job.kind == "figures" and figdir.is_dir():
            files = {p.name: p.read_text(encoding="utf-8") for p in sorted(figdir.iterdir())}
            shutil.rmtree(figdir)
        h = hashlib.sha256(f"{rc}\n{out.replace(str(figdir), '<out>')}\n{result!r}".encode())
        for fname, text in files.items():
            h.update(f"\n{fname}\n{text}".encode())
        rec = Record(job.index, job.kind, timing.seconds, timing.wall, rc, h.hexdigest(),
                     self_seconds=self_seconds)
        if error is not None:
            rec.problems.append("uncaught exception:\n" + error)
        elif rc is not None and rc not in (0, 1, 2):
            rec.problems.append(f"exit code {rc}")
        else:
            v = self.gates.check(job, rc, out, files, result)
            rec.problems += v.problems
            rec.csv_rows, rec.verdict_fail, rec.output_bytes = v.csv_rows, v.verdict_fail, v.output_bytes
        if rec.problems and err:
            rec.problems.append("stderr: " + err.strip())
        return rec


# ---------------------------------------------------------------------------
# Metadata, setup time, digests across runs
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args, numpy_version: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "HYPERMAP_THREADS": os.environ.get("HYPERMAP_THREADS", "unset"),
        "loadavg_before": os.getloadavg(),
    }


def time_setup() -> float:
    """CPU seconds (user + system) of a fresh interpreter that imports hypermap and exits.

    CPU time of the child, like job time (clock.py), so that steal does not
    count; not speed-normalised: start-up is process creation and loading
    shared libraries in another process, and scaling it by a probe in this
    one made the spread of the repeats wider, not narrower.
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime


def _source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hypermap").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_ledger(workload: str, jobs: list, records: list[Record]) -> None:
    """Flag outputs that differ from earlier runs of the same job on the same source,
    and add this run's digests to the ledger."""
    path = OUT / "ledger" / f"{workload}-{_source_hash()}.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    by_index = {job.index: job for job in jobs}
    for rec in records:
        job = by_index[rec.index]
        key = hashlib.sha256(repr((job.kind, job.argv, job.args)).encode()).hexdigest()
        if key in seen and seen[key] != rec.digest:
            rec.problems.append("output differs from an earlier run of the same job")
        elif not rec.failed:  # a failed job's output is no reference
            seen[key] = rec.digest
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(seen, sort_keys=True))


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------


def failure_share(records: list[Record]) -> tuple[list[Record], float]:
    """Failed jobs (exceptions, stray exit codes, gate mismatches) and their share."""
    failed = [rec for rec in records if rec.failed]
    return failed, len(failed) / len(records)


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least 10 jobs beyond it."""
    s = sorted(times)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def run_untraced(runner: Runner, args, notes: list[str]) -> tuple[list, list[Record], dict]:
    from workloads import fixed_jobs, run_rounds

    jobs = fixed_jobs(args.workload, args.seed, run_rounds(args.workload, args.seconds))
    time_setup()  # warms the byte-code cache
    # The start-ups are spread over the run, between jobs, so that their
    # median spans the machine's slow and fast stretches, not one of them.
    every = max(1, len(jobs) // SETUP_REPEATS)
    setup: list[float] = []
    records = []
    for i, job in enumerate(jobs):
        if i % every == 0 and len(setup) < SETUP_REPEATS:
            setup.append(time_setup())
        records.append(runner.run(job))
    notes.append(f"setup_s median of {len(setup)} fresh interpreters: "
                 + ", ".join(f"{t:.4f}" for t in setup))
    round_seconds: dict[int, float] = {}
    for job, rec in zip(jobs, records):
        if not job.once:
            round_seconds[job.round] = round_seconds.get(job.round, 0.0) + rec.seconds
    times = [rec.seconds for rec in records]
    tail_value, pct = tail(times)
    notes.append(f"job_tail_s is p{pct:.1f} of {len(times)} jobs; round_s is the median busy "
                 f"time of {len(round_seconds)} rounds")
    walls = [rec.wall for rec in records]
    notes.append(f"job times are speed-normalised CPU seconds (clock.py); wall time as timed: "
                 f"jobs {sum(walls):.4f} s, p50 {statistics.median(walls):.6g} s, "
                 f"normalised over wall {sum(times) / sum(walls):.4f}")
    metrics = {
        "setup_s": statistics.median(setup),
        "round_s": statistics.median(round_seconds.values()),
        "jobs_per_s": len(times) / sum(times),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return jobs, records, metrics


class LayerCounts:
    """Result hooks: work counts at the layer boundaries of the traced pass."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.vertices = 0
        self.near_closed = 0
        self.curve_samples = 0
        self.scan_cells = 0
        self.cone_calls: list[tuple[int, int, bool, int]] = []  # job, samples, inside, norm failures
        self.orbit_steps = 0
        self.svg_points = 0
        self.svg_bytes = 0

    def hooks(self) -> dict:
        return {
            "trace_leaf": self._leaf,
            "tangency_curve": lambda a, kw, r: self._add("curve_samples", a[1]),
            "no_tangency_scan": lambda a, kw, r: self._add("scan_cells", a[1] * a[1]),
            "verify_cones": self._cones,
            "orbit_expansion": lambda a, kw, r: self._add("orbit_steps", r.steps),
            "polyline": lambda a, kw, r: self._add("svg_points", len(a[0])),
            "document": lambda a, kw, r: self._add("svg_bytes", len(r)),
        }

    def _add(self, name: str, n: int) -> None:
        setattr(self, name, getattr(self, name) + n)

    def _leaf(self, args, kwargs, leaf) -> None:
        import numpy as np

        k = args[2].k
        delta_star = math.acos(-1.0 / (4.0 * math.pi * k)) / (2.0 * math.pi)
        pts = leaf.points
        if leaf.field_id in ("E1", "F1"):
            dist = np.abs(pts[:, 1] - 0.5) - abs(0.5 - delta_star)  # lines y = delta*, 1 - delta*
        else:  # diagonals ytilde = delta*, 1 - delta*, at perpendicular distance
            dist = (np.abs((pts[:, 1] - pts[:, 0]) % 1.0 - 0.5) - abs(0.5 - delta_star)) / math.sqrt(2.0)
        self.vertices += len(pts)
        self.near_closed += int(np.count_nonzero(np.abs(dist) < 2e-3))

    def _cones(self, args, kwargs, report) -> None:
        inside = kwargs.get("inside_strip", args[4] if len(args) > 4 else False)
        self.cone_calls.append((self.tracer.job_id, args[2], inside, report.norm_failures))


def run_traced(runner: Runner, args, notes: list[str]) -> tuple[list, list[Record], dict]:
    from tracing import Tracer
    from workloads import TRACE_ROUNDS, fixed_jobs

    jobs = fixed_jobs(args.workload, args.seed, TRACE_ROUNDS[args.workload])
    plain = [runner.run(job) for job in jobs]

    tracer = Tracer()
    counts = LayerCounts(tracer)
    tracer.hooks = counts.hooks()
    with tracer.install():
        traced = [runner.run(job, tracer) for job in jobs]
    for a, b in zip(plain, traced):
        if a.digest != b.digest:
            b.problems.append("output differs between the untraced and the traced pass")

    # Single-worker baseline of the cone sweeps; outputs must not depend on it.
    cone_jobs = [job for job in jobs if job.kind == "cones"]
    single = Tracer()
    old = os.environ.get("HYPERMAP_THREADS")
    os.environ["HYPERMAP_THREADS"] = "1"
    try:
        with single.install():
            one_worker = [runner.run(job, single) for job in cone_jobs]
    finally:
        if old is None:
            del os.environ["HYPERMAP_THREADS"]
        else:
            os.environ["HYPERMAP_THREADS"] = old
    by_index = {rec.index: rec for rec in plain}
    for rec in one_worker:
        if rec.digest != by_index[rec.index].digest:
            rec.problems.append("cones output differs between 1 and the default worker count")

    cone_ids = {job.index for job in cone_jobs}
    cone_samples = sum(n for job_id, n, _, _ in counts.cone_calls if job_id in cone_ids)
    cone_2w = sum(t1 - t0 for name, t0, t1, _, job_id in tracer.spans
                  if name == "verify_cones" and job_id in cone_ids)
    ns_2w = 1e9 * cone_2w / cone_samples if cone_samples else 0.0
    ns_1w = 1e9 * single.total("verify_cones") / cone_samples if cone_samples else 0.0
    if cone_samples:
        notes.append(f"cone_1w_over_2w base: {ns_2w:.4g} ns/sample with the default pool "
                     f"({os.cpu_count()} cpus) over {cone_samples} samples in {len(cone_jobs)} sweeps")

    svg_s = sum(tracer.total(n) for n in ("polyline", "line", "hband", "circle", "document"))
    leaf_s = tracer.total("trace_leaf")
    scan_s = tracer.total("no_tangency_scan")
    wall_plain = sum(rec.seconds for rec in plain)
    wall_traced = sum(rec.seconds for rec in traced)
    cli = [rec for job, rec in zip(jobs, traced) if job.is_cli]

    def per(total: float, n: int, scale: float) -> float:
        return scale * total / n if n else 0.0

    metrics = {
        "foliations.trace_leaf_s": leaf_s,
        "foliations.us_per_vertex": per(leaf_s, counts.vertices, 1e6),
        "foliations.vertices": counts.vertices,
        "foliations.near_closed_share": per(counts.near_closed, counts.vertices, 1.0),
        "svgrender.s": svg_s,
        "svgrender.us_per_point": per(svg_s, counts.svg_points, 1e6),
        "svgrender.bytes": counts.svg_bytes,
        "tangency.curve_us_per_sample": per(tracer.total("tangency_curve"), counts.curve_samples, 1e6),
        "tangency.scan_ns_per_cell": per(scan_s, counts.scan_cells, 1e9),
        "tangency.scan_s": scan_s,
        "tangency.gamma_us": 1e6 * tracer.mean("gamma"),
        "coordinates.critical_constants_us": 1e6 * tracer.mean("critical_constants"),
        "coordinates.theta_field_ns": 1e9 * tracer.mean("theta_field"),
        "hyperbolicity.cone_ns_per_sample": ns_2w,
        "hyperbolicity.cone_ns_per_sample_1w": ns_1w,
        "hyperbolicity.cone_1w_over_2w": ns_1w / ns_2w if ns_2w else 0.0,
        "hyperbolicity.samples": sum(n for _, n, _, _ in counts.cone_calls),
        "hyperbolicity.norm_failures": sum(f for _, _, inside, f in counts.cone_calls if not inside),
        "hyperbolicity.orbit_us_per_step": per(tracer.total("orbit_expansion"), counts.orbit_steps, 1e6),
        "oracle.svd2_ns": 1e9 * tracer.mean("svd2"),
        "stdmap.map_roundtrip_ns": 1e9 * (tracer.mean("map_forward") + tracer.mean("map_inverse")),
        "stdmap.orbit_jacobian_us": 1e6 * tracer.mean("orbit_jacobian"),
        "cli.self_s": sum(rec.self_seconds for rec in cli),
        "cli.output_bytes": sum(rec.output_bytes for rec in traced),
        "cli.csv_rows": sum(rec.csv_rows for rec in traced),
        "cli.verdict_fail": sum(rec.verdict_fail for rec in traced),
        "trace.overhead_share": wall_traced / wall_plain - 1.0,
    }
    notes.append(f"traced pass: {len(jobs)} jobs, {wall_traced:.4f} s traced vs {wall_plain:.4f} s untraced")
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    return jobs, plain + traced + one_worker, metrics


# ---------------------------------------------------------------------------


def _parse(argv: list[str] | None) -> argparse.Namespace:
    import workloads

    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(workloads.WORKLOAD_IDS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = p.parse_args(argv)
    if not args.write_spec and args.workload is None:
        p.error("--workload is required")
    return args


def main(argv: list[str] | None = None) -> int:
    import spec

    args = _parse(argv)
    if args.write_spec:
        print(spec.write(ROOT))
        return 0
    if args.seconds is None:
        args.seconds = spec.RUN_SECONDS
    # Job time is CPU time of the process (clock.py): no idle BLAS thread may
    # spin in it.  hypermap makes no BLAS calls; the gates' 2x2 SVDs need none.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    hypermap = _import_program()
    import numpy as np

    meta = metadata(args, np.__version__)
    OUT.mkdir(parents=True, exist_ok=True)
    runner = Runner(hypermap, OUT / "work")
    # Warm-up: first calls pay for lazy imports and cold caches.
    runner._cli(["field", "--k", "1", "--grid", "64"])

    notes: list[str] = []
    if args.trace:
        jobs, records, metrics = run_traced(runner, args, notes)
        names = spec.PER_LAYER
    else:
        jobs, records, metrics = run_untraced(runner, args, notes)
        names = spec.END_TO_END
    check_ledger(args.workload, jobs, records)

    failed, meta["fail_share"] = failure_share(records)
    meta["loadavg_after"] = os.getloadavg()
    print("# meta " + json.dumps(meta))
    for note in notes:
        print("# " + note)
    for rec in failed:
        print(f"# FAILED job {rec.index} ({rec.kind}): " + " | ".join(rec.problems).replace("\n", " / "))
    for name, *_ in names:
        print(f"{name} {metrics[name]:.6g} {spec.UNITS[name]}")
    print(f"fail_share {meta['fail_share']:.6g} ratio ({len(failed)} of {len(records)} jobs)")
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "meta": meta, "notes": notes, "metrics": metrics,
        "jobs": [{"index": r.index, "kind": r.kind, "seconds": r.seconds, "wall": r.wall, "rc": r.rc,
                  "digest": r.digest, "problems": r.problems} for r in records],
    }, indent=1))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": spec.UNITS[name]} for name, *_ in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
