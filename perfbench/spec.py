"""The benchmark's catalogue: workloads, end-to-end and per-layer metrics.

BENCHMARK.json at the repository root is generated from this module
(``python3 perfbench/run.py --write-spec``); a test keeps the two equal.
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]

#: ``--seconds`` of a run; workloads.ROUND_SECONDS turns it into rounds.
RUN_SECONDS = 20

WORKLOADS = [
    ("foliage", "leaf jobs over E1/F1/E-1/F-1 plus one figures job: sequential RK4 in "
                "foliations and SVG assembly dominate; tangency and cone code stay idle"),
    ("tables", "constants, field and tangency tables plus library no-tangency scans: bulk "
               "field evaluation, gamma and CSV formatting; no leaf tracing"),
    ("hyperbolic", "threaded cone sweeps, verify batteries and orbit/frame library calls: the "
                   "only vectorised path plus scalar stdmap and oracle work"),
]

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change is rejected.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("round_s", "s", "lower", 0.24),
    ("jobs_per_s", "1/s", "higher", 0.24),
    ("job_p50_s", "s", "lower", 0.24),
    ("job_tail_s", "s", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.2),
]

#: (name, unit, better).  Layers are the modules of ``hypermap``.
PER_LAYER = [
    ("foliations.trace_leaf_s", "s", "lower"),
    ("foliations.us_per_vertex", "us", "lower"),
    ("foliations.vertices", "count", "lower"),
    ("foliations.near_closed_share", "ratio", "lower"),
    ("svgrender.s", "s", "lower"),
    ("svgrender.us_per_point", "us", "lower"),
    ("svgrender.bytes", "B", "lower"),
    ("tangency.curve_us_per_sample", "us", "lower"),
    ("tangency.scan_ns_per_cell", "ns", "lower"),
    ("tangency.scan_s", "s", "lower"),
    ("tangency.gamma_us", "us", "lower"),
    ("coordinates.critical_constants_us", "us", "lower"),
    ("coordinates.theta_field_ns", "ns", "lower"),
    ("hyperbolicity.cone_ns_per_sample", "ns", "lower"),
    ("hyperbolicity.cone_ns_per_sample_1w", "ns", "lower"),
    ("hyperbolicity.cone_1w_over_2w", "ratio", "higher"),
    ("hyperbolicity.samples", "count", "higher"),
    ("hyperbolicity.norm_failures", "count", "lower"),
    ("hyperbolicity.orbit_us_per_step", "us", "lower"),
    ("oracle.svd2_ns", "ns", "lower"),
    ("stdmap.map_roundtrip_ns", "ns", "lower"),
    ("stdmap.orbit_jacobian_us", "us", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "B", "lower"),
    ("cli.csv_rows", "count", "higher"),
    ("cli.verdict_fail", "count", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


def write(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(render(), encoding="utf-8")
    return path
