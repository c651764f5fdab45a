"""Seeded job streams for the three workloads.

A run is a closed loop with one client: it executes a fixed number of rounds
of jobs, each job only after the previous one finished.  A round is a complete
balanced design: every *cell* (a fixed combination of the discrete choices,
such as leaf field and arc length) at each of ``LEVELS`` quadrature levels
of its continuous parameters.  Level l of a parameter drawn log-uniformly
on [lo, hi] sits at u = (l + 1/2 + j) / LEVELS on the log scale, with a
seeded jitter |j| <= 0.02, and the levels of different parameters of a cell
are paired by rotation.  Every round therefore covers each range evenly and
costs about the same, whatever the seed; the seed moves the jitter, start
points, formats, sweep seeds and the order of the jobs.  Job costs are
heavy-tailed in k (leaf tracing creeps along closed leaves at a rate that
falls like 1/k), so independent draws would make the work of a run depend
on a handful of jobs.  The program only ever sees the generated inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

WORKLOAD_IDS = {"foliage": 1, "tables": 2, "hyperbolic": 3}

LEAF_FIELDS = ("E1", "F1", "E-1", "F-1")
LEAF_ARCS = (1.0, 2.5, 5.0)
CONE_MS = (2, 3, 5, 10)
LEVELS = 4
_JITTER = 0.02

#: Busy seconds of one round on the machine the benchmark was tuned on (2
#: vCPUs, Intel Xeon, Python 3.11, numpy 2.4).  An untraced run of
#: ``--seconds s`` executes round(s / ROUND_SECONDS) rounds, at least one, so
#: the same seed and seconds always give the same jobs, and a faster program
#: finishes the same work sooner.
ROUND_SECONDS = {"foliage": 10.0, "tables": 10.0, "hyperbolic": 3.3}

#: Rounds in the fixed job set of a traced run.
TRACE_ROUNDS = {"foliage": 1, "tables": 1, "hyperbolic": 2}

#: The frozen no-tangency scan minima at grid 256 (the SCAN_FIXTURE of the
#: test suite), checked by two fixed scan jobs in the first tables round.
SCAN_FIXTURE = {2.0: 0.5999198651748792, 10.0: 0.5413487062708713}


@dataclass(frozen=True)
class Job:
    """One operation: a CLI invocation (``argv``) or a library call (``args``)."""

    index: int
    round: int
    kind: str
    argv: tuple[str, ...] = ()
    args: tuple = ()
    #: Runs once per run (figure set, fixture scans, negative control);
    #: left out of the per-round wall time.
    once: bool = False

    @property
    def is_cli(self) -> bool:
        return bool(self.argv)


def _g(v: float) -> str:
    return f"{v:.6g}"


class _Levels:
    """Jittered quadrature levels on a log scale, drawn from one round's generator."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def unit(self, level: int) -> float:
        """Jittered level on [0, 1]."""
        return (level % LEVELS + 0.5 + self.rng.uniform(-_JITTER, _JITTER)) / LEVELS

    def __call__(self, lo: float, hi: float, level: int) -> float:
        """Jittered level on [lo, hi], log scale."""
        return lo * (hi / lo) ** self.unit(level)


def _foliage(lv: _Levels, r: int) -> list[tuple]:
    specs: list[tuple] = []
    for c, (field, arc) in enumerate((f, a) for f in LEAF_FIELDS for a in LEAF_ARCS):
        for level in range(LEVELS):
            # The field depends on one coordinate (y forward, ytilde backward),
            # and where a leaf starts in it decides how soon it reaches a closed
            # leaf and creeps; so that coordinate is a level too, paired with k
            # by rotation, and the other coordinate is uniform.
            x = lv.rng.random()
            coord = lv.unit(level + c)
            y = coord if field in ("E1", "F1") else (x + coord) % 1.0
            fmt = ("csv", "svg")[(c + level + r) % 2]
            specs.append(("leaf", ("leaf", "--k", _g(lv(0.5, 30.0, level)), "--field", field,
                                   "--x", f"{x:.6f}", "--y", f"{y:.6f}",
                                   "--max-arc", f"{arc:g}", "--format", fmt), (), False))
    if r == 0:
        # One figure set per run.  k stays in [0.9, 1.1]: the set traces 26
        # leaves, so its cost grows with k, and k = 30 would outlast a round.
        k = lv.rng.uniform(0.9, 1.1)
        specs.append(("figures", ("figures", "--k", _g(k)), (), True))
    return specs


def _tables(lv: _Levels, r: int) -> list[tuple]:
    specs: list[tuple] = []
    for level in range(LEVELS):
        def k(shift: int) -> str:
            return _g(lv(0.5, 200.0, level + shift))

        def grid(lo: int, hi: int) -> str:
            return str(int(round(lv(lo, hi, level))))

        km = k(1)
        ms = [m for m in CONE_MS if m < float(km)]
        with_m = ("--m", str(ms[(r + level) % len(ms)])) if ms else ()
        specs += [
            ("constants", ("constants", "--k", k(0)), (), False),
            ("constants", ("constants", "--k", km) + with_m, (), False),
            ("field", ("field", "--k", k(2), "--grid", grid(2**14, 2**17), "--time", "forward"), (), False),
            ("field", ("field", "--k", k(3), "--grid", grid(2**14, 2**17), "--time", "backward"), (), False),
            ("tangency", ("tangency", "--k", k(1), "--grid", grid(1024, 8192)), (), False),
            ("tangency", ("tangency", "--k", k(2), "--grid", grid(1024, 8192), "--format", "svg"), (), False),
            ("no_tangency_scan", (), (float(k(3)), int(grid(256, 1024))), False),
            ("tangency_landmarks", (),
             tuple(float(_g(lv(0.5, 200.0, level + j))) for j in range(LEVELS)), False),
        ]
    if r == 0:
        specs += [("no_tangency_scan", (), (kf, 256), True) for kf in SCAN_FIXTURE]
    return specs


def _hyperbolic(lv: _Levels, r: int) -> list[tuple]:
    rng = lv.rng
    specs: list[tuple] = []
    for c, m in enumerate(CONE_MS):
        for level in range(LEVELS):
            k = lv(max(5.0, 1.01 * m), 200.0, level + c)
            samples = int(round(lv(1e6, 4e6, level)))
            specs.append(("cones", ("cones", "--k", _g(k), "--m", str(m), "--samples", str(samples),
                                    "--seed", str(int(rng.integers(2**31)))), (), False))
    if r == 0:
        m = CONE_MS[int(rng.integers(len(CONE_MS)))]
        k = lv(max(5.0, 1.01 * m), 200.0, int(rng.integers(LEVELS)))
        specs.append(("cones", ("cones", "--k", _g(k), "--m", str(m), "--samples", "1000000",
                                "--seed", str(int(rng.integers(2**31))), "--inside-strip"), (), True))
    # 3 to 5 k values, the last one always at k >= 50.
    n = 3 + r % 3
    ks = [lv(0.5, 200.0, j) for j in range(n - 1)] + [lv(50.0, 200.0, r)]
    specs.append(("verify", ("verify", "--k-list", ",".join(_g(k) for k in ks)), (), False))

    lo, hi = math.atan(0.5), math.atan(2.0)
    pts = rng.random((128, 3))
    specs.append(("orbit_expansion", (), tuple(
        (float(_g(lv(5.0, 200.0, j))), float(pts[j, 0]), float(pts[j, 1]),
         lo + (hi - lo) * (0.01 + 0.98 * float(pts[j, 2])), 24) for j in range(128)), False))

    pts = rng.random((512, 2))
    orders = rng.integers(1, 9, 512) * rng.choice((-1, 1), 512)
    specs.append(("hyperbolic_frame", (), tuple(
        (float(_g(lv(0.5, 200.0, j))), float(pts[j, 0]), float(pts[j, 1]), int(orders[j]))
        for j in range(512)), False))
    return specs


_ROUND_SPECS = {"foliage": _foliage, "tables": _tables, "hyperbolic": _hyperbolic}


def rounds(workload: str, seed: int) -> Iterator[list[Job]]:
    """The endless job stream of a workload, one round (shuffled) at a time."""
    index = 0
    r = 0
    while True:
        rng = np.random.default_rng([seed, WORKLOAD_IDS[workload], r])
        specs = _ROUND_SPECS[workload](_Levels(rng), r)
        out = []
        for i in rng.permutation(len(specs)):
            kind, argv, args, once = specs[i]
            out.append(Job(index, r, kind, argv, args, once))
            index += 1
        yield out
        r += 1


def fixed_jobs(workload: str, seed: int, n_rounds: int) -> list[Job]:
    """The first ``n_rounds`` rounds of the stream, flattened."""
    stream = rounds(workload, seed)
    return [job for _ in range(n_rounds) for job in next(stream)]


def run_rounds(workload: str, seconds: float) -> int:
    """Rounds of an untraced run of ``seconds``."""
    return max(1, round(seconds / ROUND_SECONDS[workload]))
