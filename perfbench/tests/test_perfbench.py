"""Tests of the benchmark itself: job streams, gates, failure accounting, tracing.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import clock  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402

hypermap = run._import_program()

import gates  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402


@pytest.fixture()
def runner(tmp_path):
    return run.Runner(hypermap, tmp_path)


def cli_job(*argv: str, index: int = 0) -> workloads.Job:
    return workloads.Job(index, 0, argv[0], tuple(argv))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOAD_IDS))
def test_same_seed_same_jobs(workload):
    a = workloads.fixed_jobs(workload, 5, 3)
    assert a == workloads.fixed_jobs(workload, 5, 3)
    assert a != workloads.fixed_jobs(workload, 6, 3)
    assert [job.index for job in a] == list(range(len(a)))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOAD_IDS))
def test_rounds_keep_their_composition(workload):
    jobs = workloads.fixed_jobs(workload, 9, 3)
    kinds = [sorted(job.kind for job in jobs if job.round == r and not job.once) for r in range(3)]
    assert kinds[0] == kinds[1] == kinds[2]


def test_corrupted_theta_digit_trips_gate(runner):
    job = cli_job("field", "--k", "10", "--grid", "4096", "--time", "backward")
    rc, out, _ = runner._cli(list(job.argv))
    assert gates.check(job, rc, out, {}, None).problems == []
    lines = out.splitlines()
    cells = lines[1000].split(",")
    theta = cells[2]
    digit = theta.index(".") + 4
    cells[2] = theta[:digit] + str((int(theta[digit]) + 1) % 10) + theta[digit + 1:]
    lines[1000] = ",".join(cells)
    bad = gates.check(job, rc, "\n".join(lines) + "\n", {}, None)
    assert any("most contracted" in p for p in bad.problems), bad.problems


def test_corrupted_leaf_vertex_trips_gate(runner):
    job = cli_job("leaf", "--k", "3", "--field", "F1", "--x", "0.1", "--y", "0.7",
                  "--max-arc", "1", "--format", "csv")
    rc, out, _ = runner._cli(list(job.argv))
    assert gates.check(job, rc, out, {}, None).problems == []
    lines = out.splitlines()
    seg, x, y = lines[300].split(",")
    lines[300] = ",".join((seg, x, repr(float(y) + 1e-4)))
    assert gates.check(job, rc, "\n".join(lines) + "\n", {}, None).problems


def test_exception_in_job_is_counted_and_run_continues(runner):
    def boom(args):
        raise RuntimeError("injected")

    runner.library["no_tangency_scan"] = boom
    jobs = [workloads.Job(0, 0, "no_tangency_scan", (), (2.0, 256)),
            cli_job("constants", "--k", "2", index=1)]
    records = [runner.run(job) for job in jobs]
    assert records[0].failed and "RuntimeError: injected" in records[0].problems[0]
    assert not records[1].failed
    failed, share = run.failure_share(records)
    assert failed == [records[0]] and share == 0.5


def test_program_verdicts_are_not_failures(runner):
    job = cli_job("cones", "--k", "20", "--m", "3", "--samples", "40000", "--seed", "3",
                  "--inside-strip")
    rec = runner.run(job)
    assert rec.rc == 1 and rec.verdict_fail == 1 and not rec.failed


def test_tracer_restores_the_program(tmp_path):
    before = [getattr(mod, attr) for mod, attr, _ in TARGETS]
    tracer = Tracer()
    with tracer.install():
        assert hypermap.cli.theta_field is not before[3]
        hypermap.cli.run(["constants", "--k", "2", "--out", str(tmp_path / "c.csv")])
    assert [getattr(mod, attr) for mod, attr, _ in TARGETS] == before
    assert tracer.calls("critical_constants") >= 1


def test_benchmark_json_matches_catalogue():
    assert (HERE.parent / "BENCHMARK.json").read_text() == spec.render()
    data = json.loads(spec.render())
    assert data["end_to_end"][0]["name"] == "setup_s"
    assert max(m["bound"] for m in data["end_to_end"]) == data["end_to_end"][0]["bound"]


def test_ledger_flags_changed_output(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    job = cli_job("constants", "--k", "2")

    def record(digest: str) -> run.Record:
        return run.Record(job.index, job.kind, 0.1, 0.1, 0, digest)

    first, same, changed = record("a"), record("a"), record("b")
    run.check_ledger("tables", [job], [first])
    run.check_ledger("tables", [job], [same, changed])
    assert not first.failed and not same.failed and changed.failed


def test_timing_samples_speed_and_survives_exceptions():
    with clock.timed() as timing:
        clock.probe(200_000)  # about 0.1-0.2 s: several timer ticks
    assert len(timing.factors) >= 3
    assert timing.wall > 0 and timing.seconds > 0
    with pytest.raises(ZeroDivisionError):
        with clock.timed() as failed:
            1 / 0
    assert len(failed.factors) == 2 and failed.wall >= 0
    cpus = os.sched_getaffinity(0)
    with clock.timed(cpus) as pooled:
        pass
    assert len(pooled.factors) == 2 * len(cpus)
    assert os.sched_getaffinity(0) == cpus
