"""Self-tests of the benchmark's own code; a few seconds in all.

    python3 perfbench/selftest.py

The file name keeps pytest from collecting these with the package tests.
"""

from __future__ import annotations

import json
import tempfile
import traceback
from pathlib import Path

import program

cli = program.load()

import hostspeed  # noqa: E402
import metrics  # noqa: E402  (needs the package on the path)
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from infospread import fundstats, netdiff  # noqa: E402

BENCHMARK = json.loads((program.ROOT / "BENCHMARK.json").read_text())


def _job(workload: str, key: str, inputs: Path) -> workloads.Job:
    for job in workloads.WORKLOADS[workload].jobs(inputs, 0):
        if job.key == key:
            return job
    raise LookupError(key)


def _verify(job: workloads.Job, out: Path, code, checker) -> str | None:
    """The verdict on one run: recorded, then checked by its oracle."""
    reason = checker.record([(job, out, code)])[0]
    return reason or checker.check().get(job.key)


def _run(job: workloads.Job, out: Path, checker) -> str | None:
    workloads.clear(out)
    return _verify(job, out, cli.main(job.argv_in(out)), checker)


def test_metric_names_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == metrics.E2E
    assert layer == {name: unit for name, (unit, _) in metrics.PER_LAYER.items()}
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == \
        {name: w.why for name, w in workloads.WORKLOADS.items()}

    values, notes = metrics.e2e_metrics([1.0, 2.0], [0.1] * 12, [0.5] * 3, 60.0)
    assert list(values) == list(e2e) and list(notes) == list(e2e)
    spans = [tracing.Span("cli.run", "p.0", None, 0.0, 1.0)]
    per_pass = metrics.pass_layer_metrics(spans, files_out=2, bytes_out=10, scale=1.0)
    assert set(metrics.layer_metrics([per_pass], 0.1)) == set(layer)
    assert per_pass["gossip.simulate_s"] == 0.0  # a layer not called reads 0


def test_tail_is_highest_percentile_with_ten_samples_above():
    assert metrics.tail([float(k) for k in range(12)]) == (1.0, 100.0 * 2 / 12)
    assert metrics.tail([float(k) for k in range(100)]) == (89.0, 90.0)


def test_repeat_setups_spread_over_the_run():
    assert run.setup_schedule(6, 5) == [0, 1, 1, 1, 1, 0]
    assert run.setup_schedule(4, 5) == [1, 1, 1, 1]
    assert run.setup_schedule(3, 1) == [0, 0, 0]


def test_host_scale_turns_wall_time_into_reference_seconds():
    gauge = hostspeed.Gauge()
    gauge.samples = [2 * hostspeed.REFERENCE_S] * 3 + [9.0]
    assert gauge.scale() == 0.5  # the host ran at half the reference speed
    assert gauge.samples == []
    spans = [tracing.Span("cli.run", "p.0", None, 0.0, 2.0),
             tracing.Span("fundstats.ingest_csv", "p.0", 0, 0.5, 1.5, {"rows": 10})]
    layer = metrics.pass_layer_metrics(spans, files_out=1, bytes_out=10, scale=0.5)
    assert layer["fundstats.ingest_s"] == 0.5 and layer["cli.self_s"] == 0.5
    assert layer["fundstats.rows"] == 10  # counts are not scaled


def test_trace_overhead_cancels_drift():
    # Untraced passes slow down steadily; tracing adds nothing.
    walls = [1.0, 1.5, 2.0, 2.5, 3.0]
    traced = [False, True, False, True, False]
    assert metrics.paired_overhead(walls, traced) == [0.0, 0.0]
    # A last traced pass has one neighbour.
    assert metrics.paired_overhead([1.0, 2.0, 1.0, 2.0], [False, True] * 2) == [1.0, 1.0]


def test_corrupted_outputs_count_as_failed():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        # A pinned digest and the repeat-run digest both catch a corrupt byte.
        tiny = _job("fund-reports", "tiny-00-summarize-category", tmp)
        checker = workloads.Checker(tmp / "held")
        assert _run(tiny, tmp / "tiny", checker) is None
        with open(tmp / "tiny" / "report.csv", "a") as fh:
            fh.write("0")
        assert "pinned" in _verify(tiny, tmp / "tiny", 0,
                                   workloads.Checker(tmp / "held-2"))
        assert "differ" in _verify(tiny, tmp / "tiny", 0, checker)
        (tmp / "tiny" / "report.csv").unlink()
        assert "missing" in _verify(tiny, tmp / "tiny", 0, checker)
        assert "exit status 1" == _verify(tiny, tmp / "tiny", 1, checker)

        # An oracle catches a wrong value in a float trajectory.
        sir = _job("field-dynamics", "sir", tmp)
        assert _run(sir, tmp / "sir", workloads.Checker(tmp / "held-3")) is None
        path = tmp / "sir" / "sir.csv"
        lines = path.read_text().splitlines()
        t, s, i, r = lines[-1].split(",")
        # Moved from R to S, so S+I+R still holds and only the final size fails.
        lines[-1] = ",".join([t, repr(float(s) + 1e-3), i, repr(float(r) - 1e-3)])
        path.write_text("\n".join(lines) + "\n")
        assert "final S" in _verify(sir, tmp / "sir", 0, workloads.Checker(tmp / "held-4"))

        # The oracle judges the first run's bytes even after a later pass
        # has cleared and rewritten the job's directory.
        checker = workloads.Checker(tmp / "held-5")
        assert checker.record([(sir, tmp / "sir", 0)]) == [None]
        workloads.clear(tmp / "sir")
        code = cli.main(sir.argv_in(tmp / "sir"))
        assert "differ" in checker.record([(sir, tmp / "sir", code)])[0]
        assert "final S" in checker.check()["sir"]


def test_child_self_times_never_exceed_parent_span():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        netdiff.write_network_csv(
            tmp / "net.csv", netdiff.generate_random_network(60, 0.1, 3))
        original = netdiff.hearing_matrix
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert cli.main(["network", "centrality", "--network", str(tmp / "net.csv"),
                             "--horizon", "4", "--out", str(tmp / "dc.csv"),
                             "--quiet"]) == 0
            assert cli.main(["funds", "provinces", "--out", str(tmp / "p.csv"),
                             "--quiet"]) == 0
        finally:
            tracer.uninstall()
    assert netdiff.hearing_matrix is original
    spans = tracer.spans
    names = {s.name for s in spans}
    assert {"cli.run", "netdiff.centrality_report", "netdiff.hearing_matrix",
            "fundstats.ingest_csv", "fundstats.province_report"} <= names
    own = tracing.self_times(spans)
    for k, span in enumerate(spans):
        children = [c for c in spans if c.parent == k]
        assert 0.0 <= own[k] <= span.duration
        assert sum(c.duration for c in children) <= span.duration
        assert all(span.start <= c.start and c.end <= span.end for c in children)
    hearing = next(s for s in spans if s.name == "netdiff.hearing_matrix")
    assert spans[hearing.parent].name == "netdiff.centrality_report"
    assert hearing.counts == {"flops": 2 * 60 ** 3 * 3}


def test_fund_generator_passes_ingest():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "funds.csv"
        workloads.write_fund_csv(path, 2000, 7)
        assert len(fundstats.ingest_csv(path)) == 2000


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception:  # report every failing test, then fail the run
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
