"""Tests of the benchmark's own machinery: span self times, span linking
across the thread pool, tracer transparency, the spectrum oracle and the
seeded command lists.

Run with: python3 -m pytest perfbench/tests
"""

import shutil
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import oracles
import tracing
import workloads
from hnaufbau import cli, verify


def _span(sid, parent, start, end, name="aufbau.x", thread=1):
    return (sid, parent, name, thread, start, end)


def test_self_time_of_nested_spans():
    spans = [
        _span(1, 0, 0.0, 10.0),
        _span(2, 1, 2.0, 5.0),
        _span(3, 1, 4.0, 8.0),  # overlaps its sibling: covered once
        _span(4, 2, 3.0, 4.0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(4.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(4.0)
    assert selfs[4] == pytest.approx(1.0)


def test_self_time_of_threaded_children_counts_overlap_once():
    spans = [
        _span(1, 0, 0.0, 10.0, thread=1),
        _span(2, 1, 1.0, 6.0, thread=2),
        _span(3, 1, 3.0, 9.0, thread=3),
        _span(4, 1, 9.5, 12.0, thread=2),  # outlives its parent: clipped
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 8.0 - 0.5)


def test_union_length_clips_and_merges():
    assert tracing.union_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert tracing.union_length([(-1, 2), (9, 20)], 0, 10) == 3
    assert tracing.union_length([], 0, 10) == 0


def test_executor_tasks_link_to_the_submitting_span():
    tracer = tracing.Tracer()
    executor = tracer.executor_class(ThreadPoolExecutor)
    barrier = threading.Barrier(2, timeout=10)
    leaf = tracer.wrap("kernels.leaf", lambda: barrier.wait())

    def outer():
        with executor(max_workers=2) as ex:
            return [f.result(timeout=10) for f in [ex.submit(leaf), ex.submit(leaf)]]

    tracer.wrap("cli.outer", outer)()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[2], []).append(span)
    (root,) = by_name["cli.outer"]
    leaves = by_name["kernels.leaf"]
    assert len(leaves) == 2
    assert {s[1] for s in leaves} == {root[0]}
    assert len({s[3] for s in leaves}) == 2  # both ran, each on its own worker thread
    metrics = tracing.summarize(tracer)
    assert metrics["kernels.leaf.calls"] == 2
    assert metrics["cli.self_s"] <= metrics["cli.outer.s"]


def test_errors_are_counted_per_layer():
    tracer = tracing.Tracer()

    def boom():
        raise ArithmeticError("x")

    with pytest.raises(ArithmeticError):
        tracer.wrap("numerics.boom", boom)()
    assert tracing.summarize(tracer)["numerics.errors"] == 1


def test_install_traces_imported_names_and_keeps_output(tmp_path):
    argv = ["spectrum", "-L", "8", "-N", "4", "-g", "0.5", "--bc", "pbc", "--stats", "fermion"]
    assert cli.main(argv + ["--out", str(tmp_path / "plain.csv")]) == 0
    original = cli.build_spectrum
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.build_spectrum is not original
        assert cli.main(argv + ["--out", str(tmp_path / "traced.csv")]) == 0
        results = verify.run_checks(g=0.5, suites=["counting", "closedform"])
    finally:
        tracer.uninstall()
    assert cli.build_spectrum is original
    assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "traced.csv").read_bytes()
    assert results == verify.run_checks(g=0.5, suites=["counting", "closedform"])
    metrics = tracing.summarize(tracer)
    assert metrics["aufbau.build_spectrum.calls"] == 1
    assert metrics["aufbau.states_built"] == 70
    assert metrics["aufbau.occupation_string.calls"] == 70
    assert metrics["kernels.enumerate.self_s"] > 0
    assert metrics["verify.counting.calls"] == 1 and metrics["verify.closedform.calls"] == 1
    assert "verify.eigensolver.calls" not in metrics


def _spectrum(tmp_path, name="spec.csv"):
    argv = ["spectrum", "-L", "8", "-N", "4", "-g", "0.5", "--bc", "pbc",
            "--stats", "fermion", "--out", str(tmp_path / name)]
    assert cli.main(argv) == 0
    return argv


def test_spectrum_oracle_passes_program_output(tmp_path):
    argv = _spectrum(tmp_path)
    checks, items = oracles.check_pass([argv], [0])
    assert items == 70
    assert [c.name for c in checks if not c.passed] == []


def test_injected_wrong_energy_is_a_failure(tmp_path):
    argv = _spectrum(tmp_path)
    path = tmp_path / "spec.csv"
    bad = tmp_path / "bad.csv"
    shutil.copy(path, bad)
    lines = bad.read_text().splitlines()
    data = [i for i, line in enumerate(lines) if line and line[0].isdigit()]
    row = lines[data[len(data) // 2]].split(",")
    row[2] = repr(float(row[2]) + 1e-6)  # energy_im, off by far more than the tolerance
    lines[data[len(data) // 2]] = ",".join(row)
    bad.write_text("\n".join(lines) + "\n")
    argv[argv.index("--out") + 1] = str(bad)
    checks, _items = oracles.check_pass([argv], [0])
    failed = [c.name for c in checks if not c.passed]
    assert "bad.csv:energies" in failed
    assert all(c.output for c in checks)


def test_failed_command_is_counted_and_its_file_skipped(tmp_path):
    argv = _spectrum(tmp_path)
    checks, items = oracles.check_pass([argv], [1])
    assert [(c.name, c.passed) for c in checks] == [("spec.csv:exit", False)]
    assert items == 0


def test_same_seed_gives_same_commands(tmp_path):
    for workload in workloads.WORKLOADS:
        assert workloads.commands(workload, 7, tmp_path) == workloads.commands(workload, 7, tmp_path)
    a = workloads.commands("eigenstate-profiles", 7, tmp_path)
    b = workloads.commands("eigenstate-profiles", 8, tmp_path)
    assert a != b
    for argv in a:
        ranks = [int(r) for r in argv[argv.index("--ranks") + 1].split(",")]
        assert ranks[0] == 0 and len(set(ranks)) == workloads.PROFILE_RANKS
    g = [argv[argv.index("-g") + 1] for argv in workloads.commands("oracle-verify", 7, tmp_path)]
    assert g[:2] == ["0.5", "0"] and 0.25 <= float(g[2]) <= 2.0
