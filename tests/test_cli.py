"""Command-line interface: determinism, round-trips, exit codes.

Outputs must be byte-stable: same invocation twice gives identical files,
and worker count must not change anything. Each subcommand accepts only
the flags it reads. The spectrum CSV is checked by re-deriving each row's
energy from its occupation string.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hnaufbau import aufbau, cli, fock, hardcore, verify
from hnaufbau.aufbau import (
    build_spectrum,
    energy_of_config,
    ground_state,
    occupation_string,
    parse_occupation_string,
    sort_complex_spectrum,
)
from hnaufbau.fock import build_dense_hamiltonian
from hnaufbau.hardcore import delta_E_scan, im_delta_closed_form
from hnaufbau.lattice import HNParams, hopping_matrix, single_particle_levels
from hnaufbau.numerics import eigenvalues
from hnaufbau.observables import DistributionProfile
from hnaufbau.verify import TOLERANCES, CheckResult, run_checks


def run_cli(argv):
    return cli.main(list(argv))


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = run_cli([*argv, "--out", str(out)])
    return code, out


# ------------------------------------------------------------- determinism


def test_spectrum_repeat_runs_byte_identical(tmp_path):
    argv = ["spectrum", "-L", "8", "-N", "4", "-g", "0.5", "--bc", "pbc"]
    code1, f1 = run_to_file(tmp_path, "a.csv", argv)
    code2, f2 = run_to_file(tmp_path, "b.csv", argv)
    assert code1 == code2 == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_observables_worker_count_invariant(tmp_path):
    base = [
        "observables", "-L", "6", "-N", "3", "-g", "0.5", "--bc", "obc",
        "--stats", "boson", "--ranks", "0,1,2,3",
    ]
    _, f1 = run_to_file(tmp_path, "w1.csv", [*base, "--workers", "1"])
    _, f4 = run_to_file(tmp_path, "w4.csv", [*base, "--workers", "4"])
    assert f1.read_bytes() == f4.read_bytes()


# ---------------------------------------------------------------- spectrum


def test_spectrum_csv_roundtrip_energies(tmp_path):
    code, out = run_to_file(
        tmp_path, "spec.csv",
        ["spectrum", "-L", "8", "-N", "4", "-g", "0.5", "--bc", "pbc",
         "--stats", "boson"],
    )
    assert code == 0
    header, columns, rows = cli.read_table(str(out))
    assert header["command"] == "spectrum"
    assert columns == ["rank", "energy_re", "energy_im", "degeneracy_group", "occupation"]
    assert len(rows) == 330
    levels = single_particle_levels(HNParams(L=8, t=1.0, g=0.5, boundary="periodic"))
    for row in rows[:60]:
        redo = energy_of_config(levels, "boson", parse_occupation_string(row[4]))
        assert abs(redo.real - float(row[1])) < 1e-12
        assert abs(redo.imag - float(row[2])) < 1e-12


def test_spectrum_wide_boson_occupation_is_one_field(tmp_path):
    # the open-chain condensate puts all 10 bosons in one mode; its occupation
    # text must stay one CSV field and still reproduce the row's energy
    code, out = run_to_file(
        tmp_path, "wide.csv",
        ["spectrum", "-L", "3", "-N", "10", "--bc", "obc", "--stats", "boson"],
    )
    assert code == 0
    _, columns, rows = cli.read_table(str(out))
    assert len(rows) == 66
    assert all(len(row) == len(columns) == 5 for row in rows)
    assert rows[0][4] == "0;0;10"
    levels = single_particle_levels(HNParams(L=3, t=1.0, g=0.5, boundary="open"))
    for row in rows:
        redo = energy_of_config(levels, "boson", parse_occupation_string(row[4]))
        assert abs(redo.real - float(row[1])) < 1e-12
        assert abs(redo.imag - float(row[2])) < 1e-12


def test_spectrum_fermion_l10_group_structure(tmp_path):
    code, out = run_to_file(
        tmp_path, "f.csv",
        ["spectrum", "-L", "10", "-N", "5", "-g", "0.5", "--bc", "pbc"],
    )
    assert code == 0
    header, _, rows = cli.read_table(str(out))
    assert header["states"] == "252"
    assert len(rows) == 252
    assert [int(r[0]) for r in rows] == list(range(252))
    assert int(rows[0][3]) == 0
    assert [int(rows[i][3]) for i in (1, 2, 3, 4)] == [1, 1, 1, 1]
    assert int(rows[5][3]) == 2


def test_spectrum_vacuum(tmp_path):
    code, out = run_to_file(
        tmp_path, "vac.csv",
        ["spectrum", "-L", "6", "-N", "0", "-g", "0.5", "--bc", "pbc"],
    )
    assert code == 0
    _, _, rows = cli.read_table(str(out))
    assert len(rows) == 1
    assert float(rows[0][1]) == 0.0
    assert float(rows[0][2]) == 0.0


def test_spectrum_json_mirrors_csv(tmp_path):
    argv = ["spectrum", "-L", "6", "-N", "3", "-g", "0.5", "--bc", "pbc"]
    _, fc = run_to_file(tmp_path, "s.csv", argv)
    _, fj = run_to_file(tmp_path, "s.json", [*argv, "--format", "json"])
    payload = json.loads(fj.read_text())
    _, columns, rows = cli.read_table(str(fc))
    assert payload["columns"] == columns
    assert len(payload["rows"]) == len(rows) == 20
    for jrow, crow in zip(payload["rows"], rows):
        assert float(jrow[1]) == float(crow[1])
        assert jrow[4] == crow[4]
    assert payload["params"]["command"] == "spectrum"


def test_spectrum_hardcore_even_sector_reports_twist(tmp_path):
    code, out = run_to_file(
        tmp_path, "hc.csv",
        ["spectrum", "-L", "6", "-N", "4", "-g", "0.5", "--bc", "pbc",
         "--stats", "hardcore"],
    )
    assert code == 0
    header, _, rows = cli.read_table(str(out))
    assert header["effective_twist"] == repr(math.pi)
    assert len(rows) == 15
    # odd sector gets no twist annotation
    code, out2 = run_to_file(
        tmp_path, "hc3.csv",
        ["spectrum", "-L", "6", "-N", "3", "-g", "0.5", "--bc", "pbc",
         "--stats", "hardcore"],
    )
    assert code == 0
    header2, _, _ = cli.read_table(str(out2))
    assert "effective_twist" not in header2


# sha256 of the spectrum output, pinned so any change to enumeration order,
# energy summation, grouping or row formatting shows up byte for byte
GOLDEN_SPECTRA = [
    (["-L", "12", "-N", "6", "-g", "0.5", "--bc", "pbc", "--stats", "fermion"],
     "0e2f2b648719efa561afa6beba49b2dccca20d67fd1fe5465c3c790d5b0e2e42"),
    (["-L", "8", "-N", "5", "-g", "1.5", "--bc", "obc", "--stats", "boson"],
     "113b758e8ee33c9c595f077c81c1aada6731fb0362bb863f635e9ad2f11a5f59"),
    (["-L", "10", "-N", "4", "-g", "0.5", "--bc", "pbc", "--stats", "hardcore"],
     "2fd23068a34f420144a1f2567b22f10ab15f199aff304a62d548540edaab637d"),
    (["-L", "9", "-N", "3", "-g", "0.5", "--bc", "twist=0.3", "--stats", "fermion",
      "--format", "json"],
     "cf52ce345b59ab112b6f513a569b90a563a3ce2b018cb0eac2a0235752c62b4f"),
    # digit rows ("910") and ';' rows ("10;0;0") in one file
    (["-L", "3", "-N", "10", "--stats", "boson"],
     "b0aabdc113dabaaf1e8b55b293af39b1118ee78c1e9934f75b5a3e47898088ef"),
    # the two benchmark sectors
    (["-L", "20", "-N", "10", "-g", "0.5", "--bc", "pbc", "--stats", "fermion"],
     "0f44a7f4ce7b8aefc8d49c50cc73cba4ebe5f79321d931eacf121c5e05a2bbf8"),
    (["-L", "13", "-N", "7", "-g", "0.5", "--bc", "obc", "--stats", "boson"],
     "14e2fbc85bdfa74957ed11135c5065cb87609fd9e68c80d00f1eb46baf68dfbf"),
    # a packed row of three bytes, the last one partial
    (["-L", "17", "-N", "3", "--bc", "obc"],
     "07acc93ab72a40c228161e854a10ba1e8c75d55feec4fdf05cb7bdaac5af070e"),
]


@pytest.mark.parametrize("flags,digest", GOLDEN_SPECTRA)
def test_spectrum_output_matches_golden_digest(tmp_path, flags, digest):
    code, out = run_to_file(tmp_path, "golden.out", ["spectrum", *flags])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _row_by_row_body(spec):
    """The spectrum CSV body as the row-by-row writer formatted it."""
    return [
        ",".join(map(str, [rank, e.real, e.imag, group, occupation_string(occ)]))
        for rank, (e, group, occ) in enumerate(
            zip(spec.energies.tolist(), spec.groups.tolist(), spec.occupations(slice(None)).tolist())
        )
    ]


@settings(max_examples=40, deadline=None)
@given(
    stats=st.sampled_from(["fermion", "boson", "hardcore"]),
    bc=st.sampled_from(["pbc", "obc", "twist=0.3"]),
    L=st.integers(2, 8),
    N=st.integers(0, 10),
    g=st.sampled_from([0.0, 0.5, 1.5]),
)
@example(stats="boson", bc="pbc", L=3, N=10, g=0.5)
@example(stats="boson", bc="obc", L=3, N=10, g=0.5)
def test_spectrum_body_matches_row_by_row_writer(stats, bc, L, N, g):
    if stats != "boson":
        N = min(N, L)
    elif math.comb(L + N - 1, N) > 5000:
        N = 3
    argv = ["spectrum", "-L", str(L), "-N", str(N), "-g", str(g), "--bc", bc, "--stats", stats]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "spec.csv"
        assert run_cli([*argv, "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
    body = lines[lines.index("rank,energy_re,energy_im,degeneracy_group,occupation") + 1:]
    boundary, twist = cli._parse_bc(bc)
    levels = single_particle_levels(HNParams(L=L, t=1.0, g=g, boundary=boundary, twist=twist))
    assert body == _row_by_row_body(build_spectrum(levels, stats, N))


# float64 values that str formats differently or that share a value but not
# their bits: signed zeros, NaN payloads, infinities, subnormals, and
# integers near 1e16, where repr switches to exponent notation
SPECIAL_FLOATS = [
    0.0, -0.0, math.nan, -math.nan, float(np.uint64(0x7FF8_0000_0000_0001).view(np.float64)),
    math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072009e-308,
    1e16, 1e16 - 2.0, 9999999999999998.0, 1.0000000000000002e16, -1e16, 0.1, 1 / 3,
]


def _chunked_text(col, step=64):
    # the texts of col as the writer looks them up, one slice of rows at a time
    lookup = cli._column_text(col)
    return [text for lo in range(0, len(col), step) for text in lookup(lo, lo + step)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), max_size=12), st.lists(st.integers(0, 10**6), max_size=300))
def test_float_column_text_matches_str(extra, picks):
    # every special value, then heavy repeats drawn from the same pool
    pool = SPECIAL_FLOATS + extra
    col = np.array(pool + [pool[i % len(pool)] for i in picks], dtype=np.float64)
    assert _chunked_text(col) == [str(x) for x in col.tolist()]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=12),
    st.lists(st.integers(0, 10**6), max_size=300),
)
def test_int_column_text_matches_str(pool, picks):
    col = np.array(pool + [pool[i % len(pool)] for i in picks], dtype=np.int64)
    assert _chunked_text(col) == [str(x) for x in col.tolist()]


@pytest.mark.parametrize("cell", [str, cli._json_text])
def test_rank_texts_match_str(cell):
    # the block-built texts of range(n), chunk by chunk as the writer asks
    # for them and over slices across every digit-count edge
    n = 100_010
    ranks = cli._chunk_texts(range(n), cell)
    chunks = [ranks(lo, lo + cli.CHUNK_ROWS) for lo in range(0, n, cli.CHUNK_ROWS)]
    assert [text for chunk in chunks for text in chunk] == list(map(str, range(n)))
    edges = [*range(0, n, cli.CHUNK_ROWS), 1000, 10_000, 100_000, n]
    for edge in edges:
        for lo, hi in ((edge - 3, edge + 3), (edge - 1, edge), (edge, edge + 1)):
            lo = max(lo, 0)
            assert list(ranks(lo, hi)) == list(map(cell, range(lo, min(hi, n))))
    assert list(ranks(999, 1001)) == ["999", "1000"]
    assert list(ranks(99_999, 100_001)) == ["99999", "100000"]


def test_other_ranges_keep_per_value_texts(monkeypatch):
    # a range that does not start at 0 or steps by more than 1 is formatted
    # value by value with the cell function it is given
    monkeypatch.setattr(cli, "_rank_texts", None)
    for col in (range(1, 3000), range(0, 3000, 2), range(2999, -1, -1), range(5, 5)):
        texts = cli._chunk_texts(col, lambda v: f"<{v}>")
        assert list(texts(998, 1003)) == [f"<{v}>" for v in col[998:1003]]


@pytest.mark.parametrize("flags", [
    ["-L", "5", "-N", "3", "-g", "1.5", "--bc", "obc", "--stats", "boson"],
    ["-L", "8", "-N", "4", "-g", "0.5", "--bc", "pbc", "--stats", "hardcore"],
])
def test_spectrum_json_rows_hold_plain_python_values(tmp_path, flags):
    # the rows are spliced in as text, so read their types off the parsed file
    code, out = run_to_file(tmp_path, "s.json", ["spectrum", *flags, "--format", "json"])
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["rows"]
    assert {tuple(map(type, row)) for row in payload["rows"]} == {(int, float, float, int, str)}
    _, _, rows = cli.read_table(str(run_to_file(tmp_path, "s.csv", ["spectrum", *flags])[1]))
    assert [list(map(str, row)) for row in payload["rows"]] == rows


def test_failed_formatting_writes_no_file(tmp_path):
    # a failure while formatting removes the part file, so no file appears
    class Unprintable:
        def __str__(self):
            raise MemoryError

    out = tmp_path / "table.csv"
    args = argparse.Namespace(format="csv", out=str(out))
    with pytest.raises(MemoryError):
        cli._emit(args, {"command": "spectrum"}, ["a", "b"], [[1, 2], [3.0, Unprintable()]])
    assert not out.exists()


def _unchunked(fmt, header, columns, data, metrics=None):
    """The whole text as the writer made it before it streamed: CSV row by
    row with str, JSON as one json.dumps of the payload."""
    cells = []
    for col in data:
        if callable(col):
            cells.append(list(col(0, len(data[0]))))
        else:
            cells.append(col.tolist() if isinstance(col, np.ndarray) else list(col))
    rows = [list(row) for row in zip(*cells)]
    if fmt == "json":
        payload = {"params": cli._json_value(header), "columns": list(columns),
                   "rows": cli._json_value(rows)}
        if metrics is not None:
            payload["metrics"] = cli._json_value(metrics)
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = [f"# {k}={v}" for k, v in header.items()]
    for key, met in (metrics or {}).items():
        lines.append(f"# metrics rank={key} " + " ".join(f"{k}={v!r}" for k, v in met.items()))
    lines.append(",".join(columns))
    lines.extend(",".join(map(str, row)) for row in rows)
    return "".join(line + "\n" for line in lines)


def _mixed_table(dim):
    """Every kind of column the writer takes, dim rows, with the special
    floats (nan, inf, -0.0, ...) in both a numpy and a list column."""
    pool = np.array(SPECIAL_FLOATS)
    floats = pool[np.arange(dim) % pool.size]
    rows = (np.arange(dim * 4).reshape(dim, 4) * 7) % 3
    if dim:
        rows[-1, 0] = 12  # a ';'-joined occupation string
    colex = np.arange(dim)[::-1]  # rows gathered out of order, as a spectrum's are
    data = [
        range(dim),
        floats,
        floats[::-1].tolist(),
        np.arange(dim, dtype=np.int64) // 3,
        [f"s{r % 3}\u00e9" for r in range(dim)],
        lambda lo, hi: [occupation_string(row) for row in rows[colex[lo:hi]].tolist()],
    ]
    header = {"command": "test", "x": math.nan, "L": dim}
    metrics = {"0": {"left_fraction": 0.5, "log_slope": math.nan}, "1": {"ipr": -math.inf}}
    return header, ["rank", "a", "b", "group", "name", "occupation"], data, metrics


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("dim", [0, 1, 2, 23])
def test_chunked_table_matches_unchunked_writer(tmp_path, monkeypatch, fmt, dim):
    # chunks of 1, 2, dim - 1, dim and dim + 1 rows all give the same bytes
    header, columns, data, metrics = _mixed_table(dim)
    want = _unchunked(fmt, header, columns, data, metrics)
    out = tmp_path / "table"
    for chunk in sorted({1, 2, max(dim - 1, 1), max(dim, 1), dim + 1}):
        monkeypatch.setattr(cli, "CHUNK_ROWS", chunk)
        for met in (metrics, None):
            cli._emit(argparse.Namespace(format=fmt, out=str(out)), header, columns, data, met)
            assert out.read_text(encoding="utf-8") == _unchunked(fmt, header, columns, data, met)
    assert want.count("\n") > 5


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_chunked_spectrum_matches_row_by_row_writer(tmp_path, monkeypatch, fmt):
    levels = single_particle_levels(HNParams(L=7, t=1.0, g=0.5, boundary="open"))
    spec = build_spectrum(levels, "boson", 3)
    dim = len(spec)
    argv = ["spectrum", "-L", "7", "-N", "3", "--bc", "obc", "--stats", "boson", "--format", fmt]
    reference = None
    for chunk in (1, 2, dim - 1, dim, dim + 1):
        monkeypatch.setattr(cli, "CHUNK_ROWS", chunk)
        code, out = run_to_file(tmp_path, f"{chunk}.{fmt}", argv)
        assert code == 0
        text = out.read_text(encoding="utf-8")
        if fmt == "csv":
            lines = text.splitlines()
            body = lines[lines.index("rank,energy_re,energy_im,degeneracy_group,occupation") + 1:]
            assert body == _row_by_row_body(spec)
        else:
            rows = [line.split(",") for line in _row_by_row_body(spec)]
            assert [list(map(str, row)) for row in json.loads(text)["rows"]] == rows
        reference = reference or text
        assert text == reference


def _late_failure_table():
    class Unprintable:
        def __str__(self):
            raise MemoryError

    return ["a"], [[*range(7), Unprintable()]]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_late_chunk_failure_leaves_no_file(tmp_path, monkeypatch, fmt):
    # the first chunks reach the part file; the last one fails
    monkeypatch.setattr(cli, "CHUNK_ROWS", 2)
    columns, data = _late_failure_table()
    written = []
    real_write = cli._write

    def spy(path, pieces):
        def watched():
            for piece in pieces:
                written.append(sorted(p.name for p in tmp_path.iterdir()))
                yield piece
        return real_write(path, watched())

    monkeypatch.setattr(cli, "_write", spy)
    fresh, kept = tmp_path / "fresh.out", tmp_path / "kept.out"
    kept.write_bytes(b"old bytes\n")
    for out in (fresh, kept):
        # str raises MemoryError; the JSON encoder refuses the object first
        with pytest.raises(MemoryError if fmt == "csv" else TypeError):
            args = argparse.Namespace(format=fmt, out=str(out))
            cli._emit(args, {"command": "x"}, columns, data)
    assert len(written) >= 8 and any(name.endswith(".part") for name in written[-1])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.out"]
    assert kept.read_bytes() == b"old bytes\n"


def test_memory_error_is_a_computation_failure(tmp_path, monkeypatch, capsys):
    # an array numpy cannot allocate exits 1 with one line, not a traceback
    def no_memory(L, N, statistics):
        raise MemoryError("Unable to allocate 1 GiB")

    monkeypatch.setattr(aufbau, "_occupation_rows", no_memory)
    code, _ = run_to_file(tmp_path, "spec.csv", ["spectrum", "-L", "8", "-N", "4"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "computation failed: Unable to allocate 1 GiB"
    ]
    assert not list(tmp_path.iterdir())


def test_memory_error_in_a_later_chunk_leaves_no_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "CHUNK_ROWS", 8)
    calls = []
    real_strings = cli.occupation_strings

    def failing_strings(rows):
        calls.append(len(rows))
        if len(calls) == 3:
            raise MemoryError("Unable to allocate 1 GiB")
        return real_strings(rows)

    monkeypatch.setattr(cli, "occupation_strings", failing_strings)
    code, _ = run_to_file(tmp_path, "spec.csv", ["spectrum", "-L", "8", "-N", "4"])
    assert code == 1 and len(calls) == 3
    assert capsys.readouterr().err.splitlines() == [
        "computation failed: Unable to allocate 1 GiB"
    ]
    assert not list(tmp_path.iterdir())


def test_written_file_mode_matches_plain_open(tmp_path):
    plain = tmp_path / "plain"
    with open(plain, "w"):
        pass
    code, out = run_to_file(tmp_path, "spec.csv", ["spectrum", "-L", "4", "-N", "2"])
    assert code == 0
    assert out.stat().st_mode == plain.stat().st_mode


def test_out_through_symlink_and_fifo(tmp_path):
    argv = ["spectrum", "-L", "5", "-N", "2"]
    want = run_to_file(tmp_path, "want.csv", argv)[1].read_bytes()
    # a symlink keeps pointing at its file, which gets the bytes
    real, link = tmp_path / "real.csv", tmp_path / "link.csv"
    link.symlink_to(real)
    assert run_cli([*argv, "--out", str(link)]) == 0
    assert link.is_symlink() and real.read_bytes() == want
    # a FIFO is written in place, not renamed over
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert run_cli([*argv, "--out", str(fifo)]) == 0
    reader.join(timeout=60)
    assert got == [want]
    assert fifo.is_fifo()
    assert not list(tmp_path.glob("*.part"))


def test_out_name_at_the_length_limit(tmp_path):
    # <out>.<pid>.part would pass 255 bytes; the part name is cut instead
    out = tmp_path / ("a" * 251 + ".csv")
    assert run_cli(["spectrum", "-L", "4", "-N", "2", "--out", str(out)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == [out.name]


def test_failed_out_leaves_no_part_file(tmp_path, capsys):
    target = tmp_path / "dir"
    target.mkdir()
    for out in (target, tmp_path / "missing" / "x.csv"):
        assert run_cli(["spectrum", "-L", "4", "-N", "2", "--out", str(out)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir"]
    assert not list(target.iterdir())


def test_closed_stdout_ends_quietly():
    # a reader that stops after one line (| head -1) ends the command with
    # exit 0 and nothing on stderr
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    for fmt in ("csv", "json"):
        proc = subprocess.Popen(
            [sys.executable, "-W", "error", "-m", "hnaufbau", "spectrum", "-L", "20", "-N", "10",
             "--format", fmt],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert err == b""
        assert first in (b"# command=spectrum\n", b"{\n")


def test_overflowing_spectrum_warns_nothing():
    # under -W error a numpy warning would abort with a traceback; the one
    # stderr line must be the computation failure, and no file is written
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "overflow.csv"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "hnaufbau", "spectrum", "-L", "6", "-N", "3",
             "-g", "709", "--bc", "pbc", "--stats", "boson", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert not out.exists()
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["computation failed: a many-body energy is not finite"]


@pytest.mark.parametrize("argv,stderr", [
    (["spectrum", "-L", "4", "-N", "2", "-t", "1e308", "--bc", "pbc"],
     ["computation failed: real parts spread over inf, beyond float range"]),
    (["verify", "-t", "1e308"], []),
])
def test_hopping_beyond_float_range_warns_nothing(tmp_path, argv, stderr):
    # t e^g = inf: a table command prints its one line, verify fails rows
    # and prints nothing on stderr; with warnings shown or raised as errors,
    # which would turn a warning into a failed verify row, the output is
    # the same
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    outputs = set()
    for mode in ("error", "always"):
        out = tmp_path / f"{mode}.txt"
        proc = subprocess.run(
            [sys.executable, "-W", mode, "-m", "hnaufbau", *argv, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == stderr
        assert out.exists() == (argv[0] == "verify")
        outputs.add(proc.stdout)
    assert len(outputs) == 1


@pytest.mark.parametrize("argv", [
    ["-L", "9", "-N", "2", "-g", "709", "-t", "1e200", "--bc", "pbc", "--stats", "hardcore"],
    ["-L", "2", "-N", "3", "-g", "-709", "-t", "2", "--bc", "twist=0.7", "--stats", "boson"],
])
def test_tol_keeps_the_level_spread_check(tmp_path, capsys, argv):
    # levels spread beyond float range fail with the same one line whether
    # or not --tol is given, with no numpy warning and no file
    for tol in ([], ["--tol", "1e-3"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_to_file(tmp_path, "spread.csv", ["spectrum", *argv, *tol])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "computation failed: real parts spread over inf, beyond float range"
        ]
        assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_bad_tol_exits_2_before_enumeration(tmp_path, capsys, monkeypatch, tol):
    # 3.9 million states would take seconds to enumerate: the tolerance is
    # refused first
    def enumerate_sector(*args):
        raise AssertionError("sector enumerated")

    monkeypatch.setattr(aufbau, "_occupation_rows", enumerate_sector)
    code, out = run_to_file(tmp_path, "s.csv", ["spectrum", "-L", "100", "-N", "4", "--tol", tol])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: tie_tol must be finite and >= 0, got ")
    assert not out.exists()


@pytest.mark.parametrize("tol", ["0", "1"])
def test_tol_never_changes_an_energy_text(tmp_path, tol):
    # --tol regroups and reorders the ranks; every occupation keeps the
    # energy text of the run without it
    texts = []
    for extra in ([], ["--tol", tol]):
        code, out = run_to_file(tmp_path, "s.csv", ["spectrum", "-L", "12", "-N", "6", *extra])
        assert code == 0
        texts.append({row[4]: row[1:3] for row in cli.read_table(out)[2]})
    assert len(texts[0]) == 924 and texts[1] == texts[0]


def test_overflowing_orbitals_exit_1_with_one_line():
    # at g = -70 the open-chain orbitals e^{-g j} leave float range on a
    # valid input: a computation failure (1), not a usage error (2), with
    # no numpy warning above it and no file left behind
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "orbitals.csv"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "hnaufbau", "observables", "-L", "12",
             "-N", "3", "-g", "-70", "--bc", "obc", "--stats", "fermion", "--ranks", "0",
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert not out.exists()
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("computation failed")


def test_spectrum_large_g_open_chain_builds_no_orbitals(tmp_path):
    # open-chain energies are g-independent; the orbitals e^{-g j} overflow
    # at g = -70, and a spectrum never reads them
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_to_file(
            tmp_path, "big_g.csv",
            ["spectrum", "-L", "12", "-N", "3", "-g", "-70", "--bc", "obc",
             "--stats", "fermion"],
        )
    assert code == 0
    header, _, rows = cli.read_table(str(out))
    assert header["states"] == "220"
    assert len(rows) == 220


@pytest.mark.parametrize("L,N,dim", [(64, 1, 64), (70, 2, 2415)])
def test_spectrum_beyond_word_width(tmp_path, L, N, dim):
    code, out = run_to_file(
        tmp_path, "wide.csv",
        ["spectrum", "-L", str(L), "-N", str(N), "-g", "0.5", "--bc", "pbc"],
    )
    assert code == 0
    header, _, rows = cli.read_table(str(out))
    assert header["states"] == str(dim)
    assert len(rows) == dim
    levels = single_particle_levels(HNParams(L=L, t=1.0, g=0.5, boundary="periodic"))
    gs = ground_state(levels, "fermion", N)
    assert float(rows[0][1]) == gs.energy.real
    assert float(rows[0][2]) == gs.energy.imag
    assert rows[0][4] == occupation_string(gs.config.occupations)


# ------------------------------------------------------------- observables


def test_observables_rows_and_metrics(tmp_path):
    code, out = run_to_file(
        tmp_path, "obs.json",
        ["observables", "-L", "6", "-N", "3", "-g", "1.0", "--bc", "obc",
         "--stats", "fermion", "--ranks", "0", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out.read_text())
    rows = payload["rows"]
    position = [r for r in rows if r[1] == "position"]
    momentum = [r for r in rows if r[1] == "momentum"]
    assert len(position) == 6 and len(momentum) == 6
    total = sum(r[4] for r in position)
    assert total == pytest.approx(3.0, abs=1e-8)
    met = payload["metrics"]["0"]
    assert set(met) == {"left_fraction", "ipr", "log_slope"}
    assert met["left_fraction"] > 0.5


def test_observables_csv_metrics_comment(tmp_path):
    code, out = run_to_file(
        tmp_path, "obs.csv",
        ["observables", "-L", "6", "-N", "2", "-g", "0.5", "--bc", "obc",
         "--ranks", "0,1"],
    )
    assert code == 0
    text = out.read_text()
    assert "# metrics rank=0 left_fraction=" in text
    assert "# metrics rank=1 left_fraction=" in text


def test_observables_csv_metrics_mirror_json(tmp_path):
    # one metrics record renders both ways: a line per JSON entry, in the
    # order --ranks gives, values as repr
    argv = ["observables", "-L", "4", "-N", "2", "-g", "0.5", "--bc", "obc", "--ranks", "1,0"]
    code, csv_out = run_to_file(tmp_path, "obs.csv", argv)
    assert code == 0
    code, json_out = run_to_file(tmp_path, "obs.json", [*argv, "--format", "json"])
    assert code == 0
    metrics = json.loads(json_out.read_text())["metrics"]
    lines = [line for line in csv_out.read_text().splitlines() if line.startswith("# metrics")]
    assert lines == [
        f"# metrics rank={rank} left_fraction={metrics[rank]['left_fraction']!r} "
        f"ipr={metrics[rank]['ipr']!r} log_slope={metrics[rank]['log_slope']!r}"
        for rank in ("1", "0")
    ]


def test_read_table_keeps_every_rank_metrics(tmp_path):
    # three ranks read back from CSV give the JSON metrics of the same run
    argv = ["observables", "-L", "6", "-N", "3", "-g", "0.5", "--bc", "obc",
            "--ranks", "4,0,7"]
    code, csv_out = run_to_file(tmp_path, "obs.csv", argv)
    assert code == 0
    code, json_out = run_to_file(tmp_path, "obs.json", [*argv, "--format", "json"])
    assert code == 0
    header, columns, rows = cli.read_table(str(csv_out))
    metrics = json.loads(json_out.read_text())["metrics"]
    assert list(header["metrics"]) == ["4", "0", "7"]
    assert {rank: {name: float(text) for name, text in met.items()}
            for rank, met in header["metrics"].items()} == metrics
    assert header["ranks"] == "4;0;7" and columns[0] == "rank" and len(rows) == 3 * 2 * 6


@pytest.mark.parametrize("command,L,N,stats,bc", [
    ("skin", 40, 3, "boson", "pbc"),
    ("observables", 25, 5, "boson", "obc"),
    ("skin", 64, 2, "fermion", "obc"),
])
def test_fock_sectors_past_int64_keys(tmp_path, command, L, N, stats, bc):
    # state keys in base N+1 (or 2) overflowed int64 here; colex ranks do not
    argv = [command, "-L", str(L), "-N", str(N), "--stats", stats, "--bc", bc]
    code, out = run_to_file(tmp_path, "big.csv", argv)
    assert code == 0
    # eight ranks: one row each from skin, an n_j and an n_k profile from observables
    assert len(cli.read_table(str(out))[2]) == (8 if command == "skin" else 8 * 2 * L)
    p = HNParams(L=L, g=0.5, boundary="periodic" if bc == "pbc" else "open")
    spec = build_spectrum(single_particle_levels(p), stats, N)
    v = fock.eigenstate_from_config(p, stats, spec.occupations(0))
    assert fock.residual(v, hopping_matrix(p), spec.energies[0]) < TOLERANCES["residual_obc"]


def test_spectrum_command_memory_holds_one_bit_rows(tmp_path):
    # ring L = 20, N = 10: the writer holds no whole-column table and no
    # rank-ordered copy of the rows, so the command peaks where
    # build_spectrum does, with its rows at one bit a cell, below 10 MB
    out = tmp_path / "big.csv"
    argv = ["spectrum", "-L", "20", "-N", "10", "--out", str(out)]
    assert run_cli(["spectrum", "-L", "4", "-N", "2", "--out", str(out)]) == 0
    tracemalloc.start()
    try:
        code = run_cli(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 10_000_000
    assert out.read_bytes().count(b"\n") == 9 + 184_756  # header lines, then the rows


def test_skin_all_ranks_memory_holds_one_batch(tmp_path):
    # Fig. 3's metrics build 2,002 product states, one creation batch and
    # one state at a time. Traced peak with the sector's bases already
    # cached (the --ranks 0 run), Python 3.11 and numpy 2.4: 1,271,378
    # bytes when each rank was built on its own, 1,268,394 batched
    out = tmp_path / "skin.csv"
    argv = ["skin", "-L", "10", "-N", "5", "-g", "1.5", "--bc", "obc", "--stats", "boson",
            "--out", str(out)]
    assert run_cli([*argv, "--ranks", "0"]) == 0
    tracemalloc.start()
    try:
        code = run_cli([*argv, "--ranks", "all"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1_300_000
    assert len(cli.read_table(str(out))[2]) == 2002


@pytest.mark.parametrize("L,N", [(2, 400), (3, 200)])
def test_few_mode_boson_condensate_profiles(tmp_path, capsys, L, N):
    # (a^dag)^N |0> has norm sqrt(N!), beyond float range from N = 171 and
    # its amplitudes from about N = 300; the ring ground state is still a
    # condensate: N / L on every site and all N at one momentum
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_to_file(tmp_path, "condensate.csv", [
            "observables", "-L", str(L), "-N", str(N), "--stats", "boson", "--ranks", "0"])
    assert code == 0 and capsys.readouterr().err == ""
    header, _, rows = cli.read_table(str(out))
    nj = np.array([float(row[4]) for row in rows if row[1] == "position"])
    nk = np.sort([float(row[4]) for row in rows if row[1] == "momentum"])
    assert nj.sum() == pytest.approx(N, rel=1e-12)
    np.testing.assert_allclose(nj, N / L, rtol=1e-12)
    assert nk[-1] == pytest.approx(N, rel=1e-12)
    np.testing.assert_allclose(nk[:-1], 0.0, atol=1e-9)
    assert float(header["metrics"]["0"]["ipr"]) == pytest.approx(1 / L, rel=1e-12)


@pytest.mark.parametrize("command,cap", [("spectrum", 1 << 30), ("observables", 1 << 28)])
def test_sector_beyond_occupation_cells_exits_2_unallocated(tmp_path, capsys, command, cap):
    # 1e5 states of 1e5 modes pass the state cap but would take 20 GB of
    # occupations; the refusal comes before any sector allocation, at the
    # spectrum's cap or, for a command that builds Fock states, the basis's
    out = tmp_path / "huge.csv"
    tracemalloc.start()
    try:
        code = run_cli([command, "-L", "100000", "-N", "1", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: sector has 100000 states x 100000 modes = 10000000000 occupation cells, "
        f"above the cap of {cap}"
    ]
    assert not out.exists()
    assert peak < 32 << 20


@pytest.mark.parametrize("command", ["spectrum", "observables"])
def test_boson_sector_past_int16_exits_2_up_front(tmp_path, capsys, command):
    # an int16 occupation holds at most 32767 bosons; a larger N is refused
    # before enumeration instead of failing after it
    out = tmp_path / "many.csv"
    argv = [command, "-L", "2", "-N", "32768", "--stats", "boson", "--bc", "obc"]
    assert run_cli([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: boson sector has N = 32768, above the int16 occupation limit of 32767"
    ]
    assert not out.exists()


def test_fock_cell_cap_leaves_spectrum_alone(tmp_path, capsys, monkeypatch):
    # spectrum -L 100 -N 4 (392 million cells) needs no Fock basis and runs;
    # skin and observables refuse such a sector before building its spectrum
    monkeypatch.setattr(fock, "MAX_FOCK_CELLS", 8 * 70 - 1)  # C(8, 4) x 8 cells
    fock.get_basis.cache_clear()  # a basis built under the real cap would pass
    code, out = run_to_file(tmp_path, "spectrum.csv", ["spectrum", "-L", "8", "-N", "4"])
    assert code == 0
    assert cli.read_table(str(out))[0]["states"] == "70"
    monkeypatch.setattr(cli, "build_spectrum", None)
    for command in ("skin", "observables"):
        code, out = run_to_file(tmp_path, f"{command}.csv", [command, "-L", "8", "-N", "4"])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: sector has 70 states x 8 modes = 560 occupation cells, above the cap of 559"
        ]
        assert not out.exists()


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@pytest.mark.parametrize("command", ["skin", "observables"])
def test_json_writes_undefined_log_slope_as_null(tmp_path, command):
    # at g=30 a one-particle open-chain state sits on one site, so the
    # log-density slope is undefined: nan in CSV, null in strict JSON
    argv = [command, "-L", "4", "-N", "1", "-g", "30", "--bc", "obc", "--ranks", "0"]
    code, out = run_to_file(tmp_path, "undefined.json", [*argv, "--format", "json"])
    assert code == 0
    payload = json.loads(out.read_text(), parse_constant=_reject_constant)
    if command == "skin":
        assert payload["rows"][0][-1] is None
    else:
        assert payload["metrics"]["0"]["log_slope"] is None
    code, out = run_to_file(tmp_path, "undefined.csv", argv)
    assert code == 0
    assert "nan" in out.read_text()


@pytest.mark.parametrize("command", ["skin", "observables"])
def test_vacuum_metrics_are_undefined(tmp_path, command):
    # N = 0 is a sector like any other: its one state carries no weight, so
    # left_fraction, ipr and log_slope are all undefined, nan in CSV and
    # null in JSON
    argv = [command, "-L", "6", "-N", "0", "--bc", "obc", "--ranks", "all"]
    code, out = run_to_file(tmp_path, "vacuum.csv", argv)
    assert code == 0
    text = out.read_text()
    if command == "skin":
        assert text.splitlines()[-1] == "0,0.0,0.0,nan,nan,nan"
    else:
        assert "# metrics rank=0 left_fraction=nan ipr=nan log_slope=nan\n" in text
        _, _, rows = cli.read_table(str(out))
        assert len(rows) == 12 and {row[4] for row in rows} == {"0.0"}
    code, out = run_to_file(tmp_path, "vacuum.json", [*argv, "--format", "json"])
    assert code == 0
    payload = json.loads(out.read_text(), parse_constant=_reject_constant)
    if command == "skin":
        assert payload["rows"] == [[0, 0.0, 0.0, None, None, None]]
    else:
        assert payload["metrics"] == {"0": dict.fromkeys(("left_fraction", "ipr", "log_slope"))}
    # the vacuum occupies no orbital, so orbitals beyond float range do not matter
    argv = [command, "-L", "12", "-N", "0", "-g", "-70", "--bc", "obc", "--ranks", "0"]
    code, out = run_to_file(tmp_path, "vacuum_g70.csv", argv)
    assert code == 0
    assert "nan" in out.read_text()


# sha256 of hard-core eigenstate outputs on the ring (Jordan-Wigner image
# twisted by pi) and on the open chain, over every rank of the sector
GOLDEN_HARDCORE_STATES = [
    (["observables", "-g", "0.5", "--bc", "pbc"],
     "0cf03075b36563064b2a639aa937ff988df153bdca5b20294b82aba064382fda"),
    (["observables", "-g", "1.5", "--bc", "obc"],
     "411d53e3f92987ec514aa1625176007eb003ad731669cee0e7e4f39c23a558a1"),
    (["skin", "-g", "0.5", "--bc", "pbc"],
     "43893f756f7aa1483682694624b74ee5158b608b49578ca7a8531a2966152fb7"),
    (["skin", "-g", "1.5", "--bc", "obc"],
     "fac5ae2f49fd2efac4f7077cbf30b11439c6a1cd37877e483f26580b4b8ba6ad"),
]


@pytest.mark.parametrize("flags,digest", GOLDEN_HARDCORE_STATES)
def test_hardcore_states_match_golden_digest(tmp_path, flags, digest):
    code, out = run_to_file(
        tmp_path, "golden.csv",
        [*flags, "-L", "8", "-N", "4", "--stats", "hardcore", "--ranks", "all"],
    )
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# -------------------------------------------------------------------- skin


def test_skin_boson_ground_frozen_values(tmp_path):
    code, out = run_to_file(
        tmp_path, "skin.csv",
        ["skin", "-L", "10", "-N", "5", "-g", "1.5", "--bc", "obc",
         "--stats", "boson", "--ranks", "0"],
    )
    assert code == 0
    _, columns, rows = cli.read_table(str(out))
    assert columns == ["rank", "energy_re", "energy_im", "left_fraction", "ipr", "log_slope"]
    row = rows[0]
    assert float(row[1]) == pytest.approx(-9.594929736144973, abs=1e-12)
    assert float(row[3]) == pytest.approx(0.999996723380638, abs=1e-12)
    assert float(row[4]) == pytest.approx(0.7149746274179182, abs=1e-12)
    assert float(row[5]) == pytest.approx(-3.0, abs=1e-10)


# ------------------------------------------------------------- hcb-compare


def test_hcb_compare_columns_and_closed_form(tmp_path):
    code, out = run_to_file(
        tmp_path, "hcb.csv",
        ["hcb-compare", "--lengths", "160:208:16", "-g", "0.5"],
    )
    assert code == 0
    header, columns, rows = cli.read_table(str(out))
    assert columns == [
        "L", "N", "delta_re", "delta_im", "closed_form_im",
        "abs_im_minus_closed", "delta_im_over_100",
    ]
    assert [int(r[0]) for r in rows] == [160, 176, 192, 208]
    for row in rows:
        L, N = int(row[0]), int(row[1])
        assert N == L // 2
        closed = im_delta_closed_form(L, N, 0.5)
        assert float(row[4]) == pytest.approx(closed, abs=1e-14)
        assert float(row[5]) < 1e-10
        assert float(row[6]) == pytest.approx(float(row[3]) / 100.0, abs=1e-16)
    res = [abs(float(r[2])) for r in rows]
    assert all(b < a for a, b in zip(res, res[1:]))


# sha256 of the gap-scan output: Fig. 4, and the 501 lengths of the benchmark
GOLDEN_GAP_SCANS = [
    (["--lengths", "160:480:16", "-g", "0.5"],
     "10c0b3cfd2dc91ff80d5c468ae4d668374e605b9cb38e7d44eed7f73b5e08819"),
    (["--lengths", "400:2400:4", "-g", "0.5"],
     "f6ed8a904e481bc829fd6eb344273f3c12a4684a23d1eef0ce559010726656b7"),
]


@pytest.mark.parametrize("flags,digest", GOLDEN_GAP_SCANS)
def test_hcb_compare_output_matches_golden_digest(tmp_path, flags, digest):
    code, out = run_to_file(tmp_path, "golden.csv", ["hcb-compare", *flags])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_hcb_compare_rejects_repeated_length(capsys):
    # a repeated length would write its row twice
    assert run_cli(["hcb-compare", "--lengths", "8,12,8"]) == 2
    assert capsys.readouterr().err == "error: length 8 given twice in --lengths\n"


def test_hcb_compare_rejects_odd_filling_sector():
    assert run_cli(["hcb-compare", "--lengths", "10,14"]) == 2


@pytest.mark.parametrize("filling", ["inf", "-inf", "nan"])
def test_hcb_compare_non_finite_filling_is_usage_error(filling, capsys):
    assert run_cli(["hcb-compare", "--lengths", "8", f"--filling={filling}"]) == 2
    assert "filling must be finite" in capsys.readouterr().err


# ------------------------------------------------------------------ config


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 6\nN = 3\ng = 0.7\nbc = pbc\n# comment line\n")
    out = tmp_path / "out.csv"
    code = run_cli(["spectrum", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    header, _, rows = cli.read_table(str(out))
    assert header["L"] == "6"
    assert header["g"] == "0.7"
    assert len(rows) == 20
    # a value that starts with '-' is still the value, not a flag
    cfg.write_text("L = 6\nN = 3\ng = -0.5\n")
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    assert cli.read_table(str(out))[0]["g"] == "-0.5"


def test_cli_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 6\nN = 3\ng = 0.7\n")
    out = tmp_path / "out.csv"
    code = run_cli([
        "spectrum", "--config", str(cfg), "-g", "0.3", "--out", str(out)
    ])
    assert code == 0
    header, _, _ = cli.read_table(str(out))
    assert header["g"] == "0.3"


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    for text in ("flux = 3\n", "config = other.cfg\n"):
        cfg.write_text("L = 6\n" + text)
        assert run_cli(["spectrum", "--config", str(cfg)]) == 2, text


def test_config_missing_file_rejected(tmp_path):
    assert run_cli(["spectrum", "--config", str(tmp_path / "nope.cfg")]) == 2


@pytest.mark.parametrize("argv", [
    ["spectrum", "-L", "4", "-N", "2"],
    ["verify", "--suite", "counting"],
])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv):
    # like an unreadable --config: one line on stderr, exit 2, nothing on stdout
    for out, reason in ((tmp_path / "missing" / "x.csv", "No such file or directory"),
                        (tmp_path, "Is a directory")):
        assert run_cli([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {out}: {reason}\n"
        assert captured.out == ""
    assert not (tmp_path / "missing").exists()


def test_config_bad_value_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    for text in ("L = six\n", "format = xml\n", "stats = bogus\n", "t = x\n",
                 "tol = abc\n"):
        cfg.write_text("L = 4\nN = 1\n" + text)
        assert run_cli(["spectrum", "--config", str(cfg)]) == 2, text
    cfg.write_text("L = 4\nN = 1\nworkers = two\n")
    assert run_cli(["observables", "--config", str(cfg)]) == 2
    for command, text in (("verify", "suite = astrology\n"), ("verify", "suite =\n"),
                          ("hcb-compare", "lengths = 1:x:2\n")):
        cfg.write_text(text)
        assert run_cli([command, "--config", str(cfg)]) == 2, text


def test_config_suite_yields_to_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite = closedform\n")
    assert run_cli(["verify", "--config", str(cfg)]) == 0
    assert "closedform/" in capsys.readouterr().out
    assert run_cli(["verify", "--config", str(cfg), "--suite", "counting"]) == 0
    captured = capsys.readouterr().out
    assert "counting/" in captured and "closedform/" not in captured
    # a comma list in the file reads like the same list given as the flag
    cfg.write_text("suite = counting,closedform\n")
    assert run_cli(["verify", "--config", str(cfg)]) == 0
    captured = capsys.readouterr().out
    assert "counting/" in captured and "closedform/" in captured
    assert run_cli(["verify", "--config", str(cfg), "--suite", "sumrules"]) == 0
    captured = capsys.readouterr().out
    assert "sumrules/" in captured and "counting/" not in captured


def test_parser_is_built_once_and_carries_nothing_over(tmp_path, capsys):
    # one parser per process; each of three runs in this process gives the
    # exit code and bytes of a fresh process, so no list flag carries over
    assert cli._build_parser() is cli._build_parser()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite = counting\ng = 0.3\n")
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    runs = (["spectrum", "-L", "6", "-N", "3", "--stats", "boson"],
            ["verify", "--config", str(cfg), "--suite", "sumrules"],
            ["verify"])
    for i, argv in enumerate(runs):
        here, fresh = tmp_path / f"here{i}", tmp_path / f"fresh{i}"
        code = run_cli([*argv, "--out", str(here)])
        out = capsys.readouterr().out
        proc = subprocess.run([sys.executable, "-m", "hnaufbau", *argv, "--out", str(fresh)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (code, out) == (proc.returncode, proc.stdout), argv
        assert here.read_bytes() == fresh.read_bytes(), argv
    assert "counting/" in out and "sumrules/" in out


def test_config_keys_name_their_flags():
    # a config key k is read as -k (one letter) or --k; each option's dest
    # must be spelled that way for its key to reach it
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, command in sub.choices.items():
        for action in command._actions:
            if action.dest == "help":
                continue
            flag = ("-" if len(action.dest) == 1 else "--") + action.dest
            assert flag in action.option_strings, (name, action.dest)


# each subcommand's flags, without -h: the ones its cmd_* reads, and
# --workers on observables (a no-op kept for old command lines)
_RUN = {"-t", "-g", "--out", "--config"}
_CHAIN = _RUN | {"--format", "-L", "-N", "--bc", "--stats", "--tol"}
SUBCOMMAND_FLAGS = {
    "spectrum": _CHAIN,
    "observables": _CHAIN | {"--ranks", "--workers"},
    "skin": _CHAIN | {"--ranks"},
    "hcb-compare": _RUN | {"--format", "--lengths", "--filling"},
    "verify": _RUN | {"--suite"},
}


def test_each_subcommand_accepts_only_the_flags_it_reads():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: {flag for action in command._actions if action.dest != "help"
               for flag in action.option_strings}
        for name, command in sub.choices.items()
    }
    assert got == SUBCOMMAND_FLAGS
    assert sum(map(len, got.values())) == 45


# (subcommand, flag, value) of the 15 flags subcommands used to accept and ignore
_CHAIN_ONLY = [("-L", "8"), ("-N", "4"), ("--bc", "obc"), ("--stats", "boson"), ("--tol", "1e-9")]
IGNORED_FLAGS = (
    [("hcb-compare", flag, value) for flag, value in _CHAIN_ONLY]
    + [("verify", flag, value) for flag, value in [*_CHAIN_ONLY, ("--format", "json")]]
    + [(command, "--workers", "2") for command in ("spectrum", "skin", "hcb-compare", "verify")]
)


@pytest.mark.parametrize("command,flag,value", IGNORED_FLAGS)
def test_flag_a_subcommand_does_not_read_is_a_usage_error(command, flag, value, capsys):
    argv = [command, flag, value] + (["--suite", "counting"] if command == "verify" else [])
    assert run_cli(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_json_format_writes_no_file(tmp_path, capsys):
    out = tmp_path / "v.json"
    assert run_cli(["verify", "--suite", "counting", "--format", "json", "--out", str(out)]) == 2
    assert not out.exists()
    assert "unrecognized arguments" in capsys.readouterr().err


# -------------------------------------------------------------- exit codes


def test_exit_2_on_bad_boundary():
    assert run_cli(["spectrum", "-L", "6", "-N", "3", "--bc", "moebius"]) == 2


def test_exit_2_on_bad_twist_syntax():
    assert run_cli(["spectrum", "-L", "6", "-N", "3", "--bc", "twist=abc"]) == 2


def test_twist_boundary_accepted(tmp_path):
    code, out = run_to_file(
        tmp_path, "tw.csv",
        ["spectrum", "-L", "6", "-N", "3", "--bc", "twist=1.1"],
    )
    assert code == 0
    header, _, _ = cli.read_table(str(out))
    assert header["bc"] == "twist=1.1"


def test_hardcore_twist_matches_dense(tmp_path):
    p = HNParams(L=6, t=1.0, g=0.5, boundary="twisted", twist=0.5)
    for N in (3, 4):
        code, out = run_to_file(
            tmp_path, f"hc_tw{N}.csv",
            ["spectrum", "-L", "6", "-N", str(N), "-g", "0.5", "--bc", "twist=0.5",
             "--stats", "hardcore"],
        )
        assert code == 0
        header, _, rows = cli.read_table(str(out))
        if N % 2 == 0:
            assert header["effective_twist"] == repr(0.5 + math.pi)
        else:
            assert "effective_twist" not in header
        got = np.array([complex(float(r[1]), float(r[2])) for r in rows])
        dense = eigenvalues(build_dense_hamiltonian(p, "hardcore", N))
        diff = np.max(np.abs(sort_complex_spectrum(got) - sort_complex_spectrum(dense)))
        assert diff < TOLERANCES["spectrum_multiset"]


def test_exit_2_on_overfilled_fermion_sector():
    assert run_cli(["spectrum", "-L", "4", "-N", "5", "--bc", "pbc"]) == 2


def test_exit_2_on_out_of_range_rank():
    assert (
        run_cli(
            ["skin", "-L", "4", "-N", "2", "--bc", "obc", "--ranks", "99"]
        )
        == 2
    )


def test_exit_2_on_bad_ranks_string():
    assert (
        run_cli(["skin", "-L", "4", "-N", "2", "--bc", "obc", "--ranks", "x,y"])
        == 2
    )


@pytest.mark.parametrize("command", ["observables", "skin"])
def test_exit_2_on_repeated_rank(command, capsys):
    # a repeated rank would write its rows twice under one metrics line
    argv = [command, "-L", "4", "-N", "2", "--bc", "obc", "--ranks", "0,1,0"]
    assert run_cli(argv) == 2
    assert "rank 0 given twice" in capsys.readouterr().err


def test_exit_1_on_computation_failure(capsys):
    # at g=3 the open-chain orbitals of rank 0 are numerically dependent,
    # so the product state vanishes: a computation failure, not a usage error
    argv = ["observables", "-L", "10", "-N", "5", "-g", "3", "--bc", "obc",
            "--stats", "fermion", "--ranks", "0"]
    assert run_cli(argv) == 1
    assert "computation failed" in capsys.readouterr().err


def test_hcb_compare_exit_1_on_complex_hcb_energy(capsys):
    # at g=20 the filled hard-core ring energy picks up Im ~ 5e-6 from
    # rounding at e^20 scale; that is a computation failure, not bad usage
    argv = ["hcb-compare", "--lengths", "400:408:4", "-g", "20"]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        "computation failed: hard-core ground energy has Im = 5.186e-06, expected |Im| < 1e-10"
    ]


def test_hcb_compare_judges_each_length_before_filling_the_next(capsys):
    # length 8 fails the Im bound before length 400 is filled, whose energy
    # would overflow: the first failing length decides the message
    argv = ["hcb-compare", "--lengths", "8,400", "-g", "705"]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        "computation failed: hard-core ground energy has Im = -6.237e+290, expected |Im| < 1e-10"
    ]


@pytest.mark.parametrize("seam, hit", [
    ("single_particle_levels", lambda p: p.L == 440),
    ("_ground_fill", lambda levels, stats, N: stats == "hardcore" and len(levels) == 440),
])
def test_hcb_compare_reports_an_earlier_length_before_a_later_one_raises(
        monkeypatch, capsys, seam, hit):
    # 400..460 is one wide block; length 440 raises while its ring levels
    # (or its hard-core fill, after its fermion fill) are built, but length
    # 400, which fails the Im bound at g = 20, comes first and decides
    real = getattr(hardcore, seam)

    def faulty(*args):
        if hit(*args):
            raise OverflowError("injected at L=440")
        return real(*args)

    monkeypatch.setattr(hardcore, seam, faulty)
    assert run_cli(["hcb-compare", "--lengths", "400:460:4", "-g", "20"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "computation failed: hard-core ground energy has Im = 5.186e-06, expected |Im| < 1e-10"
    ]
    with pytest.raises(OverflowError, match="injected at L=440"):
        delta_E_scan(range(400, 461, 4), 0.5, 20.0)
    gaps = []
    with pytest.raises(OverflowError, match="injected at L=440"):
        for gap in hardcore._scan_gaps(range(400, 461, 4), 0.5, 20.0, 1.0):
            gaps.append(gap)
    assert [gap.L for gap in gaps] == list(range(400, 440, 4))


def test_hcb_compare_checks_every_length_before_the_first_fill(tmp_path, capsys):
    # length 10 has odd N: a usage error before length 8, whose g = 705
    # energy fails the Im bound, is filled; no file or part file is left
    code, out = run_to_file(tmp_path, "gaps.csv", ["hcb-compare", "--lengths", "8,10", "-g", "705"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: scan requires even N (got N=5 at L=10); use L = 0 mod 4 at half filling"
    ]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("argv", [
    ["spectrum", "-L", "6", "-N", "3", "-g", "709", "--bc", "pbc", "--stats", "boson"],
    ["hcb-compare", "--lengths", "8,16", "-g", "709.7"],
])
def test_exit_1_on_non_finite_energy(tmp_path, capsys, argv):
    # a finite g whose energies leave float range is a computation failure,
    # not a usage error, and leaves no file behind
    code, out = run_to_file(tmp_path, "overflow.csv", argv)
    assert code == 1
    assert "computation failed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["spectrum", "-L", "4", "-N", "2", "-g", "710", "--bc", "twist=0.3"],
    ["hcb-compare", "--lengths", "8", "-g", "710"],
    ["verify", "-g", "-710", "--suite", "closedform"],
])
def test_ring_beyond_float_range_names_g(argv, capsys):
    # e^|g| itself overflows: the message says which g, not just a range error
    assert run_cli(argv) == 1
    g = argv[argv.index("-g") + 1]
    text = f"hopping amplitude e^|g| at g={float(g)} leaves float range"
    if argv[0] == "verify":
        assert f"OverflowError: {text}" in capsys.readouterr().out
    else:
        assert capsys.readouterr().err.splitlines() == [f"computation failed: {text}"]
    with pytest.raises(OverflowError, match=f"at g={float(g)} "):
        im_delta_closed_form(8, 4, float(g))


def test_open_chain_spectrum_at_g_710(tmp_path):
    # open-chain energies never read e^|g|, so the chain still builds
    code, out = run_to_file(
        tmp_path, "open.csv", ["spectrum", "-L", "4", "-N", "2", "-g", "710", "--bc", "obc"]
    )
    assert code == 0
    assert cli.read_table(str(out))[0]["states"] == "6"


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    assert "spectrum" in capsys.readouterr().out


def test_unknown_command_exit_code():
    assert run_cli(["frobnicate"]) == 2


# ------------------------------------------------------------------ verify


def test_verify_single_suite_passes(tmp_path, capsys):
    out = tmp_path / "verify.txt"
    code = run_cli(["verify", "--suite", "counting", "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "PASS" in captured
    assert "FAIL" not in captured
    assert out.read_text() == captured.rstrip("\n") + "\n"


def test_verify_unknown_suite_rejected():
    assert run_cli(["verify", "--suite", "astrology"]) == 2
    # an empty selection would report a green run with no checks
    assert run_cli(["verify", "--suite", ""]) == 2
    assert run_cli(["verify", "--suite", ","]) == 2


@pytest.mark.parametrize("flags", [["-t", "0"], ["-g", "nan"]])
def test_verify_bad_model_parameters_exit_2(flags, capsys):
    assert run_cli(["verify", *flags]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "FAIL" not in captured.out


def test_verify_detects_injected_sign_fault(tmp_path, monkeypatch, capsys):
    # flip the sign of one hopping matrix entry before the residual suite
    # sees it; the eigenstates no longer satisfy the eigenproblem and the run fails
    def flip_first(h):
        h = h.copy()
        i, j = np.argwhere(h)[0]
        h[i, j] = -h[i, j]
        return h

    monkeypatch.setattr(
        cli.verify_mod, "run_checks", functools.partial(run_checks, bond_transform=flip_first)
    )
    code = run_cli(["verify", "--suite", "residuals"])
    captured = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in captured


def test_verify_nan_residual_fails():
    # at g = -70 the open-chain orbitals e^{-g j} overflow to inf, so the level
    # residual is NaN; a NaN must fail its check, not fold away as a pass
    rows = {r.name: r for r in run_checks(g=-70, suites=["single_particle"])}
    assert not rows["level-residual-open"].passed
    assert "nan" in rows["level-residual-open"].detail


@pytest.mark.parametrize("suites", [["single_particle"], None])
def test_verify_overflowing_orbitals_warn_nothing(suites):
    # the same g = -70 run: the rows fail, and numpy's overflow inside the
    # residual norms stays out of the output
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = {r.name: r for r in run_checks(g=-70, suites=suites)}
    assert caught == []
    for boundary in ("periodic", "twisted", "open"):
        assert not rows[f"level-residual-{boundary}"].passed


def _basis_dims_rows(monkeypatch, fault):
    """The basis-dims rows of a counting run whose Fock bases are built from
    fault(rows) in place of the enumerated rows."""
    rows_of = fock._occupation_rows
    monkeypatch.setattr(fock, "_occupation_rows", lambda L, N, stats: fault(rows_of(L, N, stats)))
    fock.get_basis.cache_clear()
    try:
        rows = {r.name: r for r in run_checks(suites=["counting"])}
    finally:
        fock.get_basis.cache_clear()
    return [rows[f"basis-dims-{stats}"] for stats in ("fermion", "boson", "hardcore")]


def test_verify_counting_checks_the_built_basis(monkeypatch):
    # a basis that lost a state must fail basis-dims, even though its
    # nominal dim (count_configs) is unchanged; the detail names the first
    # failing sector, the one-state L = 2, N = 0
    for row in _basis_dims_rows(monkeypatch, lambda rows: rows[1:]):
        assert not row.passed
        assert row.detail == "basis dim mismatch at L=2 N=0: 0 rows, dim 1"


@pytest.mark.parametrize("fault", [
    lambda rows: rows[[1, 0, *range(2, len(rows))]] if len(rows) > 1 else rows,
    lambda rows: np.vstack([rows[:1], rows[:-1]]),
], ids=["swapped", "repeated"])
def test_verify_counting_checks_strict_colex_order(monkeypatch, fault):
    # the right number of rows, but out of colex order or with a state twice;
    # the first sector with two states is the first to fail
    for row in _basis_dims_rows(monkeypatch, fault):
        assert not row.passed
        assert row.detail == "basis rows out of strict colex order at L=2 N=1"


def test_verify_counting_checks_row_sums(monkeypatch):
    # doubled rows keep their count and colex order but leave the sector
    for row in _basis_dims_rows(monkeypatch, lambda rows: rows * 2):
        assert not row.passed
        assert row.detail == "basis row sums differ from N at L=2 N=1"


def test_verify_runner_labels_rows_and_keeps_them_past_a_crash(monkeypatch):
    # a suite that yields one row and raises keeps that row, gets one failing
    # no-exception row after it, and the later selected suites still run;
    # the overflow inside the suite's iteration warns nothing
    def crashing(g, t, bond_transform):
        yield "first", np.isinf(np.float64(1e308) * 10), "overflow to inf"
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.verify_mod._SUITE_FNS, "counting", crashing)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = run_checks(suites=["residuals", "counting"])
    assert caught == []
    assert results[:2] == [
        CheckResult("counting", "first", True, "overflow to inf"),
        CheckResult("counting", "no-exception", False, "RuntimeError: boom"),
    ]
    assert type(results[0].passed) is bool
    # the results follow SUITES order, not the order of suites=
    assert [r.suite for r in results[2:]] == ["residuals"] * 4
    assert all(r.passed for r in results[2:])


CLOSEDFORM_ROWS = [
    "im-gap-matches-filling-formula",
    "hardcore-ground-real",
    "re-gap-strictly-decreasing",
    "reciprocal-limit-gap-real",
]


@pytest.mark.parametrize("g,t", [(0.5, 1e4), (20.0, 1.0)])
def test_verify_closedform_reports_a_non_real_hardcore_energy(g, t):
    # where |Im E0_hcb| reaches 1e-10 the suite still yields its four rows,
    # each with a value, instead of one no-exception row from the scan
    results = run_checks(g=g, t=t, suites=["closedform"])
    assert [r.name for r in results] == CLOSEDFORM_ROWS


def test_verify_closedform_catches_an_imaginary_hardcore_fill(monkeypatch):
    # every scan fill, wide block or narrow, takes its terms from _ground_fill:
    # the 21-length scan sums in one wide block, its 6-length g = 0 part
    # length by length, and the fault reaches every hard-core fill of both
    fill = hardcore._ground_fill
    faults = []

    def faulty(levels, statistics, N):
        filled, terms = fill(levels, statistics, N)
        if statistics == "hardcore":
            terms[0] += 1e-9j
            faults.append(len(levels))
        return filled, terms

    monkeypatch.setattr(hardcore, "_ground_fill", faulty)
    rows = {r.name: r for r in run_checks(suites=["closedform"])}
    assert list(rows) == CLOSEDFORM_ROWS
    assert faults == list(range(160, 481, 16)) + list(range(160, 241, 16))
    assert not rows["hardcore-ground-real"].passed
    assert not rows["reciprocal-limit-gap-real"].passed
    assert rows["hardcore-ground-real"].detail.startswith("max |Im E0_hcb| = 1.000e-09")


SUMRULE_SECTORS = [
    f"{stats}-{bc}-L8-N3" for stats in ("fermion", "boson") for bc in ("periodic", "open")
]


def _sumrules_with_profile(monkeypatch, alter):
    """The sumrules rows by name, every n_k profile passed through alter
    (values -> values) on its way from verify.observables."""
    real = verify.observables.momentum_distribution

    def altered(G):
        nk = real(G)
        values = alter(nk.values.copy())
        return DistributionProfile(nk.kind, nk.grid, values, float(values.sum()))

    monkeypatch.setattr(verify.observables, "momentum_distribution", altered)
    return {r.name: r for r in run_checks(suites=["sumrules"])}


def test_verify_sumrules_catches_a_scaled_momentum_profile(monkeypatch):
    rows = _sumrules_with_profile(monkeypatch, lambda values: values * (1 + 1e-6))
    assert list(rows)[:4] == SUMRULE_SECTORS
    assert list(rows)[4:] == ["correlation-dual-route", "ring-momentum-occupations"]
    for name in SUMRULE_SECTORS:
        assert not rows[name].passed
        assert rows[name].detail.startswith("rank 0: sum n_j = ")
        assert ", sum n_k = 3.00000" in rows[name].detail


def test_verify_sumrules_catches_a_fermion_above_the_pauli_bound(monkeypatch):
    def peak(values):
        # the top weight rises to 1 + 1e-6, the next one pays for it
        top, second = np.argsort(values)[::-1][:2]
        shift = 1 + 1e-6 - values[top]
        values[top] += shift
        values[second] -= shift
        return values

    rows = _sumrules_with_profile(monkeypatch, peak)
    assert list(rows)[:4] == SUMRULE_SECTORS
    detail = rows["fermion-periodic-L8-N3"].detail
    assert not rows["fermion-periodic-L8-N3"].passed
    assert detail.startswith("rank 0: n_k = 1.000001") and detail.endswith("above the Pauli bound")
    assert rows["boson-periodic-L8-N3"].passed


def test_verify_sumrules_negative_momentum_weight_ends_the_suite(monkeypatch):
    # the profile itself refuses weight below its floor, so the suite stops
    # with one no-exception row instead of a negative-weight row
    def dip(values):
        values[np.argmin(values)] = -1e-9
        return values

    rows = _sumrules_with_profile(monkeypatch, dip)
    assert list(rows) == ["no-exception"]
    assert rows["no-exception"].detail == (
        "ValueError: profile has weight -1.000e-09 below the floor -1e-10"
    )


@pytest.mark.parametrize("g", [0.25, 0.5, 1.1, 2.0, 4.0])
def test_verify_every_row_passes(g):
    failed = [r.name for r in run_checks(g=g) if not r.passed]
    assert not failed


def test_verify_multiple_suites_comma_split(capsys):
    code = run_cli(["verify", "--suite", "counting,closedform"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "counting" in captured and "closedform" in captured
