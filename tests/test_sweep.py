"""Seeded whole-range contract sweep of the CLI.

Draws argv for every subcommand across the range the parser accepts (L from
2 to 9 and a few rings past 62 modes, N inside and outside the sector,
|g| up to 720 with the float-range edges 709 and 710, t log-uniform up to
1e308, every boundary, statistics and format, rank and length lists with
out-of-range and repeated entries) and runs each through cli.main in this
process. The contract: exit 0, 1 or 2 and nothing escaping main; no
warning; a table command that fails writes one stderr line and leaves no
--out or part file; verify writes nothing to stderr; an argv that exits 0
gives the same bytes when run again. A verify table labels every row
<suite>/<row> with a drawn suite, in run order, and closes with a count that
matches its rows and its exit code; a table that exits 0 reads back, CSV
through cli.read_table and JSON through json.loads, with one cell per column
in every row and, for a spectrum, as many rows as its states header. A
spectrum that sets --tol and exits 0 is run again without it, and both
files give every occupation the same energy text; TOL_DRAWS more spectrum
draws set --tol on sectors of a few hundred states, so that comparison
sees enough rows for a tolerance-dependent filling order to show. Full-rank
selections are drawn only on sectors of at most 100 states, which keeps the
sweep to seconds.
"""

import json
import math
import warnings

import numpy as np

from hnaufbau import cli, verify
from hnaufbau.aufbau import STATISTICS

SEED = 20261019
DRAWS = 400
TOL_DRAWS = 16


def _g(rng):
    kind = rng.integers(4)
    if kind == 0:
        return float(rng.choice([709.0, -709.0, 710.0, -710.0, 0.0, 0.5]))
    if kind == 1:
        return float(rng.uniform(-5.0, 5.0))
    return float(rng.uniform(-720.0, 720.0))


def _t(rng):
    if rng.integers(3) == 0:
        return float(10.0 ** rng.uniform(-1.0, 1.0))
    return float(10.0 ** rng.uniform(-300.0, 308.0)) if rng.integers(6) else 1e308


def _dim(L, N, statistics):
    if N < 0 or (statistics != "boson" and N > L):
        return 0
    return math.comb(L + N - 1, N) if statistics == "boson" else math.comb(L, N)


def _chain(rng, command):
    if rng.integers(10):
        L = int(rng.integers(2, 10))
        N = int(rng.integers(-1, L + 3))
    else:
        L = int(rng.choice([63, 64, 70, 100]))
        N = int(rng.integers(0, 3))
    statistics = str(rng.choice(STATISTICS))
    bc = str(rng.choice(["pbc", "obc", f"twist={rng.uniform(-7.0, 7.0)!r}"]))
    if rng.integers(16) == 0:
        bc = "twist=x"
    argv = [command, "-L", str(L), "-N", str(N), "-g", repr(_g(rng)), "-t", repr(_t(rng)),
            "--bc", bc, "--stats", statistics, "--format", str(rng.choice(["csv", "json"]))]
    if rng.integers(8) == 0:
        argv += ["--tol", repr(float(rng.choice([0.0, 1e-3, 1.0, -1.0])))]
    if command != "spectrum":
        dim = _dim(L, N, statistics)
        kind = rng.integers(4)
        if kind == 0 and dim <= 100:
            argv += ["--ranks", "all"]
        elif kind <= 1:
            argv += ["--ranks", "lowest8"]
        else:
            ranks = rng.integers(-1, dim + 2, size=int(rng.integers(1, 4)))
            argv.append("--ranks=" + ",".join(map(str, ranks)))  # "-1,3" is no flag value
    return argv


def _tol_spectrum(rng):
    """A spectrum with --tol on a sector of a few hundred states (L = 10..12
    near half filling, or N = 3 bosons), where a tolerance that moved the
    filling order would change energies in their last bits."""
    L = int(rng.integers(10, 13))
    statistics = str(rng.choice(STATISTICS))
    N = 3 if statistics == "boson" else L // 2 + int(rng.integers(-1, 2))
    bc = str(rng.choice(["pbc", "obc", f"twist={rng.uniform(-7.0, 7.0)!r}"]))
    return ["spectrum", "-L", str(L), "-N", str(N), "-g", repr(float(rng.uniform(-3.0, 3.0))),
            "-t", repr(float(10.0 ** rng.uniform(-1.0, 1.0))), "--bc", bc, "--stats", statistics,
            "--format", str(rng.choice(["csv", "json"])),
            "--tol", repr(float(rng.choice([0.0, 1e-3, 1.0, 10.0])))]


def _hcb_compare(rng):
    if rng.integers(3):
        lengths = ",".join(str(int(L)) for L in rng.integers(2, 11, size=rng.integers(1, 4)) * 4)
    else:
        start = int(rng.integers(2, 20))
        lengths = f"{start}:{start + int(rng.integers(0, 40))}:{int(rng.integers(1, 9))}"
    filling = float(rng.choice([0.5, 0.5, 0.25, 1 / 3, 0.75, 1.0, 0.0, 2.0]))
    return ["hcb-compare", "--lengths", lengths, "--filling", repr(filling),
            "-g", repr(_g(rng)), "-t", repr(_t(rng)), "--format", str(rng.choice(["csv", "json"]))]


def _verify(rng):
    suites = rng.choice(verify.SUITES, size=int(rng.integers(1, 3)), replace=False)
    return ["verify", "--suite", ",".join(suites), "-g", repr(_g(rng)), "-t", repr(_t(rng))]


def _argvs():
    rng = np.random.default_rng(SEED)
    draws = []
    for _ in range(DRAWS):
        kind = rng.integers(9)
        if kind < 6:
            draws.append(_chain(rng, str(rng.choice(["spectrum", "observables", "skin"]))))
        elif kind < 8:
            draws.append(_hcb_compare(rng))
        else:
            draws.append(_verify(rng))
    return draws + [_tol_spectrum(rng) for _ in range(TOL_DRAWS)]


def _run(argv, out, capsys):
    """(exit code, stdout, stderr, --out bytes or None, warnings raised)."""
    full = argv if argv[0] == "verify" else [*argv, "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(full)
    captured = capsys.readouterr()
    data = out.read_bytes() if out.exists() else None
    return code, captured.out, captured.err, data, [str(w.message) for w in caught]


def _check_verify_table(argv, code, stdout):
    drawn = argv[argv.index("--suite") + 1].split(",")
    *lines, last = stdout.splitlines()
    rows = [line.split()[:2] for line in lines if not line.startswith("#")]
    suites = []
    for status, label in rows:
        suite, _, name = label.partition("/")
        assert status in ("PASS", "FAIL") and suite in drawn and name, (argv, label)
        suites.append(suite)
    assert suites == sorted(suites, key=verify.SUITES.index), argv
    passed = sum(status == "PASS" for status, _ in rows)
    assert last == f"# {passed}/{len(rows)} checks passed", argv
    assert (code == 0) == (passed == len(rows)), argv


def _check_table_file(argv, path):
    if argv[argv.index("--format") + 1] == "json":
        payload = json.loads(path.read_text(encoding="utf-8"))
        header, columns, rows = payload["params"], payload["columns"], payload["rows"]
    else:
        header, columns, rows = cli.read_table(path)
    assert all(len(row) == len(columns) for row in rows), argv
    if argv[0] == "spectrum":
        assert int(header["states"]) == len(rows), argv


def _energy_texts(argv, path):
    """occupation -> (energy_re, energy_im) text of a spectrum file."""
    if argv[argv.index("--format") + 1] == "json":
        rows = json.loads(path.read_text(encoding="utf-8"), parse_float=str)["rows"]
    else:
        rows = cli.read_table(path)[2]
    return {row[4]: (row[1], row[2]) for row in rows}


def test_contract_sweep(tmp_path, capsys):
    out = tmp_path / "out.dat"
    codes = set()
    tol_runs = wide_tol_runs = 0
    for argv in _argvs():
        code, stdout, stderr, data, caught = _run(argv, out, capsys)
        codes.add(code)
        assert code in (0, 1, 2), argv
        assert caught == [], argv
        if argv[0] == "verify":
            assert stderr == "", argv
            _check_verify_table(argv, code, stdout)
        elif code:
            assert len(stderr.splitlines()) == 1, (argv, stderr)
            assert list(tmp_path.iterdir()) == [], argv  # no --out, no part file
        else:
            assert stderr == "" and stdout == "" and data, argv
            assert [path.name for path in tmp_path.iterdir()] == [out.name], argv
            _check_table_file(argv, out)
        if code == 0:
            assert _run(argv, out, capsys)[:4] == (code, stdout, stderr, data), argv
        if code == 0 and argv[0] == "spectrum" and "--tol" in argv:
            at = argv.index("--tol")
            plain = argv[:at] + argv[at + 2:]
            texts = _energy_texts(argv, out)
            assert _run(plain, out, capsys)[0] == 0, plain
            assert _energy_texts(plain, out) == texts, argv
            tol_runs += 1
            wide_tol_runs += len(texts) >= 200
        if out.exists():
            out.unlink()
    assert codes == {0, 1, 2}  # the draw reaches every outcome
    assert tol_runs and wide_tol_runs >= 6
