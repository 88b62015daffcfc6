"""Command-line interface: determinism, round-trips, exit codes.

Outputs must be byte-stable: same invocation twice gives identical files,
and worker count must not change anything. The spectrum CSV is checked by
re-deriving each row's energy from its occupation string.
"""

import argparse
import functools
import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from hnaufbau import cli
from hnaufbau.aufbau import (
    energy_of_config,
    ground_state,
    occupation_string,
    parse_occupation_string,
    sort_complex_spectrum,
)
from hnaufbau.fock import build_dense_hamiltonian
from hnaufbau.hardcore import im_delta_closed_form
from hnaufbau.lattice import HNParams, pbc_spectrum, single_particle_levels
from hnaufbau.numerics import eigenvalues
from hnaufbau.verify import TOLERANCES, run_checks


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


def test_hcb_compare_worker_count_invariant(tmp_path):
    base = ["hcb-compare", "--lengths", "160,192,224", "-g", "0.5"]
    _, f1 = run_to_file(tmp_path, "h1.csv", [*base, "--workers", "1"])
    _, f4 = run_to_file(tmp_path, "h4.csv", [*base, "--workers", "4"])
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
    levels = pbc_spectrum(HNParams(L=8, t=1.0, g=0.5, boundary="periodic"))
    for row in rows[:60]:
        cfg = parse_occupation_string(row[4], "boson")
        redo = energy_of_config(levels, cfg)
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
        redo = energy_of_config(levels, parse_occupation_string(row[4], "boson"))
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
]


@pytest.mark.parametrize("flags,digest", GOLDEN_SPECTRA)
def test_spectrum_output_matches_golden_digest(tmp_path, flags, digest):
    code, out = run_to_file(tmp_path, "golden.out", ["spectrum", *flags])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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
    assert rows[0][4] == occupation_string(gs.config)


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


def test_hcb_compare_rejects_odd_filling_sector():
    assert run_cli(["hcb-compare", "--lengths", "10,14"]) == 2


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


def test_config_bad_value_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    for text in ("L = six\n", "format = xml\n", "stats = bogus\n", "t = x\n",
                 "workers = two\n", "tol = abc\n"):
        cfg.write_text("L = 4\nN = 1\n" + text)
        assert run_cli(["spectrum", "--config", str(cfg)]) == 2, text
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
    assert "computation failed" in capsys.readouterr().err


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


@pytest.mark.parametrize("g", [0.25, 0.5, 1.1, 2.0, 4.0])
def test_verify_every_row_passes(g):
    failed = [r.name for r in run_checks(g=g) if not r.passed]
    assert not failed


def test_verify_multiple_suites_comma_split(capsys):
    code = run_cli(["verify", "--suite", "counting,closedform"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "counting" in captured and "closedform" in captured
