"""The benchmark's output oracles run against the package as it stands.

perfbench/oracles.py calls into the package (density_matrix_from_orbitals,
momentum_distribution, build_spectrum, ...) to check each pass's files, so a
change of those signatures would only show when the benchmark runs. Here the
profile oracle reads fresh observables files on both boundaries, and the
benchmark's own command lines (the observables pair on --workers 2, verify at
three couplings, the hcb-compare scan) run through the CLI and its oracles.
"""

import sys
from pathlib import Path

import pytest

from hnaufbau import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import oracles  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("stats", ["fermion", "boson"])
@pytest.mark.parametrize("bc, g", [("pbc", "0.5"), ("obc", "1.5")])
def test_profile_oracles_pass_program_output(tmp_path, stats, bc, g):
    argv = ["observables", "-L", "6", "-N", "3", "-g", g, "--bc", bc, "--stats", stats,
            "--ranks", "0,1,7,19", "--out", str(tmp_path / f"{stats}-{bc}.csv")]
    code = cli.main(argv)
    checks, items = oracles.check_pass([argv], [code])
    assert items == 4
    assert [(c.name, c.detail) for c in checks if not c.passed] == []


@pytest.mark.parametrize("workload", ["eigenstate-profiles", "oracle-verify", "gap-scan"])
def test_benchmark_commands_pass_their_oracles(tmp_path, workload):
    commands = workloads.commands(workload, 1, tmp_path)
    codes = [cli.main(argv) for argv in commands]
    assert codes == [0] * len(commands)
    checks, items = oracles.check_pass(commands, codes)
    assert items > 0
    assert [(c.name, c.detail) for c in checks if not c.passed] == []
