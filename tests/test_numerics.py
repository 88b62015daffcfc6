"""The numerics module checked against independent oracles.

The eigenvalue wrapper is numpy's LAPACK zgeev behind an input check, so
its tests pin that contract: known spectra, invariants, and rejected input.
"""

import ast
import inspect
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hnaufbau
from hnaufbau import (
    aufbau,
    cli,
    fock,
    hardcore,
    kernels,
    lattice,
    numerics,
    observables,
    verify,
)
from hnaufbau.numerics import eigenvalues


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def sorted_by_parts(values):
    values = np.asarray(values, dtype=np.complex128)
    order = np.lexsort((values.imag, values.real))
    return values[order]


# ------------------------------------------------------------- eigenvalues


def test_eigenvalues_diagonal():
    d = np.array([1.0 + 2.0j, -3.0, 0.5j])
    eigs = eigenvalues(np.diag(d))
    np.testing.assert_allclose(sorted_by_parts(eigs), sorted_by_parts(d), atol=1e-13)


def test_eigenvalues_asymmetric_hopping_cell():
    # [[0, a], [b, 0]] has spectrum +/- sqrt(ab); with a=e^g, b=e^-g the
    # product is 1 and the eigenvalues are exactly +/- 1 for every g.
    g = 0.5
    a = np.array([[0.0, math.exp(g)], [math.exp(-g), 0.0]], dtype=complex)
    got = sorted_by_parts(eigenvalues(a))
    np.testing.assert_allclose(got, [-1.0, 1.0], atol=1e-12)


def test_eigenvalues_jordan_block():
    # defective: [[0,1],[0,0]] has a double eigenvalue 0
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    np.testing.assert_allclose(eigenvalues(a), [0.0, 0.0], atol=1e-12)


def test_eigenvalues_trace_invariant_dim_200(rng):
    a = random_complex(rng, 200)
    assert abs(eigenvalues(a).sum() - np.trace(a)) < 1e-8 * np.linalg.norm(a)


def test_eigenvalues_determinant_invariant(rng):
    a = random_complex(rng, 30)
    ref = np.linalg.det(a)
    assert abs(np.prod(eigenvalues(a)) - ref) < 1e-8 * (1 + abs(ref))


def test_eigenvalues_similarity_invariance(rng):
    # spectra are invariant under similarity transforms; exercises balancing
    a = random_complex(rng, 12)
    d = np.diag(10.0 ** rng.integers(-3, 4, size=12).astype(float))
    b = d @ a @ np.linalg.inv(d)
    got = sorted_by_parts(eigenvalues(b))
    ref = sorted_by_parts(eigenvalues(a))
    np.testing.assert_allclose(got, ref, atol=1e-8)


def test_eigenvalues_empty_rejected():
    with pytest.raises(ValueError):
        eigenvalues(np.zeros((0, 0)))


def test_eigenvalues_rejects_nonsquare():
    with pytest.raises(ValueError):
        eigenvalues(np.ones((2, 3)))


def test_eigenvalues_rejects_nonfinite():
    a = np.eye(2, dtype=complex)
    a[0, 1] = np.nan
    with pytest.raises(ValueError):
        eigenvalues(a)


def test_eigenvalues_lapack_failure_is_arithmetic(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    with pytest.raises(ArithmeticError):
        eigenvalues(np.eye(2))


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 25))
def test_eigenvalues_trace_property(seed, n):
    rng = np.random.default_rng(seed)
    a = random_complex(rng, n)
    scale = np.linalg.norm(a) + 1.0
    assert abs(eigenvalues(a).sum() - np.trace(a)) < 1e-9 * n * scale


# ------------------------------------------------------------ public names


@pytest.mark.parametrize(
    "module",
    [aufbau, cli, fock, hardcore, kernels, lattice, numerics, observables, verify],
    ids=lambda m: m.__name__,
)
def test_public_names_resolve(module):
    # perfbench's tracer wraps every name in these lists, and the package
    # exports seven of them (test_package_exports_are_public)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


# the modules whose __all__ the package exports, in its order
PACKAGE_MODULES = (aufbau, fock, hardcore, lattice, numerics, observables, verify)


def test_package_exports_are_public():
    # the package's names are its seven modules' __all__ joined in order,
    # each the module's own object, so no hand-kept list can drift from them
    joined = [name for module in PACKAGE_MODULES for name in module.__all__]
    assert hnaufbau.__all__ == joined
    assert len(set(joined)) == len(joined)
    for module in PACKAGE_MODULES:
        assert all(getattr(hnaufbau, name) is getattr(module, name) for name in module.__all__)
    star = {}
    exec("from hnaufbau import *", star)
    assert set(star) - {"__builtins__"} == set(joined)
    # kernels does no input checks and cli is the front end: neither is exported
    assert not [name for name in (*kernels.__all__, *cli.__all__) if hasattr(hnaufbau, name)]


def test_readme_module_names_resolve():
    # every backticked `<module>.<name>` in README.md names something that
    # exists, so the docs cannot point at a deleted function
    modules = {m.__name__.rsplit(".", 1)[1]: m for m in (
        aufbau, cli, fock, hardcore, kernels, lattice, numerics, observables, verify
    )}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    refs = re.findall(r"`(\w+)\.(\w+)", readme)
    named = [(mod, name) for mod, name in refs if mod in modules]
    assert named
    missing = [(mod, name) for mod, name in named if not hasattr(modules[mod], name)]
    assert not missing


README = Path(__file__).resolve().parents[1] / "README.md"


def _resolve(dotted, modules):
    """The object a README name names: `<module>.<name>` through its module,
    any other name on the package alone, as `from hnaufbau import` sees it."""
    head, *rest = dotted.split(".")
    by_name = {m.__name__.rsplit(".", 1)[1]: m for m in modules}
    if head in by_name and rest:
        obj = by_name[head]
    else:
        assert head in hnaufbau.__all__, dotted
        obj = getattr(hnaufbau, head)
    for part in rest:
        obj = getattr(obj, part)
    return obj


def test_readme_library_calls_match_signatures():
    # a Library bullet that opens with a call of plain parameters, each with
    # an optional =default, lists the callable's parameters in order, with
    # the same defaults
    modules = (aufbau, cli, fock, hardcore, kernels, lattice, numerics, observables, verify)
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    calls = re.findall(r"^- `([\w.]+)\(([^`]*)\)`", section, flags=re.M)
    checked = 0
    for name, arglist in calls:
        args = [arg.strip() for arg in arglist.split(",")] if arglist.strip() else []
        if not all(re.fullmatch(r"\w+(=\S+)?", arg) for arg in args):
            continue
        signature = inspect.signature(_resolve(name, modules))
        params = [(p.name, p.default) for p in signature.parameters.values() if p.name != "self"]
        written = [
            (arg, inspect.Parameter.empty) if "=" not in arg
            else (arg.split("=")[0], ast.literal_eval(arg.split("=", 1)[1]))
            for arg in args
        ]
        assert written == params, name
        checked += 1
    assert checked >= 4


def _readme_commands(text):
    """argv after the program name of every `hnaufbau ...` command in text,
    on a line of a fenced block or in backticks, cut at a pipe or comment."""
    fenced = re.findall(r"^```\w*\n(.*?)^```", text, flags=re.S | re.M)
    lines = [line for block in fenced for line in block.splitlines()]
    inline = re.findall(r"`(hnaufbau [^`]*)`", text)
    commands = [cmd for cmd in lines + inline if cmd.startswith("hnaufbau ")]
    return [shlex.split(re.split(r"[|#]", cmd)[0])[1:] for cmd in commands]


def test_readme_commands_parse():
    # a flag renamed or removed in the CLI fails here, not in a reader's shell
    commands = _readme_commands(README.read_text())
    assert len(commands) >= 10
    parser = cli._build_parser()
    unparsed = []
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            unparsed.append(argv)
    assert not unparsed


def test_readme_cli_block_runs(tmp_path, capsys):
    # the six commands of the CLI section exit 0, --out files in tmp_path
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"^```sh\n(.*?)^```", section, flags=re.S | re.M).group(1)
    commands = _readme_commands(f"```\n{block}```\n")
    assert len(commands) == 6
    for argv in commands:
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv[at] = str(tmp_path / argv[at])
        assert cli.main(argv) == 0, argv
    assert capsys.readouterr().err == ""
