"""Acceptance gate: the nine headline criteria, one test and one printed
verdict line each.

Verdict lines are written to the real stdout so they appear regardless of
pytest's capture mode. Criterion 6 asserts the stated decay exponent of
-2.0 +- 0.2 for the real part of the fermion/hard-core gap; the scan data
itself decays as 1/L (the closed form is t(e^g + e^{-g}) tan(pi/2L)), so
that assertion is expected to fail until the stated exponent is revisited.
test_hardcore.py::test_scan_decay_exponent_is_one covers the behavior the
data actually follows.
"""

import itertools
import math
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from hnaufbau.aufbau import build_spectrum, sort_complex_spectrum
from hnaufbau.fock import build_dense_hamiltonian, eigenstate_from_config, residual
from hnaufbau.hardcore import delta_E_scan, obc_equivalence_check
from hnaufbau.lattice import HNParams, hopping_matrix, single_particle_levels
from hnaufbau.numerics import eigenvalues
from hnaufbau.observables import (
    correlation_matrix,
    density_from_fock,
    momentum_distribution,
    skin_metrics,
)
from hnaufbau.verify import run_checks


@contextmanager
def verdict(number, name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        sys.__stdout__.write(f"ACCEPTANCE {number} {name}: FAIL\n")
        sys.__stdout__.flush()
        raise
    elapsed = time.perf_counter() - start
    sys.__stdout__.write(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)\n")
    sys.__stdout__.flush()


def group_sizes(spec):
    return [
        len(list(run))
        for _, run in itertools.groupby(lv.degeneracy_group for lv in spec)
    ]


def test_acceptance_1_degeneracy_groups():
    with verdict(1, "degeneracy-groups"):
        start = time.perf_counter()
        levels = single_particle_levels(HNParams(L=10, t=1.0, g=0.5, boundary="periodic"))
        fermion = build_spectrum(levels, "fermion", 5, tie_tol=1e-9)
        boson = build_spectrum(levels, "boson", 5, tie_tol=1e-9)
        fsizes = group_sizes(fermion)
        bsizes = group_sizes(boson)
        assert fsizes[0] == 1 and fsizes[1] == 4
        assert bsizes[0] == 1 and bsizes[1] == 2
        assert time.perf_counter() - start < 1.0


def test_acceptance_2_sector_counting():
    with verdict(2, "sector-counting"):
        start = time.perf_counter()
        levels = single_particle_levels(HNParams(L=10, t=1.0, g=0.5, boundary="periodic"))
        assert len(build_spectrum(levels, "fermion", 5)) == 252
        assert len(build_spectrum(levels, "boson", 5)) == 2002
        assert time.perf_counter() - start < 1.0


def test_acceptance_3_oracle_multiset_equality():
    with verdict(3, "oracle-multiset-equality"):
        start = time.perf_counter()
        p = HNParams(L=6, t=1.0, g=0.5, boundary="periodic")
        levels = single_particle_levels(p)
        for stats, dim in (("fermion", 20), ("boson", 56)):
            spec = build_spectrum(levels, stats, 3)
            assert len(spec) == dim
            eigs = eigenvalues(build_dense_hamiltonian(p, stats, 3))
            a = sort_complex_spectrum(np.array([lv.energy for lv in spec]))
            b = sort_complex_spectrum(eigs)
            assert np.max(np.abs(a - b)) < 1e-8
        assert time.perf_counter() - start < 10.0


def test_acceptance_4_eigenstate_residuals():
    with verdict(4, "eigenstate-residuals"):
        start = time.perf_counter()
        worst = 0.0
        for boundary in ("periodic", "open"):
            p = HNParams(L=8, t=1.0, g=0.5, boundary=boundary)
            levels = single_particle_levels(p)
            for stats in ("fermion", "boson"):
                spec = build_spectrum(levels, stats, 4)
                for occ, energy in zip(spec.occupations(slice(None)), spec.energies):
                    v = eigenstate_from_config(p, stats, occ)
                    worst = max(worst, residual(v, hopping_matrix(p), energy))
        assert worst < 1e-9, f"worst residual {worst:.3e}"
        assert time.perf_counter() - start < 60.0


def test_acceptance_5_im_delta_closed_form():
    with verdict(5, "im-delta-closed-form"):
        start = time.perf_counter()
        closed = (-math.exp(0.5) + math.exp(-0.5)) * math.sin(math.pi / 2)
        gaps = delta_E_scan(list(range(160, 481, 16)), filling=0.5, g=0.5)
        for gap in gaps:
            assert abs(gap.delta.imag - closed) < 1e-10
            assert abs(gap.E0_hcb.imag) < 1e-10
        assert time.perf_counter() - start < 1.0


def test_acceptance_6_re_delta_decay():
    with verdict(6, "re-delta-decay"):
        gaps = delta_E_scan(list(range(160, 481, 16)), filling=0.5, g=0.5)
        re = [abs(gap.delta.real) for gap in gaps]
        assert all(b < a for a, b in zip(re, re[1:])), "not strictly decreasing"
        slope = np.polyfit(np.log([g.L for g in gaps]), np.log(re), 1)[0]
        assert abs(slope - (-2.0)) <= 0.2, f"fitted log-log slope {slope:.3f}"


def test_acceptance_7_hardcore_equivalences():
    with verdict(7, "hardcore-equivalences"):
        start = time.perf_counter()
        assert obc_equivalence_check(6, 3, 0.5) is True
        assert obc_equivalence_check(7, 3, 0.5) is True
        assert obc_equivalence_check(6, 3, 0.5, boundary="periodic") is True
        assert obc_equivalence_check(6, 2, 0.5, boundary="periodic") is False
        assert time.perf_counter() - start < 10.0


def test_acceptance_8_skin_effect():
    with verdict(8, "skin-effect"):
        start = time.perf_counter()
        p = HNParams(L=10, t=1.0, g=1.5, boundary="open")
        levels = single_particle_levels(p)

        def profiles(stats, N, limit=None):
            spec = build_spectrum(levels, stats, N)
            for occ in spec.occupations(slice(limit)):
                v = eigenstate_from_config(p, stats, occ)
                nj = density_from_fock(v)
                nk = momentum_distribution(correlation_matrix(v))
                assert abs(nj.total - N) < 1e-8
                assert abs(nk.total - N) < 1e-8
                yield nj, nk

        for nj, _nk in profiles("fermion", 5):
            assert skin_metrics(nj).left_fraction > 0.5

        nj, _nk = next(profiles("boson", 5, limit=1))
        phi = levels[0].orbital
        closed = np.abs(phi[0]) ** 2 / np.sum(np.abs(phi) ** 2)
        assert abs(nj.values[0] / nj.total - closed) < 1e-10
        slope = skin_metrics(nj).log_slope
        assert slope == pytest.approx(-2 * 1.5, rel=0.15)
        assert time.perf_counter() - start < 30.0


def test_acceptance_9_hermitian_regression():
    with verdict(9, "hermitian-regression"):
        results = run_checks(g=0.0, t=1.0)
        failed = [r for r in results if not r.passed]
        assert not failed, f"failing checks: {[r.name for r in failed]}"
