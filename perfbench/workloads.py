"""The benchmark's workloads: the hnaufbau CLI commands one pass runs.

Each workload is a list of argv lists for ``hnaufbau.cli.main``. The seed
picks the profiled ranks and the third verify coupling; the other inputs
are fixed, so that every pass of a workload does the same amount of work.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

WORKLOADS = ("spectrum-sector", "eigenstate-profiles", "oracle-verify", "gap-scan")

PROFILE_L, PROFILE_N, PROFILE_RANKS = 10, 5, 8


def _ranks(rng, dim):
    """PROFILE_RANKS distinct ranks of a sector of size dim, rank 0 always among them."""
    return [0] + sorted(rng.sample(range(1, dim), PROFILE_RANKS - 1))


def commands(workload, seed, out_dir):
    """argv lists of one pass; every command writes one file under out_dir."""
    out = Path(out_dir)
    rng = random.Random(seed)
    if workload == "spectrum-sector":
        return [
            ["spectrum", "-L", "20", "-N", "10", "-g", "0.5", "--bc", "pbc",
             "--stats", "fermion", "--out", str(out / "spectrum_f.csv")],
            ["spectrum", "-L", "13", "-N", "7", "-g", "0.5", "--bc", "obc",
             "--stats", "boson", "--out", str(out / "spectrum_b.csv")],
        ]
    if workload == "eigenstate-profiles":
        argvs = []
        # Fig. 2 (ring) and Fig. 3 (open chain); Fig. 3 runs on the thread pool
        for fig, g, bc, workers in (("fig2", "0.5", "pbc", []),
                                    ("fig3", "1.5", "obc", ["--workers", "2"])):
            for stats in ("fermion", "boson"):
                L, N = PROFILE_L, PROFILE_N
                dim = math.comb(L, N) if stats == "fermion" else math.comb(L + N - 1, N)
                ranks = ",".join(str(r) for r in _ranks(rng, dim))
                argvs.append(
                    ["observables", "-L", str(L), "-N", str(N), "-g", g, "--bc", bc,
                     "--stats", stats, "--ranks", ranks, *workers,
                     "--out", str(out / f"{fig}_{stats}.csv")]
                )
        return argvs
    if workload == "oracle-verify":
        g_seeded = f"{rng.uniform(0.25, 2.0):.3f}"
        return [
            ["verify", "-g", g, "--out", str(out / f"verify_{i}.txt")]
            for i, g in enumerate(("0.5", "0", g_seeded))
        ]
    if workload == "gap-scan":
        return [["hcb-compare", "--lengths", "400:2400:4", "-g", "0.5",
                 "--out", str(out / "gaps.csv")]]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
