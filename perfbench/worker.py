"""One benchmark pass, in a fresh process.

Usage: python3 worker.py '<job JSON>'

The job names the commands, whether to trace, and where to write the
result. The process imports hnaufbau (timed as set-up, with the JIT warm-up
when numba is present), then calls ``hnaufbau.cli.main(argv)`` once per
command, timing the whole sequence. With "setup_only" it stops after the
import. The result is written as JSON to job["result"].
"""

import json
import platform
import resource
import sys
import time


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb():
    """Peak resident set of this process image. ru_maxrss would also count a
    larger parent's peak, which Linux carries across fork and exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    job = json.loads(sys.argv[1])
    start = time.perf_counter()
    import hnaufbau  # noqa: F401  (the import is what set-up time measures)
    from hnaufbau import cli, fock, kernels
    if kernels.JIT_ENABLED:
        kernels.warmup_jit()
    setup_s = time.perf_counter() - start
    import numpy

    result = {
        "setup_s": setup_s,
        "env": {
            "JIT_ENABLED": bool(kernels.JIT_ENABLED),
            "NUMBA_AVAILABLE": bool(kernels.NUMBA_AVAILABLE),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
    }
    if not job.get("setup_only"):
        tracer = None
        if job.get("trace"):
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        cpu0, wall0 = _cpu_s(), time.perf_counter()
        codes = [cli.main(argv) for argv in job["commands"]]
        wall_s, cpu_s = time.perf_counter() - wall0, _cpu_s() - cpu0
        result.update(
            codes=codes,
            wall_s=wall_s,
            cpu_s=cpu_s,
            peak_rss_mb=_peak_rss_mb(),
        )
        if tracer is not None:
            tracer.uninstall()
            layers = tracing.summarize(tracer)
            cache_info = getattr(fock.get_basis, "cache_info", None)
            if cache_info is not None:
                info = cache_info()
                lookups = info.hits + info.misses
                layers["fock.basis_cache_hit_ratio"] = info.hits / lookups if lookups else 0.0
            result["layers"] = layers
            if job.get("spans"):
                tracer.write_spans(job["spans"])
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
