"""One repetition in a fresh interpreter: import eigenfem.cli, run main(argv) once.

Usage: python3 child.py RESULT_JSON [--trace] [--import-only] -- ARGV...

Writes RESULT_JSON with the import time, the wall time of the one
``main(argv)`` call, its exit code, the peak resident memory of this
process and, with --trace, the per-layer record from layers.py.  Only the
standard library is imported before the import clock starts, so the
import time includes numpy and scipy.

The CPU of a shared host runs this interpreter 20-50 % slower or faster
from one second to the next.  A speed probe therefore times a fixed loop
from a SIGALRM handler every PROBE_INTERVAL_S of wall time while the import
and the command run: PROBE_READS reads, in a fixed random order, of a list
of PROBE_FLOATS floats, so that it waits on the caches as the program's
interpreted loops do.  ``setup_s`` and ``wall_s`` are the two times, less
the probe's own time, scaled to the speed at which the loop makes
NOMINAL_RATE reads a second; ``raw`` holds them unscaled.
"""

import json
import random
import resource
import signal
import sys
import time

PROBE_FLOATS = 20_000
PROBE_READS = 2000
PROBE_INTERVAL_S = 0.02
NOMINAL_RATE = 4e6      # probe reads per second at the nominal speed


class SpeedProbe:
    """Samples the interpreter's speed at a fixed wall-clock interval."""

    def __init__(self):
        rng = random.Random(0)
        self.values = [rng.random() for _ in range(PROBE_FLOATS)]
        self.order = [rng.randrange(PROBE_FLOATS) for _ in range(PROBE_READS)]
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def _sample(self, signum, frame) -> None:
        values = self.values
        t0 = time.perf_counter()
        s = 0.0
        for i in self.order:
            s += values[i] * 1.5
        self.samples.append(time.perf_counter() - t0)

    def time(self, fn):
        """Run fn(); return its result, its time less the probe's, and that time scaled."""
        first = len(self.samples)
        t0 = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - t0
        samples = self.samples[first:]
        if not samples:
            raise RuntimeError(f"no speed sample in {elapsed:.3f} s")
        raw = elapsed - sum(samples)
        mean = sum(samples) / len(samples)
        return value, raw, raw * (PROBE_READS / NOMINAL_RATE) / mean

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def main() -> None:
    sep = sys.argv.index("--")
    result_path, flags, argv = sys.argv[1], sys.argv[2:sep], sys.argv[sep + 1:]

    def load():
        import eigenfem.cli
        return eigenfem.cli

    probe = SpeedProbe()
    cli, raw_setup, setup_s = probe.time(load)
    result = {"setup_s": setup_s, "raw": {"setup_s": raw_setup}, "module": cli.__file__}

    if "--import-only" not in flags:
        tracer = None
        if "--trace" in flags:
            import layers
            tracer = layers.install()
        code, result["raw"]["wall_s"], result["wall_s"] = probe.time(lambda: cli.main(argv))
        result["exit_code"] = code
        if tracer is not None:
            result["trace"] = tracer.report()
    probe.stop()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["probe_samples"] = len(probe.samples)
    result["probe_mean_s"] = sum(probe.samples) / len(probe.samples)

    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
