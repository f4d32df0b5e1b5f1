"""One benchmark repetition, run by bench/run.py in a fresh interpreter.

Usage: python3 bench/child.py '<json spec>' with PYTHONPATH naming src.
The spec holds workload, seed, run (id), trace, small, setup_only and
spans (a file to append the spans to, or null).  The last line of stdout
is one JSON object with setup_s and raw_setup_s and, unless setup_only,
wall_s, raw_wall_s, peak_rss_mb, attempted, failed, failures and
invariants; a traced run adds the per-layer metrics under "layers" and
leaves wall_s out.

The host's speed drifts: a vCPU of a shared machine runs the same
interpreter code up to twice as slowly for seconds to minutes at a time, as
its neighbours load the core and caches.  So wall_s and setup_s are scaled
to a fixed speed.  A probe, a fixed slice of the tuple, dict and int work
the library does, is timed three times just before and just after set-up,
and every PROBE_PERIOD_S during the workload (from a SIGALRM handler,
between bytecodes of the main thread).  The scaled time is (elapsed - probe
time inside it) * PROBE_REF_S / mean probe time, so it reads as seconds on
a core where the probe takes PROBE_REF_S; raw_setup_s and raw_wall_s are
the same times unscaled.  A change to the library moves the scaled time by
the same factor as the raw one; host drift moves both, and the probe
cancels most of it: over ten 40 s runs a workload on a 2-vCPU host, the
spread (IQR over median) of the run medians was 7-13% unscaled and about 3%
scaled.  Traced repetitions run no probe, so their spans hold library time
only.
"""

import contextlib
import gc
import json
import resource
import signal
import sys
import time
import traceback

#: probe time on an unloaded vCPU of the reference host (2 vCPUs of a
#: shared x86-64 machine, Python 3.11.7)
PROBE_REF_S = 0.003
PROBE_PERIOD_S = 0.1
SETUP_PROBES = 3  # probes before and after set-up

_PROBE_KEYS = [(i, i + 1, i % 7) for i in range(4096)]
_PROBE_TABLE = dict.fromkeys(_PROBE_KEYS, 0)


def probe() -> float:
    """Time one fixed slice of tuple building, hashing and dict updates.
    The collector is off so that a collection of the library's objects does
    not land in a probe."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    table = _PROBE_TABLE
    for _ in range(4):
        for a, b, c in _PROBE_KEYS:
            table[(a, b, c)] += 1
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


@contextlib.contextmanager
def sampling(samples: list):
    """Run the probe every PROBE_PERIOD_S until the block ends."""
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(probe()))
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def scaled(elapsed: float, probes: list) -> float:
    return elapsed * PROBE_REF_S / (sum(probes) / len(probes))


def main() -> int:
    spec = json.loads(sys.argv[1])
    setup_probes = [probe() for _ in range(SETUP_PROBES)]
    t0 = time.perf_counter()
    # Set-up is timed from the package import: a command pays it every time.
    import dominantk  # noqa: F401
    import spans
    import workloads

    tracer = None
    span = lambda name: contextlib.nullcontext()  # noqa: E731
    if spec["trace"]:
        tracer = spans.Tracer(spec["run"])
        spans.install(tracer)
        span = tracer.span
    inputs = workloads.setup(spec["workload"], spec["seed"], span)
    t1 = time.perf_counter()
    setup_probes += [probe() for _ in range(SETUP_PROBES)]
    result = {"setup_s": scaled(t1 - t0, setup_probes), "raw_setup_s": t1 - t0}
    if spec["setup_only"]:
        print(json.dumps(result))
        return 0

    gate = workloads.Gate()
    invariants = None
    samples: list[float] = []
    sampler = contextlib.nullcontext() if tracer else sampling(samples)
    t2 = time.perf_counter()
    with sampler:
        try:
            invariants = workloads.run(spec["workload"], inputs, gate, spec["small"])
        except Exception:  # a raising library call is a failed operation, not a crash
            gate.fail(traceback.format_exc(limit=-3))
        t3 = time.perf_counter()
    result.update(
        raw_wall_s=t3 - t2 - sum(samples),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=gate.attempted,
        failed=len(gate.failures),
        failures=gate.failures[:5],
        invariants=invariants,
    )
    if tracer is None:  # a workload shorter than one period is scaled by the set-up probes
        result["wall_s"] = scaled(result["raw_wall_s"], samples or setup_probes)
    if tracer is not None:
        layers = spans.layer_metrics(tracer, t2, t3)
        from dominantk.coxeter import weyl_group

        group = weyl_group(inputs.A)
        elements = layers["coxeter.elements"]
        layers["coxeter.bytes_per_element"] = (
            spans.retained_bytes(group, exclude=(group.gcm,)) / elements if elements else 0.0
        )
        result["layers"] = layers
        if spec["spans"]:
            tracer.write(spec["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
