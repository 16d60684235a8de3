"""One rep of one workload, in a fresh interpreter.

    python3 perfbench/child.py ROOT WORKLOAD SEED REP TRACE [SPANS_PATH]

Imports the package from ROOT/src, builds the rep's inputs, runs the timed
body (traced when TRACE is 1) under a speed sampler (speed.py), checks
every result and prints one JSON line.  `ready` is CLOCK_MONOTONIC after
import and input generation, so that the parent can compute set-up time
from when it started this interpreter.  `wall` leaves out the time spent
sampling; `speed` is the sampled speed.
"""

import json
import os
import resource
import sys
import time


def main(argv):
    root, workload, seed, rep, trace = argv[:5]
    seed, rep, trace = int(seed), int(rep), trace == "1"
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import orbitduality
    if not os.path.abspath(orbitduality.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit("orbitduality was not imported from %s" % src)
    import speed
    import workloads

    inputs = workloads.setup(workload, seed, rep)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    doc = {"ready": ready}
    if trace:
        import layers
        layer_map = layers.load()
        counts = {}
        tracer = layers.make_tracer(layer_map, counts)
        tracer.install()
        try:
            with speed.Sampler() as sampler:
                (latencies, outcomes), wall = tracer.root(
                    workloads.body, workload, inputs, sampler)
        finally:
            tracer.uninstall()
        doc["layers"] = layers.metrics(layer_map, tracer.summary(), counts)
        if len(argv) > 5:
            tracer.write(argv[5], "%s/seed%d/rep%d" % (workload, seed, rep))
    else:
        with speed.Sampler() as sampler:
            t0 = time.perf_counter()
            latencies, outcomes = workloads.body(workload, inputs, sampler)
            wall = time.perf_counter() - t0
    doc["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    doc["attempted"], doc["failed"], doc["wrong"] = workloads.check(workload, inputs, outcomes)
    doc["wall"] = wall - sampler.spent
    doc["speed"] = sampler.speed()
    doc["latencies"] = latencies
    print(json.dumps(doc))


if __name__ == "__main__":
    main(sys.argv[1:])
