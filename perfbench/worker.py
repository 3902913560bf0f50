"""Run one benchmark operation cold, in a fresh interpreter, and print one JSON
line: the moment set-up ended, the operation's wall and CPU time, its peak
resident memory, its verdict and outputs, and (when traced) the layer metrics.

    python3 perfbench/worker.py '<operation as JSON>' <0|1>

Set-up is `import qgalois` plus parsing the preset workspace, which every
`qgalois` invocation pays before its first check.  The parent measures it
from the moment it started this process to ``ready``, both read from the
system-wide monotonic clock.
"""

import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.  ru_maxrss would also
    count the parent's memory, which the child shared between fork and exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> None:
    op = json.loads(sys.argv[1])
    traced = sys.argv[2] == "1"
    import qgalois
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        # each traced call adds two wrapper frames; keep the program's own
        # recursion headroom (normal_form_word recurses once per rewrite step)
        sys.setrecursionlimit(3 * sys.getrecursionlimit())
    qgalois.presets.workspace()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if tracer is not None:
        tracer.start_operation()
    import ops
    result = {"ready": ready}
    try:
        run, describe = ops.OPS[op["fn"]](op["args"])
        wall0, cpu0 = time.perf_counter(), time.process_time()
        verdict = run()
        result["wall_s"] = time.perf_counter() - wall0
        result["cpu_s"] = time.process_time() - cpu0
        result["rss_mb"] = peak_rss_mb()
        result["verdict"] = verdict
        if tracer is not None:
            result["layers"], result["spans"] = tracer.finish()
        result["output"] = describe()
    except Exception:  # the operation failed; report it, do not crash the pass
        result["error"] = traceback.format_exc(limit=-8)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
