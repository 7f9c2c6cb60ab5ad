"""One benchmark run of one workload, in a fresh process.

Started by ``run.py`` from the root of a votelab checkout; imports votelab
from ``src/`` there.  It caps its own address space, sets the workload up,
then runs ops in a closed loop (the next op starts when the previous one
returns) until the ops have taken ``--seconds`` of wall time, checking each
result with the workload's oracle between ops.  It prints one JSON line:
the monotonic-clock stamps at which set-up and the first op finished
(``time.monotonic`` is system-wide, so the parent can subtract its own
spawn stamp), one entry per op, peak RSS, and with ``--trace 1`` the
recorded spans.

With ``--trace 1`` set-up, the first op and every second op after it run
traced; the ops in between run with the tracer uninstalled, so their
latencies against the traced ones give the tracing overhead.
With ``--first-op-only`` it stops after the first op, for repeated
set-up and first-op timing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
import traceback

#: address-space ceiling of this process, so a k^2 blow-up fails one op
#: instead of exhausting the machine
MEMORY_CEILING_BYTES = 2 << 30

#: an op that runs longer than this is stopped and counted as failed
OP_TIMEOUT_S = 60


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--first-op-only", action="store_true")
    args = ap.parse_args()

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CEILING_BYTES, MEMORY_CEILING_BYTES))
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import votelab  # noqa: F401  (imported first so a stray install cannot win)

    if not os.path.abspath(votelab.__file__).startswith(src + os.sep):
        raise SystemExit(f"votelab imported from {votelab.__file__}, not from {src}")
    import numpy
    import scipy
    import tracing
    from workloads import WORKLOADS

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
        tracer.begin("setup")
    wl = WORKLOADS[args.workload](args.seed, args.tiny)
    inp = wl.make_input(0)
    if tracer:
        tracer.end()
    ready = time.monotonic()

    signal.signal(signal.SIGALRM, _alarm)
    ops = []
    first_done = None
    busy = 0.0
    i = 0
    # the first op; then, unless --first-op-only, at least one more and on
    # until the ops after the first have taken --seconds
    while i < 1 or (not args.first_op_only and (i < 2 or busy < args.seconds)):
        traced = tracer is not None and i % 2 == 0
        if tracer and not traced:
            tracer.uninstall()
        if traced:
            tracer.begin(i)
        entry = {"i": i, "traced": traced, "status": "ok"}
        res = None
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        t0 = time.perf_counter()
        try:
            res = wl.op(inp)
        except OpTimeout:
            entry["status"] = "timeout"
        except Exception:  # an op that raises is counted, and the loop goes on
            entry["status"] = "raised"
            entry["detail"] = traceback.format_exc(limit=3)
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        if traced:
            tracer.end()
        if tracer and not traced:
            tracer.install()
        if i == 0:
            first_done = time.monotonic()
        else:
            busy += elapsed
        entry["s"] = elapsed
        if res is not None:
            problems = wl.check(inp, res)
            if problems:
                entry["status"] = "wrong"
                entry["detail"] = "; ".join(problems)
            elif wl.timed_out(res):
                entry["status"] = "timeout"
            entry["record"] = wl.record(res)
            entry["yes"] = getattr(res, "answer", None) == "YES"
        ops.append(entry)
        i += 1
        inp = wl.make_input(i)

    out = {
        "ready": ready,
        "first_done": first_done,
        "ops": ops,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if tracer:
        tracer.uninstall()
        out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
