"""votelab benchmark: one seeded workload, end-to-end or traced.

Run from the root of a votelab checkout:

    python3 perfbench/run.py --workload reduce-m6 --seed 1 --seconds 25 --trace 0

Each run starts one fresh child process (``child.py``) that sets the
workload up and drives it with a single client in a closed loop for
``--seconds`` seconds of op time, checking every result.  It then starts
two more children that only set up and run the first op, and reports the
median set-up time and time to first answer over the three.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run.  The last line of standard output
is the JSON result; the full record (environment stamp, every op, the
tail percentile used) goes to ``.perfbench_out/`` in the checkout, and a
traced run's spans to a ``.spans.jsonl`` file beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import LAYERS, summarize  # noqa: E402

#: the seed used when none is given, and the one held back to confirm claims
DEFAULT_SEED = 1
HELD_BACK_SEED = 20201026

#: the workloads BENCHMARK.json gates on
WORKLOAD_NAMES = ("reduce-m6", "concentration-m8")

#: runnable by hand but not gated: on a shared 2-core VM their 10-seed
#: spread exceeded the 25% bound at the run length the time budget allows
EXTRA_WORKLOAD_NAMES = ("dp-envelope-m18", "exact-m9", "verify-gadgets-m7")

#: end-to-end metrics and their units (--trace 0)
END_TO_END = {
    "setup_s": "s",
    "first_op_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}

#: per-layer metrics and their units (--trace 1)
PER_LAYER = {
    "core.avg_kt.s": "s", "core.avg_kt.calls": "count",
    "core.kt_matrix.s": "s", "core.kt_matrix.bytes": "bytes_computed",
    "core.pairwise_tally.s": "s", "core.pairwise_tally.calls": "count",
    "core.kemeny_score.s": "s",
    "models.sample_profile.s": "s", "models.sample_profile.first_s": "s",
    "models.sample_profile.calls": "count", "models.sample_profile.votes": "count",
    "models.sample_profile.distinct": "count",
    "models.expected_wmg.s": "s", "models.expected_wmg.calls": "count",
    "graph_algebra.edge_gadget_wmg_sum.s": "s",
    "graph_algebra.eulerian_cycle_decomposition.s": "s",
    "solvers.kemeny_dp.s": "s", "solvers.kemeny_dp.op_count": "count",
    "solvers.kemeny_dp.states": "count", "solvers.kemeny_dp.d_max": "count",
    "solvers.kemeny_dp.fallbacks": "count",
    "solvers.kemeny_brute.s": "s", "solvers.kemeny_brute.op_count": "count",
    "solvers.slater_brute.s": "s", "solvers.slater_brute.op_count": "count",
    "solvers.solve_with_budget.calls": "count", "solvers.solve_with_budget.timeouts": "count",
    "gadgets.build_instance_profile.s": "s", "gadgets.build_instance_profile.types": "count",
    "gadgets.round_to_integral.s": "s", "gadgets.round_to_integral.n": "count",
    "gadgets.run_reduction.s": "s", "gadgets.run_reduction.yes_rate": "share",
    "gadgets.check_gadget_identities.s": "s",
    "gadgets.check_gadget_identities.checks_failed": "count",
    "harness.avg_kt_concentration_check.s": "s",
    "harness.dp_smoothed_check.s": "s",
    **{f"{layer}.share": "share" for layer in (*LAYERS, "bench")},
    "trace.overhead_s": "s",
    "trace.overhead_share": "share",
}

#: children that only set up and run the first op, started after the
#: measured one; setup_s and first_op_s are medians over all the children
FIRST_OP_REPEATS = 2

#: the whole run, every child included, stays under this many seconds
RUN_DEADLINE_S = 170

OUT_DIR = ".perfbench_out"


class BenchError(Exception):
    pass


def child_env(root: str, nproc: int) -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, env: dict[str, str], deadline: float, first_op_only: bool) -> dict:
    """Run child.py to completion; return its JSON output, with its set-up
    time and time to first answer measured from its spawn."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += ["--tiny"] if args.tiny else []
    cmd += ["--first-op-only"] if first_op_only else []
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"child did not finish within {RUN_DEADLINE_S} s of the run's start")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited with code {proc.returncode}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready"] - spawned
    out["first_op_s"] = out["first_done"] - spawned
    return out


def environment_stamp(root: str, args, nproc: int, loadavg: list[float], child: dict) -> dict:
    sha = None
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "votelab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": child["numpy"],
        "scipy": child["scipy"],
        "nproc": nproc,
        "seed": args.seed,
        "loadavg_at_start": loadavg,
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it, and its value.

    With ten samples or fewer no such percentile exists; the minimum is
    reported, at percentile 0.
    """
    xs = sorted(latencies)
    idx = max(len(xs) - 11, 0)
    return xs[idx], 100.0 * idx / len(xs) if xs else 0.0


def end_to_end(children: list[dict]) -> dict:
    ops = [o for child in children for o in child["ops"]]
    warm = [o["s"] for o in children[0]["ops"][1:]]
    ok = sum(o["status"] == "ok" for o in ops)
    tail_value, tail_pct = tail(warm)
    return {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "first_op_s": statistics.median(c["first_op_s"] for c in children),
        "op_s.p50": statistics.median(warm),
        "op_s.tail": tail_value,
        "ops_per_s": len(warm) / sum(warm),
        "peak_rss_mb": children[0]["peak_rss_kib"] / 1024.0,
        "ok_share": ok / len(ops),
        # recorded beside the metrics
        "op_s.tail_percentile": tail_pct,
        "warm_ops": len(warm),
        "setup_samples": [c["setup_s"] for c in children],
        "first_op_samples": [c["first_op_s"] for c in children],
        "failed_share": 1.0 - ok / len(ops),
        "yes_rate": sum(bool(o.get("yes")) for o in ops) / len(ops),
    }


def per_layer(out: dict) -> dict:
    layer = summarize(out["spans"], first_op=0)
    traced = [o["s"] for o in out["ops"][1:] if o["traced"]]
    plain = [o["s"] for o in out["ops"][1:] if not o["traced"]]
    if traced and plain:
        base = statistics.median(plain)
        layer["trace.overhead_s"] = statistics.median(traced) - base
        layer["trace.overhead_share"] = layer["trace.overhead_s"] / base
    return layer


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + EXTRA_WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; {HELD_BACK_SEED} is held "
                         "back for confirming claims)")
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes (self-check only)")
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "votelab", "__init__.py")):
        print("error: run from the root of a votelab checkout (no src/votelab here)",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = child_env(root, nproc)
    loadavg = list(os.getloadavg())
    try:
        children = [run_child(args, env, deadline, first_op_only=False)]
        if not args.trace:  # a traced run reports no set-up or first-op figures
            children += [run_child(args, env, deadline, first_op_only=True)
                         for _ in range(FIRST_OP_REPEATS)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out = children[0]
    stamp = environment_stamp(root, args, nproc, loadavg, out)
    e2e = end_to_end(children)
    metrics = {name: (e2e[name], unit) for name, unit in END_TO_END.items()}
    layer = {}
    if args.trace:
        layer = per_layer(out)
        metrics = {name: (layer.get(name, 0.0), unit) for name, unit in PER_LAYER.items()}

    ops = [o for child in children for o in child["ops"]]
    failed = sum(o["status"] != "ok" for o in ops)
    correct = not any(o["status"] in ("wrong", "raised") for o in ops)
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    stem = os.path.join(root, OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seconds": args.seconds, "tiny": args.tiny,
                   "environment": stamp, "end_to_end": e2e, "per_layer": layer,
                   "ops": out["ops"]}, fh, indent=1)
    if args.trace:
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as fh:
            for s in out["spans"]:
                fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "op",
                                              "counters"), s))) + "\n")

    print(f"votelab benchmark: {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("environment: " + json.dumps(stamp, sort_keys=True))
    print(f"  ops: {len(ops)} attempted, {failed} failed (failed_share {e2e['failed_share']:.4g}), "
          f"tail = p{e2e['op_s.tail_percentile']:.1f} of {e2e['warm_ops']} ops after the first")
    if args.workload == "reduce-m6":
        print(f"  yes_rate: {e2e['yes_rate']:.4g}")
    for o in ops:
        if o["status"] != "ok":
            print(f"  op {o['i']} {o['status']}: {o.get('detail', '')}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
