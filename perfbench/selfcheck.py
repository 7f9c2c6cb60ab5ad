"""Self-check of the benchmark, at smoke-test sizes.

Run from the root of a votelab checkout:

    python3 perfbench/selfcheck.py

It shows three things and exits nonzero if any fails:

1. every metric named in BENCHMARK.json is emitted, with its unit, by
   ``run.py`` on every workload, untraced and traced;
2. the same seed gives identical op results across two runs, and the
   experiment CSVs written twice from one config have identical digests;
3. each workload's oracle accepts a real result and rejects deliberately
   corrupted ones (a swapped ranking, a wrong score, a flipped verdict).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from run import EXTRA_WORKLOAD_NAMES, OUT_DIR, WORKLOAD_NAMES  # noqa: E402

failures: list[str] = []


def report(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(workload: str, seed: int, trace: int) -> tuple[dict, list]:
    """One smoke-size run; its final JSON line and its recorded ops."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(ROOT, OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        ops = json.load(fh)["ops"]
    return result, ops


def check_metrics_and_determinism() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    report([w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES),
           "BENCHMARK.json names the workloads run.py gates on")
    for workload in WORKLOAD_NAMES + EXTRA_WORKLOAD_NAMES:
        first_ops = None
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, ops = bench(workload, 1, trace)
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: v["unit"] for name, v in result["metrics"].items()}
            report(got == wanted, f"{workload} trace={trace}: every {key} metric with its unit")
            finite = all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                         for v in result["metrics"].values())
            report(finite and set(result) == {"correct", "attempted", "failed", "metrics"}
                   and result["correct"] and result["failed"] == 0,
                   f"{workload} trace={trace}: result line well formed, correct, no failures")
            if first_ops is None:
                first_ops = ops
        again, ops = bench(workload, 1, 0)
        n = min(len(ops), len(first_ops))
        same = n >= 2 and [o["record"] for o in ops[:n]] == [o["record"] for o in first_ops[:n]]
        report(same, f"{workload}: same seed, same op results ({n} ops compared)")
        if workload != "verify-gadgets-m7":  # its single input takes no seed
            _, other = bench(workload, 2, 0)
            report([o["record"] for o in other[:n]] != [o["record"] for o in ops[:n]],
                   f"{workload}: another seed gives other op results")


def check_csv_digests() -> None:
    from votelab import harness

    out = os.path.join(ROOT, OUT_DIR, "selfcheck")
    os.makedirs(out, exist_ok=True)
    instance = os.path.join(out, "triangle.fas")
    with open(instance, "w", encoding="utf-8") as fh:
        fh.write("kind=eulerian\nt=1\nm=4\n0 -> 1\n1 -> 2\n2 -> 0\n")
    configs = {
        "concentration": dict(m=5, n=30, trials=20),
        "dp-envelope": dict(m=8, n=20, phi=0.2, central="unanimous", trials=5),
        "reduction": dict(instance=instance, K=4, phi=0.5, trials=3),
    }
    for experiment, kwargs in configs.items():
        digests = []
        for attempt in range(2):
            path = os.path.join(out, f"{experiment}-{attempt}.csv")
            harness.run_experiment(harness.ExperimentConfig(
                experiment=experiment, seed=7, out_csv=path, **kwargs))
            with open(path, "rb") as fh:
                digests.append(hashlib.sha256(fh.read()).hexdigest())
        report(digests[0] == digests[1], f"experiment {experiment}: CSV digest repeats "
                                         f"({digests[0][:12]})")


def check_oracles() -> None:
    from votelab.core import Ranking, slater_score
    from workloads import WORKLOADS

    def swapped(r: Ranking) -> Ranking:
        order = list(r.order)
        order[0], order[1] = order[1], order[0]
        return Ranking(tuple(order))

    def reversed_kemeny(res) -> Ranking:
        return res.ranking.reversed()

    replace = dataclasses.replace
    corruptions = {
        "reduce-m6": lambda inp, out: [
            replace(out, answer="NO" if out.answer == "YES" else "YES"),
            replace(out, back_edges=0, answer="YES"),
            replace(out, n=out.n + 1),
            replace(out, finished=False, back_edges=None, answer="YES"),
        ],
        "concentration-m8": lambda inp, res: [
            (replace(res[0], avg_kt_central=res[0].avg_kt_central + 1e-9), res[1]),
            (replace(res[0], passed=False), res[1]),
        ],
        "dp-envelope-m18": lambda inp, res: [
            (replace(res[0], d_ok=False), res[1]),
            (replace(res[0], envelope_ok=False), res[1]),
        ],
        "exact-m9": lambda inp, res: [
            (res[0], replace(res[1], ranking=swapped(res[1].ranking)), res[2]),
            (res[0], replace(res[1], score=res[1].score + 1), res[2]),
            (replace(res[0], score=res[0].score - 1), res[1], res[2]),
            (res[0], res[1], replace(res[2], score=res[2].score - 1)),
            (res[0], res[1], replace(res[2], ranking=swapped(res[2].ranking))),
            (res[0], res[1], replace(res[2], ranking=reversed_kemeny(res[0]),
                                     score=slater_score(reversed_kemeny(res[0]), inp))),
        ],
        "verify-gadgets-m7": lambda inp, res: [
            [replace(res[0], passed=False), *res[1:]],
            [],
        ],
    }
    for name in WORKLOAD_NAMES + EXTRA_WORKLOAD_NAMES:
        wl = WORKLOADS[name](1, True)
        inp = wl.make_input(0)
        res = wl.op(inp)
        report(wl.check(inp, res) == [], f"{name}: oracle accepts the real result")
        for k, bad in enumerate(corruptions[name](inp, res)):
            complaints = wl.check(inp, bad)
            report(bool(complaints), f"{name}: oracle rejects corruption {k + 1} "
                                     f"({'; '.join(complaints) or 'accepted'})")


def main() -> int:
    check_oracles()
    check_csv_digests()
    check_metrics_and_determinism()
    print(f"{len(failures)} failed" if failures else "all self-checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
