"""Command-line interface.

Subcommands: solve, sample, decompose, gadget, verify, reduce, experiment,
bm-check.  Results print as JSON on stdout; experiments additionally write
CSV / JSON-lines files when output paths are configured.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import formats, harness
from .gadgets import (
    ReductionConfig,
    build_eulerian_profile,
    build_tournament_profile,
    build_triangle_profile,
    check_gadget_identities,
    mallows_witness,
    verify_witness,
)
from .graph_algebra import orthogonal_decompose


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, default=str))


def cmd_solve(args) -> int:
    from .solvers import get_solver, result_record, slater_brute

    parse = formats.parse_soc if args.input.endswith(".soc") else formats.parse_profile
    profile = parse(Path(args.input).read_text(encoding="utf-8"))
    if args.rule == "slater":
        res = slater_brute(profile)
    else:
        res = get_solver(args.solver)(profile)
    _emit(result_record(res))
    return 0


def cmd_sample(args) -> int:
    from .gadgets import round_to_integral
    from .models import sample_profile

    pp = formats.parse_parameter_profile(Path(args.input).read_text(encoding="utf-8"))
    if args.round_k:
        pp = round_to_integral(pp, args.round_k, max_n=args.max_n)
    rng = np.random.default_rng(args.seed)
    prof = sample_profile(pp, rng)
    Path(args.out).write_text(formats.format_profile(prof), encoding="utf-8")
    _emit({"written": args.out, "n": int(prof.n), "m": prof.m, "types": len(prof)})
    return 0


def cmd_decompose(args) -> int:
    g = formats.parse_wmg(Path(args.input).read_text(encoding="utf-8"))
    cyclic, cocyclic = (formats.format_wmg(part) for part in orthogonal_decompose(g))
    if args.out_cyclic:
        Path(args.out_cyclic).write_text(cyclic, encoding="utf-8")
    if args.out_cocyclic:
        Path(args.out_cocyclic).write_text(cocyclic, encoding="utf-8")
    _emit({"m": g.m, "cyclic": cyclic.splitlines()[1:], "cocyclic": cocyclic.splitlines()[1:]})
    return 0


def cmd_gadget(args) -> int:
    if args.kind == "triangle":
        theta = mallows_witness(args.m, args.phi)
        pp = build_triangle_profile(theta)
    else:
        if not args.input:
            print("gadget: --in <instance file> is required for graph gadgets", file=sys.stderr)
            return 2
        inst = formats.parse_fas(Path(args.input).read_text(encoding="utf-8"))
        theta = mallows_witness(inst.graph.m, args.phi)
        if args.kind == "eulerian":
            pp = build_eulerian_profile(inst.graph, theta)
        else:
            pp = build_tournament_profile(inst.graph, theta, theta)
    Path(args.out).write_text(formats.format_parameter_profile(pp), encoding="utf-8")
    _emit(
        {
            "written": args.out,
            "types": pp.type_count,
            "total_weight": float(pp.total_weight),
        }
    )
    return 0


def cmd_verify(args) -> int:
    if args.target == "gadgets":
        theta = mallows_witness(args.m, args.phi)
        checks = check_gadget_identities(args.m, theta)
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            print(f"{status} {c.name} {c.detail}", file=sys.stderr)
        ok = all(c.passed for c in checks)
        _emit({"target": "gadgets", "m": args.m, "phi": str(args.phi), "all_passed": ok})
        return 0 if ok else 1
    report = verify_witness(args.family, phi=args.phi)
    _emit(
        {
            "target": "witness",
            "family": report.family,
            "alpha": report.alpha,
            "beta": report.beta,
            "gamma": report.gamma,
            "alpha_prob_form": report.alpha_prob_form,
            "k": report.k,
            "k_star": report.k_star,
            "A": report.A,
            "B": report.B,
            "ok_3cycle": report.ok_3cycle,
            "ok_cocycle": report.ok_cocycle,
        }
    )
    return 0 if (report.ok_3cycle and report.ok_cocycle) else 1


def cmd_reduce(args) -> int:
    inst = formats.parse_fas(Path(args.input).read_text(encoding="utf-8"))
    rcfg = ReductionConfig(K=args.K, solver=args.solver, phi=float(args.phi))
    summary, rows = harness.reduction_trials(inst, rcfg, args.trials, args.seed)
    if args.out:
        harness.write_jsonl(args.out, rows, f"reduce-K{args.K}", args.seed)
    _emit(summary)
    return 0


def cmd_experiment(args) -> int:
    cfg = harness.ExperimentConfig.from_text(Path(args.config).read_text(encoding="utf-8"))
    summary = harness.run_experiment(cfg)
    _emit(summary)
    return 0


def cmd_bm_check(args) -> int:
    p = harness.BmParams(m=args.m, n=args.n, phi_max=args.phi_max)
    report = harness.bm_paradox_check(p)
    _emit(
        {
            "threshold_m": report.threshold_m,
            "in_regime": report.in_regime,
            "inequality_holds": report.inequality_holds,
            "lhs_log": report.lhs_log,
            "rhs_log": report.rhs_log,
            "ell_bits": p.ell_bits,
            "log_outcomes": p.log_outcomes,
            "log_phi_floor": p.log_phi_floor,
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="votelab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a profile file")
    p.add_argument("rule", choices=["kemeny", "slater"])
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--solver", default="dp", choices=["dp", "brute"])
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("sample", help="sample an election from a parameter profile")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--round-k", dest="round_k", type=int, default=0)
    p.add_argument("--max-n", dest="max_n", type=int, default=1_000_000)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("decompose", help="orthogonal cycle/co-cycle decomposition")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out-cyclic", default="")
    p.add_argument("--out-cocyclic", default="")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("gadget", help="build a gadget parameter profile")
    p.add_argument("kind", choices=["triangle", "eulerian", "tournament"])
    p.add_argument("--m", type=int, default=5)
    p.add_argument("--phi", type=formats.parse_number, default="1/2")
    p.add_argument("--in", dest="input", default="")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gadget)

    p = sub.add_parser("verify", help="verify gadget identities or witness margins")
    p.add_argument("target", choices=["gadgets", "witness"])
    p.add_argument("--m", type=int, default=5)
    p.add_argument("--phi", type=formats.parse_number, default="1/2")
    p.add_argument("--family", default="mallows", choices=["mallows", "pl"])
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("reduce", help="randomized feedback-arc-set decision")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--K", type=int, default=9)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--phi", type=formats.parse_number, default="0.5")
    p.add_argument("--solver", default="dp", choices=["dp", "brute"])
    p.add_argument("--out", default="")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("experiment", help="run a named experiment from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("bm-check", help="enumeration-is-smoothed-efficient calculator")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--phi-max", dest="phi_max", type=float, default=0.5)
    p.set_defaults(fn=cmd_bm_check)

    return ap


def main(argv=None) -> int:
    """Run one subcommand.  A ``ValueError`` or ``OSError`` it raises (bad
    input, unreadable file) is printed as one line on stderr, exit code 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"votelab {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
