"""Harness: config parsing, bound checks, persistence, reproducibility, CLI."""

import hashlib
import itertools
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from votelab import gadgets, solvers
from votelab.core import Digraph, Profile
from votelab.formats import format_fas
from votelab.gadgets import FasInstance, ReductionConfig
from votelab.harness import (
    BmParams,
    ExperimentConfig,
    avg_kt_concentration_check,
    bm_paradox_check,
    central_profile,
    dp_runtime_envelope,
    dp_smoothed_check,
    mallows_parameter_profile,
    reduction_trials,
    run_experiment,
    smoothed_runtime_estimate,
    trial_rng,
    write_csv,
)

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_from_text_and_hash():
    text = """
    experiment = concentration
    m = 4
    n = 50
    phi = 0.3
    t = 2.0
    trials = 100
    seed = 7
    """
    cfg = ExperimentConfig.from_text(text)
    assert cfg.m == 4 and cfg.trials == 100 and cfg.seed == 7
    assert cfg.config_hash() == ExperimentConfig.from_text(text).config_hash()
    assert len(cfg.config_hash()) == 12


def test_config_rejects_unknown_key():
    with pytest.raises(ValueError):
        ExperimentConfig.from_text("bogus = 1\n")


def test_config_phi_list():
    cfg = ExperimentConfig.from_text("experiment = smoothed\nphi_list = 0.1,0.5,1.0\n")
    assert cfg.phi_list == (0.1, 0.5, 1.0)


def test_config_grid_lists_are_ints():
    cfg = ExperimentConfig.from_text("m_list = 3,4\nn_list = 10,20\n")
    assert cfg.m_list == (3, 4) and cfg.n_list == (10, 20)


def test_run_experiment_grid_sweep(tmp_path):
    cfg = ExperimentConfig(
        experiment="concentration", m_list=(3, 4), n_list=(6, 10), phi=0.4,
        t=1.5, trials=15, seed=11, central="random",
        out_csv=str(tmp_path / "grid.csv"),
    )
    summary = run_experiment(cfg)
    assert summary["points"] == 4
    lines = (tmp_path / "grid.csv").read_text().splitlines()
    assert len(lines) == 2 + 1 + 4  # comments + header + one row per point


def test_central_profile_kinds():
    rng = trial_rng(0, 0)
    u = central_profile("unanimous", 3, 5, rng)
    assert int(u.n) == 5 and len(u) == 1
    c = central_profile("cyclic", 3, 6, rng)
    assert int(c.n) == 6 and len(c) == 3
    r = central_profile("random", 4, 10, rng)
    assert int(r.n) == 10
    with pytest.raises(ValueError):
        central_profile("bogus", 3, 3, rng)


# ---------------------------------------------------------------------------
# brute-force paradox calculator
# ---------------------------------------------------------------------------


def test_bm_threshold_value():
    rep = bm_paradox_check(BmParams(m=33, n=1, phi_max=0.5))
    assert rep.threshold_m == pytest.approx(32.0, abs=1e-9)  # exponent (3-.5)/.5 = 5


def test_bm_inequality_holds_above_threshold():
    for m in (33, 40, 64, 128):
        for n in (1, 5, 50):
            rep = bm_paradox_check(BmParams(m=m, n=n, phi_max=0.5))
            assert rep.in_regime
            assert rep.inequality_holds, (m, n)
            assert rep.lhs_log > rep.rhs_log


def test_bm_below_threshold_flagged():
    rep = bm_paradox_check(BmParams(m=8, n=1, phi_max=0.5))
    assert not rep.in_regime


def test_bm_params_derived_quantities():
    p = BmParams(m=4, n=3, phi_max=0.5)
    assert p.ell_bits == 3 * 4 * 2
    assert p.log_outcomes == pytest.approx(3 * math.log(24))
    assert p.log_phi_floor == pytest.approx(9 * math.log(0.5))
    with pytest.raises(ValueError):
        BmParams(m=4, n=1, phi_max=1.0)


def test_bm_threshold_varies_with_phi():
    rep = bm_paradox_check(BmParams(m=100, n=2, phi_max=0.3))
    assert rep.threshold_m == pytest.approx(2 ** (2.7 / 0.7))


# ---------------------------------------------------------------------------
# concentration check
# ---------------------------------------------------------------------------


def test_concentration_tiny_phi_never_violates():
    cfg = ExperimentConfig(experiment="concentration", m=3, n=10, phi=1e-6, t=0.5,
                           trials=50, seed=3, central="unanimous")
    rep, rows = avg_kt_concentration_check(cfg)
    assert rep.violations == 0 and rep.passed
    assert len(rows) == 50


def test_concentration_huge_t_never_violates():
    # t at the distance ceiling makes violations impossible
    cfg = ExperimentConfig(experiment="concentration", m=3, n=6, phi=0.9, t=3.0,
                           trials=50, seed=4, central="random")
    rep, _ = avg_kt_concentration_check(cfg)
    assert rep.violations == 0


def test_concentration_standard_case_passes():
    cfg = ExperimentConfig(experiment="concentration", m=4, n=50, phi=0.3, t=2.0,
                           trials=300, seed=5, central="random")
    rep, rows = avg_kt_concentration_check(cfg)
    assert rep.bound == pytest.approx(math.exp(-2 * 50 * 4 / (16 * 9)))
    assert rep.passed
    assert len(rows) == 300


def test_concentration_accepts_explicit_inputs():
    central = Profile.from_rankings([(0, 1, 2)] * 4, m=3)
    cfg = ExperimentConfig(experiment="concentration", m=3, n=4, phi=0.5, t=1.0,
                           trials=20, seed=6)
    rep, _ = avg_kt_concentration_check(cfg, central=central)
    assert rep.n == 4


def _concentration_without_mallows_params(monkeypatch, m):
    def boom(*args, **kwargs):
        raise AssertionError("MallowsParam built while sampling around a central profile")

    for name, mod in list(sys.modules.items()):
        if name.startswith("votelab") and hasattr(mod, "MallowsParam"):
            monkeypatch.setattr(mod, "MallowsParam", boom)
    n = 400
    central = central_profile("random", m, n, np.random.default_rng(12))
    cfg = ExperimentConfig(experiment="concentration", m=m, n=n, phi=0.5, t=2.0,
                           trials=3, seed=13)
    report, rows = avg_kt_concentration_check(cfg, central=central)
    assert report.passed and len(rows) == 3


def test_concentration_m8_builds_no_mallows_params(monkeypatch):
    """Above the enumeration threshold the per-voter noise is drawn straight
    from the central profile's arrays, without one parameter object per vote."""
    _concentration_without_mallows_params(monkeypatch, 8)


def test_concentration_m6_builds_no_mallows_params(monkeypatch):
    """Up to the enumeration threshold the alias-table kernel takes the same
    arrays, and builds its base densities without parameter objects."""
    _concentration_without_mallows_params(monkeypatch, 6)


@pytest.mark.parametrize("m", [6, 8])
def test_checks_build_no_profile_per_trial(monkeypatch, m):
    """Both checks draw each trial's tally and read only that: once the
    central exists, no Profile is built at either side of the enumeration
    threshold."""
    from votelab import core

    n = 300
    central = central_profile("random", m, n, np.random.default_rng(31))

    def boom(self):
        raise AssertionError("a trial built a Profile")

    monkeypatch.setattr(core.Profile, "__post_init__", boom)
    for check, experiment in ((avg_kt_concentration_check, "concentration"),
                              (dp_smoothed_check, "dp-envelope")):
        cfg = ExperimentConfig(experiment=experiment, m=m, n=n, phi=0.3, t=2.0,
                               trials=3, seed=32)
        _, rows = check(cfg, central=central)
        assert len(rows) == 3


@pytest.mark.parametrize("m", [6, 8])
def test_checks_aggregate_an_unaggregated_central_once(monkeypatch, m):
    """A central given as plain rows is aggregated once per check, when its
    noise profile is built, not once per trial."""
    from votelab import core

    rng = np.random.default_rng(41)
    rows = [tuple(rng.permutation(m).tolist()) for _ in range(40)]
    central = Profile.from_rankings(rows + rows[:10])
    built = []
    post_init = core.Profile.__post_init__
    monkeypatch.setattr(core.Profile, "__post_init__",
                        lambda self: built.append(1) or post_init(self))
    for check, experiment in ((avg_kt_concentration_check, "concentration"),
                              (dp_smoothed_check, "dp-envelope")):
        cfg = ExperimentConfig(experiment=experiment, m=m, n=len(central), phi=0.3, t=2.0,
                               trials=5, seed=42)
        built.clear()
        _, trial_rows = check(cfg, central=central)
        assert len(trial_rows) == 5 and len(built) == 1


# ---------------------------------------------------------------------------
# dp envelope check
# ---------------------------------------------------------------------------


def test_envelope_formula():
    assert dp_runtime_envelope(0, 10, 4) == dp_runtime_envelope(1, 10, 4)
    assert dp_runtime_envelope(2, 10, 4) == pytest.approx(
        16.0**2 * 4 * 100 * 16 * 2.0
    )


def test_dp_smoothed_check_unanimous_small_phi():
    cfg = ExperimentConfig(experiment="dp-envelope", m=4, n=20, phi=0.05, t=1.0,
                           trials=40, seed=8, central="unanimous")
    rep, rows = dp_smoothed_check(cfg)
    assert rep.d >= 1 and rep.d_ok and rep.envelope_ok
    assert all(r["envelope_ok"] for r in rows)


def test_dp_smoothed_check_random_central():
    cfg = ExperimentConfig(experiment="dp-envelope", m=4, n=30, phi=0.3, t=2.0,
                           trials=60, seed=9, central="random")
    rep, _ = dp_smoothed_check(cfg)
    assert rep.d_ok and rep.envelope_ok
    assert rep.max_envelope_ratio <= 1.0


# ---------------------------------------------------------------------------
# smoothed runtime estimate
# ---------------------------------------------------------------------------


def test_smoothed_runtime_uniform_dominates_concentrated():
    cfg = ExperimentConfig(experiment="smoothed", m=5, n=10, trials=30, seed=10,
                           central="unanimous", solver="dp")
    central = central_profile("unanimous", 5, 10, trial_rng(10, 0))
    adversaries = [mallows_parameter_profile(central, p) for p in (0.1, 1.0)]
    stats, rows = smoothed_runtime_estimate(cfg, adversaries)
    assert stats.argmax_adversary == 1  # uniform noise costs the DP more
    assert stats.per_adversary[0].trials == 30
    assert len(rows) == 60
    # concentrated noise keeps the distance parameter small
    d_hist0 = dict(stats.per_adversary[0].d_histogram)
    assert sum(c for d, c in d_hist0.items() if d <= 2) == 30


def test_smoothed_runtime_deterministic():
    cfg = ExperimentConfig(experiment="smoothed", m=4, n=6, trials=10, seed=11,
                           central="cyclic")
    central = central_profile("cyclic", 4, 6, trial_rng(11, 0))
    adversaries = [mallows_parameter_profile(central, 0.4)]
    a, _ = smoothed_runtime_estimate(cfg, adversaries)
    b, _ = smoothed_runtime_estimate(cfg, adversaries)
    # everything except wall-clock is a pure function of (config, seed)
    for sa, sb in zip(a.per_adversary, b.per_adversary):
        assert (sa.op_mean, sa.op_median, sa.op_max, sa.d_histogram) == (
            sb.op_mean, sb.op_median, sb.op_max, sb.d_histogram,
        )
    assert a.sup_op_mean == b.sup_op_mean


# ---------------------------------------------------------------------------
# reduction trials
# ---------------------------------------------------------------------------


def test_reduction_trials_summary_and_log_shape():
    tri = Digraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    inst = FasInstance(tri, 1, "eulerian")
    summary, rows = reduction_trials(inst, ReductionConfig(K=6), trials=5, master_seed=1)
    assert summary["answer"] == "YES" and summary["yes_count"] >= 4
    assert len(rows) == 5
    assert set(rows[0]) == {
        "seed", "K", "n", "solver", "finished", "elapsed_ms", "op_count",
        "answer", "back_edges", "budget_ops",
    }
    # the budget belongs to the instance: a multiple of its expected tally's op count
    assert len({r["budget_ops"] for r in rows}) == 1
    ppi = gadgets.round_to_integral(gadgets.build_instance_profile(inst, ReductionConfig(K=6)), 6)
    expected_ops = solvers.kemeny_dp(gadgets._expected_tally(ppi)).op_count
    assert rows[0]["budget_ops"] == gadgets.BUDGET_MULTIPLIER * expected_ops
    assert all(r["op_count"] <= r["budget_ops"] for r in rows)


@pytest.mark.parametrize("inst", [
    FasInstance(Digraph.from_edges(4, [(0, 1), (1, 2), (2, 0)]), 1, "eulerian"),
    FasInstance(Digraph.from_edges(3, [(0, 1), (1, 2), (2, 0)]), 1, "tournament"),
])
def test_reduction_rows_do_not_depend_on_the_clock(monkeypatch, inst):
    # budgets count ops, so a clock that jumps 10 s per reading changes only
    # the informational elapsed_ms of each row
    def rows_without_elapsed():
        _, rows = reduction_trials(inst, ReductionConfig(K=5), trials=4, master_seed=4)
        return [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in rows]

    calm = rows_without_elapsed()
    readings = itertools.count(step=10.0)
    jumpy = SimpleNamespace(perf_counter=lambda: next(readings))
    monkeypatch.setattr(solvers, "time", jumpy)
    monkeypatch.setattr(gadgets, "time", jumpy)
    assert rows_without_elapsed() == calm
    assert next(readings) > 0  # the patched clock was read
    assert all(r["finished"] for r in calm)


def test_reduction_trials_build_sampling_arrays_once_and_no_profile(monkeypatch):
    # m <= 7 Mallows trials sample a tally from arrays built once per instance
    from votelab import core, gadgets, models

    made = []
    init = core.Profile.__post_init__

    def counting(self):
        made.append(self.m)
        init(self)

    def no_profile(m, counts):
        raise AssertionError("a reduction trial built a profile from its counts")

    tri = Digraph.from_edges(4, [(0, 1), (1, 2), (2, 0)])
    inst = FasInstance(tri, 1, "eulerian")
    gadgets._instance_plan.cache_clear()
    models._profile_sampler.cache_clear()
    monkeypatch.setattr(core.Profile, "__post_init__", counting)
    monkeypatch.setattr(models, "_tallied_profile", no_profile)
    summary, rows = reduction_trials(inst, ReductionConfig(K=5), trials=5, master_seed=2)
    assert len(rows) == 5 and summary["yes_count"] >= 1
    assert models._profile_sampler.cache_info().misses == 1
    assert made == []


# ---------------------------------------------------------------------------
# persistence and reproducibility
# ---------------------------------------------------------------------------


def test_write_csv_layout(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, ["a", "b"], [[1, 0.5], [2, 0.25]], "deadbeef0123", 9)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "# votelab-csv v1"
    assert lines[1] == "# config_hash=deadbeef0123 seed=9"
    assert lines[2] == "a,b"
    assert lines[3] == "1,0.5"


def test_run_experiment_concentration_reproducible(tmp_path):
    cfg = ExperimentConfig(
        experiment="concentration", m=3, n=8, phi=0.4, t=1.0, trials=40, seed=21,
        central="random",
        out_csv=str(tmp_path / "a.csv"), out_jsonl=str(tmp_path / "a.jsonl"),
    )
    s1 = run_experiment(cfg)
    first = (tmp_path / "a.csv").read_bytes()
    s2 = run_experiment(cfg)
    second = (tmp_path / "a.csv").read_bytes()
    assert first == second
    assert s1["passed"] == s2["passed"]
    log_lines = (tmp_path / "a.jsonl").read_text().splitlines()
    assert len(log_lines) == 41  # header + one per trial
    assert json.loads(log_lines[0])["seed"] == 21


def test_run_experiment_smoothed_and_dp(tmp_path):
    cfg = ExperimentConfig(
        experiment="smoothed", m=3, n=4, phi_list=(0.2, 1.0), trials=8, seed=2,
        central="unanimous", out_csv=str(tmp_path / "s.csv"),
    )
    summary = run_experiment(cfg)
    assert summary["argmax_phi"] == 1.0
    assert (tmp_path / "s.csv").read_bytes() and run_experiment(cfg) == summary

    cfg2 = ExperimentConfig(
        experiment="dp-envelope", m=3, n=10, phi=0.2, t=1.0, trials=10, seed=3,
        out_csv=str(tmp_path / "d.csv"),
    )
    summary2 = run_experiment(cfg2)
    assert summary2["passed"]


def test_run_experiment_reduction(tmp_path):
    tri = Digraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    inst_path = tmp_path / "tri.fas"
    inst_path.write_text(format_fas(FasInstance(tri, 1, "eulerian")))
    cfg = ExperimentConfig(
        experiment="reduction", instance=str(inst_path), K=6, trials=4, seed=4,
        out_csv=str(tmp_path / "r.csv"), out_jsonl=str(tmp_path / "r.jsonl"),
    )
    summary = run_experiment(cfg)
    assert summary["answer"] == "YES"


def test_golden_csv_miniature(tmp_path):
    # fixed-seed miniature run against the checked-in golden file
    cfg = ExperimentConfig(
        experiment="concentration", m=3, n=6, phi=0.5, t=1.0, trials=25, seed=2024,
        central="cyclic", out_csv=str(tmp_path / "golden.csv"),
    )
    run_experiment(cfg)
    golden = (DATA / "golden_concentration.csv").read_bytes()
    assert (tmp_path / "golden.csv").read_bytes() == golden


#: sha256 of the CSV and of the trial rows (wall-clock field dropped) of two
#: m >= 8 experiments, as the per-profile sampling gave them; the golden file
#: above covers m = 3 only
PINNED_OUTPUTS = {
    "concentration": (
        dict(m=8, n=200, phi=0.5, t=2.0, trials=5, seed=8, central="random"),
        "797778112d472134901444fedaede521526ea62a52f600541a6fe58fdcde0dda",
        "5f651e46d4ab030970923ce52c8b72a9ed4c2547cde8f3286b96361208a0529b",
    ),
    "dp-envelope": (
        dict(m=9, n=40, phi=0.3, t=2.0, trials=4, seed=9, central="unanimous"),
        "fd3215f647b3572fc2d2bcc601827acfbe5367b08260da633cbeff5d774268ec",
        "db40ae12ec2bba1a4e5c606fb9e07b0db0e5b7b228e9c971426b4f5e1b5063d0",
    ),
}


@pytest.mark.parametrize("experiment", sorted(PINNED_OUTPUTS))
def test_large_m_experiment_outputs_are_pinned(tmp_path, experiment):
    settings, csv_digest, rows_digest = PINNED_OUTPUTS[experiment]
    csv_path, log_path = tmp_path / "out.csv", tmp_path / "out.jsonl"
    run_experiment(ExperimentConfig(experiment=experiment, out_csv=str(csv_path),
                                    out_jsonl=str(log_path), **settings))
    rows = [json.loads(line) for line in log_path.read_text().splitlines()]
    for row in rows:
        row.pop("elapsed_ms", None)
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == csv_digest
    assert hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest() == rows_digest


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "votelab.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc


def test_startup_does_not_import_scipy_stats():
    # scipy.stats takes about a second to import, and scipy is a test-only
    # extra: the CLI and the harness must start without loading it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, votelab.cli, votelab.harness; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_solve(tmp_path):
    prof = tmp_path / "p.profile"
    prof.write_text("m=3\nn=3\n1: 0,1,2\n1: 1,2,0\n1: 2,0,1\n")
    proc = run_cli("solve", "kemeny", "--in", str(prof), "--solver", "dp")
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    assert rec["score"] == 4 and rec["ranking"] == [0, 1, 2]
    proc2 = run_cli("solve", "slater", "--in", str(prof))
    assert json.loads(proc2.stdout)["score"] == 1


def test_cli_verify_gadgets():
    proc = run_cli("verify", "gadgets", "--m", "5", "--phi", "0.5")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["all_passed"] is True


def test_cli_verify_witness():
    proc = run_cli("verify", "witness", "--family", "pl", "--phi", "0.5")
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    assert rec["ok_3cycle"] and rec["ok_cocycle"]


def test_cli_gadget_sample_decompose(tmp_path):
    gadget_path = tmp_path / "tri.pprofile"
    proc = run_cli("gadget", "triangle", "--m", "4", "--phi", "1/2", "--out", str(gadget_path))
    assert proc.returncode == 0
    assert gadget_path.exists()

    sampled = tmp_path / "s.profile"
    proc2 = run_cli(
        "sample", "--in", str(gadget_path), "--out", str(sampled),
        "--seed", "3", "--round-k", "5",
    )
    assert proc2.returncode == 0
    assert json.loads(proc2.stdout)["n"] > 0

    wmg_path = tmp_path / "g.wmg"
    wmg_path.write_text("m=3\n0 -> 1 w=1\n1 -> 2 w=1\n0 -> 2 w=1\n")
    proc3 = run_cli("decompose", "--in", str(wmg_path))
    assert proc3.returncode == 0


def test_cli_samples_a_pl_gadget(tmp_path):
    from votelab.formats import format_parameter_profile, parse_profile

    pp = gadgets.build_triangle_profile(gadgets.pl_witness(6))
    gadget_path = tmp_path / "pl.pprofile"
    gadget_path.write_text(format_parameter_profile(pp), encoding="utf-8")
    sampled = tmp_path / "pl.profile"
    proc = run_cli("sample", "--in", str(gadget_path), "--out", str(sampled),
                   "--seed", "4", "--round-k", "6")
    assert proc.returncode == 0, proc.stderr
    n = int(gadgets.round_to_integral(pp, 6).total_weight)
    assert json.loads(proc.stdout)["n"] == n
    prof = parse_profile(sampled.read_text(encoding="utf-8"))
    assert (prof.m, int(prof.n)) == (6, n)


def test_cli_reduce_and_bm(tmp_path):
    inst_path = tmp_path / "tri.fas"
    tri = Digraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    inst_path.write_text(format_fas(FasInstance(tri, 0, "eulerian")))
    proc = run_cli("reduce", "--in", str(inst_path), "--K", "6", "--trials", "3", "--seed", "7")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["answer"] == "NO"

    proc2 = run_cli("bm-check", "--m", "33", "--n", "1", "--phi-max", "0.5")
    rec = json.loads(proc2.stdout)
    assert rec["threshold_m"] == 32.0 and rec["inequality_holds"]


def test_cli_phi_reads_the_number_grammar():
    from votelab.cli import build_parser

    parser = build_parser()
    for argv, want in (
        (["gadget", "triangle", "--out", "x"], Fraction(1, 2)),
        (["verify", "gadgets"], Fraction(1, 2)),
        (["reduce", "--in", "x"], 0.5),
        (["reduce", "--in", "x", "--phi", "1/2"], Fraction(1, 2)),
        (["gadget", "triangle", "--phi", "1", "--out", "x"], 1),
        (["verify", "witness", "--phi", "0.25"], 0.25),
    ):
        phi = parser.parse_args(argv).phi
        assert phi == want and type(phi) is type(want)


def test_cli_reduce_accepts_a_fraction_phi(tmp_path):
    inst_path = tmp_path / "tri.fas"
    inst_path.write_text(format_fas(FasInstance(Digraph.from_edges(3, [(0, 1), (1, 2), (2, 0)]),
                                                1, "eulerian")))
    args = ("reduce", "--in", str(inst_path), "--K", "4", "--trials", "2", "--seed", "3")
    half = run_cli(*args, "--phi", "1/2")
    assert half.returncode == 0, half.stderr
    assert half.stdout == run_cli(*args, "--phi", "0.5").stdout


def test_cli_integer_phi_is_exact_as_in_a_parameter_file():
    # phi=1 in a .pprofile file reads back as an exact Fraction; so does --phi 1
    from votelab.cli import build_parser
    from votelab.formats import parse_parameter_profile
    from votelab.gadgets import mallows_witness

    args = build_parser().parse_args(["gadget", "triangle", "--m", "4", "--phi", "1",
                                      "--out", "x"])
    from_cli = mallows_witness(args.m, args.phi).phi
    text = "model=mallows\nm=4\n1 | phi=1; central=0,1,2,3\n"
    from_file = parse_parameter_profile(text).entries[0][0].phi
    assert from_cli == from_file == 1
    assert type(from_cli) is type(from_file) is Fraction


@pytest.mark.parametrize("token", ["abc", "1/0", "1//2", ""])
def test_cli_bad_phi_is_a_usage_error(token, capsys):
    from votelab.cli import main

    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "gadgets", "--phi", token])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--phi" in err


@pytest.mark.parametrize("argv, message", [
    (["gadget", "triangle", "--m", "4", "--phi", "1", "--out", "{tmp}/t.pprofile"],
     "triangle margin sum 0 is not positive"),
    (["verify", "gadgets", "--m", "4", "--phi", "1"], "triangle margin sum 0 is not positive"),
    (["reduce", "--in", "{tmp}/missing.fas"], "No such file or directory"),
    (["reduce", "--in", "{tmp}/bad.fas"], "bad line 4 in instance file: '0 1'"),
], ids=["gadget-uniform-phi", "verify-uniform-phi", "reduce-missing-file", "reduce-bad-line"])
def test_cli_errors_are_one_line(argv, message, tmp_path, capsys):
    from votelab.cli import main

    (tmp_path / "bad.fas").write_text("kind=eulerian\nt=1\nm=3\n0 1\n")
    assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"votelab {argv[0]}: error: ")
    assert message in lines[0]
    assert captured.out == ""


def test_cli_verify_failed_identity_exits_1(monkeypatch, capsys):
    from votelab import cli
    from votelab.gadgets import CheckResult

    monkeypatch.setattr(cli, "check_gadget_identities",
                        lambda m, theta: [CheckResult("edge-gadget-sum", False, "")])
    assert cli.main(["verify", "gadgets", "--m", "4"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["all_passed"] is False
    assert "FAIL edge-gadget-sum" in captured.err


def test_cli_experiment(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "experiment = concentration\nm = 3\nn = 6\nphi = 0.4\nt = 1.0\n"
        f"trials = 10\nseed = 5\nout_csv = {tmp_path / 'out.csv'}\n"
    )
    proc = run_cli("experiment", "--config", str(cfg_path))
    assert proc.returncode == 0
    assert (tmp_path / "out.csv").exists()


def test_dp_smoothed_check_large_electorate_poly_regime():
    # n at the concentration scale m^2 (m-1)^2 with gentle dispersion and a
    # near-agreeing population: the distance parameter stays small, so the
    # DP cost envelope at small d certifies polynomial work with the
    # claimed frequency
    m, n = 4, 144
    cfg = ExperimentConfig(experiment="dp-envelope", m=m, n=n, phi=0.1, t=1.0,
                           trials=60, seed=31, central="unanimous")
    rep, rows = dp_smoothed_check(cfg)
    assert rep.d <= 3
    assert rep.d_ok and rep.envelope_ok
    assert rep.freq_d_within >= rep.required_freq
    assert all(r["d_bar"] <= rep.d for r in rows)


def test_dp_smoothed_check_adversarial_dispersed_observation():
    # dispersed central rankings at uniform noise: d is large and no
    # polynomial claim is made, but the report is still produced and the
    # fitted envelope still holds on every trial
    cfg = ExperimentConfig(experiment="dp-envelope", m=4, n=20, phi=1.0, t=1.0,
                           trials=30, seed=32, central="random")
    rep, rows = dp_smoothed_check(cfg)
    assert rep.d >= 10  # ceil(avg_kt + 2 m^2 + t) in the uniform regime
    assert rep.envelope_ok
    assert len(rows) == 30
