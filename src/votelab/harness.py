"""Experiment orchestration: smoothed-runtime estimation, concentration
checks, the brute-force paradox calculator, and reproducible persistence.

Every experiment is a pure function of (config, master seed): trial RNG
streams are derived from the master seed by index, statistical pass/fail
criteria allow three binomial standard deviations of slack on top of the
closed-form bounds (the bounds are one-sided, the tests must not flake),
and CSV outputs contain only deterministic fields so a re-run reproduces
them byte for byte.  Wall-clock times go to the JSON-lines trial logs,
which are informational.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import Profile, avg_kt
from .formats import parse_fas, read_lines
from .gadgets import FasInstance, ReductionConfig, build_instance_profile, run_reduction
from .models import (
    ParameterProfile,
    mallows_parameter_profile,
    mean_expected_kt_bound,
    sample_tally,
)
from .solvers import get_solver, kemeny_dp

__all__ = [
    "ExperimentConfig",
    "AdversaryStats",
    "SmoothedRunStats",
    "BmParams",
    "BmReport",
    "ConcentrationReport",
    "DpEnvelopeReport",
    "DP_ENVELOPE_C",
    "dp_runtime_envelope",
    "trial_rng",
    "central_profile",
    "mallows_parameter_profile",
    "smoothed_runtime_estimate",
    "bm_paradox_check",
    "avg_kt_concentration_check",
    "dp_smoothed_check",
    "reduction_trials",
    "run_experiment",
    "write_csv",
    "write_jsonl",
]

#: CSV schema version; bump when any experiment's column set changes
CSV_SCHEMA_VERSION = 1

#: envelope constant for the window DP, calibrated once on the randomized
#: suite (max observed op_count / envelope ratio was 0.019, on a two-vote
#: m=3 instance; doubled for slack) and fixed thereafter
DP_ENVELOPE_C = 0.04


def dp_runtime_envelope(d: int, n: int, m: int) -> float:
    """16^d * d^2 * n^2 * m^2 * log2(m), with d floored at 1."""
    d_eff = max(int(d), 1)
    return (16.0**d_eff) * (d_eff**2) * (n**2) * (m**2) * math.log2(m)


def trial_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Independent, reproducible RNG stream for one trial."""
    return np.random.default_rng([int(master_seed), *map(int, path)])


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description, readable from `key = value` text.

    ``experiment`` selects the procedure: 'smoothed', 'concentration',
    'dp-envelope', or 'reduction'.  ``t`` is the slack added on top of the
    expected average-distance growth; ``phi_list`` is the adversary grid
    for the smoothed-runtime estimate.
    """

    experiment: str = "concentration"
    family: str = "mallows"
    m: int = 4
    n: int = 50
    m_list: tuple[int, ...] = ()
    n_list: tuple[int, ...] = ()
    phi: float = 0.3
    phi_list: tuple[float, ...] = ()
    central: str = "random"  # unanimous | random | cyclic
    trials: int = 200
    t: float = 2.0
    seed: int = 0
    solver: str = "dp"
    K: int = 9
    instance: str = ""
    out_csv: str = ""
    out_jsonl: str = ""

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.m < 2:
            raise ValueError("m must be >= 2")
        # the profile-generating experiments are dispersion-based; arbitrary
        # adversary profiles (any family) go through smoothed_runtime_estimate
        if self.family != "mallows":
            raise ValueError("config-driven experiments support the mallows family only")

    @staticmethod
    def from_text(text: str) -> "ExperimentConfig":
        coerce = {f.name: partial(_coerce_field, f.type) for f in fields(ExperimentConfig)}
        settings, _ = read_lines(text, "experiment config", coerce)
        return ExperimentConfig(**settings)

    def canonical_text(self) -> str:
        # output paths do not affect results, so they stay out of the hash
        parts = []
        for f in sorted(fields(self), key=lambda f: f.name):
            if f.name in ("out_csv", "out_jsonl"):
                continue
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(repr(x) for x in v)
            parts.append(f"{f.name} = {v}")
        return "\n".join(parts) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:12]


def _coerce_field(ftype: str, val: str):
    if "tuple[int" in ftype:
        return tuple(int(x) for x in val.split(",") if x.strip())
    if "tuple" in ftype:
        return tuple(float(x) for x in val.split(",") if x.strip())
    if ftype == "int":
        return int(val)
    if ftype == "float":
        return float(val)
    return val


def _grid(cfg: "ExperimentConfig") -> list[tuple[int, int]]:
    """(m, n) sweep: the cross product of m_list and n_list, falling back
    to the scalar fields."""
    ms = cfg.m_list if cfg.m_list else (cfg.m,)
    ns = cfg.n_list if cfg.n_list else (cfg.n,)
    return [(m, n) for m in ms for n in ns]


def central_profile(kind: str, m: int, n: int, rng: np.random.Generator) -> Profile:
    """Generate the adversary's central profile.

    'unanimous' repeats the identity ranking, 'cyclic' cycles its
    rotations, 'random' draws uniform rankings from the given stream.
    """
    if kind == "unanimous":
        rows = [tuple(range(m))] * n
    elif kind == "cyclic":
        base = list(range(m))
        rows = [tuple(base[i % m :] + base[: i % m]) for i in range(n)]
    elif kind == "random":
        rows = [tuple(rng.permutation(m).tolist()) for _ in range(n)]
    else:
        raise ValueError(f"unknown central profile kind {kind!r}")
    return Profile.from_rankings(rows, m=m).aggregated()


# ---------------------------------------------------------------------------
# smoothed runtime estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdversaryStats:
    adversary_id: int
    trials: int
    op_mean: float
    op_median: float
    op_max: int
    elapsed_mean: float
    d_histogram: tuple[tuple[int, int], ...]

    @property
    def d_hist_str(self) -> str:
        return "|".join(f"{d}:{c}" for d, c in self.d_histogram)


@dataclass(frozen=True)
class SmoothedRunStats:
    """Per-adversary runtime statistics and their maximum.

    The max over the supplied adversaries is a lower-bound stand-in for
    the supremum over the whole parameter space, which is not computable;
    it is exact only for the adversaries actually supplied.
    """

    per_adversary: tuple[AdversaryStats, ...]
    sup_op_mean: float
    argmax_adversary: int


def smoothed_runtime_estimate(
    cfg: ExperimentConfig, adversaries: Sequence[ParameterProfile]
) -> tuple[SmoothedRunStats, list[dict]]:
    """Monte Carlo estimate of expected solver cost per adversary.

    Each trial solves the tally of one election drawn by ``sample_tally``.
    Returns the stats and the per-trial JSON rows.  op_count is the
    asserted runtime measure; wall-clock is recorded but informational.
    """
    solver = get_solver(cfg.solver)
    per = []
    rows = []
    for aid, adversary in enumerate(adversaries):
        ops, elapsed, dvals = [], [], []
        for trial in range(cfg.trials):
            rng = trial_rng(cfg.seed, aid, trial)
            res = solver(sample_tally(adversary, rng))
            d = res.diagnostics.d if res.diagnostics else -1
            ops.append(res.op_count)
            elapsed.append(res.elapsed)
            dvals.append(d)
            rows.append(
                {
                    "adversary": aid,
                    "trial": trial,
                    "op_count": res.op_count,
                    "elapsed_ms": res.elapsed * 1000.0,
                    "d": d,
                    "score": _plain(res.score),
                    "solver": res.solver,
                }
            )
        hist: dict[int, int] = {}
        for d in dvals:
            hist[d] = hist.get(d, 0) + 1
        per.append(
            AdversaryStats(
                adversary_id=aid,
                trials=cfg.trials,
                op_mean=float(np.mean(ops)),
                op_median=float(np.median(ops)),
                op_max=int(max(ops)),
                elapsed_mean=float(np.mean(elapsed)),
                d_histogram=tuple(sorted(hist.items())),
            )
        )
    sup = max(s.op_mean for s in per)
    argmax = max(range(len(per)), key=lambda i: per[i].op_mean)
    return SmoothedRunStats(tuple(per), sup, argmax), rows


# ---------------------------------------------------------------------------
# brute-force paradox calculator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BmParams:
    """Inputs to the alternative smoothed-efficiency inequality.

    Everything sized is kept in the log domain: ``log_outcomes`` is the
    natural log of (m!)^n, ``log_phi_floor`` the natural log of
    (1 - phi_max)^(n(m-1)), a lower bound on the per-profile probability
    floor.  ``ell_bits`` is the input-size proxy n * m * ceil(log2 m).
    """

    m: int
    n: int
    phi_max: float
    epsilon: float = 0.5

    def __post_init__(self):
        if not 0 < self.phi_max < 1:
            raise ValueError("phi_max must be in (0, 1)")
        if self.m < 3 or self.n < 1:
            raise ValueError("need m >= 3 and n >= 1")

    @property
    def ell_bits(self) -> int:
        return self.n * self.m * math.ceil(math.log2(self.m))

    @property
    def log_outcomes(self) -> float:
        return self.n * math.lgamma(self.m + 1)

    @property
    def log_phi_floor(self) -> float:
        return self.n * (self.m - 1) * math.log(1.0 - self.phi_max)


@dataclass(frozen=True)
class BmReport:
    threshold_m: float
    in_regime: bool
    inequality_holds: bool
    lhs_log: float
    rhs_log: float
    params: BmParams


def bm_paradox_check(p: BmParams, tol: float = 1e-9) -> BmReport:
    """Check the inequality chain that certifies enumeration as
    smoothed-efficient under the permissive perturbation-size convention.

    The regime threshold is m >= 2^((3 - phi_max)/(1 - phi_max)).  Inside
    the regime, the decisive comparison is, in natural logs,
    log(n m log2 m) + n (log m! + (m-1) log(1 - phi_max))
    > (1/2) log(m! n m^2).
    """
    threshold = 2.0 ** ((3.0 - p.phi_max) / (1.0 - p.phi_max))
    in_regime = p.m >= threshold
    log_mfact = math.lgamma(p.m + 1)
    lhs = (
        math.log(p.n * p.m * math.log2(p.m))
        + p.n * (log_mfact + (p.m - 1) * math.log(1.0 - p.phi_max))
    )
    rhs = p.epsilon * (log_mfact + math.log(p.n) + 2.0 * math.log(p.m))
    return BmReport(
        threshold_m=threshold,
        in_regime=in_regime,
        inequality_holds=lhs > rhs + tol,
        lhs_log=lhs,
        rhs_log=rhs,
        params=p,
    )


# ---------------------------------------------------------------------------
# concentration of the average distance
# ---------------------------------------------------------------------------


def _noise_trials(cfg: ExperimentConfig, central: Optional[Profile]) -> tuple:
    """The two Hoeffding checks' common start: n, avg_kt(central), the
    threshold avg_kt(central) + 2 * (mean expected-distance bound) + t, the
    noise tallies drawn lazily on each trial's stream, the Hoeffding tail
    exp(-2nt^2 / (m^2 (m-1)^2)) and its three binomial sigmas."""
    if central is None:
        central = central_profile(cfg.central, cfg.m, cfg.n, trial_rng(cfg.seed, 0))
    n = int(central.n)
    if n < 2:
        raise ValueError("need n >= 2")
    base = float(avg_kt(central))
    threshold = base + 2.0 * mean_expected_kt_bound((cfg.phi,) * n, cfg.m) + cfg.t
    noise = mallows_parameter_profile(central, cfg.phi)
    tallies = (sample_tally(noise, trial_rng(cfg.seed, 1, trial)) for trial in range(cfg.trials))
    m, t = cfg.m, cfg.t
    bound = math.exp(-2.0 * n * t * t / (m * m * (m - 1) * (m - 1)))
    sigma3 = 3.0 * math.sqrt(max(bound * (1.0 - bound), 1e-12) / cfg.trials)
    return n, base, threshold, tallies, bound, sigma3


@dataclass(frozen=True)
class ConcentrationReport:
    m: int
    n: int
    phi: float
    t: float
    trials: int
    avg_kt_central: float
    threshold: float
    violations: int
    violation_rate: float
    bound: float
    sigma3: float
    passed: bool


def avg_kt_concentration_check(
    cfg: ExperimentConfig, central: Optional[Profile] = None
) -> tuple[ConcentrationReport, list[dict]]:
    """Estimate how often the sampled average distance exceeds its bound.

    The per-voter Mallows parameters around the central profile (one vote
    per voter at the shared dispersion) are built once; each trial draws
    the tally of that noise with ``sample_tally`` and reads its average KT
    distance off the tally, with no sampled profile built.  It counts
    trials with average KT distance above avg_kt(central) + 2 * (mean
    expected-distance bound) + t; the rate is compared against the
    Hoeffding tail exp(-2nt^2 / (m^2 (m-1)^2)) plus three binomial sigmas
    of slack.
    """
    n, base, threshold, tallies, bound, sigma3 = _noise_trials(cfg, central)
    violations = 0
    rows = []
    for trial, sampled in enumerate(tallies):
        val = float(avg_kt(sampled))
        hit = val > threshold
        violations += hit
        rows.append({"trial": trial, "avg_kt": val, "violation": int(hit)})
    rate = violations / cfg.trials
    report = ConcentrationReport(
        m=cfg.m,
        n=n,
        phi=float(cfg.phi),
        t=float(cfg.t),
        trials=cfg.trials,
        avg_kt_central=base,
        threshold=threshold,
        violations=violations,
        violation_rate=rate,
        bound=bound,
        sigma3=sigma3,
        passed=rate <= bound + sigma3,
    )
    return report, rows


# ---------------------------------------------------------------------------
# distance parameter and runtime envelope of the window DP
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DpEnvelopeReport:
    m: int
    n: int
    phi: float
    t: float
    trials: int
    d: int
    freq_d_within: float
    required_freq: float
    d_ok: bool
    envelope_ok: bool
    max_envelope_ratio: float


def dp_smoothed_check(
    cfg: ExperimentConfig, central: Optional[Profile] = None
) -> tuple[DpEnvelopeReport, list[dict]]:
    """Validate the distance parameter and the DP cost envelope on samples.

    The per-voter Mallows parameters around the central profile are built
    once; each trial draws the tally of that noise with ``sample_tally``
    and solves it with ``kemeny_dp``, with no sampled profile built.  (a)
    the sampled election's distance parameter stays at or below d =
    ceil(avg_kt(central)
    + 2 * mean-bound + t) with frequency at least 1 - Hoeffding tail -
    3 sigma; (b) on every sampled election the window DP's op_count stays
    within the calibrated envelope DP_ENVELOPE_C * 16^d * d^2 * n^2 * m^2 *
    log2(m) at the election's own distance parameter.
    """
    n, _, threshold, tallies, bound, sigma3 = _noise_trials(cfg, central)
    d = math.ceil(threshold)
    within = 0
    env_ok = True
    max_ratio = 0.0
    rows = []
    for trial, sampled in enumerate(tallies):
        res = kemeny_dp(sampled)
        dbar = res.diagnostics.d
        envelope = DP_ENVELOPE_C * dp_runtime_envelope(dbar, n, cfg.m)
        ratio = res.op_count / envelope
        max_ratio = max(max_ratio, ratio)
        trial_ok = res.op_count <= envelope
        env_ok = env_ok and trial_ok
        within += dbar <= d
        rows.append(
            {
                "trial": trial,
                "d_bar": dbar,
                "op_count": res.op_count,
                "envelope": envelope,
                "within_d": int(dbar <= d),
                "envelope_ok": int(trial_ok),
                "elapsed_ms": res.elapsed * 1000.0,
            }
        )
    required = 1.0 - bound - sigma3
    freq = within / cfg.trials
    report = DpEnvelopeReport(
        m=cfg.m,
        n=n,
        phi=float(cfg.phi),
        t=float(cfg.t),
        trials=cfg.trials,
        d=d,
        freq_d_within=freq,
        required_freq=required,
        d_ok=freq >= required,
        envelope_ok=env_ok,
        max_envelope_ratio=max_ratio,
    )
    return report, rows


# ---------------------------------------------------------------------------
# reduction trials
# ---------------------------------------------------------------------------


def reduction_trials(
    inst: FasInstance, rcfg: ReductionConfig, trials: int, master_seed: int
) -> tuple[dict, list[dict]]:
    """Run seeded independent reduction decisions and summarize.

    The summary's answer amplifies the one-sided error: YES errors are
    impossible (the certificate is checked against the instance graph), so
    any YES trial certifies a YES answer.  Each row carries the trial's
    solve budget in ops as ``budget_ops``, ``BUDGET_MULTIPLIER`` times the
    op count of the instance's expected tally; it belongs to the instance,
    so it is the same in every row.  ``elapsed_ms`` is informational: no
    answer depends on it.
    """
    pp = build_instance_profile(inst, rcfg)
    rows = []
    yes = 0
    for trial in range(trials):
        rng = trial_rng(master_seed, trial)
        out = run_reduction(inst, rcfg, rng, prebuilt=pp)
        yes += out.answer == "YES"
        rows.append(
            {
                "seed": trial,
                "K": rcfg.K,
                "n": out.n,
                "solver": out.solver,
                "finished": int(out.finished),
                "elapsed_ms": out.elapsed * 1000.0,
                "op_count": out.op_count,
                "answer": out.answer,
                "back_edges": out.back_edges,
                "budget_ops": out.budget,
            }
        )
    summary = {
        "trials": trials,
        "yes_count": yes,
        "yes_rate": yes / trials,
        "answer": "YES" if yes > 0 else "NO",
        "kind": inst.kind,
        "t": inst.t,
        "m": inst.graph.m,
        "K": rcfg.K,
    }
    return summary, rows


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def _plain(x):
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    return x


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_csv(path, columns: Sequence[str], rows: Iterable[Sequence], cfg_hash: str, seed: int) -> None:
    """Write a deterministic CSV with a schema/config header comment."""
    buf = io.StringIO()
    buf.write(f"# votelab-csv v{CSV_SCHEMA_VERSION}\n")
    buf.write(f"# config_hash={cfg_hash} seed={seed}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(_plain(v)) for v in row])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def write_jsonl(path, rows: Iterable[dict], cfg_hash: str, seed: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"config_hash": cfg_hash, "seed": seed}, sort_keys=True) + "\n")
        for row in rows:
            fh.write(json.dumps({k: _plain(v) for k, v in row.items()}, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# experiment dispatch
# ---------------------------------------------------------------------------

#: the (m, n) grid experiments: check, report type, and the pass predicate
#: of one grid point; a CSV row is the report's fields in order, bools as 0/1
_GRID_EXPERIMENTS = {
    "concentration": (avg_kt_concentration_check, ConcentrationReport, lambda rep: rep.passed),
    "dp-envelope": (dp_smoothed_check, DpEnvelopeReport, lambda rep: rep.d_ok and rep.envelope_ok),
}


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute a named experiment and persist its outputs.

    Returns the summary dict.  Identical config and seed reproduce the CSV
    byte for byte; wall-clock fields live only in the JSON-lines log.
    """
    h = cfg.config_hash()
    if cfg.experiment in _GRID_EXPERIMENTS:
        check, report_type, passed = _GRID_EXPERIMENTS[cfg.experiment]
        columns = [f.name for f in fields(report_type)]
        data, rows, all_passed = [], [], True
        for m, n in _grid(cfg):
            rep, trial_rows = check(replace(cfg, m=m, n=n))
            cells = (getattr(rep, c) for c in columns)
            data.append([int(v) if isinstance(v, bool) else v for v in cells])
            rows.extend({"m": m, "n": n, **r} for r in trial_rows)
            all_passed = all_passed and passed(rep)
        summary = {"experiment": cfg.experiment, "passed": all_passed,
                   "points": len(data)}
    elif cfg.experiment == "smoothed":
        phis = cfg.phi_list if cfg.phi_list else (cfg.phi,)
        rng_central = trial_rng(cfg.seed, 0)
        central = central_profile(cfg.central, cfg.m, cfg.n, rng_central)
        adversaries = [mallows_parameter_profile(central, p) for p in phis]
        stats, rows = smoothed_runtime_estimate(cfg, adversaries)
        columns = ["adversary_id", "phi", "trials", "op_mean", "op_median", "op_max", "d_hist"]
        data = [
            [s.adversary_id, float(phis[s.adversary_id]), s.trials, s.op_mean,
             s.op_median, s.op_max, s.d_hist_str]
            for s in stats.per_adversary
        ]
        summary = {"experiment": cfg.experiment, "sup_op_mean": stats.sup_op_mean,
                   "argmax_adversary": stats.argmax_adversary,
                   "argmax_phi": float(phis[stats.argmax_adversary])}
    elif cfg.experiment == "reduction":
        if not cfg.instance:
            raise ValueError("reduction experiment needs instance=<path>")
        inst = parse_fas(Path(cfg.instance).read_text(encoding="utf-8"))
        rcfg = ReductionConfig(K=cfg.K, solver=cfg.solver, phi=cfg.phi)
        summary, rows = reduction_trials(inst, rcfg, cfg.trials, cfg.seed)
        columns = ["kind", "m", "t", "K", "trials", "yes_count", "yes_rate", "answer"]
        data = [[summary["kind"], summary["m"], summary["t"], summary["K"],
                 summary["trials"], summary["yes_count"], summary["yes_rate"], summary["answer"]]]
        summary = {"experiment": cfg.experiment, **summary}
    else:
        raise ValueError(f"unknown experiment {cfg.experiment!r}")

    if cfg.out_csv:
        write_csv(cfg.out_csv, columns, data, h, cfg.seed)
    if cfg.out_jsonl:
        write_jsonl(cfg.out_jsonl, rows, h, cfg.seed)
    return summary
