"""The benchmark's workloads: seeded inputs, one op each, and its oracle.

A workload is set up by constructing it, ``Workload(seed, tiny)``;
``make_input(i)`` derives op i's input from the workload seed alone, ``op(inp)`` is the single call into
votelab that the benchmark times, ``check(inp, res)`` returns the oracle's
complaints (empty when the result is right) and ``record(res)`` the
deterministic part of the result, for the same-seed comparison.

Every call into votelab goes through a module attribute looked up at call
time (``harness.run_reduction``, not a name imported here), so the tracer's
rebinding sees it.  ``tiny`` shrinks every size for the self-check.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from votelab import core, gadgets, harness, solvers


def op_seed(seed: int, i: int) -> int:
    """Seed of op i, derived from the workload seed alone."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def random_profile(rng: np.random.Generator, m: int, n: int) -> core.Profile:
    """n uniform random rankings of m alternatives, aggregated."""
    votes = rng.permuted(np.tile(np.arange(m, dtype=np.int16), (n, 1)), axis=1)
    return core.Profile(m, votes, np.ones(n, dtype=np.int64)).aggregated()


def tally_avg_kt(profile: core.Profile):
    """Average KT distance from the tally: sum over a<b of 2 N[a,b] N[b,a] / (n(n-1)).

    Kept in exact integers and converted the way ``core.avg_kt`` converts.
    """
    tally = core.pairwise_tally(profile).astype(object)
    n = int(profile.n)
    total = sum(2 * tally[a, b] * tally[b, a]
                for a in range(profile.m) for b in range(a + 1, profile.m))
    denom = n * (n - 1)
    return total // denom if total % denom == 0 else total / denom


class Workload:
    """Interface of a workload; see the module docstring."""

    name = ""

    def make_input(self, i: int):
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, res) -> list[str]:
        raise NotImplementedError

    def timed_out(self, res) -> bool:
        """Whether the op gave up on its own budget (counted as failed, not wrong)."""
        return False

    def record(self, res):
        raise NotImplementedError


class ReduceM6(Workload):
    """One ``run_reduction`` trial on two disjoint triangles, m=6, t=2, K=6."""

    name = "reduce-m6"

    def __init__(self, seed: int, tiny: bool):
        if tiny:  # one triangle plus an isolated alternative
            m, edges, t, K = 4, [(0, 1), (1, 2), (2, 0)], 1, 4
        else:
            m, edges, t, K = 6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], 2, 6
        self.seed = seed
        self.inst = gadgets.FasInstance(core.Digraph.from_edges(m, edges), t, "eulerian")
        self.cfg = gadgets.ReductionConfig(K=K)
        self.pp = harness.build_instance_profile(self.inst, self.cfg)
        self.n = int(gadgets.round_to_integral(self.pp, K, self.cfg.max_n).total_weight)
        self._fas_optimum = None

    def make_input(self, i: int) -> int:
        return i

    def op(self, trial: int):
        # as harness.reduction_trials runs trial `trial` of master seed `seed`
        rng = harness.trial_rng(self.seed, trial)
        return harness.run_reduction(self.inst, self.cfg, rng, prebuilt=self.pp)

    def check(self, trial, out) -> list[str]:
        if self._fas_optimum is None:
            self._fas_optimum = gadgets.fas_optimum(self.inst.graph)
        bad = []
        if out.n != self.n:
            bad.append(f"n {out.n} != rounded electorate {self.n}")
        if not out.finished:
            if out.answer != "NO" or out.back_edges is not None:
                bad.append(f"unfinished solve answered {out.answer}")
            return bad
        if out.back_edges is None:
            bad.append("finished solve without a back-edge count")
            return bad
        if (out.answer == "YES") != (out.back_edges <= self.inst.t):
            bad.append(f"answer {out.answer} with {out.back_edges} back edges, t={self.inst.t}")
        if out.back_edges < self._fas_optimum:
            bad.append(f"{out.back_edges} back edges below the FAS optimum {self._fas_optimum}")
        return bad

    def timed_out(self, out) -> bool:
        return not out.finished

    def record(self, out):
        return [out.answer, out.finished, out.back_edges, out.n, out.solver, out.op_count]


class ConcentrationM8(Workload):
    """One ``avg_kt_concentration_check`` on a random central profile, m=8, n=2000."""

    name = "concentration-m8"

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.m, self.n = (8, 60) if tiny else (8, 2000)

    def make_input(self, i: int):
        s = op_seed(self.seed, i)
        central = random_profile(np.random.default_rng(s), self.m, self.n)
        cfg = harness.ExperimentConfig(experiment="concentration", m=self.m, n=self.n,
                                       phi=0.5, t=2.0, central="random", trials=1, seed=s)
        return cfg, central

    def op(self, inp):
        cfg, central = inp
        return harness.avg_kt_concentration_check(cfg, central=central)

    def check(self, inp, res) -> list[str]:
        _, central = inp
        report, _ = res
        bad = []
        expected = tally_avg_kt(central)
        if report.avg_kt_central != float(expected):
            bad.append(f"avg_kt {report.avg_kt_central!r} != tally form {expected!r}")
        if not report.passed:
            bad.append("concentration check did not pass")
        return bad

    def record(self, res):
        report, rows = res
        return [repr(report), rows]


class DpEnvelopeM18(Workload):
    """One three-trial ``dp_smoothed_check`` around a unanimous profile, m=18, n=50, phi=0.15.

    A trial's cost jumps with its distance parameter: d=5 (about 30% of
    trials), 6 (about 65%) or 7 (a few percent) cost roughly 1 : 3 : 9.  With
    one trial per op the median op sits near the d=5/d=6 boundary for some
    seeds, and with two it sits between the d5+d6 and d6+d6 sums.  With
    three it falls inside the two-d6-one-d5 group for every seed.
    """

    name = "dp-envelope-m18"

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.m, self.n = (10, 20) if tiny else (18, 50)
        self.central = core.Profile.from_rankings([tuple(range(self.m))] * self.n, m=self.m)

    def make_input(self, i: int):
        return harness.ExperimentConfig(experiment="dp-envelope", m=self.m, n=self.n,
                                        phi=0.15, t=2.0, central="unanimous", trials=3,
                                        seed=op_seed(self.seed, i))

    def op(self, cfg):
        return harness.dp_smoothed_check(cfg, central=self.central)

    def check(self, cfg, res) -> list[str]:
        report, _ = res
        bad = []
        if not report.d_ok:
            bad.append(f"distance parameter check failed (d={report.d})")
        if not report.envelope_ok:
            bad.append(f"op count above the envelope (ratio {report.max_envelope_ratio})")
        return bad

    def record(self, res):
        report, rows = res
        return [repr(report), [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in rows]]


class ExactM9(Workload):
    """Exact Kemeny (enumeration and window DP) and Slater on a random m=9, n=25 profile."""

    name = "exact-m9"

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.m, self.n = (6, 15) if tiny else (9, 25)

    def make_input(self, i: int) -> core.Profile:
        return random_profile(np.random.default_rng(op_seed(self.seed, i)), self.m, self.n)

    def op(self, profile):
        return (solvers.kemeny_brute(profile), solvers.kemeny_dp(profile),
                solvers.slater_brute(profile))

    def check(self, profile, res) -> list[str]:
        brute, dp, slater = res
        bad = []
        if brute.score != dp.score:
            bad.append(f"Kemeny scores differ: brute {brute.score}, dp {dp.score}")
        if brute.ranking != dp.ranking:
            bad.append(f"Kemeny rankings differ: brute {brute.ranking}, dp {dp.ranking}")
        if core.kemeny_score(brute.ranking, profile) != brute.score:
            bad.append("brute Kemeny score does not re-evaluate")
        own = core.slater_score(slater.ranking, profile)
        if slater.score != own:
            bad.append(f"Slater score {slater.score} != its ranking's {own}")
        if slater.score > core.slater_score(brute.ranking, profile):
            bad.append("Slater optimum worse than the Kemeny ranking's Slater score")
        return bad

    def record(self, res):
        return [[list(r.ranking.order), int(r.score), r.op_count, r.solver] for r in res]


class VerifyGadgetsM7(Workload):
    """``check_gadget_identities(7, mallows_witness(7, 1/2))``, as ``votelab verify gadgets``."""

    name = "verify-gadgets-m7"

    def __init__(self, seed: int, tiny: bool):
        self.m = 4 if tiny else 7

    def make_input(self, i: int):
        return gadgets.mallows_witness(self.m, Fraction(1, 2))

    def op(self, theta):
        return gadgets.check_gadget_identities(self.m, theta)

    def check(self, theta, res) -> list[str]:
        bad = [f"identity failed: {c.name}" for c in res if not c.passed]
        return bad if res else ["no identity was checked"]

    def record(self, res):
        return [[c.name, c.passed, c.detail] for c in res]


WORKLOADS = {w.name: w for w in (ReduceM6, ConcentrationM8, DpEnvelopeM18, ExactM9,
                                 VerifyGadgetsM7)}
