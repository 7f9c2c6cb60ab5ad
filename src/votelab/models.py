"""Mallows and Plackett-Luce single-agent models.

Provides densities, exact pairwise marginals, samplers, expected majority
graphs of parameter profiles, and the dispersion-based expected-distance
bounds used by the smoothed-runtime experiments.

Every closed form is written in geometric-sum form, so uniform dispersion
(phi = 1) is handled without special cases and Fraction parameters give
exact rational results end to end.

Samplers take an explicit numpy Generator owned by the caller; nothing
here keeps RNG state, so parallel trials just derive independent streams
from a master seed.
"""

from __future__ import annotations

from copy import copy
from dataclasses import InitVar, dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import chain, groupby, permutations, repeat
from math import factorial
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .core import (
    Permutation,
    Profile,
    Ranking,
    Tally,
    Weight,
    WeightedMajorityGraph,
    _merge_rows,
    _readonly,
    _tally_rows,
    _upper_pairs,
    all_rankings,
    as_ranking,
    kt_distance,
    weight_array,
)

__all__ = [
    "MallowsParam",
    "PlackettLuceParam",
    "ModelParam",
    "ParameterProfile",
    "mallows_z",
    "mallows_pmf",
    "mallows_pairwise",
    "mallows_sample",
    "pl_pmf",
    "pl_pairwise",
    "pl_sample",
    "expected_wmg",
    "expected_kt",
    "expected_kt_bound",
    "kt_bound",
    "mean_expected_kt_bound",
    "sample_profile",
    "sample_tally",
    "mallows_parameter_profile",
]


def _checked_phi(phi):
    """A Mallows dispersion as ``MallowsParam`` stores it: ints become
    Fractions, and the value must lie in (0, 1]."""
    if isinstance(phi, int):
        phi = Fraction(phi)
    if not 0 < phi <= 1:
        raise ValueError(f"phi must be in (0, 1], got {phi}")
    return phi


@dataclass(frozen=True)
class MallowsParam:
    """Central ranking plus dispersion phi in (0, 1].

    phi -> 0 concentrates on the central ranking, phi = 1 is uniform.
    """

    central: Ranking
    phi: Union[float, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "central", as_ranking(self.central))
        object.__setattr__(self, "phi", _checked_phi(self.phi))

    @property
    def m(self) -> int:
        return self.central.m


@dataclass(frozen=True)
class PlackettLuceParam:
    """Positive utility vector theta summing to one.

    The ranking is generated by sequential choice without replacement with
    probabilities proportional to theta.
    """

    theta: tuple[Union[float, Fraction], ...]

    def __post_init__(self):
        theta = tuple(self.theta)
        object.__setattr__(self, "theta", theta)
        if any(t <= 0 or t > 1 for t in theta):
            raise ValueError("each theta entry must be in (0, 1]")
        total = sum(theta)
        if isinstance(total, Fraction):
            if total != 1:
                raise ValueError("theta must sum to 1")
        elif abs(total - 1.0) > 1e-12:
            raise ValueError(f"theta must sum to 1, got {total}")

    @staticmethod
    def from_utilities(values: Sequence[Union[float, Fraction]]) -> "PlackettLuceParam":
        """Normalize arbitrary positive utilities to a valid parameter."""
        total = sum(values)
        if isinstance(total, Fraction) or all(isinstance(v, (int, Fraction)) for v in values):
            theta = tuple(Fraction(v) / total for v in values)
        else:
            theta = tuple(float(v) / total for v in values)
        return PlackettLuceParam(theta)

    @property
    def m(self) -> int:
        return len(self.theta)


ModelParam = Union[MallowsParam, PlackettLuceParam]


def _typed_index(values: Iterable) -> tuple[tuple, np.ndarray]:
    """The distinct values, each kept once by (type, value), and each
    value's index into them."""
    keys: dict = {}
    index = [keys.setdefault((type(v), v), len(keys)) for v in values]
    return tuple(v for _, v in keys), np.array(index, dtype=np.intp)


@dataclass(frozen=True, eq=False)
class ParameterProfile:
    """Weighted multiset of model parameters, one family per profile.

    Represents an adversary's per-voter choice of distributions; the total
    weight plays the role of the (possibly fractional) number of voters
    and the induced expected majority graph is the weighted sum of the
    per-parameter graphs.

    Type t is row t of arrays: a Mallows type is the read-only int16
    central ranking ``centrals[t]`` at dispersion ``phis[phi_index[t]]``
    (``phis`` holds each distinct dispersion once), a Plackett-Luce type
    the utility row ``thetas[t]`` (object dtype when any is a Fraction).
    ``weights`` are packed as ``core.weight_array`` packs them, and
    ``entries`` gives the types as (parameter, weight) pairs.
    ``from_entries``, ``with_weights`` (so ``scale``) and ``union`` merge
    equal parameters into one type at the first one seen, with the
    in-order weight sum, drop zero weights, and sort types by central
    ranking and dispersion, or by utilities.  ``permuted`` keeps the type
    order and weights, since a relabeling cannot make two types equal.
    """

    m: int
    weights: np.ndarray
    centrals: Optional[np.ndarray] = None
    phis: tuple = ()
    phi_index: Optional[np.ndarray] = None
    thetas: Optional[np.ndarray] = None
    _checked: InitVar[bool] = False  # merges sum weights already sign-checked

    def __post_init__(self, _checked: bool):
        weights = self.weights
        if not isinstance(weights, np.ndarray):
            weights = weight_array(weights)
        if self.thetas is not None:
            if self.centrals is not None:
                raise ValueError("parameter profile must be homogeneous in model family")
            rows = _readonly(self.thetas)
        else:  # Mallows, or empty
            rows = np.zeros((0, self.m)) if self.centrals is None else self.centrals
            rows = _readonly(np.asarray(rows, dtype=np.int16))
            index = np.zeros(0) if self.phi_index is None else self.phi_index
            object.__setattr__(self, "centrals", rows)
            object.__setattr__(self, "phi_index", _readonly(np.asarray(index, dtype=np.intp)))
            object.__setattr__(self, "phis", tuple(map(_checked_phi, self.phis)))
        if rows.shape != (len(weights), self.m):
            raise ValueError("mismatched m in parameter profile")
        if not _checked and (weights < 0).any():
            raise ValueError("entry weights must be nonnegative")
        object.__setattr__(self, "weights", _readonly(weights))

    @staticmethod
    def from_entries(
        m: int, pairs: Iterable[tuple[ModelParam, Weight]]
    ) -> "ParameterProfile":
        """Aggregate duplicate parameters, drop zero weights, sort for
        deterministic iteration order."""
        pairs = list(pairs)
        params = [p for p, _ in pairs]
        # Python scalars until merged: only the weights kept decide the packing
        weights = np.array([w for _, w in pairs], dtype=object)
        if len({type(p) for p in params}) > 1:
            raise ValueError("parameter profile must be homogeneous in model family")
        if any(p.m != m for p in params):
            raise ValueError("mismatched m in parameter profile")
        if params and isinstance(params[0], PlackettLuceParam):
            rows = [p.theta for p in params]
            exact = any(isinstance(t, Fraction) for row in rows for t in row)
            thetas = np.array(rows, dtype=object if exact else np.float64)
            return ParameterProfile(m, weights, thetas=thetas)._merged()
        centrals = np.array([p.central.order for p in params], dtype=np.int16).reshape(-1, m)
        phis, phi_index = _typed_index(p.phi for p in params)
        return ParameterProfile(m, weights, centrals, phis, phi_index)._merged()

    @property
    def entries(self) -> tuple[tuple[ModelParam, Weight], ...]:
        weights = self.weights.tolist()
        if self.thetas is not None:
            params = [PlackettLuceParam(tuple(row)) for row in self.thetas.tolist()]
        else:
            params = [MallowsParam(Ranking(tuple(row)), self.phis[i])
                      for row, i in zip(self.centrals.tolist(), self.phi_index.tolist())]
        return tuple(zip(params, weights))

    @property
    def total_weight(self) -> Weight:
        return sum(self.weights.tolist())

    @property
    def type_count(self) -> int:
        return len(self.weights)

    @property
    def is_integral(self) -> bool:
        return self.weights.dtype == np.int64 or all(
            isinstance(w, int) or (isinstance(w, Fraction) and w.denominator == 1)
            for w in self.weights.tolist()
        )

    @property
    def family(self) -> str:
        if not self.type_count:
            return "empty"
        return "mallows" if self.thetas is None else "pl"

    def with_weights(self, weights: Sequence[Weight]) -> "ParameterProfile":
        """The same types with new weights, merged as ``from_entries`` merges."""
        return replace(self, weights=weight_array(weights))._merged()

    def scale(self, c: Weight) -> "ParameterProfile":
        return self.with_weights([w * c for w in self.weights.tolist()])

    def union(self, *others: "ParameterProfile") -> "ParameterProfile":
        if any(o.m != self.m for o in others):
            raise ValueError("mismatched m")
        parts = [p for p in (self, *others) if p.type_count]
        if len({p.family for p in parts}) > 1:
            raise ValueError("parameter profile must be homogeneous in model family")
        if not parts:
            return ParameterProfile(self.m, ())
        weights = weight_array([w for p in parts for w in p.weights.tolist()])
        if parts[0].thetas is not None:
            thetas = np.concatenate([p.thetas for p in parts])
            return ParameterProfile(self.m, weights, thetas=thetas, _checked=True)._merged()
        phis, index = _typed_index(phi for p in parts for phi in p.phis)
        offsets = np.cumsum([0] + [len(p.phis) for p in parts])
        phi_index = np.concatenate([index[o:][p.phi_index] for p, o in zip(parts, offsets)])
        centrals = np.concatenate([p.centrals for p in parts])
        return ParameterProfile(self.m, weights, centrals, phis, phi_index, _checked=True)._merged()

    def permuted(self, sigma: Permutation) -> "ParameterProfile":
        """Relabel every type so its distribution commutes with relabeled
        votes; type t stays type t at its weight (shared, so not checked
        again), unmerged and unsorted."""
        if sigma.m != self.m:
            raise ValueError("mismatched m")
        out = copy(self)
        if self.thetas is not None:
            # alternative sigma(a) takes a's utility
            object.__setattr__(out, "thetas", _readonly(self.thetas[:, sigma.inverse().map]))
        else:
            smap = np.asarray(sigma.map, dtype=np.int16)
            object.__setattr__(out, "centrals", _readonly(smap[self.centrals]))
        return out

    def _merged(self) -> "ParameterProfile":
        if self.thetas is not None:
            rows = [tuple(r) for r in self.thetas.tolist()]
            # a dict merges equal utility rows, Fraction(1, 2) and 0.5 included
            classes: dict = {}
            keys = np.array([classes.setdefault(r, len(classes)) for r in rows], dtype=np.intp)
            first, weights = _merge_rows(keys.reshape(-1, 1), self.weights)
            order = sorted(range(len(first)), key=lambda t: (
                tuple(map(float, rows[first[t]])), str(rows[first[t]])))
            return ParameterProfile(self.m, weights[order], thetas=self.thetas[first[order]],
                                    _checked=True)
        # equal dispersions of different types (Fraction(1, 2) and 0.5) share a class
        values: dict = {}
        classes = [values.setdefault(p, j) for j, p in enumerate(self.phis)]
        keys = np.column_stack([self.centrals, np.array(classes, dtype=np.intp)[self.phi_index]])
        first, weights = _merge_rows(keys, self.weights)
        # each merged type keeps its first-seen dispersion; sort by central
        # ranking, then by that dispersion's float value and text
        key = [(float(p), str(p)) for p in self.phis]
        rank = np.argsort(sorted(range(len(key)), key=key.__getitem__))
        centrals, phi_index = self.centrals[first], self.phi_index[first]
        order = np.lexsort(np.column_stack([centrals, rank[phi_index]]).T[::-1])
        phi_index = phi_index[order]
        # keep the dispersions still in use, in order of first use
        used = list(dict.fromkeys(phi_index.tolist()))
        renumber = np.zeros(len(self.phis), dtype=np.intp)
        renumber[used] = np.arange(len(used))
        phis = tuple(self.phis[j] for j in used)
        return ParameterProfile(self.m, weights[order], centrals[order], phis,
                                renumber[phi_index], _checked=True)


def _as_profile(x: ModelParam | ParameterProfile) -> ParameterProfile:
    """A parameter as the profile of it at weight 1; a profile as itself."""
    if isinstance(x, ParameterProfile):
        return x
    return ParameterProfile.from_entries(x.m, [(x, 1)])


class _Utilities(NamedTuple):
    """A Plackett-Luce base: decreasing utilities, keyed with their types
    (``Fraction(1, 2) == 0.5``, but their densities round apart)."""

    values: tuple
    types: tuple


def _types(pp: ParameterProfile) -> tuple[np.ndarray, tuple, np.ndarray]:
    """Every type of ``pp`` as a base distribution relabeled, ``(rows,
    bases, index)``: type t is ``bases[index[t]]`` with its i-th
    alternative renamed ``rows[t, i]`` (int16 rows).  A Mallows base is a
    dispersion around the identity, with the centrals as rows.  A
    Plackett-Luce row is the stable argsort of the decreasing utilities,
    so every relabeling of one utility vector shares one base.
    """
    if pp.thetas is None:
        return pp.centrals, pp.phis, pp.phi_index
    order = np.argsort(-pp.thetas, axis=1, kind="stable")
    ordered = np.take_along_axis(pp.thetas, order, axis=1).tolist()
    bases, index = _typed_index(_Utilities(tuple(u), tuple(map(type, u))) for u in ordered)
    return order.astype(np.int16), bases, index


# ---------------------------------------------------------------------------
# Mallows closed forms
# ---------------------------------------------------------------------------


def _geo_sum(phi, j: int):
    """1 + phi + ... + phi^(j-1); exact for Fraction input."""
    total = phi * 0  # typed zero
    power = phi**0
    for _ in range(j):
        total = total + power
        power = power * phi
    return total


def mallows_z(phi, m: int):
    """Normalization constant: product over i = 2..m of (1 + phi + ... + phi^(i-1)).

    Equals m! at phi = 1; the geometric-sum form avoids the 0/0 that the
    (1-phi^i)/(1-phi) quotient would hit there.
    """
    phi = _checked_phi(phi)
    if m < 1:
        raise ValueError("m must be >= 1")
    z = phi**0
    for i in range(2, m + 1):
        z = z * _geo_sum(phi, i)
    return z


def mallows_pmf(param: MallowsParam, w: Ranking | Sequence[int]):
    """phi^KT(central, w) / Z; sums to one over all m! rankings."""
    w = as_ranking(w)
    if w.m != param.m:
        raise ValueError("mismatched m")
    return param.phi ** kt_distance(param.central, w) / mallows_z(param.phi, param.m)


@lru_cache(maxsize=4096, typed=True)
def mallows_pairwise(phi, gap: int):
    """Probability that the alternative ranked ``gap`` positions earlier in
    the central ranking beats the later one.

    Evaluated as sum_{j=0}^{gap-1} phi^j * S(gap-j) / (S(gap) * S(gap+1))
    with S(i) the i-term geometric sum; this is the removable-singularity
    form of (gap+1)/(1-phi^(gap+1)) - gap/(1-phi^gap) and returns exactly
    1/2 at phi = 1.
    """
    if gap < 1:
        raise ValueError("gap must be >= 1")
    phi = _checked_phi(phi)
    s = [_geo_sum(phi, j) for j in range(gap + 2)]
    num = phi * 0
    power = phi**0
    for j in range(gap):
        num = num + power * s[gap - j]
        power = power * phi
    return num / (s[gap] * s[gap + 1])


def mallows_sample(param: MallowsParam, rng: np.random.Generator) -> Ranking:
    """Exact sample by repeated insertion.

    Walking the central ranking top-down, the i-th alternative is inserted
    at index j of the partial list with probability proportional to
    phi^(i-1-j); each already-placed alternative left below the insertion
    point contributes one disagreement with the central ranking, which
    reproduces the density exactly.
    """
    phi = float(param.phi)
    out: list[int] = []
    for i, c in enumerate(param.central.order, start=1):
        if i == 1:
            out.append(c)
            continue
        weights = phi ** np.arange(i - 1, -1, -1, dtype=np.float64)
        total = weights.sum()
        u = rng.random() * total
        acc = 0.0
        j = i - 1
        for idx in range(i):
            acc += weights[idx]
            if u < acc:
                j = idx
                break
        out.insert(j, c)
    return Ranking(tuple(out))


def expected_kt(param: MallowsParam):
    """Exact expected KT distance between the central ranking and a sample.

    m - gap pairs sit at each central gap, and each disagrees with
    probability 1 - mallows_pairwise(phi, gap).
    """
    m = param.m
    one = param.phi ** 0
    total = param.phi * 0
    for gap in range(1, m):
        total = total + (m - gap) * (one - mallows_pairwise(param.phi, gap))
    return total


def kt_bound(phi, m: int) -> float:
    """Dispersion-only upper bound on the expected KT distance to the center:
    min(m^2 phi, m phi / ((1-phi)^2 (1-phi^2))); the second branch is
    infinite at phi = 1."""
    if not 0 < phi <= 1:
        raise ValueError("phi must be in (0, 1]")
    first = m * m * phi
    if phi == 1:
        return float(first)
    second = m * phi / ((1 - phi) ** 2 * (1 - phi * phi))
    return float(min(first, second))


def expected_kt_bound(param: MallowsParam) -> float:
    return kt_bound(param.phi, param.m)


def mean_expected_kt_bound(phis: Sequence, m: int) -> float:
    """Mean of the per-voter expected-KT bounds, one dispersion per voter.

    ``kt_bound`` runs once per distinct dispersion.  The vector is read as
    runs of one dispersion, and a single ``sum`` adds each run's bound
    once per voter, left to right, so the float equals the per-voter sum's
    on any Python version (3.12's float ``sum`` is compensated, so neither
    per-run subtotals nor ``count * bound`` would do).  Runs and keys are
    typed, because ``Fraction(0.2)`` and ``0.2`` are equal but their bounds
    round differently.
    """
    values = tuple(phis)
    if not values:
        raise ValueError("empty dispersion vector")
    bounds: dict = {}
    runs = []
    for key, run in groupby(zip(map(type, values), values)):
        if key not in bounds:
            bounds[key] = kt_bound(key[1], m)
        runs.append(repeat(bounds[key], len(list(run))))
    return float(sum(chain.from_iterable(runs))) / len(values)


# ---------------------------------------------------------------------------
# Plackett-Luce closed forms
# ---------------------------------------------------------------------------


def pl_pmf(param: PlackettLuceParam, r: Ranking | Sequence[int]):
    """Sequential-choice probability of ranking ``r``."""
    r = as_ranking(r)
    if r.m != param.m:
        raise ValueError("mismatched m")
    prob = param.theta[0] ** 0
    tail = sum(param.theta)
    for a in r.order[:-1]:
        prob = prob * (param.theta[a] / tail)
        tail = tail - param.theta[a]
    return prob


def pl_pairwise(param: PlackettLuceParam, a: int, b: int):
    """Marginal probability that a is ranked above b: theta_a/(theta_a+theta_b).

    Follows from the choice-axiom structure of the model; the enumeration
    tests verify it against the full density before anything downstream
    relies on it.
    """
    return param.theta[a] / (param.theta[a] + param.theta[b])


def pl_sample(param: PlackettLuceParam, rng: np.random.Generator) -> Ranking:
    """Sample by sequential draws without replacement proportional to theta."""
    theta = np.asarray([float(t) for t in param.theta])
    remaining = list(range(param.m))
    out: list[int] = []
    while remaining:
        w = theta[remaining]
        u = rng.random() * w.sum()
        acc = 0.0
        pick = len(remaining) - 1
        for idx, wv in enumerate(w):
            acc += wv
            if u < acc:
                pick = idx
                break
        out.append(remaining.pop(pick))
    return Ranking(tuple(out))


# ---------------------------------------------------------------------------
# expected majority graphs
# ---------------------------------------------------------------------------


def expected_wmg(x: ModelParam | ParameterProfile) -> WeightedMajorityGraph:
    """Expected majority graph, in closed form (no sampling).

    Each base of ``_types`` has one margin per pair i < j, relabeled onto
    each type's row: 2 * mallows_pairwise(phi, j - i) - 1 for Mallows, and
    (u_i - u_j)/(u_i + u_j) over the decreasing utilities u for
    Plackett-Luce, which is (theta_a - theta_b)/(theta_a + theta_b).  A
    parameter profile yields the weight-summed graph (a parameter is the
    profile of it at weight 1): each type adds margin * weight to its
    pair's cell and (-margin) * weight to the reverse one, in type order,
    so float sums round as a per-type loop would.  Exact (Fraction
    entries) under Fraction parameters and weights, which is what gadget
    verification requires; float64 when no type and no weight is exact.
    """
    pp = _as_profile(x)
    m = pp.m
    if not pp.type_count:
        return WeightedMajorityGraph.zero(m, exact=True)
    rows, bases, index = _types(pp)
    iu, ju = _upper_pairs(m)
    # one margin row per base, over its pairs i < j (i above j in the base)
    table, exact = [], []
    for base in bases:
        if isinstance(base, _Utilities):
            u = base.values
            table.append([(u[i] - u[j]) / (u[i] + u[j]) for i, j in zip(iu.tolist(), ju.tolist())])
            exact.append(all(issubclass(t, (Fraction, int)) for t in base.types))
        else:
            table.append([2 * mallows_pairwise(base, gap) - 1 for gap in (ju - iu).tolist()])
            exact.append(isinstance(base, Fraction))
    margins = np.array(table, dtype=object if any(exact) else np.float64)[index]
    above, below = rows[:, iu].astype(np.intp), rows[:, ju].astype(np.intp)
    cells = np.concatenate([above * m + below, below * m + above], axis=1)
    values = np.concatenate([margins, -margins], axis=1) * pp.weights[:, None]
    if values.dtype == object:
        exact.extend(isinstance(w, (Fraction, int)) for w in pp.weights.tolist())
        flat = np.full(m * m, Fraction(0) if all(exact) else 0.0, dtype=object)
    else:
        flat = np.zeros(m * m)
    np.add.at(flat, cells.ravel(), values.ravel())
    return WeightedMajorityGraph(m, flat.reshape(m, m))


# ---------------------------------------------------------------------------
# profile sampling
# ---------------------------------------------------------------------------

#: largest m for which sampling enumerates the m! outcomes and draws counts
SAMPLE_ENUM_MAX_M = 7


@lru_cache(maxsize=SAMPLE_ENUM_MAX_M)
def _rankings_table(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (m!, m) arrays of all rankings in ``all_rankings`` order:
    ``orders[r]`` is ranking r's order sequence and ``positions[r, a]`` the
    position of alternative a in it."""
    orders = np.array(list(permutations(range(m))), dtype=np.int16).reshape(-1, m)
    positions = np.empty_like(orders)
    positions[np.arange(len(orders))[:, None], orders] = np.arange(m, dtype=np.int16)
    orders.setflags(write=False)
    positions.setflags(write=False)
    return orders, positions


def _mallows_density(central: Sequence[int], phi) -> np.ndarray:
    """Normalized float Mallows density around ``central`` over
    ``all_rankings(len(central))``.

    The KT distance from the center to every ranking is one vectorized
    inversion count over the rankings table.  Each density is
    ``float(phi**k / mallows_z(phi, m))`` for that distance k, the float
    ``mallows_pmf`` gives, so the vector matches the per-ranking
    ``float(mallows_pmf(...))`` loop bit for bit.
    """
    m = len(central)
    # each ranking's positions read in central order; inversions = KT
    read = _rankings_table(m)[1][:, central]
    iu, ju = _upper_pairs(m)
    kts = (read[:, iu] > read[:, ju]).sum(axis=1)
    z = mallows_z(phi, m)
    by_kt = np.array([float(phi**k / z) for k in range(len(iu) + 1)], dtype=np.float64)
    dens = by_kt[kts]
    return dens / dens.sum()


@lru_cache(maxsize=64, typed=True)
def _alias_table(m: int, base) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pmf, prob, alias) of a base of ``_types`` over ``all_rankings(m)``.

    ``pmf`` is the per-ranking float density, normalized: the Mallows
    density around the identity at a dispersion, or each ranking's exact
    ``pl_pmf`` under ``_Utilities``, whose steps rankings sharing a prefix
    take once.  ``prob`` and ``alias`` are its Vose alias table: column c
    is kept with probability ``prob[c]`` and otherwise replaced by
    ``alias[c]``, so a uniform column plus one coin draws a ranking index
    with probability ``pmf``.  The cache is typed
    (and ``_Utilities`` carry their types), because ``Fraction(0.1)`` and
    ``0.1`` are equal but their densities round apart.
    """
    if isinstance(base, _Utilities):
        theta = PlackettLuceParam(base.values).theta
        level = [(theta[0] ** 0, sum(theta), tuple(range(m)))]  # (product, tail, unplaced)
        for _ in range(m - 1):  # each prefix's steps once, its children in order
            level = [(prob * (theta[a] / tail), tail - theta[a], left[:i] + left[i + 1 :])
                     for prob, tail, left in level for i, a in enumerate(left)]
        dens = np.array([float(prob) for prob, _, _ in level], dtype=np.float64)
        pmf = dens / dens.sum()
    else:
        pmf = _mallows_density(tuple(range(m)), base)
    size = len(pmf)
    scaled = (pmf * size).tolist()
    prob = np.ones(size, dtype=np.float64)
    alias = np.arange(size, dtype=np.int16)
    small = [c for c, p in enumerate(scaled) if p < 1.0]
    large = [c for c, p in enumerate(scaled) if p >= 1.0]
    while small and large:
        s, g = small.pop(), large.pop()
        prob[s], alias[s] = scaled[s], g
        scaled[g] = (scaled[g] + scaled[s]) - 1.0
        (small if scaled[g] < 1.0 else large).append(g)
    # columns left in either list hold 1 up to rounding and keep themselves
    for table in (pmf, prob, alias):
        table.setflags(write=False)
    return pmf, prob, alias


def _alias_draw(
    prob: np.ndarray, alias: np.ndarray, at: np.ndarray, u: np.ndarray, size: int
) -> np.ndarray:
    """One base-ranking index per uniform from flat alias tables of
    ``size`` columns each, voter i from the table at offset ``at[i]`` of
    ``prob`` and ``alias``: the integer part of ``u * size`` picks the
    column and its fractional part is the coin.  A uniform below 1 keeps
    the rounded product below ``size``, so every column is in range.  The
    column is intp, so ``at + col`` is too even for an int32 ``at``, and
    ``take`` gathers through it with no cast; an intp ``alias`` keeps the
    result intp."""
    x = u * size
    col = x.astype(np.intp)
    table = at + col
    return np.where(x - col < prob.take(table), col, alias.take(table))


#: voters per block of ``_profile_sampler``'s and ``_mallows_positions``'s
#: draws and of ``_positions_tally``; small blocks keep their temporaries in
#: cache and bound a draw's memory.  The m <= 7 sampler's index temporaries
#: are intp, 32 KB a block; its stored per-voter offsets stay int32
DRAW_BLOCK = 4096


@lru_cache(maxsize=1)
def _relabel_table(m: int, rows: bytes) -> np.ndarray:
    """(T, m!) int16 table for the int16 (T, m) ``rows`` of ``_types``:
    entry [t, b] is the ``_rankings_table`` index of base ranking b with
    alternative i renamed ``rows[t, i]``, a draw of type t.

    Each vote is looked up by its base-m code, the matrix product of the
    row with ``m**(m-1-positions)``; blocks of about 2**16 entries bound
    the temporaries.  The one entry kept is keyed by the rows' bytes, so
    the trials around one profile build it once.
    """
    orders, positions = _rankings_table(m)
    rows = np.frombuffer(rows, dtype=np.int16).reshape(-1, m)
    powers = np.float64(m) ** (m - 1 - np.arange(m))
    index = np.zeros(m**m, dtype=np.int16)  # base-m code -> lexicographic index
    index[(orders @ powers).astype(np.intp)] = np.arange(len(orders), dtype=np.int16)
    place = (np.float64(m) ** (m - 1 - positions)).T  # (m, m!)
    table = np.empty((len(rows), len(orders)), dtype=np.int16)
    block = max(1, (1 << 16) // len(orders))
    for lo in range(0, len(rows), block):
        codes = rows[lo : lo + block] @ place
        table[lo : lo + block] = index[codes.astype(np.intp)]
    table.setflags(write=False)
    return table


@lru_cache(maxsize=1)
def _profile_sampler(pp: ParameterProfile) -> Callable[[np.random.Generator], np.ndarray]:
    """A function of an RNG drawing the counts over ``all_rankings(m)`` of
    one vote per unit of weight of an integral profile of either family,
    for m <= SAMPLE_ENUM_MAX_M.  ParameterProfile is immutable and hashes
    by identity, so the trials on one profile build this once.

    Every draw is a ranking from its type's base (``_types``), relabeled
    into the type through ``_relabel_table``.  A light type (weight below
    m!) draws each voter from its base's alias table with one uniform,
    voter by voter in type order; a heavy type then draws one multinomial
    over its base's density, type by type, since m! binomials cost less.

    The alias tables of all bases lie end to end in two flat arrays, so
    each light voter needs two offsets, built here once: its base's table
    and its type's row of the flat relabel table.  A call draws DRAW_BLOCK
    voters at a time: one batch of uniforms, 1-D ``take`` gathers and one
    ``bincount``.  Every gather and scatter indexes with intp, so numpy
    casts no index; the per-voter offsets stay int32 (an int32 offset
    plus an intp column is intp), 8 bytes per light voter.
    """
    m, size, counts = pp.m, factorial(pp.m), _integral_counts(pp)
    rows, bases, index = _types(pp)
    relabel = _relabel_table(m, rows.tobytes())
    tables = [_alias_table(m, base) for base in bases]
    prob = np.array([t[1] for t in tables], dtype=np.float64).reshape(-1)
    alias = np.array([t[2] for t in tables], dtype=np.intp).reshape(-1)
    light = np.flatnonzero(counts < size)
    voter = np.repeat(light.astype(np.int32), counts[light])
    table_at = index[voter].astype(np.int32) * np.int32(size)
    relabel_at = voter * np.int32(size)
    flat_relabel = relabel.reshape(-1)
    heavy = [(t, int(counts[t]), tables[index[t]][0])
             for t in np.flatnonzero(counts >= size).tolist()]

    def draw(rng: np.random.Generator) -> np.ndarray:
        tally = np.zeros(size, dtype=np.int64)
        for lo in range(0, len(table_at), DRAW_BLOCK):
            at = table_at[lo : lo + DRAW_BLOCK]
            base = _alias_draw(prob, alias, at, rng.random(len(at)), size)
            base += relabel_at[lo : lo + DRAW_BLOCK]
            tally += np.bincount(flat_relabel.take(base), minlength=size)
        for t, count, pmf in heavy:
            tally[relabel[t].astype(np.intp)] += rng.multinomial(count, pmf)
        return tally

    return draw


def _insert(pos: np.ndarray, slots: np.ndarray, start: int) -> np.ndarray:
    """Insertions ``start``.. into ``pos[v, s]``, the position of the s-th
    alternative: s goes to index ``slots[v, s]``, pushing those below."""
    for s in range(start, pos.shape[1]):
        slot = slots[:, s : s + 1]
        pos[:, :s] += pos[:, :s] >= slot
        pos[:, s] = slot[:, 0]
    return pos


@lru_cache(maxsize=8)
def _insertion_table(k: int) -> np.ndarray:
    """Read-only (k!, k) int16 ``_insert`` positions of k insertions: row c
    decodes the mixed-radix code c = sum of slot_s * s!, slot_s in 0..s."""
    codes = np.arange(factorial(k))
    slots = np.array([codes // factorial(s) % (s + 1) for s in range(k)], dtype=np.int16).T
    return _readonly(_insert(np.zeros((len(codes), k), dtype=np.int16), slots, 1))


def _mallows_positions(
    centrals: np.ndarray, counts: np.ndarray, phis: np.ndarray, rng: np.random.Generator
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Repeated-insertion draws: ``counts[e]`` votes around central row
    ``centrals[e]`` at float dispersion ``phis[e]``, entry by entry.

    Yields ``(entry, pos)`` per DRAW_BLOCK voters: voter v, a draw of entry
    ``entry[v]``, puts its central's s-th alternative at ``pos[v, s]``.  The
    uniforms (one (b, m-1) batch a block) and each slot's float arithmetic
    (a right-sided search of the cumulative weights) are those of one
    ``mallows_sample`` call per unit of weight, so the votes are too.  One
    gather from ``_insertion_table(k)`` decodes the first k = min(m, 8).
    """
    m = centrals.shape[1]
    k = min(m, 8)
    table, radix = _insertion_table(k), np.array([factorial(s) for s in range(k)])
    entry = np.repeat(np.arange(len(counts)), counts)
    # distinct dispersions in sorted order, as np.unique gives them without
    # importing numpy.ma, each with its steps' cumulative weights and total
    ordered = np.sort(phis)
    steps = []
    for phi in ordered[:1].tolist() + ordered[1:][ordered[1:] != ordered[:-1]].tolist():
        weights = [phi ** np.arange(i - 1, -1, -1, dtype=np.float64) for i in range(2, m + 1)]
        steps.append((phi, [(np.cumsum(w), w.sum()) for w in weights]))  # sequential sums
    for lo in range(0, len(entry), DRAW_BLOCK):
        block = entry[lo : lo + DRAW_BLOCK]
        u = rng.random((len(block), m - 1))
        voter_phis = phis[block]
        slots = np.zeros((len(block), m), dtype=np.int16)
        for phi, cums in steps:
            rows = np.flatnonzero(voter_phis == phi)
            for i, (cum, total) in enumerate(cums, start=2):
                found = np.searchsorted(cum, u[rows, i - 2] * total, side="right")
                slots[rows, i - 1] = np.minimum(found, i - 1)
        pos = np.empty(slots.shape, dtype=np.int16)
        pos[:, :k] = table.take(slots[:, :k] @ radix, axis=0)
        yield block, _insert(pos, slots, k)


def _positions_profile(centrals: np.ndarray, blocks: Iterable) -> Profile:
    """The aggregated profile of the votes of the blocks ``(entry, pos)``:
    voter v places alternative ``centrals[entry[v], s]`` at ``pos[v, s]``."""
    votes = np.concatenate([np.zeros((0, centrals.shape[1]), dtype=np.int16)] + [
        np.take_along_axis(centrals[entry], pos.argsort(axis=1), axis=1) for entry, pos in blocks])
    return Profile(votes.shape[1], votes, np.ones(len(votes), dtype=np.int64)).aggregated()


def _positions_tally(centrals: np.ndarray, blocks: Iterable) -> Tally:
    """``Tally.of(_positions_profile(centrals, blocks))``, without the
    profile: no vote rows, no sort.

    Each block's positions go into an alternative-major (m, b) array for
    ``_tally_rows``; the blocks' N and position sums add up.  A block's
    lexicographically first vote is found position by position, the next
    alternative being the smallest one a voter still in the running places
    there, and the election's is the least of them.
    """
    m = centrals.shape[1]
    n, tally, vote = 0, _tally_rows(np.zeros((0, m), dtype=np.int16)), None
    for entry, pos in blocks:
        b = len(entry)
        place = np.empty((m, b), dtype=np.int16)  # place[a, v]: position of a in vote v
        place.reshape(-1)[centrals[entry].T.astype(np.intp) * b + np.arange(b)] = pos.T
        n, tally = n + b, [t + block for t, block in zip(tally, _tally_rows(place.T))]
        voters, order = np.arange(b), []
        for p in range(m if b else 0):
            for a in sorted(set(range(m)).difference(order)):
                hit = place[a, voters] == p
                if hit.any():
                    break
            voters = voters[hit]
            order.append(a)
        vote = min(vote or order, order) if order else vote
    return Tally(m, n, *tally, None if vote is None else Ranking(tuple(vote)))


def sample_profile(pp: ParameterProfile, rng: np.random.Generator) -> Profile:
    """Draw one ranking per unit of weight, independently per type.

    Requires an integral parameter profile.  The samplers read its arrays
    directly.  Two kernels:

    - m <= SAMPLE_ENUM_MAX_M, either family: ``_profile_sampler`` counts
      the votes over the m! enumerated rankings.  Each type is a base
      (``_types``) relabeled; a voter of a type lighter than m! is one
      alias-table draw from its base, a heavier type one multinomial over
      the base density, either relabeled into the type.  This is
      distributed as per-draw sampling is, and far faster.
    - larger m: per-draw sampling into positions (``_drawn_positions``).
      A Mallows profile draws and decodes DRAW_BLOCK voters at a time in
      numpy and concatenates the blocks; it reads the same uniforms in the
      same order as one ``mallows_sample`` call per unit of weight and
      returns the same votes.  Plackett-Luce draws one ``pl_sample`` at a
      time.

    Either way the result is aggregated, with rows in lexicographic order.
    The solvers read only its tally; ``sample_tally`` draws that directly.
    """
    if pp.m <= SAMPLE_ENUM_MAX_M:
        return _tallied_profile(pp.m, _profile_sampler(pp)(rng))
    return _positions_profile(*_drawn_positions(pp, rng))


def sample_tally(pp: ParameterProfile, rng: np.random.Generator) -> Tally:
    """``Tally.of(sample_profile(pp, rng))``, from the same RNG draws,
    without building a profile.

    For m <= SAMPLE_ENUM_MAX_M the tally is read off the m! counts.  Above
    it, the same per-draw positions as ``sample_profile`` are tallied
    block by block as they are drawn (``_positions_tally``), with no vote
    rows and no sort.  Mallows noise around an election is
    ``mallows_parameter_profile``'s profile.
    """
    if pp.m <= SAMPLE_ENUM_MAX_M:
        return _counts_tally(pp.m, _profile_sampler(pp)(rng))
    return _positions_tally(*_drawn_positions(pp, rng))


def _integral_counts(pp: ParameterProfile) -> np.ndarray:
    """The weights of an integral profile as int64 counts."""
    if not pp.is_integral:
        raise ValueError("sampling requires an integral parameter profile")
    return pp.weights.astype(np.int64, copy=False)


def _drawn_positions(pp: ParameterProfile, rng: np.random.Generator) -> tuple[np.ndarray, Iterable]:
    """Per-draw sampling, for m above SAMPLE_ENUM_MAX_M, as the
    ``(centrals, blocks)`` that ``_positions_profile`` and
    ``_positions_tally`` read; a Plackett-Luce profile's votes are one
    block, a Mallows profile's are drawn lazily."""
    counts = _integral_counts(pp)
    if pp.thetas is not None:
        rows = [pl_sample(p, rng).order
                for (p, _), w in zip(pp.entries, counts.tolist()) for _ in range(w)]
        votes = np.array(rows, dtype=np.int16).reshape(-1, pp.m)
        # each vote is its own central, read in order
        order = np.broadcast_to(np.arange(pp.m, dtype=np.int16), votes.shape)
        return votes, [(np.arange(len(votes)), order)]
    phis = np.array([float(phi) for phi in pp.phis], dtype=np.float64)[pp.phi_index]
    return pp.centrals, _mallows_positions(pp.centrals, counts, phis, rng)


def _tallied_profile(m: int, counts: np.ndarray) -> Profile:
    """The profile of nonzero ``counts`` over ``all_rankings(m)``."""
    keep = counts.nonzero()[0]
    return Profile(m, _rankings_table(m)[0][keep], counts[keep])


def _counts_tally(m: int, counts: np.ndarray) -> Tally:
    """The tally of nonzero ``counts`` over ``all_rankings(m)``, equal to
    ``Tally.of(_tallied_profile(m, counts))``: ``_tally_rows`` over the
    position rows of the rankings counted, weighted by their counts."""
    orders, positions = _rankings_table(m)
    nonzero = np.flatnonzero(counts)
    vote = Ranking(tuple(orders[nonzero[0]].tolist())) if len(nonzero) else None
    return Tally(m, int(counts.sum()), *_tally_rows(positions[nonzero], counts[nonzero]), vote)


def mallows_parameter_profile(central: Profile, phi) -> ParameterProfile:
    """Per-voter Mallows parameters with a shared dispersion.  The rows of
    ``central.aggregated()`` are unique, nonzero and lexicographic, the
    merged order of a parameter profile, so they are the types as they are."""
    agg = central.aggregated()
    phis = (_checked_phi(phi),) if len(agg) else ()
    index = np.zeros(len(agg), dtype=np.intp)
    return ParameterProfile(central.m, agg.weights, agg.votes, phis, index)
