"""Rankings, profiles, majority graphs, and Kendall-tau machinery.

Alternatives are dense 0-based indices; the display layer maps index ``i``
to the label ``a{i+1}``.  All types are immutable values: operations never
mutate their inputs, so everything here is safe to share across threads.

Weights may be ``int``, ``float``, or :class:`fractions.Fraction`.  Passing
Fractions switches the affected arrays to object dtype and keeps every
identity exact, which is what the gadget-verification tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import permutations
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

Weight = Union[int, float, Fraction]

__all__ = [
    "Ranking",
    "Profile",
    "Tally",
    "WeightedMajorityGraph",
    "Digraph",
    "Permutation",
    "all_rankings",
    "kt_distance",
    "kemeny_score",
    "wmg",
    "umg",
    "kt_to_digraph",
    "slater_score",
    "avg_kt",
    "pairwise_tally",
    "kt_matrix",
    "permute",
    "label",
]

#: comparison tolerance for float weights
WEIGHT_TOL = 1e-9


def label(a: int) -> str:
    """Display label of alternative index ``a`` (0 -> 'a1')."""
    return f"a{a + 1}"


def weight_array(weights: Sequence[Weight]) -> np.ndarray:
    """Pack weights into an ndarray, preserving exactness.

    All-int input stays int64; any Fraction forces object dtype; otherwise
    float64.
    """
    ws = list(weights)
    types = set(map(type, ws))  # the checks below run once per type, not per weight
    if any(issubclass(t, Fraction) for t in types):
        arr = np.empty(len(ws), dtype=object)
        arr[:] = [w if isinstance(w, (Fraction, float)) else Fraction(w) for w in ws]
        return arr
    if all(issubclass(t, (int, np.integer)) and t is not bool for t in types):
        return np.asarray(ws, dtype=np.int64)
    return np.asarray(ws, dtype=np.float64)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _merge_rows(rows: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the equal rows of the integer (k, c) array ``rows``: the index
    of each group's first row, groups in lexicographic row order, and each
    group's in-order weight sum (so float sums round as a left-to-right
    loop would), groups summing to zero dropped.  Integer and boolean
    weights sum to int64, float weights to float64, and other dtypes
    (object, including Fractions) as Python scalars packed by
    ``weight_array``."""
    k = len(rows)
    # np.unique(rows, axis=0, return_inverse=True) gives the same rows and
    # groups, but took 10-14x as long for k = 2,000-40,000 rows of m = 7-8
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    starts = np.ones(k, dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    group = np.empty(k, dtype=np.intp)
    group[order] = np.cumsum(starts) - 1
    first = order[starts]
    kind = weights.dtype.kind
    if kind in "biuf":
        sums = np.zeros(len(first), dtype=np.float64 if kind == "f" else np.int64)
        np.add.at(sums, group, weights.astype(sums.dtype))
        keep = sums != 0
        return first[keep], sums[keep]
    totals: list[Weight] = [0] * len(first)
    for g, w in zip(group.tolist(), weights.tolist()):
        totals[g] = totals[g] + w
    keep = [g for g, w in enumerate(totals) if w != 0]
    return first[keep], weight_array([totals[g] for g in keep])


@lru_cache(maxsize=64)
def _upper_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.triu_indices(m, k=1)``: the pairs a < b, row by row."""
    iu, ju = np.triu_indices(m, k=1)
    return _readonly(iu), _readonly(ju)


@dataclass(frozen=True)
class Ranking:
    """A strict total order over m alternatives.

    ``order[i]`` is the alternative in position ``i`` (position 0 is the
    most preferred).  The order must be a permutation of ``0..m-1``.
    """

    order: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(int(a) for a in self.order))
        m = len(self.order)
        if m < 1 or sorted(self.order) != list(range(m)):
            raise ValueError(f"not a permutation of 0..{m - 1}: {self.order!r}")

    @property
    def m(self) -> int:
        return len(self.order)

    @cached_property
    def positions(self) -> tuple[int, ...]:
        """positions[a] = position of alternative a (0-based)."""
        pos = [0] * self.m
        for i, a in enumerate(self.order):
            pos[a] = i
        return tuple(pos)

    def reversed(self) -> "Ranking":
        return Ranking(self.order[::-1])

    def prefers(self, a: int, b: int) -> bool:
        return self.positions[a] < self.positions[b]

    def __str__(self) -> str:
        return " > ".join(label(a) for a in self.order)


def as_ranking(r: "Ranking | Sequence[int]") -> Ranking:
    return r if isinstance(r, Ranking) else Ranking(tuple(r))


def all_rankings(m: int) -> list[Ranking]:
    """All m! rankings in lexicographic order of their order sequences."""
    return [Ranking(p) for p in permutations(range(m))]


@dataclass(frozen=True, eq=False)
class Profile:
    """A weighted multiset of rankings over a common alternative set.

    ``votes`` holds one ranking per row; ``weights`` the matching
    multiplicities.  Integral profiles (all weights integers) represent
    ordinary n-voter elections with ``n = weights.sum()``; fractional
    weights come only from ``.profile`` files and the API.  Integer
    and boolean weight arrays are stored as int64.  The empty profile is
    legal and has a zero majority graph.
    """

    m: int
    votes: np.ndarray
    weights: np.ndarray

    # set on the profiles ``aggregated`` returns, whose rows and dtype are canonical
    _aggregated = False

    def __post_init__(self):
        votes = np.asarray(self.votes, dtype=np.int16).reshape(-1, self.m)
        if votes.shape[0] and not bool(
            np.all(np.sort(votes, axis=1) == np.arange(self.m, dtype=np.int16)[None, :])
        ):
            raise ValueError("every vote row must be a permutation of 0..m-1")
        weights = self.weights
        if not isinstance(weights, np.ndarray):
            weights = weight_array(weights)
        if weights.dtype.kind in "biu" and weights.dtype != np.int64:
            if weights.dtype == np.uint64 and (weights >> np.uint64(63)).any():
                raise ValueError("integer weights must be below 2**63")
            weights = weights.astype(np.int64)
        if weights.shape != (votes.shape[0],):
            raise ValueError("weights must align with vote rows")
        if (weights < 0).any():
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "votes", _readonly(votes))
        object.__setattr__(self, "weights", _readonly(weights))

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_rankings(
        rankings: Iterable[Ranking | Sequence[int]],
        weights: Sequence[Weight] | None = None,
        m: int | None = None,
    ) -> "Profile":
        rows = [as_ranking(r).order for r in rankings]
        if m is None:
            if not rows:
                raise ValueError("m is required for an empty profile")
            m = len(rows[0])
        if any(len(r) != m for r in rows):
            raise ValueError("all rankings must share m")
        if weights is None:
            weights = [1] * len(rows)
        return Profile(m, np.array(rows, dtype=np.int16).reshape(-1, m), weight_array(weights))

    @staticmethod
    def empty(m: int) -> "Profile":
        return Profile(m, np.zeros((0, m), dtype=np.int16), np.zeros(0, dtype=np.int64))

    # -- views -------------------------------------------------------

    @property
    def n(self) -> Weight:
        """Total vote weight (the number of voters for integral profiles)."""
        return self.weights.sum() if len(self.weights) else 0

    @property
    def is_integral(self) -> bool:
        if self.weights.dtype == np.int64:
            return True
        return all(
            isinstance(w, (int, np.integer)) or (isinstance(w, Fraction) and w.denominator == 1)
            for w in self.weights.tolist()
        )

    def entries(self) -> Iterator[tuple[Ranking, Weight]]:
        for row, w in zip(self.votes, self.weights.tolist()):
            yield Ranking(tuple(int(a) for a in row)), w

    @cached_property
    def positions(self) -> np.ndarray:
        """(k, m) array: positions[r, a] = position of alternative a in row r."""
        k = self.votes.shape[0]
        pos = np.empty((k, self.m), dtype=np.int16)
        rows = np.arange(k)[:, None]
        pos[rows, self.votes] = np.arange(self.m, dtype=np.int16)[None, :]
        return _readonly(pos)

    def aggregated(self) -> "Profile":
        """Merge duplicate vote rows, summing weights; drops zero weights.

        Rows and weights come out as ``_merge_rows`` gives them (an empty
        result has int64 weights).  A profile this method returned is
        already in that form and is returned as it is.
        """
        if self._aggregated:
            return self
        first, sums = _merge_rows(self.votes, self.weights)
        out = Profile(self.m, self.votes[first], sums) if len(first) else Profile.empty(self.m)
        object.__setattr__(out, "_aggregated", True)
        return out

    def union(self, other: "Profile") -> "Profile":
        if other.m != self.m:
            raise ValueError("mismatched m")
        votes = np.vstack([self.votes, other.votes])
        weights = weight_array(self.weights.tolist() + other.weights.tolist())
        return Profile(self.m, votes, weights)

    def reversed(self) -> "Profile":
        return Profile(self.m, self.votes[:, ::-1].copy(), self.weights.copy())

    def __len__(self) -> int:
        return self.votes.shape[0]


@dataclass(frozen=True, eq=False)
class Tally:
    """An election as the solvers read it.

    ``matrix`` is the pairwise tally N (``matrix[a, b]`` is the weight of
    the votes ranking a over b), ``position_sums[a]`` the weighted sum of
    a's 0-based positions, ``n`` the total weight and ``vote`` the
    lexicographically first vote of nonzero weight (``None`` when there is
    none).  An integral election has int64 arrays and an int ``n``; other
    weights keep their float or object dtype.
    """

    m: int
    n: Weight
    matrix: np.ndarray
    position_sums: np.ndarray
    vote: Optional[Ranking]

    def __post_init__(self):
        object.__setattr__(self, "matrix", _readonly(self.matrix))
        object.__setattr__(self, "position_sums", _readonly(self.position_sums))

    @property
    def is_integral(self) -> bool:
        return self.matrix.dtype == np.int64

    @staticmethod
    def of(election: "Profile | Tally") -> "Tally":
        """The tally of a profile, read off its aggregated rows (int64
        weights through ``_tally_rows``); a tally is returned as it is."""
        if isinstance(election, Tally):
            return election
        agg = election.aggregated()
        w = agg.weights
        vote = Ranking(tuple(agg.votes[0].tolist())) if len(agg) else None
        if w.dtype == np.int64:
            return Tally(agg.m, int(agg.n), *_tally_rows(agg.positions, w), vote)
        n_tally, sums, n = pairwise_tally(agg), w @ agg.positions.astype(w.dtype), agg.n
        if agg.is_integral:
            n_tally, sums, n = n_tally.astype(np.int64), sums.astype(np.int64), int(n)
        return Tally(agg.m, n, n_tally, sums, vote)


@dataclass(frozen=True, eq=False)
class WeightedMajorityGraph:
    """Antisymmetric pairwise-margin structure over m alternatives.

    ``matrix[a, b]`` is the winning margin of a over b; the full matrix is
    stored but only the upper triangle is independent.  Viewing the upper
    triangle row-by-row as a vector of dimension m(m-1)/2 gives the vector
    space the cycle/co-cycle algebra lives in.
    """

    m: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = self.matrix
        if not isinstance(mat, np.ndarray):
            mat = np.asarray(mat)
        if mat.shape != (self.m, self.m):
            raise ValueError("matrix must be (m, m)")
        object.__setattr__(self, "matrix", _readonly(mat))

    @staticmethod
    def zero(m: int, exact: bool = False) -> "WeightedMajorityGraph":
        if exact:
            mat = np.full((m, m), Fraction(0), dtype=object)
        else:
            mat = np.zeros((m, m))
        return WeightedMajorityGraph(m, mat)

    @staticmethod
    def from_edges(
        m: int, edges: Iterable[tuple[int, int, Weight]], exact: bool = False
    ) -> "WeightedMajorityGraph":
        """Build from (a, b, w) triples meaning margin w on edge a -> b."""
        g = WeightedMajorityGraph.zero(m, exact=exact)
        mat = g.matrix.copy()
        mat.setflags(write=True)
        for a, b, w in edges:
            if a == b:
                raise ValueError("no self-loops")
            mat[a, b] += w
            mat[b, a] -= w
        return WeightedMajorityGraph(m, mat)

    @property
    def is_exact(self) -> bool:
        return self.matrix.dtype == object

    def weight(self, a: int, b: int) -> Weight:
        return self.matrix[a, b]

    def upper(self) -> np.ndarray:
        """Upper-triangle vector, pairs (i1, i2) with i1 < i2 in row order."""
        iu = np.triu_indices(self.m, k=1)
        return self.matrix[iu]

    def row_sums(self) -> np.ndarray:
        return self.matrix.sum(axis=1)

    def __add__(self, other: "WeightedMajorityGraph") -> "WeightedMajorityGraph":
        if other.m != self.m:
            raise ValueError("mismatched m")
        return WeightedMajorityGraph(self.m, self.matrix + other.matrix)

    def __sub__(self, other: "WeightedMajorityGraph") -> "WeightedMajorityGraph":
        if other.m != self.m:
            raise ValueError("mismatched m")
        return WeightedMajorityGraph(self.m, self.matrix - other.matrix)

    def __mul__(self, c: Weight) -> "WeightedMajorityGraph":
        if isinstance(c, Fraction) and not self.is_exact:
            mat = self.matrix.astype(object) * c
        else:
            mat = self.matrix * c
        return WeightedMajorityGraph(self.m, mat)

    __rmul__ = __mul__

    def __neg__(self) -> "WeightedMajorityGraph":
        return WeightedMajorityGraph(self.m, -self.matrix)

    def equals(self, other: "WeightedMajorityGraph") -> bool:
        """Exact elementwise equality (use in rational mode)."""
        return self.m == other.m and bool(np.all(self.matrix == other.matrix))

    def allclose(self, other: "WeightedMajorityGraph", tol: float = WEIGHT_TOL) -> bool:
        if self.m != other.m:
            return False
        diff = self.matrix - other.matrix
        return all(abs(x) <= tol for x in diff.ravel().tolist())


@dataclass(frozen=True)
class Digraph:
    """Unweighted directed graph without self-loops over m alternatives."""

    m: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        edges = frozenset((int(a), int(b)) for a, b in self.edges)
        for a, b in edges:
            if a == b or not (0 <= a < self.m and 0 <= b < self.m):
                raise ValueError(f"bad edge ({a}, {b}) for m={self.m}")
        object.__setattr__(self, "edges", edges)

    @staticmethod
    def from_edges(m: int, edges: Iterable[tuple[int, int]]) -> "Digraph":
        return Digraph(m, frozenset((a, b) for a, b in edges))

    def out_degree(self, a: int) -> int:
        return sum(1 for (x, _) in self.edges if x == a)

    def in_degree(self, a: int) -> int:
        return sum(1 for (_, y) in self.edges if y == a)

    def is_eulerian(self) -> bool:
        """Every vertex has in-degree equal to out-degree."""
        return all(self.in_degree(a) == self.out_degree(a) for a in range(self.m))

    def is_tournament(self) -> bool:
        for a in range(self.m):
            for b in range(a + 1, self.m):
                if ((a, b) in self.edges) == ((b, a) in self.edges):
                    return False
        return True

    def to_wmg(self, exact: bool = False) -> WeightedMajorityGraph:
        """Unit-weight majority-graph image of the edge set."""
        return WeightedMajorityGraph.from_edges(
            self.m, [(a, b, Fraction(1) if exact else 1.0) for a, b in self.edges], exact=exact
        )


@dataclass(frozen=True)
class Permutation:
    """A bijection on alternatives; ``map[i]`` is the image of ``i``."""

    map: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "map", tuple(int(a) for a in self.map))
        if sorted(self.map) != list(range(len(self.map))):
            raise ValueError(f"not a bijection: {self.map!r}")

    @property
    def m(self) -> int:
        return len(self.map)

    @staticmethod
    def identity(m: int) -> "Permutation":
        return Permutation(tuple(range(m)))

    @staticmethod
    def cycle(items: Sequence[int], m: int) -> "Permutation":
        """Cyclic permutation items[0] -> items[1] -> ... -> items[0]."""
        mp = list(range(m))
        for i, a in enumerate(items):
            mp[a] = items[(i + 1) % len(items)]
        return Permutation(tuple(mp))

    @staticmethod
    def transposition(a: int, b: int, m: int) -> "Permutation":
        mp = list(range(m))
        mp[a], mp[b] = b, a
        return Permutation(tuple(mp))

    @staticmethod
    def sending(sources: Sequence[int], targets: Sequence[int], m: int) -> "Permutation":
        """Bijection with sources[i] -> targets[i]; the remaining alternatives
        map onto the remaining slots preserving increasing order."""
        if len(set(sources)) != len(sources) or len(set(targets)) != len(targets):
            raise ValueError("sources and targets must be duplicate-free")
        rest_src = [a for a in range(m) if a not in set(sources)]
        rest_tgt = [a for a in range(m) if a not in set(targets)]
        mp = [0] * m
        for s, t in zip(sources, targets):
            mp[s] = t
        for s, t in zip(rest_src, rest_tgt):
            mp[s] = t
        return Permutation(tuple(mp))

    def __call__(self, a: int) -> int:
        return self.map[a]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(x) == self(other(x))."""
        return Permutation(tuple(self.map[other.map[i]] for i in range(self.m)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.m
        for i, a in enumerate(self.map):
            inv[a] = i
        return Permutation(tuple(inv))

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = Permutation.identity(self.m)
        base = self
        while k:
            if k & 1:
                result = result.compose(base)
            base = base.compose(base)
            k >>= 1
        return result


# ---------------------------------------------------------------------------
# distances and scores
# ---------------------------------------------------------------------------


def kt_distance(r: Ranking | Sequence[int], w: Ranking | Sequence[int]) -> int:
    """Number of unordered pairs the two rankings order oppositely.

    Symmetric, ranges over 0 .. m(m-1)/2, and is a metric on rankings.
    """
    r, w = as_ranking(r), as_ranking(w)
    if r.m != w.m:
        raise ValueError("mismatched m")
    # positions of w read in r's order: inversions = disagreements
    pw = w.positions
    x = np.fromiter((pw[a] for a in r.order), dtype=np.int64, count=r.m)
    gt = x[:, None] > x[None, :]
    return int(np.triu(gt, k=1).sum())


def kt_matrix(profile: Profile) -> np.ndarray:
    """(k, k) matrix of KT distances between the profile's vote rows.

    Builds a (k, k, m(m-1)/2) array, so it is for small profiles only;
    ``avg_kt`` gets the same total from the pairwise tally.
    """
    k = len(profile)
    if k == 0:
        return np.zeros((0, 0), dtype=np.int64)
    pos = profile.positions.astype(np.int64)
    iu, ju = _upper_pairs(profile.m)
    before = pos[:, iu] < pos[:, ju]  # (k, pairs)
    return (before[:, None, :] != before[None, :, :]).sum(axis=2).astype(np.int64)


def kemeny_score(r: Ranking | Sequence[int], profile: Profile) -> Weight:
    """Weighted total KT distance from ``r`` to every vote in the profile."""
    r = as_ranking(r)
    if r.m != profile.m:
        raise ValueError("mismatched m")
    if len(profile) == 0:
        return 0
    return _tally_score(r, pairwise_tally(profile))


def _tally_score(r: Ranking, n_tally: np.ndarray) -> Weight:
    """Kemeny score of ``r`` read off a pairwise tally: the sum of N[u, c]
    over pairs that ``r`` ranks c above u."""
    pos = np.asarray(r.positions)
    later = pos[:, None] > pos[None, :]  # later[u, c]: r ranks c above u
    vals = n_tally[later]
    return vals.sum() if vals.dtype != object else sum(vals.tolist())


#: rows per block of ``_tally_rows``; a block's int64 comparison array takes
#: 8 * rows * m(m-1)/2 bytes, 224 KB at m = 8
TALLY_BLOCK = 1024


def _tally_rows(pos: np.ndarray, weights: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise tally N and position sums of the votes whose positions are
    the int16 rows of ``pos`` (``pos[r, a]``: position of alternative a),
    row r weighing int64 ``weights[r]``, or one vote each when ``weights``
    is None.  Each block of TALLY_BLOCK rows, read alternative-major,
    compares every pair a < b once into N[a, b]; integer sums are exact in
    any order, and N[b, a] is the total weight minus N[a, b]."""
    k, m = pos.shape
    iu, ju = _upper_pairs(m)
    upper = np.zeros(len(iu), dtype=np.int64)
    sums = np.zeros(m, dtype=np.int64)
    for lo in range(0, k, TALLY_BLOCK):
        place = np.ascontiguousarray(pos[lo : lo + TALLY_BLOCK].T)  # place[a]: a's positions
        before = place[iu] < place[ju]
        if weights is None:
            upper += np.count_nonzero(before, axis=1)
            sums += place.sum(axis=1, dtype=np.int64)
        else:
            w = weights[lo : lo + TALLY_BLOCK]
            upper += before @ w
            sums += place @ w
    n_tally = np.zeros((m, m), dtype=np.int64)
    n_tally[iu, ju] = upper
    n_tally[ju, iu] = (k if weights is None else weights.sum()) - upper
    return n_tally, sums


def pairwise_tally(profile: Profile) -> np.ndarray:
    """(m, m) matrix N with N[a, b] = total weight of votes ranking a over b.

    Satisfies N[a, b] + N[b, a] = total weight for a != b, and the Kemeny
    score of a ranking equals the sum of N[b, a] over ordered pairs it
    places a above b.  Integer weights are tallied by ``_tally_rows``;
    float and object weights sum one comparison array over all rows, since
    a float complement would round apart from it and object weights may
    mix floats with Fractions.
    """
    m = profile.m
    if len(profile) == 0:
        return np.zeros((m, m), dtype=np.int64)
    w = profile.weights
    if w.dtype == np.int64:
        return _tally_rows(profile.positions, w)[0]
    pos = profile.positions
    before = pos[:, :, None] < pos[:, None, :]  # (k, m, m): a before b
    if w.dtype == object:
        n_tally = np.zeros((m, m), dtype=object)
        for i, wi in enumerate(w.tolist()):
            n_tally = n_tally + before[i].astype(object) * wi
        return n_tally
    return np.tensordot(w, before.astype(w.dtype), axes=(0, 0))


def wmg(profile: Profile) -> WeightedMajorityGraph:
    """Weighted majority graph: margin of a over b on each pair.

    The empty profile yields the zero graph.  For an integral n-profile
    every margin has the same parity as n and absolute value at most n.
    """
    n_tally = pairwise_tally(profile)
    return WeightedMajorityGraph(profile.m, n_tally - n_tally.T)


def umg(g: WeightedMajorityGraph | Profile) -> Digraph:
    """Unweighted majority graph: keep only strictly positive margins."""
    if isinstance(g, Profile):
        g = wmg(g)
    edges = [
        (a, b)
        for a in range(g.m)
        for b in range(g.m)
        if a != b and g.matrix[a, b] > 0
    ]
    return Digraph.from_edges(g.m, edges)


def kt_to_digraph(r: Ranking | Sequence[int], g: Digraph) -> int:
    """Back-edge count: edges (a, b) of g whose target b is ranked above a."""
    r = as_ranking(r)
    if r.m != g.m:
        raise ValueError("mismatched m")
    pos = r.positions
    return sum(1 for (a, b) in g.edges if pos[b] < pos[a])


def slater_score(r: Ranking | Sequence[int], profile: Profile) -> int:
    """Back-edge count of ``r`` against the profile's unweighted majority graph."""
    r = as_ranking(r)
    if r.m != profile.m:
        raise ValueError("mismatched m")
    return kt_to_digraph(r, umg(profile))


def _kt_pair_total(tally: np.ndarray) -> int:
    """Sum of KT(R_i, R_j) over ordered voter pairs, from the pairwise tally.

    A pair of voters disagrees on {a, b} exactly when one ranks a over b
    and the other b over a, so the ordered-pair total is
    sum over a < b of 2 * N[a, b] * N[b, a].  The products are taken in
    Python integers, so the result is exact for any number of voters.
    Requires integral tally entries.
    """
    iu, ju = _upper_pairs(tally.shape[0])
    return sum(
        2 * int(ab) * int(ba)
        for ab, ba in zip(tally[iu, ju].tolist(), tally[ju, iu].tolist())
    )


def avg_kt(election: Profile | Tally) -> float | Fraction:
    """Average KT distance over ordered pairs of distinct voters.

    Defined as the sum of KT(R_i, R_j) over ordered pairs i != j divided
    by n(n-1); equivalently the mean KT distance between two distinct
    voters, so a two-vote profile at distance 3 has average 3.  Requires
    an integral election with n >= 2, given as a profile or as its tally.

    The sum is read off the pairwise tally N as the sum over a < b of
    2 N[a, b] N[b, a], with O(m^2) exact integer work, never from the
    (k, k) distance matrix.  A tally's matrix is read as it is; a profile
    is tallied from its rows, without aggregating them first.  The result
    is an int when n(n-1) divides the sum, else a float.
    """
    if not election.is_integral:
        raise ValueError("average KT distance requires an integral profile")
    n = int(election.n)
    if n < 2:
        raise ValueError("need at least two votes")
    n_tally = election.matrix if isinstance(election, Tally) else pairwise_tally(election)
    total = _kt_pair_total(n_tally)
    if total % (n * (n - 1)) == 0:
        return total // (n * (n - 1))
    return total / (n * (n - 1))


# ---------------------------------------------------------------------------
# permutation action
# ---------------------------------------------------------------------------


def permute(sigma: Permutation, x):
    """Relabel alternatives of a ranking, profile, majority graph, or digraph.

    The action commutes with every operation in this module: the majority
    graph of a relabeled profile is the relabeled majority graph, KT
    distances are invariant, and so on.
    """
    if sigma.m != getattr(x, "m", None):
        raise ValueError("mismatched m")
    if isinstance(x, Ranking):
        return Ranking(tuple(sigma.map[a] for a in x.order))
    if isinstance(x, Profile):
        smap = np.asarray(sigma.map, dtype=np.int16)
        return Profile(x.m, smap[x.votes], x.weights.copy())
    if isinstance(x, WeightedMajorityGraph):
        inv = np.asarray(sigma.inverse().map)
        return WeightedMajorityGraph(x.m, x.matrix[np.ix_(inv, inv)])
    if isinstance(x, Digraph):
        return Digraph.from_edges(x.m, [(sigma.map[a], sigma.map[b]) for a, b in x.edges])
    raise TypeError(f"cannot permute {type(x).__name__}")

