"""Text formats: one line reader, the number grammar, and the per-format
decoders and formatters.

Every format is read line by line.  ``#`` starts a comment that runs to
the end of the line, and blank lines are skipped.  A line of the form
``key=value`` (an identifier key, spaces around ``=`` allowed) is a
header; headers may come in any order, and a repeated key keeps its last
value.  Every other line is a body line.  A number is an int, else a
``Fraction`` when it contains ``/`` (``3/10``, for exact mode), else a
float.  A malformed line raises
``ValueError("bad line <n> in <what>: <raw line>")``, n counting from 1,
with the reason chained as its cause.

``.profile`` (elections)
    Headers ``m=<int>`` (required) and ``n=<int>`` (checked against the
    total weight of an integral profile).  One vote per body line,
    ``<count>: i1,i2,...,im``: alternatives 0-based, separated by commas
    or spaces; the count is optional (default 1).
``.soc`` (strict complete orders)
    No headers.  Vote lines as in ``.profile`` with 1-based alternatives;
    the first vote fixes m.
``.pprofile`` (parameter profiles)
    Headers ``model=mallows|pl|empty`` and ``m=<int>`` (required).  One
    entry per body line: ``<weight> | phi=<value>; central=i1,...,im``
    (Mallows) or ``<weight> | theta=t1,...,tm`` (Plackett-Luce).
digraph
    Header ``m=<int>`` (required).  One arc ``i -> j`` per body line.
``.wmg`` (weighted majority graphs)
    Header ``m=<int>`` (required).  One arc ``i -> j w=<weight>`` per body
    line: margin w of i over j, ``w=`` optional (default 1); arcs on one
    pair add up.  The graph is exact when it has an arc and no weight is
    a float.
``.fas`` (feedback-arc-set instances)
    Headers ``kind=eulerian|tournament`` and ``t=<int>`` (required) and
    ``m=<int>`` (default: one more than the largest endpoint).  Arcs as in
    the digraph format.
experiment configs
    Headers only, ``key = value``; the keys are the fields of
    ``votelab.harness.ExperimentConfig``.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional

from .core import Digraph, Profile, Ranking, Weight, WeightedMajorityGraph
from .gadgets import FasInstance
from .models import MallowsParam, ModelParam, ParameterProfile, PlackettLuceParam

__all__ = [
    "parse_number",
    "read_lines",
    "parse_profile",
    "format_profile",
    "parse_soc",
    "parse_parameter_profile",
    "format_parameter_profile",
    "parse_digraph",
    "format_digraph",
    "parse_wmg",
    "format_wmg",
    "parse_fas",
    "format_fas",
]

_HEADER = re.compile(r"([A-Za-z_]\w*)\s*=(.*)")


def parse_number(tok: str) -> Weight:
    """An int, else a Fraction when the token contains '/', else a float.

    Every malformed token raises ``ValueError``, a zero denominator too.
    """
    tok = tok.strip()
    if "/" in tok:
        try:
            return Fraction(tok)
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in {tok!r}") from exc
    try:
        return int(tok)
    except ValueError:
        return float(tok)


@contextmanager
def _at(number: int, raw: str, what: str):
    try:
        yield
    except (ValueError, ArithmeticError) as exc:
        raise ValueError(f"bad line {number} in {what}: {raw!r}") from exc


def read_lines(
    text: str,
    what: str,
    headers: Mapping[str, Callable[[str], object]],
    required: Iterable[str] = (),
    body: Optional[Callable[[dict, str], object]] = None,
) -> tuple[dict, list]:
    """Read ``text`` into its header values and its decoded body lines.

    ``headers`` maps each allowed key to the function that converts its
    value, and every key in ``required`` must appear.  Once all headers
    are read, each body line's text (comment stripped) is decoded as
    ``body(head, text)``; without ``body``, a body line is an error.
    """
    head: dict = {}
    rest = []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        header = _HEADER.fullmatch(line)
        if header is None:
            if line:
                rest.append((number, raw, line))
            continue
        with _at(number, raw, what):
            if header[1] not in headers:
                raise ValueError(f"unknown key {header[1]!r}")
            head[header[1]] = headers[header[1]](header[2].strip())
    for key in required:
        if key not in head:
            raise ValueError(f"missing {key}= header in {what}")
    items = []
    for number, raw, line in rest:
        with _at(number, raw, what):
            if body is None:
                raise ValueError("expected key = value")
            items.append(body(head, line))
    return head, items


def _write(head: dict, body: Iterable[str]) -> str:
    return "".join([f"{key}={val}\n" for key, val in head.items()] + [f"{line}\n" for line in body])


def _count(val: str) -> int:
    k = int(val)
    if k < 0:
        raise ValueError("expected a nonnegative integer")
    return k


def _choice(*names: str) -> Callable[[str], str]:
    def check(val: str) -> str:
        if val not in names:
            raise ValueError(f"expected one of {names}")
        return val

    return check


def _vote(head: dict, text: str, base: int) -> tuple[Ranking, Weight]:
    count, sep, order = text.partition(":")
    if not sep:
        count, order = "1", count
    ranking = Ranking(tuple(int(t) - base for t in order.replace(",", " ").split()))
    m = head.setdefault("m", ranking.m)  # a .soc file has no m=; its first vote fixes m
    if ranking.m != m:
        raise ValueError(f"a vote over {ranking.m} alternatives, expected {m}")
    weight = parse_number(count)
    if weight < 0:
        raise ValueError("negative count")
    return ranking, weight


def _profile(head: dict, votes: list) -> Profile:
    return Profile.from_rankings([r for r, _ in votes], [w for _, w in votes], m=head["m"])


def parse_profile(text: str) -> Profile:
    head, votes = read_lines(
        text, "profile", {"m": _count, "n": _count}, ["m"], lambda head, t: _vote(head, t, 0)
    )
    prof = _profile(head, votes)
    n = head.get("n")
    if n is not None and prof.is_integral and int(prof.n) != n:
        raise ValueError(f"declared n={n} but votes total {prof.n}")
    return prof


def format_profile(profile: Profile) -> str:
    head = {"m": profile.m, **({"n": int(profile.n)} if profile.is_integral else {})}
    return _write(head, (f"{w}: " + ",".join(map(str, r.order)) for r, w in profile.entries()))


def parse_soc(text: str) -> Profile:
    head, votes = read_lines(text, "soc file", {}, body=lambda head, t: _vote(head, t, 1))
    if not votes:
        raise ValueError("no votes found")
    return _profile(head, votes)


_FIELDS = {"mallows": ["central", "phi"], "pl": ["theta"]}


def _parameter(head: dict, text: str) -> tuple[ModelParam, Weight]:
    model = head.get("model")
    if model not in _FIELDS:
        raise ValueError("entry without model=mallows or model=pl")
    weight, sep, rest = text.partition("|")
    if not sep:
        raise ValueError("expected '<weight> | <fields>'")
    items = [field.split("=", 1) for field in rest.split(";")]
    fields = {key.strip(): val.strip() for key, val in items}
    if len(fields) != len(items) or sorted(fields) != _FIELDS[model]:
        raise ValueError(f"{model} entries take exactly the fields {_FIELDS[model]}")
    if model == "mallows":
        central = Ranking(tuple(int(t) for t in fields["central"].split(",")))
        param: ModelParam = MallowsParam(central, parse_number(fields["phi"]))
    else:
        param = PlackettLuceParam(tuple(parse_number(t) for t in fields["theta"].split(",")))
    if param.m != head["m"]:
        raise ValueError(f"parameter over {param.m} alternatives, expected {head['m']}")
    w = parse_number(weight)
    if w < 0:
        raise ValueError("negative weight")
    return param, w


def parse_parameter_profile(text: str) -> ParameterProfile:
    headers = {"model": _choice("mallows", "pl", "empty"), "m": _count}
    head, pairs = read_lines(text, "parameter profile", headers, ["m"], _parameter)
    return ParameterProfile.from_entries(head["m"], pairs)


def format_parameter_profile(pp: ParameterProfile) -> str:
    lines = []
    for p, w in pp.entries:
        if isinstance(p, MallowsParam):
            lines.append(f"{w} | phi={p.phi}; central=" + ",".join(map(str, p.central.order)))
        else:
            lines.append(f"{w} | theta=" + ",".join(map(str, p.theta)))
    return _write({"model": pp.family, "m": pp.m}, lines)


def _arc(text: str, m: Optional[int]) -> tuple[int, int]:
    a, b = (int(t) for t in text.split("->"))
    if a == b or min(a, b) < 0 or (m is not None and max(a, b) >= m):
        raise ValueError(f"no arc {a} -> {b} over m={m} alternatives")
    return a, b


def _weighted_arc(head: dict, text: str) -> tuple[int, int, Weight]:
    arc, sep, w = text.partition("w=")
    return (*_arc(arc, head["m"]), parse_number(w) if sep else 1)


def parse_digraph(text: str) -> Digraph:
    head, arcs = read_lines(text, "digraph", {"m": _count}, ["m"], lambda head, t: _arc(t, head["m"]))
    return Digraph.from_edges(head["m"], arcs)


def format_digraph(g: Digraph) -> str:
    return _write({"m": g.m}, (f"{a} -> {b}" for a, b in sorted(g.edges)))


def parse_wmg(text: str) -> WeightedMajorityGraph:
    head, arcs = read_lines(text, "majority graph", {"m": _count}, ["m"], _weighted_arc)
    exact = bool(arcs) and not any(isinstance(w, float) for _, _, w in arcs)
    return WeightedMajorityGraph.from_edges(head["m"], arcs, exact=exact)


def format_wmg(g: WeightedMajorityGraph) -> str:
    pairs = [(a, b) for a in range(g.m) for b in range(a + 1, g.m) if g.matrix[a, b] != 0]
    return _write({"m": g.m}, (f"{a} -> {b} w={g.matrix[a, b]}" for a, b in pairs))


def parse_fas(text: str) -> FasInstance:
    headers = {"kind": _choice("eulerian", "tournament"), "t": _count, "m": _count}
    head, arcs = read_lines(
        text, "instance file", headers, ["kind", "t"], lambda head, t: _arc(t, head.get("m"))
    )
    m = head.get("m", 1 + max((max(arc) for arc in arcs), default=0))
    return FasInstance(Digraph.from_edges(m, arcs), head["t"], head["kind"])


def format_fas(inst: FasInstance) -> str:
    return _write({"kind": inst.kind, "t": inst.t}, []) + format_digraph(inst.graph)
