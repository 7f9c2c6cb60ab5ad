"""Text formats: round trips for every format, and malformed lines that fail
loudly with their line number."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from votelab.core import Digraph, Profile, WeightedMajorityGraph
from votelab.formats import (
    format_digraph,
    format_fas,
    format_parameter_profile,
    format_profile,
    format_wmg,
    parse_digraph,
    parse_fas,
    parse_number,
    parse_parameter_profile,
    parse_profile,
    parse_soc,
    parse_wmg,
)
from votelab.gadgets import FasInstance
from votelab.harness import ExperimentConfig
from votelab.models import MallowsParam, ParameterProfile, PlackettLuceParam

FRACTIONS = st.fractions(min_value=0, max_value=20, max_denominator=12).filter(
    lambda f: f.denominator > 1
)
POSITIVE = {
    "int": st.integers(1, 10**6),
    "fraction": FRACTIONS,
    "float": st.floats(min_value=1e-300, max_value=1e12),
}


def perms(m):
    return st.permutations(list(range(m))).map(tuple)


def same_profile(a: Profile, b: Profile) -> bool:
    return (
        a.m == b.m
        and a.votes.tolist() == b.votes.tolist()
        and a.weights.dtype == b.weights.dtype
        and repr(a.weights.tolist()) == repr(b.weights.tolist())
    )


@st.composite
def profiles(draw, kind):
    m = draw(st.integers(1, 6))
    rows = draw(st.lists(perms(m), max_size=8))
    weights = {"int": st.integers(0, 50), "fraction": FRACTIONS, "float": POSITIVE["float"]}[kind]
    ws = draw(st.lists(weights, min_size=len(rows), max_size=len(rows)))
    return Profile.from_rankings(rows, ws, m=m)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["int", "fraction", "float"]).flatmap(profiles))
def test_profile_round_trip_any_weights(prof):
    assert same_profile(parse_profile(format_profile(prof)), prof)


@settings(max_examples=40, deadline=None)
@given(profiles("int"))
def test_soc_is_profile_shifted_by_one(prof):
    assume(len(prof) > 0)
    text = format_profile(prof)
    votes = [line.split(": ") for line in text.splitlines() if ":" in line]
    soc = "# 1-based copy\n" + "".join(
        f"{w}: " + ",".join(str(int(a) + 1) for a in order.split(",")) + "\n" for w, order in votes
    )
    assert same_profile(parse_soc(soc), parse_profile(text))


@st.composite
def parameter_profiles(draw):
    m = draw(st.integers(1, 5))
    weight = st.sampled_from(list(POSITIVE.values())).flatmap(lambda s: s)
    if draw(st.booleans()):
        phi = st.one_of(
            st.fractions(min_value=0, max_value=1, max_denominator=20).filter(lambda f: f > 0),
            st.floats(min_value=1e-6, max_value=1.0),
        )
        param = st.builds(MallowsParam, perms(m), phi)
    else:
        m = max(m, 2)  # a one-alternative theta is the integer 1, which reads back as int
        utilities = st.one_of(
            st.lists(st.integers(1, 9), min_size=m, max_size=m),
            st.lists(st.floats(min_value=0.1, max_value=5.0), min_size=m, max_size=m),
        )
        param = utilities.map(PlackettLuceParam.from_utilities)
    # distinct parameters, so no weights add up to an integral Fraction
    entries = draw(st.lists(st.tuples(param, weight), max_size=5, unique_by=lambda e: e[0]))
    return ParameterProfile.from_entries(m, entries)


@settings(max_examples=80, deadline=None)
@given(parameter_profiles())
def test_parameter_profile_round_trip_any_values(pp):
    back = parse_parameter_profile(format_parameter_profile(pp))
    assert back.m == pp.m and repr(back.entries) == repr(pp.entries)


@st.composite
def digraphs(draw):
    m = draw(st.integers(1, 7))
    pairs = [(a, b) for a in range(m) for b in range(m) if a != b]
    return Digraph.from_edges(m, draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else [])


@settings(max_examples=50, deadline=None)
@given(digraphs())
def test_digraph_round_trip_any(g):
    assert parse_digraph(format_digraph(g)) == g


@st.composite
def wmgs(draw, exact):
    m = draw(st.integers(2, 6))
    w = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=8)) if exact else st.floats(
        min_value=-1e9, max_value=1e9, allow_subnormal=True
    )
    edges = [(a, b, draw(w)) for a in range(m) for b in range(a + 1, m)]
    return WeightedMajorityGraph.from_edges(m, edges, exact=exact)


@settings(max_examples=60, deadline=None)
@given(st.booleans().flatmap(wmgs))
def test_wmg_round_trip_exact_and_float_any(g):
    # an exact graph with no nonzero margin writes no arc, so it reads back
    # as the float zero graph
    assume(not g.is_exact or any(w != 0 for w in g.upper().tolist()))
    back = parse_wmg(format_wmg(g))
    assert back.m == g.m and back.matrix.dtype == g.matrix.dtype
    assert repr(back.matrix.tolist()) == repr(g.matrix.tolist())


@st.composite
def fas_instances(draw):
    m = draw(st.integers(3, 7))
    t = draw(st.integers(0, 6))
    if draw(st.booleans()):
        sigma = draw(perms(m))  # i -> sigma(i) gives in-degree = out-degree = 1
        return FasInstance(Digraph.from_edges(m, [(i, s) for i, s in enumerate(sigma) if i != s]), t, "eulerian")
    flips = draw(st.lists(st.booleans(), min_size=m * (m - 1) // 2, max_size=m * (m - 1) // 2))
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    edges = [(b, a) if flip else (a, b) for (a, b), flip in zip(pairs, flips)]
    return FasInstance(Digraph.from_edges(m, edges), t, "tournament")


@settings(max_examples=50, deadline=None)
@given(fas_instances())
def test_fas_round_trip_eulerian_and_tournament(inst):
    assert parse_fas(format_fas(inst)) == inst


WORDS = st.text(alphabet="abcdefxyz0123456789-_./", max_size=12)


@settings(max_examples=60, deadline=None)
@given(
    st.builds(
        ExperimentConfig,
        experiment=st.sampled_from(["smoothed", "concentration", "dp-envelope", "reduction"]),
        m=st.integers(2, 40),
        n=st.integers(-5, 10**6),
        m_list=st.lists(st.integers(2, 40), max_size=4).map(tuple),
        n_list=st.lists(st.integers(1, 10**4), max_size=4).map(tuple),
        phi=st.floats(),
        phi_list=st.lists(st.floats(), max_size=4).map(tuple),
        central=WORDS,
        trials=st.integers(1, 10**4),
        t=st.floats(),
        seed=st.integers(-(10**9), 10**12),
        solver=WORDS,
        K=st.integers(-3, 30),
        instance=WORDS,
    )
)
def test_config_canonical_text_round_trip(cfg):
    back = ExperimentConfig.from_text(cfg.canonical_text())
    assert back.config_hash() == cfg.config_hash()


def test_parse_number_grammar():
    assert parse_number(" 7 ") == 7 and type(parse_number("7")) is int
    assert parse_number("3/10") == Fraction(3, 10)
    assert parse_number("0.25") == 0.25 and type(parse_number("1.0")) is float


@pytest.mark.parametrize("token", ["abc", "1/0", "0/0", "1//2", "", "1/2/3"])
def test_parse_number_rejects_with_value_error(token):
    with pytest.raises(ValueError):
        parse_number(token)


def test_headers_allow_spaces_around_equals():
    assert parse_profile("m = 3\nn = 1\n1: 0,1,2\n").m == 3
    assert parse_wmg("m = 2\n0 -> 1 w=1/2\n").matrix[0, 1] == Fraction(1, 2)
    assert parse_fas("kind = eulerian\nt = 0\nm = 2\n") == FasInstance(Digraph(2, frozenset()), 0, "eulerian")
    pp = parse_parameter_profile("model = mallows\nm = 2\n1 | phi=1/2; central=1,0\n")
    assert pp.entries[0][0] == MallowsParam((1, 0), Fraction(1, 2))


PROFILE = "m=3\nn=2\n1: 0,1,2\n"
MALLOWS = "model=mallows\nm=3\n"


@pytest.mark.parametrize(
    "parse, text, lineno",
    [
        (parse_wmg, "m=3\n0 ->\n", 2),  # arc without a target
        (parse_wmg, "m=3\n0 -> 7 w=1\n", 2),  # endpoint out of range
        (parse_wmg, "m=3\n0 -> 1 x=3\n", 2),  # unknown token
        (parse_wmg, "m=3\n0 -> 1 w=2 w=3\n", 2),  # two weights
        (parse_wmg, "m=3\n-1 -> 0 w=1\n", 2),  # negative endpoint
        (parse_wmg, "m=3\nsize=3\n", 2),  # unknown header key
        (parse_digraph, "m=3\n0 -> 0\n", 2),  # self-loop
        (parse_digraph, "m=3\n\n0 -> 1 w=1\n", 3),  # weight in a digraph
        (parse_digraph, "m=3\n0 -> 3\n", 2),  # endpoint out of range
        (parse_parameter_profile, MALLOWS + "1 | central=0,1,2\n", 3),  # no phi=
        (parse_parameter_profile, MALLOWS + "1 | phi=1/2; central=0,1,2; x=1\n", 3),  # extra field
        (parse_parameter_profile, MALLOWS + "1 | phi=1/2; phi=1/3; central=0,1,2\n", 3),  # repeated field
        (parse_parameter_profile, MALLOWS + "1 | phi=2; central=0,1,2\n", 3),  # phi out of range
        (parse_parameter_profile, MALLOWS + "1 | phi=1/2; central=0,1\n", 3),  # wrong m
        (parse_parameter_profile, MALLOWS + "-1 | phi=1/2; central=0,1,2\n", 3),  # negative weight
        (parse_parameter_profile, MALLOWS + "1 phi=1/2; central=0,1,2\n", 3),  # no '|'
        (parse_parameter_profile, "m=3\n1 | theta=1/3,1/3,1/3\n", 2),  # no model=
        (parse_parameter_profile, "model=ranked\nm=3\n", 1),  # unknown model
        (parse_profile, PROFILE + "1: 0,1\n", 4),  # short vote
        (parse_profile, PROFILE + "1: 0,1,1\n", 4),  # repeated alternative
        (parse_profile, PROFILE + "x: 0,1,2\n", 4),  # bad count
        (parse_profile, PROFILE + "-2: 0,1,2\n", 4),  # negative count
        (parse_profile, PROFILE + "1/0: 0,1,2\n", 4),  # zero denominator
        (parse_profile, "m = three\n", 1),  # bad header value
        (parse_profile, "m=3\nk=2\n", 2),  # unknown header key
        (parse_soc, "# votes\n1: 1,2,3\n2: 1,2\n", 3),  # length differs from the first vote
        (parse_soc, "1: 0,1,2\n", 1),  # 0-based vote in a 1-based file
        (parse_fas, "kind=eulerian\nt=-1\n", 2),  # negative budget
        (parse_fas, "kind=dag\nt=1\n", 1),  # unknown kind
        (parse_fas, "kind=eulerian\nt=1\nm=3\n0 -> 5\n", 4),  # endpoint out of range
        (ExperimentConfig.from_text, "m = 4\nbogus = 1\n", 2),  # unknown key
        (ExperimentConfig.from_text, "# config\nm = four\n", 2),  # bad value
        (ExperimentConfig.from_text, "m = 4\ntrials 10\n", 2),  # no '='
    ],
)
def test_malformed_lines_name_their_line(parse, text, lineno):
    raw = text.splitlines()[lineno - 1]
    with pytest.raises(ValueError) as info:
        parse(text)
    msg = str(info.value)
    assert f"line {lineno}" in msg
    assert repr(raw) in msg
