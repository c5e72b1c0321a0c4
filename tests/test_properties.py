"""Property tests: fuzzed family documents either build a state or raise
DiscordantError, and the CLI maps every such document to a documented exit
code without a traceback."""

import json
import math
import re

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from discordant import BipartiteState, DiscordantError, document_to_state, parse_document
from discordant.cli import main
from discordant.documents import FAMILIES

# Small magnitudes keep random states and weight matrices small; the fuzz is
# about types and non-finite values, not sizes.
NUMBERS = st.one_of(
    st.integers(-3, 6),
    st.floats(-4.0, 4.0),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
# Every JSON kind: numbers, strings, booleans, null, arrays and objects.
VALUES = st.recursive(
    st.one_of(NUMBERS, st.text(max_size=3), st.booleans(), st.none()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=2), children, max_size=2),
    ),
    max_leaves=12,
)


@st.composite
def family_documents(draw):
    name = draw(st.sampled_from(list(FAMILIES)))
    family = FAMILIES[name]
    keys = family.required + family.optional
    parameters = draw(st.fixed_dictionaries({}, optional={key: VALUES for key in keys}))
    return name, parameters


FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@FUZZ
@given(family_documents())
def test_family_document_builds_a_state_or_raises_discordant_error(document):
    name, parameters = document
    try:
        state = document_to_state(parse_document({"family": {"name": name, "parameters": parameters}}))
    except DiscordantError:
        return
    assert isinstance(state, BipartiteState)


@FUZZ
@given(family_documents())
def test_classify_exits_with_a_documented_code(document):
    name, parameters = document
    args = ["classify", "--family", name]
    for key, value in parameters.items():
        args += ["--param", f"{key}={json.dumps(value)}"]
    result = CliRunner().invoke(main, args)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert 0 <= result.exit_code <= 4
    assert "Traceback" not in result.output + result.stderr


def _assert_documented_exit(args):
    result = CliRunner().invoke(main, args)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert 0 <= result.exit_code <= 4
    assert "Traceback" not in result.output + result.stderr
    if result.exit_code == 0:
        assert re.search(r"\b(nan|inf)\b", result.output, re.IGNORECASE) is None, result.output


# Option values as the shell passes them: numbers in any notation, the
# non-finite spellings, and short strings.
OPTION_TEXT = st.one_of(
    NUMBERS.map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0", "0x10"]),
    st.text(max_size=3),
)
# The first state has a non-degenerate A marginal and one restart, so each
# valid draw costs two short searches.
CHEAP = ["--family", "example_state", "--param", "b=0.5", "--param", "c=0.5", "--restarts", "1"]


@FUZZ
@given(OPTION_TEXT)
def test_demon_kt_exits_with_a_documented_code(kt):
    _assert_documented_exit(["demon", *CHEAP, "--kt", kt])


@settings(FUZZ, max_examples=50)
@given(st.one_of(OPTION_TEXT, VALUES.map(json.dumps)))
def test_table1_parameter_exits_with_a_documented_code(a):
    _assert_documented_exit(["table1", "--restarts", "1", "--param", f"a={a}"])


@FUZZ
@given(
    st.one_of(OPTION_TEXT, st.integers(-(2**70), 2**70).map(str)),
    st.sampled_from(["discord", "demon", "analyze"]),
)
def test_seed_exits_with_a_documented_code(seed, command):
    _assert_documented_exit([command, *CHEAP, "--seed", seed])
