"""Generated input ends in a result or an input error, never in a traceback.

Expressions go into parse_expr, gamma sections into parse_spec and
to_connection, and --set values into the CLI; each run must return, raise
EngineError, or exit with 0, 1 or 2.
"""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from projconn.cli import main
from projconn.errors import EngineError
from projconn.parser import parse_expr
from projconn.specfile import parse_spec
from projconn.symbols import SymbolTable

# the characters of the expression grammar, so that generated text gets past
# the tokenizer often enough to reach the parser and the ring
GRAMMAR = "0123456789 +-*/^(),iABCxyfd2_"
expressions = st.text(GRAMMAR, max_size=30) | st.text(max_size=30)

FAST = settings(max_examples=300, deadline=None, database=None, derandomize=True)

HEADER = "dim = 3\ncoords = x, y, z\nparams = A, B, C\nfunctions = f(x)\n[gamma]\n"
keys = st.sampled_from(["x.x.x", "x.y.z", "z.y.x", "y.x.x", "x.y", "x.x.q", ""])
gamma_lines = st.lists(st.tuples(keys, expressions), max_size=4).map(
    lambda pairs: "".join(f"{key} = {text}\n" for key, text in pairs)
)


def table():
    t = SymbolTable()
    for name in "xyz":
        t.coordinate(name)
    for name in "ABC":
        t.parameter(name)
    t.function("f", ("x",))
    return t


@FAST
@given(expressions)
def test_parse_expr_ends_in_result_or_engine_error(text):
    try:
        parse_expr(text, table())
    except EngineError:
        pass


@FAST
@given(gamma_lines | st.text(max_size=60))
def test_spec_gamma_ends_in_result_or_engine_error(text):
    try:
        parse_spec(HEADER + text).to_connection()
    except EngineError:
        pass


set_values = st.lists(
    st.tuples(st.sampled_from(["A", "B", "C", "D", "E", "Q", "tau", ""]), expressions),
    max_size=5,
).map(lambda pairs: ",".join(f"{name}={text}" for name, text in pairs))


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(set_values | st.text(max_size=30))
def test_cli_set_value_ends_in_exit_code(value):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(["flat", "--family", "torus3", "--set", value])
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
    assert code in (0, 1, 2)
