"""Random JSON inputs and random braid words through the CLI: every command
either succeeds or exits 1 with a single line on stderr, never with a
traceback.

Inputs start from a coherent fan, N and Q of one parity class and size;
each file, and each field in it, is then replaced by a random JSON value
now and then, so both the happy path and every validation step are hit.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from braidmono.cli import main
from test_cli import one_line_error

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-6, 6),
    st.integers(),
    st.floats(),
    st.sampled_from(["", "1/2", "-3", "0/0", "x", "1/0", "7/3", "1e50000000", "1e-50000000",
                     "1_0", "٣", "1" * 5000]),
    st.text(max_size=4),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=12,
)


def sometimes(draw, value):
    """value, or a random JSON value once in six draws."""
    return draw(json_values) if draw(st.integers(1, 6)) == 1 else value


@st.composite
def matrices(draw, k, m):
    """A matrix file of class k and size m that obeys the parity laws,
    with a field or an entry now and then replaced."""
    sgn, diag = (-1, 0) if k % 2 else (1, 2 if k == 0 else -2)
    rows = [[diag] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            rows[i][j] = draw(st.integers(-3, 3))
            rows[j][i] = sgn * rows[i][j]
    r = draw(st.integers(0, m - 1))
    rows[r][0] = sometimes(draw, rows[r][0])
    return sometimes(draw, {"n_class": sometimes(draw, k), "matrix": sometimes(draw, rows)})


@st.composite
def configs(draw, k, m):
    """A fan config of class k with m points, or one time in four a config
    with explicit tangents, with a field now and then replaced."""
    pts = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(0, 6)), min_size=m, max_size=m))
    obj = {"n_class": sometimes(draw, k), "points": sometimes(draw, pts)}
    if draw(st.integers(0, 3)):
        z0 = draw(st.tuples(st.integers(-4, 4), st.integers(-9, -1)))
        obj["basepoint"] = sometimes(draw, z0)
    else:
        obj["tangents"] = sometimes(draw, pts[::-1])
    return sometimes(draw, obj)


@st.composite
def inputs(draw):
    k, m = draw(st.integers(0, 3)), draw(st.integers(1, 4))
    cmd = draw(st.sampled_from(["forward", "reconstruct", "act", "character", "chi"]))
    word = draw(st.sampled_from({
        "act": ["s2", "s3' e1^2", "", "s2^-3 e4", "s9", "t1"],
        "character": ["g1 g2'", "1", "g3^5", "g9", "h1"],
        "chi": ["1:0,2:1", "2:0,1:-1,3:2", "1:0", "4:1,1:0", "x", "1:0,1:1"],
    }.get(cmd, [""])))
    files = {"config": draw(configs(k, m)), "N": draw(matrices(k, m)), "Q": draw(matrices(k, m))}
    return cmd, word, files


def argv_for(cmd, paths, word):
    return {
        "forward": ["forward", "--config", paths["config"], "--matrix", paths["N"]],
        "reconstruct": ["reconstruct", "--config", paths["config"], "--q", paths["Q"]],
        "act": ["act", "--matrix", paths["N"], word],
        "character": ["character", "--matrix", paths["N"], "--g", word],
        "chi": ["chi", "--config", paths["config"], "--q", paths["Q"], "--word", word],
    }[cmd]


def run_cli(cmd, word, files):
    """(exit code, stderr) of one CLI call on the given JSON files."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, obj in files.items():
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w") as fh:
                json.dump(obj, fh)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv_for(cmd, paths, word))
    return code, err.getvalue()


@settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(inputs())
def test_cli_on_random_json(case):
    code, err = run_cli(*case)
    assert code in (0, 1), err
    assert err.count("\n") <= 1 and "Traceback" not in err, err


# --- word commands ----------------------------------------------------------

valid_tokens = st.builds(  # sigma letters twice as often: most reps refuse e<i>
    "{}{}".format,
    st.sampled_from(["s2", "s3", "s2", "s3", "e1", "e2"]),
    st.sampled_from(["", "'", "^2", "^-2"]),
)
bad_tokens = st.one_of(
    st.builds(
        "{}{}{}".format,
        st.sampled_from("segt"),
        st.integers(-1, 7),
        st.sampled_from(["", "'", "^0", "^-1", "^1048577", "^-99999999999999999999"]),
    ),
    st.sampled_from(["1", "x", "s", "s2^", "e1''", "^3", "s2^+1", "s٣", "S2", "s2'^2"]),
)


@st.composite
def braid_words(draw):
    """Up to 6 tokens, half the time with one of them replaced by a token
    that may be out of range or malformed."""
    tokens = draw(st.lists(valid_tokens, max_size=6))
    if tokens and draw(st.booleans()):
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(bad_tokens)
    return " ".join(tokens)


word_commands = st.sampled_from(
    [["pl-cocycle"], ["magnus"]]
    + [["rep", r] for r in ("burau", "tym", "tym-framed", "gassner", "linking")]
)


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    word_commands,
    braid_words(),
    st.sampled_from([*range(1, 7), 0, -1, -2, 10**9]),
)
def test_word_commands_on_random_tokens(cmd, word, m):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main([*cmd, "--m", str(m), word])
    err = err.getvalue()
    assert code == 0 and err == "" or code == 1 and err.count("\n") == 1, (code, err)
    assert "Traceback" not in err


# --- usage errors -------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    [],
    ["act"],
    ["character", "--matrix", "N.json"],
    ["chi", "--config", "c.json", "--q", "q.json"],
    ["pl-cocycle", "--m", "x", "s2"],
    ["magnus", "--m", "2.5", "s2"],
    ["rep", "burau", "--m", "", "s2"],
    ["rep", "no-such-rep", "--m", "2", "s2"],
    ["act", "--matrix", "N.json", "--g", "g1", "s2"],
    ["no-such-command"],
    ["forward", "--config", "c.json", "--matrix", "N.json", "--extra"],
])
def test_usage_errors_are_one_line(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    assert one_line_error(code, out.out, out.err), out.err
    assert out.err.startswith("error: braidmono")


@pytest.mark.parametrize("argv", [["--help"], ["act", "--help"], ["rep", "-h"]])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: braidmono" in capsys.readouterr().out
