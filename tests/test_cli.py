import json
import os
import re
import subprocess
import sys
import time

import pytest

from braidmono import (
    ParityClass,
    anchor_word,
    build_fan_config,
    character,
    parse_groupoid_word,
    validate_N,
)
from braidmono.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, obj):
    f = tmp_path / name
    f.write_text(json.dumps(obj))
    return str(f)


@pytest.fixture
def files(tmp_path):
    cfg = write(
        tmp_path,
        "cfg.json",
        {
            "n_class": 1,
            "points": [["-2", "4"], ["0", "5"], ["2", "4"]],
            "basepoint": ["0", "-1"],
        },
    )
    N = write(
        tmp_path, "N.json", {"n_class": 1, "matrix": [[0, 2, -1], [-2, 0, 3], [1, -3, 0]]}
    )
    return cfg, N


def test_pl_cocycle_cmd(capsys):
    code, out, _ = run(capsys, "pl-cocycle", "--m", "3", "s2")
    assert code == 0
    data = json.loads(out)
    assert data["perm"] == [2, 1, 3]
    assert data["entries"] == ["g1'", "1", "1"]


def test_pl_cocycle_identity(capsys):
    code, out, _ = run(capsys, "pl-cocycle", "--m", "3", "")
    assert code == 0
    assert json.loads(out)["perm"] == [1, 2, 3]


def test_magnus_cmd(capsys):
    code, out, _ = run(capsys, "magnus", "--m", "2", "s2")
    assert code == 0
    assert json.loads(out)["matrix"] == [["1 - g1 g2' g1'", "1"], ["g1'", "0"]]


def test_rep_cmd(capsys):
    code, out, _ = run(capsys, "rep", "burau", "--m", "2", "s2")
    assert code == 0
    assert json.loads(out)["matrix"] == [["1 - t", "1"], ["t", "0"]]
    code, out, _ = run(capsys, "rep", "tym-framed", "--m", "2", "e1")
    assert code == 0
    assert json.loads(out)["matrix"] == [["t^-1", "0"], ["0", "1"]]


def test_rep_rejects_framed_burau(capsys):
    code, _, err = run(capsys, "rep", "burau", "--m", "2", "e1")
    assert code == 1
    assert "epsilon" in err


def test_act_cmd(capsys, files):
    cfg, N = files
    code, out, _ = run(capsys, "act", "--matrix", N, "s2")
    assert code == 0
    data = json.loads(out)
    S = data["S"]
    # S^T N S must equal the reported N_out
    Nin = [[0, 2, -1], [-2, 0, 3], [1, -3, 0]]
    ST = [[S[r][c] for r in range(3)] for c in range(3)]
    prod = [
        [
            sum(ST[i][k] * sum(Nin[k][l] * S[l][j] for l in range(3)) for k in range(3))
            for j in range(3)
        ]
        for i in range(3)
    ]
    assert prod == data["N_out"]["matrix"]


@pytest.mark.parametrize("argv", [
    ["act", "--n-class", "1", "--matrix", "{N}", "s2"],
    ["character", "--n-class", "1", "--matrix", "{N}", "--g", "g1"],
])
def test_n_class_comes_from_the_matrix_file(capsys, files, argv):
    # the file's n_class is the parity class; the option that repeated it is gone
    _, N = files
    argv = [a.format(N=N) for a in argv]
    code, out, err = run(capsys, *argv)
    assert one_line_error(code, out, err), err
    assert err.startswith("error: braidmono") and "--n-class" in err
    assert run(capsys, argv[0], *argv[3:])[0] == 0


def test_outputs_past_digit_limit(capsys, files):
    # entries of the action grow doubly exponentially in the braid length:
    # (s2 s3')^11 still prints; in (s2 s3')^12, letter 23 writes an entry
    # past 4300 decimal digits (14285 bits), which the bit budget refuses
    _, N = files
    code, _, _ = run(capsys, "act", "--matrix", N, "s2 s3' " * 11)
    assert code == 0
    code, out, err = run(capsys, "act", "--matrix", N, "s2 s3' " * 12)
    assert code == 1 and out == ""
    assert err == "error: act: N entry (1,3) passes the 14285-bit budget at letter 23\n"
    # characters grow exponentially in the word length
    code, out, err = run(capsys, "character", "--matrix", N, "--g", "g2 g3' " * 4200)
    assert code == 1 and out == ""
    assert err == "error: character: matrix entry (1,1) has more than 4300 decimal digits\n"


def test_act_is_bounded_by_the_digit_limit_in_bits(capsys, tmp_path):
    """On a class-0 N off every Dynkin orbit, (s2 s3')^17 took seconds and
    each further pair about 4x longer; the bit equivalent of the digit limit
    refuses it within the fold, in under 1 s, at the first letter that
    writes a longer entry.  The word w w^-1 fixes N, but its entries grow
    on the way, so it is refused too."""
    N = write(tmp_path, "N.json", {"n_class": 0, "matrix": [[2, 3, 1], [3, 2, 2], [1, 2, 2]]})
    for n in (17, 40):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "act", "--matrix", N, "s2 s3' " * n)
        assert time.perf_counter() - t0 < 1
        assert one_line_error(code, out, err), err
        assert err == "error: act: N entry (1,3) passes the 14285-bit budget at letter 23\n"
    code, out, err = run(capsys, "act", "--matrix", N, "s2 s3' " * 9 + "s3 s2' " * 9)
    assert json.loads(out)["N_out"]["matrix"] == [[2, 3, 1], [3, 2, 2], [1, 2, 2]]
    code, out, err = run(capsys, "act", "--matrix", N, "s2 s3' " * 12 + "s3 s2' " * 12)
    assert one_line_error(code, out, err), err
    assert err == "error: act: N entry (1,3) passes the 14285-bit budget at letter 23\n"


def test_every_output_past_digit_limit_is_named(capsys, tmp_path):
    # point 2 lies inside the triangle (z0, z1, z3), so entry (1,3) of
    # forward and reconstruct multiplies two 3000-digit entries, and so does
    # a twist at point 2 in chi
    big = 10**2999 + 7
    cfg = write(tmp_path, "cfg.json", {
        "n_class": 1, "points": [["-2", "4"], ["0", "2"], ["2", "4"]],
        "basepoint": ["0", "-1"],
    })
    N = write(tmp_path, "N.json", {
        "n_class": 1, "matrix": [[0, big, big], [-big, 0, big], [-big, -big, 0]],
    })
    for argv, name in (
        (["forward", "--config", cfg, "--matrix", N], "forward: matrix entry (1,3)"),
        (["reconstruct", "--config", cfg, "--q", N], "reconstruct: matrix entry (1,3)"),
        (["chi", "--config", cfg, "--q", N, "--word", "1:0,2:1,3:0"], "chi: value"),
    ):
        code, out, err = run(capsys, *argv)
        assert one_line_error(code, out, err), err
        assert err == f"error: {name} has more than 4300 decimal digits\n"


def test_character_cmd(capsys, files):
    _, N = files
    code, out, _ = run(capsys, "character", "--matrix", N, "--g", "1")
    assert code == 0
    assert json.loads(out)["matrix"] == [[0, 2, -1], [-2, 0, 3], [1, -3, 0]]


@pytest.mark.parametrize("e", [4611686018427387904, 10**19, -(10**19) - 1])
def test_character_of_huge_letter_power(capsys, files, e):
    """N rho_N(g1^e) = N - eps e N E_1 N for n = 1 (eps = -1), without
    expanding the power."""
    _, N = files
    code, out, err = run(capsys, "character", "--matrix", N, "--g", f"g1^{e}")
    assert (code, err) == (0, "")
    Nin = [[0, 2, -1], [-2, 0, 3], [1, -3, 0]]
    want = [[Nin[r][c] + e * Nin[r][0] * Nin[0][c] for c in range(3)] for r in range(3)]
    assert json.loads(out)["matrix"] == want


@pytest.mark.parametrize("tok", ["s2^4611686018427387904", "s2^-10000000000000000000"])
def test_act_refuses_huge_braid_power(capsys, files, tok):
    _, N = files
    code, out, err = run(capsys, "act", "--matrix", N, f"s3 {tok}")
    assert one_line_error(code, out, err), err
    assert err.startswith(f"error: braid token {tok} expands to more than ")


def test_forward_reconstruct_chi_pipeline(capsys, tmp_path, files):
    cfg, N = files
    code, out, _ = run(capsys, "forward", "--config", cfg, "--matrix", N)
    assert code == 0
    q = write(tmp_path, "Q.json", json.loads(out))
    code, out, _ = run(capsys, "reconstruct", "--config", cfg, "--q", q)
    assert code == 0
    assert json.loads(out)["matrix"] == [[0, 2, -1], [-2, 0, 3], [1, -3, 0]]
    code, out, _ = run(capsys, "chi", "--config", cfg, "--q", q, "--word", "1:0,2:0")
    assert code == 0
    int(out)  # a bare integer


def test_chi_takes_either_config(capsys, tmp_path, files):
    cfg, N = files
    code, out, _ = run(capsys, "forward", "--config", cfg, "--matrix", N)
    q = write(tmp_path, "Q.json", json.loads(out))
    # the fan's points with their tangents toward the basepoint (0, -1) written out
    tangents = write(tmp_path, "tan.json", {
        "n_class": 1, "points": [["-2", "4"], ["0", "5"], ["2", "4"]],
        "tangents": [["2", "-5"], ["0", "-6"], ["-2", "-5"]],
    })
    for word in ("1:0,2:0", "3:1,1:-2,2:0"):
        via_fan = run(capsys, "chi", "--config", cfg, "--q", q, "--word", word)
        assert via_fan[0] == 0
        assert run(capsys, "chi", "--config", tangents, "--q", q, "--word", word) == via_fan


def test_matrix_entry_past_digit_limit(capsys, tmp_path):
    big = tmp_path / "big.json"
    for entry in ("1" * 4401, '"' + "1" * 4401 + '"'):  # a JSON number or a string
        big.write_text('{"n_class": 1, "matrix": [[0, ' + entry + "], [-1, 0]]}")
        code, out, err = run(capsys, "act", "--matrix", str(big), "s2")
        assert code == 1 and out == ""
        assert err == (
            f"error: {big}: '11111111111111111111111... (4403 chars) has more than 4300 "
            "decimal digits\n"
        )


def test_chi_rejects_bad_word(capsys, files):
    cfg, N = files
    code, _, err = run(capsys, "chi", "--config", cfg, "--q", N, "--word", "1:0,9:0")
    assert code == 1


def test_missing_file(capsys):
    code, _, err = run(capsys, "forward", "--config", "/nonexistent.json", "--matrix", "/x.json")
    assert code == 1


def test_cover_example_cmd(capsys):
    code, out, _ = run(capsys, "cover-example")
    assert code == 0
    assert "identities verified" in out
    assert "N(ba):" in out


def test_cover_example_failed_identity_is_internal(capsys, monkeypatch):
    from braidmono import cli

    monkeypatch.setattr(cli, "mat_transpose", lambda rows: rows)
    code, out, err = run(capsys, "cover-example")
    assert code == 2 and "identities verified" not in out
    assert err == (
        "internal invariant violation: transpose identity N(ba) = N(ab)^T failed\n"
    )


def test_parser_is_shared_between_calls(capsys):
    from braidmono import cli

    assert cli._parser() is cli._parser()
    first = run(capsys, "rep", "burau", "--m", "2", "s2")
    code, _, err = run(capsys, "rep", "no-such-rep", "--m", "2", "s2")
    assert code == 1
    assert "invalid choice" in err
    # a rejected call leaves nothing behind for the next one
    assert run(capsys, "magnus", "--m", "2", "s2")[0] == 0
    assert run(capsys, "rep", "burau", "--m", "2", "s2") == first


def one_line_error(code, out, err):
    return code == 1 and out == "" and err.count("\n") == 1 and "Traceback" not in err


MALFORMED = {
    "ragged": {"n_class": 1, "matrix": [[0, 1], 5]},
    "scalar": 5,
    "points": {"n_class": 1, "points": 5, "basepoint": ["0", "-1"]},
    "float": {"n_class": 1, "points": [[-2, 4.1], [0, 5]], "basepoint": [0, -1]},
}


@pytest.mark.parametrize("argv", [
    ["magnus", "--m", "-1", "1"],
    ["rep", "gassner", "--m", "-4", "1"],
    ["pl-cocycle", "--m", "-2", "1"],
    ["pl-cocycle", "--m", "0", ""],
])
def test_strand_count_below_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert one_line_error(code, out, err), err
    assert err == f"error: strand count {argv[-2]} is below 1\n"


@pytest.mark.parametrize("argv", [
    ["pl-cocycle", "--m", "1000000000", ""],
    ["pl-cocycle", "--m", "100000000", "s2"],
    ["magnus", "--m", "1000000000", "s2"],
    ["rep", "burau", "--m", "100000", "s2"],
    ["rep", "linking", "--m", "1025", ""],
])
def test_strand_count_above_bound(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert one_line_error(code, out, err), err
    assert err == f"error: strand count {argv[-2]} is above 1024\n"


def test_pl_cocycle_long_word_is_fast(capsys):
    # (s2 s3')^10: every entry of the cocycle grows exponentially in the
    # length, so rewriting whole words per letter took 20-35 s here
    start = time.perf_counter()
    code, out, _ = run(capsys, "pl-cocycle", "--m", "3", " ".join(["s2 s3'"] * 10))
    assert code == 0 and sorted(json.loads(out)["perm"]) == [1, 2, 3]
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("argv", [
    "act --matrix {ragged} s2",
    "act --matrix {scalar} s2",
    "forward --config {scalar} --matrix {N}",
    "forward --config {cfg} --matrix {scalar}",
    "forward --config {points} --matrix {N}",
    "forward --config {float} --matrix {N}",
    "reconstruct --config {points} --q {N}",
    "reconstruct --config {cfg} --q {ragged}",
    "chi --config {cfg} --q {scalar} --word 1:0,2:0",
])
def test_malformed_json_shapes(capsys, tmp_path, files, argv):
    cfg, N = files
    paths = {k: write(tmp_path, f"{k}.json", v) for k, v in MALFORMED.items()}
    code, out, err = run(capsys, *argv.format(cfg=cfg, N=N, **paths).split())
    assert one_line_error(code, out, err), err
    assert any(path in err for path in paths.values())


UNREADABLE = {  # bytes that are no JSON object: each fault names its file
    "truncated": b'{"n_class": 1,\n"matrix"',
    "latin1": b'{"n_class": 1, "matrix": [[0, "\xff"], [1, 0]]}',
    "deep": b"[" * 10**5 + b"]" * 10**5,
}


@pytest.mark.parametrize("argv, bad", [
    ("chi --config {cfg} --q {bad} --word 1:0", "truncated"),
    ("reconstruct --config {cfg} --q {bad}", "truncated"),
    ("act --matrix {bad} s2", "latin1"),
    ("forward --config {bad} --matrix {N}", "latin1"),
    ("character --matrix {bad} --g g1", "deep"),
])
def test_unreadable_json_names_the_file(capsys, tmp_path, files, argv, bad):
    cfg, N = files
    path = tmp_path / f"{bad}.json"
    path.write_bytes(UNREADABLE[bad])
    code, out, err = run(capsys, *argv.format(cfg=cfg, N=N, bad=path).split())
    assert one_line_error(code, out, err), err
    assert err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("argv", [
    "forward --config {cfg} --matrix {N2}",
    "reconstruct --config {cfg} --q {N2}",
    "chi --config {cfg} --q {N2} --word 1:0",
])
def test_matrix_that_does_not_fit_the_config_names_its_file(capsys, tmp_path, files, argv):
    cfg, _ = files
    N2 = write(tmp_path, "N2.json", {"n_class": 1, "matrix": [[0, 2], [-2, 0]]})
    code, out, err = run(capsys, *argv.format(cfg=cfg, N2=N2).split())
    assert one_line_error(code, out, err), err
    assert err == f"error: {N2}: matrix is 2x2, the configuration has 3 points\n"


def test_non_integer_matrix_entries(capsys, tmp_path):
    for entry in (1.5, [1], None, "x"):
        bad = write(tmp_path, "bad.json", {"n_class": 1, "matrix": [[0, entry], [-1, 0]]})
        code, out, err = run(capsys, "act", "--matrix", bad, "s2")
        assert one_line_error(code, out, err), err
        assert err.startswith(f"error: {bad}: ")


@pytest.mark.parametrize("token", ["1e23", "4.0000000000000001"])
def test_inexact_float_tokens(capsys, tmp_path, files, token):
    cfg, N = files
    bad_N = tmp_path / "badN.json"
    bad_N.write_text('{"n_class": 1, "matrix": [[0, ' + token + "], [-1, 0]]}")
    bad_cfg = tmp_path / "badcfg.json"
    bad_cfg.write_text(
        '{"n_class": 1, "points": [[-2, ' + token + '], [0, 5]], "basepoint": [0, -1]}'
    )
    for argv, path in (
        (["act", "--matrix", str(bad_N), "s2"], bad_N),
        (["forward", "--config", str(bad_cfg), "--matrix", N], bad_cfg),
    ):
        code, out, err = run(capsys, *argv)
        assert one_line_error(code, out, err), err
        assert err == f'error: {path}: float {token} is inexact, write it as a "p/q" string\n'


def test_long_bad_token_is_cut(capsys, tmp_path):
    cfg = write(tmp_path, "cfg.json", {
        "n_class": 1, "points": [["-2", "4"], ["0", "5"]],
        "basepoint": ["1" * 4401, "-1"],
    })
    N = write(tmp_path, "N.json", {"n_class": 1, "matrix": [[0, 1], [-1, 0]]})
    code, out, err = run(capsys, "forward", "--config", cfg, "--matrix", N)
    assert one_line_error(code, out, err)
    assert len(err) < 300 and "(4403 chars)" in err


BIG = "1" * 4000  # under the 4300-digit limit, so it parses as a number


def chi_setup(capsys, tmp_path, files):
    """The fixture's config, Q = forward(N) as a file, and a function giving
    the dense character of N at (target, source) of a groupoid word."""
    cfg, N = files
    code, out, _ = run(capsys, "forward", "--config", cfg, "--matrix", N)
    q = write(tmp_path, "Q.json", json.loads(out))
    fan = build_fan_config([(-2, 4), (0, 5), (2, 4)], (0, -1), ParityClass(1))
    n = validate_N(ParityClass(1), json.loads(open(N).read())["matrix"])

    def dense(word):
        w = parse_groupoid_word(word)
        return character(n, anchor_word(fan, w).word)[w.target - 1][w.source - 1]

    return cfg, q, dense


def assert_chi_answers(capsys, tmp_path, files, word):
    """chi answers the word with one stdout line, the dense character's entry."""
    cfg, q, dense = chi_setup(capsys, tmp_path, files)
    code, out, err = run(capsys, "chi", "--config", cfg, "--q", q, "--word", word)
    assert (code, err, out.count("\n")) == (0, "", 1)
    assert int(out) == dense(word)


def test_chi_deep_twist_is_one_line(capsys, tmp_path, files):
    """A twist of 500 is answered with one stdout line."""
    assert_chi_answers(capsys, tmp_path, files, "1:0,2:500,3:0")


def test_chi_4000_digit_twist_is_answered(capsys, tmp_path, files):
    """A twist of 4000 digits is answered in one closed-form step, not
    refused as too deep."""
    assert_chi_answers(capsys, tmp_path, files, f"1:0,2:{BIG},3:0")


def test_chi_long_walk_is_refused_by_the_step_budget(capsys, tmp_path, files):
    """A 1500-point walk costs more than the step budget: exit 1 with one
    line, in under 2 s."""
    cfg, q, _ = chi_setup(capsys, tmp_path, files)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "chi", "--config", cfg, "--q", q,
                         "--word", ",".join(["1:0,2:0,3:0"] * 500))
    assert time.perf_counter() - t0 < 2
    assert one_line_error(code, out, err), err
    assert err == "error: chi evaluation step budget exhausted\n"


@pytest.mark.parametrize("argv", [
    "character --matrix {N} --g g1^{big}",
    "act --matrix {N} s2^{big}",
    "pl-cocycle --m 3 s{big}",
    "chi --config {cfg} --q {N} --word 1:0,2:{big},3:0",
])
def test_long_number_token_is_cut(capsys, files, argv):
    cfg, N = files
    code, out, err = run(capsys, *argv.format(cfg=cfg, N=N, big="1" * 5000).split())
    assert one_line_error(code, out, err), err
    assert err.startswith("error: bad ") and len(err) < 150 and " chars)" in err


@pytest.mark.parametrize("argv, msg", [
    ("character --matrix {N} --g g{big}", "generator index 111"),
    ("character --matrix {N} --g s{big}", "expected g<i> token, got s111"),
    ("pl-cocycle --m 3 s2^{big}", "braid token s2^111"),
    ("pl-cocycle --m 3 x{big}", "expected s<k> or e<i> token, got x111"),
    ("pl-cocycle --m 3 s{big}", "sigma index 111"),
    ("act --matrix {N} e{big}", "epsilon index 111"),
    ("chi --config {cfg} --q {N} --word {big}:0,{big}:0", "repeated adjacent point 111"),
    ("chi --config {cfg} --q {N} --word 1:0,{big}:0", "point index 111"),
    ("pl-cocycle --m {big} s2", "strand count 111"),
    ("magnus --m -{big} s2", "strand count -111"),
    ("rep burau --m x{big} s2", "braidmono rep: argument --m: 'x111"),
    ("pl-cocycle --m {big}{big} s2", "braidmono pl-cocycle: argument --m: '111"),
    ("act --matrix {diag} s2", "{diag}: diagonal entry (1,1) = 111"),
    ("act --matrix {N5} s2", "{N5}: n mod 4 must be 0..3, got 5\n"),
    ("character --matrix {Nbig} --g g1", "{Nbig}: n mod 4 must be 0..3, got 111"),
    ("forward --config {cfg} --matrix {N5}", "{N5}: n mod 4 must be 0..3, got 5\n"),
    ("reconstruct --config {cfg5} --q {N}", "{cfg5}: n mod 4 must be 0..3, got 5\n"),
    ("chi --config {cfg5} --q {N} --word 1:0,2:0", "{cfg5}: n mod 4 must be 0..3, got 5\n"),
    ("act --matrix {diag7} s2", "{diag7}: diagonal entry (1,1) = 7, must be 0\n"),
    ("character --matrix {sym} --g g1", "{sym}: symmetry violated at (1,2): 2 != -1*2\n"),
    ("forward --config {cfg} --matrix {diag7}",
     "{diag7}: diagonal entry (1,1) = 7, must be 0\n"),
    ("reconstruct --config {cfg} --q {sym}", "{sym}: symmetry violated at (1,2): 2 != -1*2\n"),
    ("chi --config {cfg} --q {diag7} --word 1:0",
     "{diag7}: diagonal entry (1,1) = 7, must be 0\n"),
    ("reconstruct --config {tangents} --q {N}",
     '{tangents}: this command needs a config with a "basepoint"\n'),
    ("chi --config {collinear} --q {N} --word 1:0",
     "{collinear}: collinear triple (1, 2, 3)\n"),
    ("chi --config {duplicate} --q {N} --word 1:0",
     "{duplicate}: duplicate point at indices 1, 2\n"),
    ("forward --config {inside} --matrix {N}",
     "{inside}: basepoint lies inside the convex hull of the points\n"),
])
def test_outside_numbers_are_cut(capsys, tmp_path, files, argv, msg):
    """A number from the command line or a file is echoed cut short, and a
    fault in an input file (a parity class out of range, a broken parity
    law, a bad configuration) names the file."""
    cfg, N = files
    paths = dict(cfg=cfg, N=N, big=BIG, **{k: write(tmp_path, f"{k}.json", v) for k, v in {
        "diag": {"n_class": 1, "matrix": [[int(BIG)]]},
        "N5": {"n_class": 5, "matrix": [[0]]},
        "Nbig": {"n_class": BIG, "matrix": [[0]]},
        "cfg5": dict(json.loads(open(cfg).read()), n_class=5),
        "diag7": {"n_class": 1, "matrix": [[7]]},
        "sym": {"n_class": 1, "matrix": [[0, 2], [2, 0]]},
        "tangents": {"n_class": 1, "points": [["-2", "4"], ["0", "5"], ["2", "4"]],
                     "tangents": [["2", "-5"], ["0", "-6"], ["-2", "-5"]]},
        "collinear": {"n_class": 1, "points": [[0, 1], [1, 2], [2, 3]],
                      "tangents": [[1, 0], [1, 0], [1, 0]]},
        "duplicate": {"n_class": 1, "points": [[0, 4], [0, 4]], "tangents": [[1, 0], [0, 1]]},
        "inside": {"n_class": 1, "points": [["-9/2", 4], [5, "7/2"], [0, -6]],
                   "basepoint": [0, "1/3"]},
    }.items()})
    code, out, err = run(capsys, *argv.format(**paths).split())
    assert one_line_error(code, out, err), err
    assert len(err.encode()) < 200 and err.startswith("error: " + msg.format(**paths)), err


@pytest.mark.parametrize("argv, msg", [
    ("act --matrix {N} --m 3 s2", "braidmono: unrecognized arguments: --m s2"),
    ("forward --config {cfg} --matrix {N} --conf {cfg}",
     "braidmono: unrecognized arguments: --conf {cfg}"),
    ("forward --conf {cfg} --matrix {N}",
     "braidmono forward: the following arguments are required: --config"),
    ("character --mat {N} --g g1",
     "braidmono character: the following arguments are required: --matrix"),
    ("--he", "braidmono: the following arguments are required: cmd"),
])
def test_options_are_spelled_in_full(capsys, files, argv, msg):
    # an option's prefix, another command's option among them, is no option
    cfg, N = files
    code, out, err = run(capsys, *argv.format(cfg=cfg, N=N).split())
    assert one_line_error(code, out, err), err
    assert err == f"error: {msg.format(cfg=cfg)}\n"


VALID_ARGS = {
    "pl-cocycle": ["--m", "3", "s2"],
    "magnus": ["--m", "2", "s2"],
    "rep": ["burau", "--m", "2", "s2"],
    "act": ["--matrix", "{N}", "s2"],
    "character": ["--matrix", "{N}", "--g", "g1"],
    "chi": ["--config", "{cfg}", "--q", "{N}", "--word", "1:0,2:0"],
    "forward": ["--config", "{cfg}", "--matrix", "{N}"],
    "reconstruct": ["--config", "{cfg}", "--q", "{N}"],
    "cover-example": [],
}


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), help's SystemExit included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("exit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("name", VALID_ARGS)
def test_dispatch_matches_top_level_parse(capsys, monkeypatch, files, name):
    """main parses with the command's own parser; the top-level parser,
    which runs that same parser inside its own pass, is the reference."""
    from braidmono import cli

    assert set(VALID_ARGS) == set(cli._COMMANDS)
    cfg, N = files
    args = [a.format(cfg=cfg, N=N) for a in VALID_ARGS[name]]
    cases = [
        [name, *args],
        *([name, *args[:i], *args[i + 1:]] for i in range(len(args))),  # one token short
        [name, *args, "--nope"],
        [name, *args, "--mat", N],
        [name, *(a[:4] if a.startswith("--") and len(a) > 4 else a for a in args)],
        [name, "--m", "x", *args],
        [name, *args, "--m", "-" + "1" * 5000],
        [name, "--", *args],
        [name, *args, "extra"],
        [name, "--help"],
        [name, *args, "-h"],
        [name, "--he"],
        [],
        ["nope"],
        ["--help"],
        ["-h"],
        ["--he", name],
        ["--", name, *args],
    ]
    got = [outcome(capsys, argv) for argv in cases]
    monkeypatch.setattr(cli, "_parse", lambda argv: cli._parser().parse_args(argv))
    want = [outcome(capsys, argv) for argv in cases]
    for argv, g, w in zip(cases, got, want):
        assert g == w, argv
    assert got[0][0] == 0


def test_parser_is_built_on_first_use():
    # importing the CLI builds no parser: that cost is paid by the first call
    from braidmono import cli

    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import braidmono.cli as c; print(c._parser.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out == "0\n"


@pytest.mark.parametrize("argv, msg", [
    (["act", "--matrix", "{N}", "s9^0"], "sigma index 9 out of range 2..3"),
    (["pl-cocycle", "--m", "3", "s9^0 s2"], "sigma index 9 out of range 2..3"),
    (["rep", "burau", "--m", "3", "s7^0"], "sigma index 7 out of range 2..3"),
    (["magnus", "--m", "3", "e4^0"], "epsilon index 4 out of range 1..3"),
])
def test_zero_power_token_names_a_letter(capsys, files, argv, msg):
    _, N = files
    code, out, err = run(capsys, *(a.format(N=N) for a in argv))
    assert one_line_error(code, out, err), err
    assert err == f"error: {msg}\n"


# --- one number grammar ------------------------------------------------------

FAN7 = [["-3", "9"], ["-2", "4"], ["-1", "1"], ["0", "0"], ["1", "1"], ["2", "4"], ["7", "49"]]
FORWARD = ["forward", "--config", "cfg.json", "--matrix", "N.json"]
CHI = ["chi", "--config", "cfg.json", "--q", "N.json", "--word"]

# site: x -> (argv, config fields, matrix fields), with x in the place of one number
NUMBER_SITES = {
    "--m": lambda x: (["pl-cocycle", "--m", f"{x}", "s2"], {}, {}),
    "braid index": lambda x: (["pl-cocycle", "--m", "7", f"s{x}"], {}, {}),
    "braid power": lambda x: (["pl-cocycle", "--m", "3", f"s2^{x}"], {}, {}),
    "free-word index": lambda x: (["character", "--matrix", "N.json", "--g", f"g{x}"], {}, {}),
    "free-word power": lambda x: (["character", "--matrix", "N.json", "--g", f"g1^{x}"], {}, {}),
    "groupoid point": lambda x: ([*CHI, f"1:0,{x}:0"], {}, {}),
    "groupoid twist": lambda x: ([*CHI, f"1:0,2:{x},3:0"], {}, {}),
    "n_class": lambda x: (["act", "--matrix", "N.json", "s2"], {}, {"n_class": x}),
    "matrix entry": lambda x: (["act", "--matrix", "N.json", "s2"], {}, {"matrix": [[0, x], [-7, 0]]}),
    "coordinate": lambda x: (FORWARD, {"points": FAN7[:6] + [[x, "49"]]}, {}),
    "basepoint": lambda x: (FORWARD, {"basepoint": [x, "-2"]}, {}),
    "tangent": lambda x: (
        [*CHI, "1:0,2:0"], {"basepoint": None, "tangents": [[x, "-1"]] + [["0", "-1"]] * 6}, {}
    ),
}
TOKEN_SITES = ("braid index", "braid power", "free-word index", "free-word power")
REFUSED = r"bad token|is not an integer|not a rational number|has more than 4300 decimal digits"


def run_number_site(capsys, tmp_path, site, x):
    """The call of a site, run in tmp_path, so that messages name short paths."""
    argv, cfg, mat = NUMBER_SITES[site](x)
    cfg = {"n_class": 1, "points": FAN7, "basepoint": ["0", "-1"], **cfg}
    write(tmp_path, "cfg.json", {k: v for k, v in cfg.items() if v is not None})
    write(tmp_path, "N.json", {"n_class": 1, "matrix": [[0] * 7] * 7, **mat})
    return run(capsys, *argv)


@pytest.mark.parametrize("x", ["7", "+7", " 7 ", "1_0", "٣", "７", "0x10", "1" * 5000],
                         ids=["7", "+7", "spaced", "1_0", "arabic", "fullwidth", "0x10", "long"])
@pytest.mark.parametrize("site", NUMBER_SITES)
def test_one_number_grammar(capsys, tmp_path, monkeypatch, site, x):
    """Every number from argv or a file is read by one grammar, what int()
    reads less "_" separators and non-ASCII digits, and refused past the
    digit limit with one short line."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run_number_site(capsys, tmp_path, site, x)
    if x == "7" or x in ("+7", " 7 ") and site not in TOKEN_SITES:
        # read as the number 7: the JSON integer 7 in a file gives the same
        assert (code, out, err) == run_number_site(capsys, tmp_path, site, 7)
        assert not re.search(REFUSED, err), err
    else:
        assert one_line_error(code, out, err), err
        assert re.search(REFUSED, err) and len(err.encode()) < 200, err
