import json
import sys
from fractions import Fraction

import pytest

from braidmono import AdmissibleConfig
from braidmono.serialize import (
    SerializeError,
    _excerpt,
    int_matrix_json,
    load_config,
    load_int_matrix,
    monomial_json,
    parse_rational,
    require_fan,
    ring_matrix_json,
)
from braidmono import parse_braid, pl_cocycle, reduce_reps
from braidmono.cli import main


def test_rational_roundtrip():
    for s in ["3", "-5", "1/2", "-7/3", "0"]:
        assert str(parse_rational(s)) == s
    with pytest.raises(SerializeError):
        parse_rational("x")
    with pytest.raises(SerializeError):
        parse_rational("1/0")
    with pytest.raises(SerializeError):
        parse_rational([1])


def test_bad_rational_message_is_short():
    for token in ("1" * 4401, "x" * 5000):
        with pytest.raises(SerializeError) as exc:
            parse_rational(token)
        msg = str(exc.value)
        assert len(msg) < 200 and f"({len(token) + 2} chars)" in msg
        assert token[:40] not in msg


def test_json_floats(tmp_path):
    obj = {"n_class": 1, "points": [[-2, 4.1], [0, 5]], "basepoint": [0, -1]}
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(obj))
    with pytest.raises(SerializeError) as exc:
        load_config(str(f))
    assert str(exc.value) == f'{f}: float 4.1 is inexact, write it as a "p/q" string'
    # an exact float that is not an integer is refused too
    f.write_text(json.dumps(dict(obj, points=[[-2, 1.5], [0, 5]])))
    with pytest.raises(SerializeError) as exc:
        load_config(str(f))
    assert str(exc.value) == f'{f}: float 1.5 is not an integer, write it as a "p/q" string'
    # an integral float is exact
    obj["points"][0][1] = 4.0
    assert load_config(obj).points[0].y == 4
    # 1e23 reads as the float 99999999999999991611392 and 4.0000000000000001
    # as 4.0: both integral, so only the written token shows them inexact
    mat = tmp_path / "N.json"
    for token in ("1e23", "4.0000000000000001"):
        mat.write_text('{"n_class": 1, "matrix": [[0, ' + token + "], [-1, 0]]}")
        f.write_text(
            '{"n_class": 1, "points": [[-2, ' + token + '], [0, 5]], "basepoint": [0, -1]}'
        )
        for load, path in ((load_int_matrix, mat), (load_config, f)):
            with pytest.raises(SerializeError) as exc:
                load(str(path))
            assert str(exc.value) == (
                f'{path}: float {token} is inexact, write it as a "p/q" string'
            )
    # exact tokens read as before
    mat.write_text('{"n_class": 1, "matrix": [[0, 1e3], [-1000.0, 0]]}')
    assert load_int_matrix(str(mat)).n == ((0, 1000), (-1000, 0))
    f.write_text('{"n_class": 1, "points": [[-2, 4.0], [1e1, 5]], "basepoint": [0, -1]}')
    assert [p.x for p in load_config(str(f)).points] == [-2, 10]


def test_booleans_are_refused(tmp_path):
    """JSON true/false are not the numbers 1/0, in a point, in n_class or in
    a matrix entry; each exits with one line naming the file."""
    cfg = {"n_class": 1, "points": [["-2", "4"], ["0", "5"]], "basepoint": ["0", "-1"]}
    mat = {"n_class": 1, "matrix": [[0, 1], [-1, 0]]}
    f = tmp_path / "in.json"
    cases = [
        (load_config, dict(cfg, points=[[True, "4"], ["0", "5"]]), "bad rational True"),
        (load_config, dict(cfg, basepoint=["0", False]), "bad rational False"),
        (load_config, dict(cfg, n_class=True), "True is not an integer"),
        (load_int_matrix, dict(mat, matrix=[[0, True], [-1, 0]]), "True is not an integer"),
        (load_int_matrix, dict(mat, n_class=False), "False is not an integer"),
    ]
    for load, obj, what in cases:
        f.write_text(json.dumps(obj))
        with pytest.raises(SerializeError) as exc:
            load(str(f))
        msg = str(exc.value)
        assert msg.startswith(f"{f}: {what}") and "\n" not in msg
    with pytest.raises(SerializeError, match="a boolean is not a number"):
        parse_rational(True)


def test_huge_exponents_are_refused(tmp_path):
    """Fraction would compute 10**exponent, so an exponent standing for more
    zeros than the limit on integer digits is refused at once, with the
    digit-limit reason; one within it is read exactly."""
    limit = sys.get_int_max_str_digits()
    for token in ("1e50000000", "1e-50000000", f"2E+{limit + 1}", f"1e{limit}1"):
        with pytest.raises(SerializeError) as exc:
            parse_rational(token)
        assert str(exc.value) == (
            f"bad rational {_excerpt(repr(token))}: "
            f"{_excerpt(repr(token))} has more than {limit} decimal digits"
        )
    assert parse_rational(f"1e{limit}") == 10**limit
    assert parse_rational(f"3e-{limit}") == Fraction(3, 10**limit)
    assert parse_rational(" 2.5E10 ") == 25 * 10**9
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps({"n_class": 1, "points": [["1e50000000", "4"]], "basepoint": ["0", "-1"]}))
    with pytest.raises(SerializeError, match=f"^{f}: bad rational '1e50000000': '1e50000000' has"):
        load_config(str(f))


def test_exact_number_rule():
    """An integral token reads as an int; only a non-integral rational is a
    Fraction."""
    for token, want in [(3, 3), (-4.0, -4), ("7", 7), (" +1000 ", 1000), ("8/2", 4),
                        ("2.0", 2), ("1e3", 1000), ("-6/4", Fraction(-3, 2)),
                        ("0.25", Fraction(1, 4))]:
        got = parse_rational(token)
        assert got == want and type(got) is type(want), token
    # "_" separators and non-ASCII digits are no part of the number grammar
    for bad in ("1__0", "_1", "1_", "1_000", "1/2_0", "1e1_0", "٣", "７", "0x10", "", "inf", "nan"):
        with pytest.raises(SerializeError):
            parse_rational(bad)


def test_load_config_fan():
    obj = {
        "n_class": 1,
        "points": [["-2", "4"], ["0", "5"], ["2", "4"]],
        "basepoint": ["0", "-1"],
    }
    fan = load_config(obj)
    assert isinstance(fan, AdmissibleConfig) and require_fan(fan) is fan


def test_load_config_explicit_tangents():
    obj = {
        "n_class": 2,
        "points": [["0", "0"], ["2", "0"], ["1", "2"]],
        "tangents": [["-1", "-1"], ["1", "-1"], ["0", "1"]],
    }
    cfg = load_config(obj)
    assert isinstance(cfg, AdmissibleConfig)
    with pytest.raises(SerializeError):
        require_fan(cfg)


def test_load_config_refuses_basepoint_with_tangents():
    # a fan's tangents are forced toward its basepoint
    obj = {"n_class": 1, "points": [["0", "4"]], "basepoint": ["0", "-1"]}
    with pytest.raises(SerializeError) as exc:
        load_config(dict(obj, tangents=[["1", "1"]]))
    assert str(exc.value) == "config: give either basepoint or tangents, not both"
    assert load_config(dict(obj, tangents=None)).tangents == ((0, -5),)


def test_load_config_errors():
    with pytest.raises(SerializeError):
        load_config({"n_class": 0, "points": [["0", "0"]]})  # no basepoint/tangents
    with pytest.raises(SerializeError):
        load_config({"n_class": 0, "basepoint": ["0", "0"]})  # no points
    with pytest.raises(SerializeError):
        load_config(
            {
                "n_class": 0,
                "points": [["0", "1"]],
                "basepoint": ["0", "0"],
                "tangents": [["1", "0"]],
            }
        )


def test_int_matrix_roundtrip(tmp_path):
    obj = {"n_class": 1, "matrix": [[0, 2], [-2, 0]]}
    f = tmp_path / "N.json"
    f.write_text(json.dumps(obj))
    N = load_int_matrix(str(f))
    assert N.n == ((0, 2), (-2, 0))
    assert int_matrix_json(N.parity, N.rows()) == obj
    fan = {"n_class": 1, "points": [["-2", "4"], ["2", "4"]], "basepoint": ["0", "-1"]}
    assert load_int_matrix(str(f), load_config(fan)) == N
    # a matrix that does not fit the configuration names the matrix file
    for cfg, msg in [
        (dict(fan, n_class=0), "n_class 1, the configuration's is 0"),
        (dict(fan, points=[["-2", "4"], ["0", "5"], ["2", "4"]]),
         "matrix is 2x2, the configuration has 3 points"),
    ]:
        with pytest.raises(SerializeError) as exc:
            load_int_matrix(str(f), load_config(cfg))
        assert str(exc.value) == f"{f}: {msg}"


def test_ring_matrix_json_entries():
    mat = reduce_reps(parse_braid("s2", 2), "burau")
    assert ring_matrix_json(mat) == [["1 - t", "1"], ["t", "0"]]


def test_monomial_json():
    out = monomial_json(pl_cocycle(parse_braid("s2", 2)))
    assert out["perm"] == [2, 1]
    assert out["entries"] == ["g1'", "1"]
    assert out["dense"] == [["0", "1"], ["g1'", "0"]]


N_OK = b'{"n_class": 1, "matrix": [[0, 2], [-2, 0]]}'
LIMIT = sys.get_int_max_str_digits()

# fault: (bytes of a matrix file, the message after its path)
INGEST_FAULTS = {
    "utf-8 BOM": (
        b"\xef\xbb\xbf" + N_OK,
        "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)",
    ),
    "not UTF-8": (
        N_OK[:-1] + b', "x": "\xe9"}',
        "'utf-8' codec can't decode byte 0xe9 in position 50: invalid continuation byte",
    ),
    "inexact float": (
        b'{"n_class": 1, "matrix": [[0, 2.1], [-2.1, 0]]}',
        'float 2.1 is inexact, write it as a "p/q" string',
    ),
    "digit limit": (
        b'{"n_class": 1, "matrix": [[0, ' + b"1" * (LIMIT + 1) + b"], [-1, 0]]}",
        f"{_excerpt(repr('1' * (LIMIT + 1)))} has more than {LIMIT} decimal digits",
    ),
    "nesting": (
        b"[" * 100_000 + b"]" * 100_000,
        "maximum recursion depth exceeded while decoding a JSON array from a unicode string",
    ),
    # positions count a CRLF or CR line end as one character
    "CRLF line ends": (
        b'{"n_class": 1,\r\n "matrix": [[0, 2],\r [-2, 0,]]}',
        "Expecting value: line 3 column 9 (char 43)",
    ),
    "repeated key": (
        b'{"n_class": 1, "matrix": [[0]], "matrix": [[0, 2], [-2, 0]]}',
        "repeated key 'matrix'",
    ),
    "empty matrix": (b'{"n_class": 1, "matrix": []}', '"matrix" is empty'),
}


@pytest.mark.parametrize("fault", INGEST_FAULTS)
def test_ingest_faults_name_the_file(tmp_path, capsys, fault):
    """A fault met while reading a file exits 1 with one line naming it."""
    data, msg = INGEST_FAULTS[fault]
    if fault == "digit limit" and not LIMIT:
        pytest.skip("the interpreter has no limit on integer digits")
    f = tmp_path / "N.json"
    f.write_bytes(data)
    for argv in (["act", "--matrix", str(f), ""], ["character", "--matrix", str(f), "--g", ""]):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {f}: {msg}\n")


def test_repeated_key_names_the_config(tmp_path, capsys):
    """A config that gives n_class twice is refused, not read as the last
    one and then blamed on the matrix file."""
    cfg, mat = tmp_path / "cfg.json", tmp_path / "N.json"
    cfg.write_text(
        '{"n_class": 1, "points": [["-2", "4"], ["2", "4"]], "basepoint": ["0", "-1"],'
        ' "n_class": 2}'
    )
    mat.write_bytes(N_OK)
    assert main(["forward", "--config", str(cfg), "--matrix", str(mat)]) == 1
    assert capsys.readouterr() == ("", f"error: {cfg}: repeated key 'n_class'\n")
    cfg.write_text(cfg.read_text().replace(', "n_class": 2', ""))
    assert main(["forward", "--config", str(cfg), "--matrix", str(mat)]) == 0
