import json
from fractions import Fraction

import pytest

from braidmono import AdmissibleConfig, FanConfiguration, ParityClass
from braidmono.serialize import (
    SerializeError,
    config_json,
    int_matrix_json,
    load_config,
    load_int_matrix,
    monomial_json,
    parse_rational,
    rational_str,
    require_fan,
    ring_matrix_json,
)
from braidmono import parse_braid, pl_cocycle, reduce_reps


def test_rational_roundtrip():
    for s in ["3", "-5", "1/2", "-7/3", "0"]:
        assert rational_str(parse_rational(s)) == s
    assert rational_str(Fraction(4, 2)) == "2"
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
    # an integral float is exact
    obj["points"][0][1] = 4.0
    assert load_config(obj).cfg.points[0].y == 4


def test_load_config_fan():
    obj = {
        "n_class": 1,
        "points": [["-2", "4"], ["0", "5"], ["2", "4"]],
        "basepoint": ["0", "-1"],
    }
    fan = load_config(obj)
    assert isinstance(fan, FanConfiguration)
    out = config_json(fan)
    assert out["n_class"] == 1
    assert out["basepoint"] == ["0", "-1"]
    # roundtrip through json text
    fan2 = load_config(json.loads(json.dumps({k: v for k, v in out.items() if k != "order"})))
    assert fan2.cfg == fan.cfg


def test_load_config_explicit_tangents():
    obj = {
        "n_class": 2,
        "points": [["0", "0"], ["2", "0"], ["1", "2"]],
        "tangents": [["-1", "-1"], ["1", "-1"], ["0", "1"]],
    }
    cfg = load_config(obj)
    assert isinstance(cfg, AdmissibleConfig)
    assert load_config(config_json(cfg)) == cfg
    with pytest.raises(SerializeError):
        require_fan(cfg)


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
    with pytest.raises(SerializeError):
        load_int_matrix(obj, ParityClass(0))


def test_ring_matrix_json_entries():
    mat = reduce_reps(parse_braid("s2", 2), "burau")
    assert ring_matrix_json(mat) == [["1 - t", "1"], ["t", "0"]]


def test_monomial_json():
    out = monomial_json(pl_cocycle(parse_braid("s2", 2)))
    assert out["perm"] == [2, 1]
    assert out["entries"] == ["g1'", "1"]
    assert out["dense"] == [["0", "1"], ["g1'", "0"]]
