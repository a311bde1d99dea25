import json

import pytest

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
    code, out, _ = run(capsys, "act", "--n-class", "1", "--matrix", N, "s2")
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


def test_act_parity_mismatch(capsys, files):
    _, N = files
    code, _, err = run(capsys, "act", "--n-class", "0", "--matrix", N, "s2")
    assert code == 1


def test_outputs_past_digit_limit(capsys, files):
    # entries of the action grow doubly exponentially in the braid length:
    # (s2 s3')^11 still prints, (s2 s3')^12 passes 4300 decimal digits
    _, N = files
    code, _, _ = run(capsys, "act", "--n-class", "1", "--matrix", N, "s2 s3' " * 11)
    assert code == 0
    code, out, err = run(capsys, "act", "--n-class", "1", "--matrix", N, "s2 s3' " * 12)
    assert code == 1 and out == ""
    assert err == "error: act: S entry (1,3) has more than 4300 decimal digits\n"
    # characters grow exponentially in the word length
    code, out, err = run(capsys, "character", "--n-class", "1", "--matrix", N,
                         "--g", "g2 g3' " * 4200)
    assert code == 1 and out == ""
    assert err == "error: character: matrix entry (1,1) has more than 4300 decimal digits\n"


def test_character_cmd(capsys, files):
    _, N = files
    code, out, _ = run(capsys, "character", "--n-class", "1", "--matrix", N, "--g", "1")
    assert code == 0
    assert json.loads(out)["matrix"] == [[0, 2, -1], [-2, 0, 3], [1, -3, 0]]


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
    from braidmono.serialize import config_json, load_config

    cfg, N = files
    code, out, _ = run(capsys, "forward", "--config", cfg, "--matrix", N)
    q = write(tmp_path, "Q.json", json.loads(out))
    tangents = write(tmp_path, "tan.json", config_json(load_config(cfg).cfg))
    for word in ("1:0,2:0", "3:1,1:-2,2:0"):
        via_fan = run(capsys, "chi", "--config", cfg, "--q", q, "--word", word)
        assert via_fan[0] == 0
        assert run(capsys, "chi", "--config", tangents, "--q", q, "--word", word) == via_fan


def test_matrix_entry_past_digit_limit(capsys, tmp_path):
    big = tmp_path / "big.json"
    for entry in ("1" * 4401, '"' + "1" * 4401 + '"'):  # a JSON number or a string
        big.write_text('{"n_class": 1, "matrix": [[0, ' + entry + "], [-1, 0]]}")
        code, out, err = run(capsys, "act", "--n-class", "1", "--matrix", str(big), "s2")
        assert code == 1 and out == ""
        assert err == (
            f"error: {big}: an integer entry exceeds the interpreter's 4300-digit limit\n"
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


def test_parser_is_shared_between_calls(capsys):
    from braidmono import cli

    assert cli._parser() is cli._parser()
    first = run(capsys, "rep", "burau", "--m", "2", "s2")
    with pytest.raises(SystemExit) as exc:
        main(["rep", "no-such-rep", "--m", "2", "s2"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
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
    "act --n-class 1 --matrix {ragged} s2",
    "act --n-class 1 --matrix {scalar} s2",
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


def test_non_integer_matrix_entries(capsys, tmp_path):
    for entry in (1.5, [1], None, "x"):
        bad = write(tmp_path, "bad.json", {"n_class": 1, "matrix": [[0, entry], [-1, 0]]})
        code, out, err = run(capsys, "act", "--n-class", "1", "--matrix", bad, "s2")
        assert one_line_error(code, out, err), err
        assert err.startswith(f"error: {bad}: ")


def test_long_bad_token_is_cut(capsys, tmp_path):
    cfg = write(tmp_path, "cfg.json", {
        "n_class": 1, "points": [["-2", "4"], ["0", "5"]],
        "basepoint": ["1" * 4401, "-1"],
    })
    N = write(tmp_path, "N.json", {"n_class": 1, "matrix": [[0, 1], [-1, 0]]})
    code, out, err = run(capsys, "forward", "--config", cfg, "--matrix", N)
    assert one_line_error(code, out, err)
    assert len(err) < 300 and "(4403 chars)" in err


def test_chi_deep_twist_is_one_line(capsys, tmp_path, files):
    cfg, N = files
    code, out, _ = run(capsys, "forward", "--config", cfg, "--matrix", N)
    q = write(tmp_path, "Q.json", json.loads(out))
    code, out, err = run(capsys, "chi", "--config", cfg, "--q", q, "--word", "1:0,2:500,3:0")
    assert one_line_error(code, out, err), err
    assert "point 2" in err
