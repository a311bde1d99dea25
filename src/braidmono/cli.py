"""Command-line frontend.

Exit codes: 0 success, 1 input, usage or validation error, 2 internal invariant
violation (a bug in the library, not in the input).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .words import FreeWord, WordError, _excerpt, parse_braid, parse_word, read_int
from .cocycles import _REPS, magnus_cocycle, pl_cocycle, reduce_reps
from .monodromy import (
    ParityClass,
    character,
    cocycle_and_action,
    cover_example,
    mat_transpose,
    validate_N,
)
from .groupoid import chi_evaluate, parse_groupoid_word, validate_Q
from .reconstruct import forward_Q, reconstruct_N
from . import serialize as ser

MAX_STRANDS = 1024  # strands a word command accepts: it prints m x m matrices


def _ints(x, path=()):
    """(path, value) of each int in the JSON value x; a path lists the
    object keys and 1-based list indices that lead to its int."""
    if isinstance(x, int):
        yield path, x
    elif isinstance(x, (dict, list, tuple)):
        for k, v in x.items() if isinstance(x, dict) else enumerate(x, 1):
            yield from _ints(v, path + (k,))


def _emit(cmd: str, out) -> None:
    """Print out as JSON, or refuse the first int in it past the interpreter's
    limit on decimal conversion, named by its top-level key and list indices."""
    try:
        text = ser.dumps(out)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        bound = 10**limit if limit else None  # with no limit, no int is past it
        for path, v in _ints(out):
            if bound and abs(v) >= bound:
                rc = ",".join(str(k) for k in path if type(k) is int)
                where = f"{path[0]} entry ({rc})" if path else "value"
                raise ValueError(
                    f"{cmd}: {where} has more than {limit} decimal digits"
                ) from None
        raise
    print(text)


def _braid_arg(args):
    """The braid word of a word command; --m past MAX_STRANDS is refused first."""
    if args.m > MAX_STRANDS:
        raise ValueError(f"strand count {_excerpt(args.m)} is above {MAX_STRANDS}")
    return parse_braid(args.word, args.m)


def _cmd_pl_cocycle(args) -> dict:
    return ser.monomial_json(pl_cocycle(_braid_arg(args)))


def _cmd_magnus(args) -> dict:
    return {"matrix": ser.ring_matrix_json(magnus_cocycle(_braid_arg(args)))}


def _cmd_rep(args) -> dict:
    b, rep = _braid_arg(args), args.rep.replace("-", "_")
    return {"rep": args.rep, "matrix": ser.ring_matrix_json(reduce_reps(b, rep))}


def _cmd_act(args) -> dict:
    N = ser.load_int_matrix(args.matrix)
    b = parse_braid(args.word, N.m)
    limit = sys.get_int_max_str_digits()  # an entry past it could not be printed
    try:
        S, out = cocycle_and_action(b, N, (10**limit - 1).bit_length() if limit else None)
    except OverflowError as exc:
        raise ValueError(f"act: {exc}") from None
    return {"S": S, "N_out": ser.int_matrix_json(N.parity, out.n)}


def _cmd_character(args) -> dict:
    N = ser.load_int_matrix(args.matrix)
    g = parse_word(args.g, N.m)
    return {"matrix": character(N, g)}


def _cmd_chi(args) -> int:
    config = ser.load_config(args.config)
    Q = validate_Q(config, ser.load_int_matrix(args.q, config))
    return chi_evaluate(Q, parse_groupoid_word(args.word))


def _cmd_forward(args) -> dict:
    fan = ser.require_fan(ser.load_config(args.config), args.config)
    N = ser.load_int_matrix(args.matrix, fan)
    return ser.int_matrix_json(fan.parity, forward_Q(fan, N).q)


def _cmd_reconstruct(args) -> dict:
    fan = ser.require_fan(ser.load_config(args.config), args.config)
    Q = validate_Q(fan, ser.load_int_matrix(args.q, fan))
    return ser.int_matrix_json(fan.parity, reconstruct_N(Q).n)


def _cmd_cover_example(args) -> None:
    _, _, out = cover_example()
    for w, rows in out.items():
        print(f"N({w}):")
        for r in rows:
            print("  " + " ".join(f"{x:3d}" for x in r))
    # gluing (n = 0): N(1) - N(1) E_i N(1) is N(a) for i = 1, 3 and N(g2) for i = 2, 4
    N1 = validate_N(ParityClass(0), out["1"])
    for i, want in [(1, "a"), (3, "a"), (2, "g2"), (4, "g2")]:
        if character(N1, FreeWord.gen(4, i)) != out[want]:
            raise AssertionError(f"gluing identity failed at i = {i}")
    if mat_transpose(out["ab"]) != out["ba"]:
        raise AssertionError("transpose identity N(ba) = N(ab)^T failed")
    print("identities verified")


def _int(text: str) -> int:
    try:
        return read_int(text)
    except WordError as exc:  # argparse's own message would quote all of text
        raise argparse.ArgumentTypeError(str(exc)) from None


# each argument, declared once for every command that takes it
_ARGS = {
    "rep": dict(choices=[r.replace("_", "-") for r in _REPS]),
    "--m": dict(type=_int, required=True),
    "word": dict(help="braid word, e.g. \"s2 s3' e1^2\" (or \"\" for 1)"),
    "--matrix": dict(required=True, help="N as JSON file, its n_class included"),
    "--g": dict(required=True, help="free-group word, e.g. \"g1 g2'\""),
    "--config": dict(required=True),
    "--q": dict(required=True),
    "--word": dict(required=True, help='e.g. "1:0,3:2,2:-1" (target first)'),
}

# command -> (handler, help, its arguments in order)
_COMMANDS = {
    "pl-cocycle": (_cmd_pl_cocycle, "monomial path-change cocycle of a braid word",
                   ("--m", "word")),
    "magnus": (_cmd_magnus, "group-ring cocycle via free differential calculus",
               ("--m", "word")),
    "rep": (_cmd_rep, "Laurent matrix representation of a braid word",
            ("rep", "--m", "word")),
    "act": (_cmd_act, "integer cocycle S(sigma, N) and the action on N",
            ("--matrix", "word")),
    "character": (_cmd_character, "character matrix N rho_N(g)", ("--matrix", "--g")),
    "chi": (_cmd_chi, "evaluate the straight-line character on a path word",
            ("--config", "--q", "--word")),
    "forward": (_cmd_forward, "straight-line data Q of an intersection matrix",
                ("--config", "--matrix")),
    "reconstruct": (_cmd_reconstruct, "recover the intersection matrix from Q",
                    ("--config", "--q")),
    "cover-example": (_cmd_cover_example, "bundled 3-sheeted cover: print and verify", ()),
}


class _Parser(argparse.ArgumentParser):
    commands: dict  # on the top-level parser: command name -> its own parser

    def error(self, message):  # usage errors, subcommands' too, exit 1 in main
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> _Parser:
    """The top-level parser, holding each command's own parser in .commands.
    An option is matched only when spelled in full."""
    ap = _Parser(
        prog="braidmono",
        description="Exact braid-group cocycles, monodromy characters, and "
        "reconstruction of intersection matrices from straight-line data.",
        allow_abbrev=False,
    )
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, (fn, about, names) in _COMMANDS.items():
        p = sub.add_parser(name, help=about, allow_abbrev=False)
        for arg in names:
            p.add_argument(arg, **_ARGS[arg])
        p.set_defaults(fn=fn, cmd=name)
    ap.commands = sub.choices
    return ap


@functools.cache
def _parser() -> _Parser:
    """The parser, built on first use and shared by every later call."""
    return build_parser()


def _parse(argv: list) -> argparse.Namespace:
    """argv parsed in one pass: by its command's own parser when argv[0]
    names a command, else (no command, an unknown one, -h) by the top-level
    parser.  The top-level parser would run that same command parser inside
    its own pass, and refuse leftover arguments as this does."""
    top = _parser()
    cmd = top.commands.get(argv[0]) if argv else None
    if cmd is None:
        return top.parse_args(argv)
    args, extra = cmd.parse_known_args(argv[1:])
    if extra:  # reported as the top-level parser reports a command's leftovers
        top.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        out = args.fn(args)
        if out is not None:
            _emit(args.cmd, out)
        return 0
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
