"""JSON (de)serialization shared by the CLI: exact rationals as "p/q"
strings, integer matrices tagged with their parity class, configurations
with optional basepoint, and string rendering of ring-valued matrices.

Every number written as a string, and every JSON integer past the digit
limit, is read by words.read_int or words.read_rational: one grammar and
one digit-limit refusal for files and argv alike.  A coordinate reads as an
int when it is integral and as a Fraction only when it is not.  JSON
booleans are refused, as is a float token whose binary value is not the
decimal written, and an object that repeats a key.
"""

from __future__ import annotations

import json
from decimal import Decimal

from .geometry import AdmissibleConfig, GeometryError, RationalPoint, _exact, validate_admissible
from .matrices import MonomialGammaMatrix, RingMatrix
from .monodromy import IntersectionMatrix, ParityClass, validate_N
from .reconstruct import build_fan_config
from .words import _excerpt, read_int


class SerializeError(ValueError):
    pass


def parse_rational(s):
    """An int or, when not integral, a Fraction from an int, an integral
    float or a "p/q" or decimal string (words.read_rational).  Booleans and
    other floats are refused."""
    if isinstance(s, float) and not s.is_integer():
        raise SerializeError(f'float {s!r} is not an integer, write it as a "p/q" string')
    reason = "a boolean is not a number"
    if not isinstance(s, bool):
        try:
            return _exact(s)
        except (ValueError, TypeError) as exc:
            reason = str(exc)
    raise SerializeError(f"bad rational {_excerpt(repr(s))}: {reason}")


def _exact_float(token: str) -> float:
    """A JSON float, refused unless the binary value it is read as is the
    decimal written."""
    try:
        if Decimal(float(token)) == Decimal(token):
            return float(token)
    except ArithmeticError:  # an exponent past Decimal's range
        pass
    raise SerializeError(f'float {_excerpt(token)} is inexact, write it as a "p/q" string')


def _unique_keys(pairs: list) -> dict:
    """A JSON object, refused when it repeats a key."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SerializeError(f"repeated key {_excerpt(repr(key))}")
            seen.add(key)
    return obj


# the one decoder every file goes through
_DECODER = json.JSONDecoder(parse_float=_exact_float, object_pairs_hook=_unique_keys)


def _read_json(path: str):
    """The JSON value in the file at path, read as UTF-8 with the line ends
    a text-mode read gives, so that fault positions count as json.load's."""
    with open(path, "rb", buffering=0) as fh:
        text = fh.read().decode("utf-8")
    if text.startswith("\ufeff"):  # json.load refuses it, a decoder alone would not
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return _DECODER.decode(text)
    except ValueError as exc:
        # json raises a bare ValueError only from int() on an integer literal
        # past the digit limit; decoding again up to it, read_int names it
        if type(exc) is ValueError:
            json.JSONDecoder(parse_int=read_int).decode(text)
        raise


def _load(obj, what: str, parse, *args):
    """parse(the JSON object obj, or the one in the file at the path obj,
    *args).  A fault met on the way names the path (what, for an object):
    a GeometryError stays one, others become SerializeErrors; OSErrors pass."""
    try:
        value = _read_json(obj) if isinstance(obj, str) else obj
        if not isinstance(value, dict):
            raise SerializeError("top-level JSON value must be an object")
        return parse(value, *args)
    except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        kind = GeometryError if isinstance(exc, GeometryError) else SerializeError
        raise kind(f"{obj if isinstance(obj, str) else what}: {exc}") from None


def _to_int(x) -> int:
    """An int from a JSON integer, an integral float or a decimal string."""
    if type(x) is int:  # a bool is no integer
        return x
    if isinstance(x, str):
        return read_int(x)
    if isinstance(x, float) and x.is_integer():
        return int(x)
    raise SerializeError(f"{_excerpt(repr(x))} is not an integer")


def _rows(obj: dict, key: str) -> list:
    """obj[key], checked to be a list of lists."""
    rows = obj[key]
    if not isinstance(rows, list) or not all(isinstance(r, (list, tuple)) for r in rows):
        raise SerializeError(f'"{key}" must be a list of lists')
    return rows


def _parse_point(item):
    if not isinstance(item, (list, tuple)) or len(item) != 2:
        raise SerializeError(f"point must be a [x, y] pair, got {_excerpt(repr(item))}")
    return parse_rational(item[0]), parse_rational(item[1])


def parse_parity(obj: dict) -> ParityClass:
    if "n_class" not in obj:
        raise SerializeError('missing "n_class" field')
    return ParityClass(_to_int(obj["n_class"]))


def load_config(obj):
    """Parse a configuration object, or the file at the path obj.

    With "basepoint" -> a fan, by build_fan_config (tangents are then forced
    toward the basepoint and must not also be given); with "tangents" -> a
    configuration with basepoint None.  One of the two is required.
    """
    return _load(obj, "config", _config)


def _config(obj: dict):
    parity = parse_parity(obj)
    if not obj.get("points"):
        raise SerializeError('missing or empty "points"')
    points = [RationalPoint(*_parse_point(p)) for p in _rows(obj, "points")]
    if "basepoint" in obj:
        if obj.get("tangents") is not None:
            raise SerializeError("give either basepoint or tangents, not both")
        z0 = RationalPoint(*_parse_point(obj["basepoint"]))
        return build_fan_config(points, z0, parity)
    if "tangents" in obj:
        tans = [_parse_point(v) for v in _rows(obj, "tangents")]
        return validate_admissible(points, tans, parity)
    raise SerializeError('config needs a "basepoint" or "tangents" field')


def require_fan(config: AdmissibleConfig, source: str = "config") -> AdmissibleConfig:
    if config.basepoint is None:
        raise SerializeError(f'{source}: this command needs a config with a "basepoint"')
    return config


def load_int_matrix(obj, config: AdmissibleConfig | None = None) -> IntersectionMatrix:
    """Parse {"n_class": k, "matrix": [[int]]}, or the file at the path obj,
    validating the parity laws and, given a configuration, that the matrix
    has its parity class and one row per point."""
    return _load(obj, "matrix", _int_matrix, config)


def _int_matrix(obj: dict, config: AdmissibleConfig | None) -> IntersectionMatrix:
    parity = parse_parity(obj)
    if config is not None and parity != config.parity:
        raise SerializeError(
            f"n_class {parity.n_mod_4}, the configuration's is {config.parity.n_mod_4}"
        )
    if "matrix" not in obj:
        raise SerializeError('missing "matrix" field')
    rows = _rows(obj, "matrix")
    if not rows:
        raise SerializeError('"matrix" is empty')
    N = validate_N(parity, [[_to_int(x) for x in r] for r in rows])
    if config is not None and N.m != config.m:
        raise SerializeError(f"matrix is {N.m}x{N.m}, the configuration has {config.m} points")
    return N


def int_matrix_json(parity: ParityClass, rows) -> dict:
    return {"n_class": parity.n_mod_4, "matrix": [list(r) for r in rows]}


def ring_matrix_json(mat: RingMatrix) -> list:
    return [[str(e) for e in row] for row in mat.rows]


def monomial_json(mono: MonomialGammaMatrix) -> dict:
    return {
        "perm": list(mono.perm),
        "entries": [str(s) for s in mono.entries],
        "dense": ring_matrix_json(mono.to_dense()),
    }


def dumps(obj) -> str:
    return json.dumps(obj)
