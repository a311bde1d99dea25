"""JSON (de)serialization shared by the CLI: exact rationals as "p/q"
strings, integer matrices tagged with their parity class, configurations
with optional basepoint, and string rendering of ring-valued matrices.

A coordinate reads as an int when it is integral and as a Fraction only
when it is not (geometry._exact).  JSON booleans are refused, as is a
decimal string whose exponent passes sys.get_int_max_str_digits().
"""

from __future__ import annotations

import json
import sys
from decimal import Decimal

from .geometry import GeometryError, RationalPoint, _exact, validate_admissible
from .matrices import MonomialGammaMatrix, RingMatrix
from .monodromy import IntersectionMatrix, ParityClass, ParityError, validate_N
from .reconstruct import FanConfiguration, build_fan_config
from .words import _excerpt


class SerializeError(ValueError):
    pass


def parse_rational(s, source: str = ""):
    """An int or, when not integral, a Fraction from an int, an integral
    float or a "p/q" or decimal string (geometry._exact).  Booleans and
    other floats are refused.  Errors start with source, when given."""
    where = f"{source}: " if source else ""
    if isinstance(s, float) and not s.is_integer():
        raise SerializeError(
            f'{where}float {s!r} is not an integer, write it as a "p/q" string'
        )
    reason = "a boolean is not a number"
    if not isinstance(s, bool):
        try:
            return _exact(s)
        except ZeroDivisionError:
            reason = "zero denominator"
        except (ValueError, TypeError) as exc:
            # Fraction's own message may echo the whole token
            reason = "not a rational number" if repr(s) in str(exc) else str(exc)
    raise SerializeError(f"{where}bad rational {_excerpt(repr(s))}: {reason}")


def _too_many_digits(source: str) -> SerializeError:
    return SerializeError(
        f"{source}: an integer entry exceeds the interpreter's "
        f"{sys.get_int_max_str_digits()}-digit limit"
    )


def _read_json(path: str):
    def exact_float(token: str) -> float:
        # the binary value the token is read as must be the decimal written
        try:
            if Decimal(float(token)) == Decimal(token):
                return float(token)
        except ArithmeticError:  # an exponent past Decimal's range
            pass
        raise SerializeError(
            f'{path}: float {_excerpt(token)} is inexact, write it as a "p/q" string'
        )

    with open(path) as fh:
        try:
            return json.load(fh, parse_float=exact_float)
        except (json.JSONDecodeError, UnicodeDecodeError, SerializeError):
            raise
        except ValueError:
            # json raises a bare ValueError only from int() on an integer
            # literal past the interpreter's limit on decimal conversion
            raise _too_many_digits(path) from None


def _to_int(x, source: str) -> int:
    """An int from a JSON integer, an integral float or a decimal string."""
    if isinstance(x, float) and x.is_integer():
        x = int(x)
    if type(x) is int or isinstance(x, str):  # a bool is no integer
        try:
            return int(x)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            if limit and len(x.strip().lstrip("+-")) > limit:
                raise _too_many_digits(source) from None
    raise SerializeError(f"{source}: {_excerpt(repr(x))} is not an integer")


def _object(obj, what: str):
    """(source, JSON object) for a file path or an already parsed value."""
    source = what
    if isinstance(obj, str):
        source, obj = obj, _read_json(obj)
    if not isinstance(obj, dict):
        raise SerializeError(f"{source}: top-level JSON value must be an object")
    return source, obj


def _rows(obj: dict, key: str, source: str) -> list:
    """obj[key], checked to be a list of lists."""
    rows = obj[key]
    if not isinstance(rows, list) or not all(isinstance(r, (list, tuple)) for r in rows):
        raise SerializeError(f'{source}: "{key}" must be a list of lists')
    return rows


def _parse_point(item, source: str):
    if not isinstance(item, (list, tuple)) or len(item) != 2:
        raise SerializeError(
            f"{source}: point must be a [x, y] pair, got {_excerpt(repr(item))}"
        )
    return parse_rational(item[0], source), parse_rational(item[1], source)


def parse_parity(obj: dict, source: str) -> ParityClass:
    if "n_class" not in obj:
        raise SerializeError(f'{source}: missing "n_class" field')
    try:
        return ParityClass(_to_int(obj["n_class"], source))
    except ParityError as exc:
        raise SerializeError(f"{source}: {exc}") from None


def load_config(obj):
    """Parse a configuration object.

    With "basepoint" -> FanConfiguration (tangents are then forced toward
    the basepoint and must not also be given); with "tangents" ->
    AdmissibleConfig.  One of the two is required.  A GeometryError names
    the source.
    """
    source, obj = _object(obj, "config")
    parity = parse_parity(obj, source)
    if not obj.get("points"):
        raise SerializeError(f'{source}: missing or empty "points"')
    points = [RationalPoint(*_parse_point(p, source)) for p in _rows(obj, "points", source)]
    try:
        if "basepoint" in obj:
            if obj.get("tangents") is not None:
                raise SerializeError(f"{source}: give either basepoint or tangents, not both")
            z0 = RationalPoint(*_parse_point(obj["basepoint"], source))
            return build_fan_config(points, z0, parity)
        if "tangents" in obj:
            tans = [_parse_point(v, source) for v in _rows(obj, "tangents", source)]
            return validate_admissible(points, tans, parity)
    except GeometryError as exc:
        raise GeometryError(f"{source}: {exc}") from None
    raise SerializeError(f'{source}: config needs a "basepoint" or "tangents" field')


def require_fan(config, source: str = "config") -> FanConfiguration:
    if not isinstance(config, FanConfiguration):
        raise SerializeError(f'{source}: this command needs a config with a "basepoint"')
    return config


def load_int_matrix(obj, expect_parity: ParityClass | None = None) -> IntersectionMatrix:
    """Parse {"n_class": k, "matrix": [[int]]}, validating the parity laws;
    a fault names the source."""
    source, obj = _object(obj, "matrix")
    parity = parse_parity(obj, source)
    if expect_parity is not None and parity != expect_parity:
        raise SerializeError(
            f"{source}: n_class {parity.n_mod_4} != expected {expect_parity.n_mod_4}"
        )
    if "matrix" not in obj:
        raise SerializeError(f'{source}: missing "matrix" field')
    rows = [[_to_int(x, source) for x in r] for r in _rows(obj, "matrix", source)]
    try:
        return validate_N(parity, rows)
    except ParityError as exc:
        raise SerializeError(f"{source}: {exc}") from None


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
