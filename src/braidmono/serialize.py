"""JSON (de)serialization shared by the CLI: exact rationals as "p/q"
strings, integer matrices tagged with their parity class, configurations
with optional basepoint, and string rendering of ring-valued matrices.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from .geometry import AdmissibleConfig, GeometryError, validate_admissible
from .matrices import MonomialGammaMatrix, RingMatrix
from .monodromy import IntersectionMatrix, ParityClass, validate_N
from .reconstruct import FanConfiguration, build_fan_config


class SerializeError(ValueError):
    pass


def _excerpt(x) -> str:
    """repr(x), cut to a short prefix and its length when it is long."""
    r = repr(x)
    return r if len(r) <= 32 else f"{r[:24]}... ({len(r)} chars)"


def parse_rational(s, source: str = "") -> Fraction:
    """A rational from an int, an integral float or a "p/q" string.  Other
    floats are refused: their binary value is not the decimal written.
    Errors start with source, when given."""
    where = f"{source}: " if source else ""
    if isinstance(s, float) and not s.is_integer():
        raise SerializeError(f'{where}float {s!r} is inexact, write it as a "p/q" string')
    try:
        return Fraction(s)
    except ZeroDivisionError:
        reason = "zero denominator"
    except (ValueError, TypeError) as exc:
        # Fraction's own message may echo the whole token
        reason = "not a rational number" if repr(s) in str(exc) else str(exc)
    raise SerializeError(f"{where}bad rational {_excerpt(s)}: {reason}")


def rational_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _too_many_digits(source: str) -> SerializeError:
    return SerializeError(
        f"{source}: an integer entry exceeds the interpreter's "
        f"{sys.get_int_max_str_digits()}-digit limit"
    )


def _read_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise
        except ValueError:
            # json raises a bare ValueError only from int() on an integer
            # literal past the interpreter's limit on decimal conversion
            raise _too_many_digits(path) from None


def _to_int(x, source: str) -> int:
    """An int from a JSON integer, an integral float or a decimal string."""
    if isinstance(x, float) and x.is_integer():
        x = int(x)
    if isinstance(x, (int, str)):
        try:
            return int(x)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            if limit and isinstance(x, str) and len(x.strip().lstrip("+-")) > limit:
                raise _too_many_digits(source) from None
    raise SerializeError(f"{source}: {_excerpt(x)} is not an integer")


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
            f"{source}: point must be a [x, y] pair, got {_excerpt(item)}"
        )
    return parse_rational(item[0], source), parse_rational(item[1], source)


def parse_parity(obj: dict, source: str) -> ParityClass:
    if "n_class" not in obj:
        raise SerializeError(f'{source}: missing "n_class" field')
    return ParityClass(_to_int(obj["n_class"], source))


def load_config(obj):
    """Parse a configuration object.

    With "basepoint" -> FanConfiguration (tangents are then forced toward
    the basepoint and must not also be given); with "tangents" ->
    AdmissibleConfig.  One of the two is required.
    """
    source, obj = _object(obj, "config")
    parity = parse_parity(obj, source)
    if not obj.get("points"):
        raise SerializeError(f'{source}: missing or empty "points"')
    points = [_parse_point(p, source) for p in _rows(obj, "points", source)]
    if "basepoint" in obj:
        if obj.get("tangents") is not None:
            raise SerializeError(f"{source}: give either basepoint or tangents, not both")
        z0 = _parse_point(obj["basepoint"], source)
        return build_fan_config(points, z0, parity)
    if "tangents" in obj:
        tans = [_parse_point(v, source) for v in _rows(obj, "tangents", source)]
        return validate_admissible(points, tans, parity)
    raise SerializeError(f'{source}: config needs a "basepoint" or "tangents" field')


def require_fan(config) -> FanConfiguration:
    if not isinstance(config, FanConfiguration):
        raise SerializeError('this command needs a config with a "basepoint"')
    return config


def config_json(config) -> dict:
    if isinstance(config, FanConfiguration):
        cfg, extra = config.cfg, {
            "basepoint": [rational_str(config.z0.x), rational_str(config.z0.y)],
            "order": list(config.order),
        }
    else:
        cfg, extra = config, {
            "tangents": [[rational_str(a), rational_str(b)] for a, b in config.tangents]
        }
    return {
        "n_class": cfg.parity.n_mod_4,
        "points": [[rational_str(p.x), rational_str(p.y)] for p in cfg.points],
        **extra,
    }


def load_int_matrix(obj, expect_parity: ParityClass | None = None) -> IntersectionMatrix:
    """Parse {"n_class": k, "matrix": [[int]]}, validating the parity laws."""
    source, obj = _object(obj, "matrix")
    parity = parse_parity(obj, source)
    if expect_parity is not None and parity != expect_parity:
        raise SerializeError(
            f"{source}: n_class {parity.n_mod_4} != expected {expect_parity.n_mod_4}"
        )
    if "matrix" not in obj:
        raise SerializeError(f'{source}: missing "matrix" field')
    rows = _rows(obj, "matrix", source)
    return validate_N(parity, [[_to_int(x, source) for x in r] for r in rows])


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
    return json.dumps(obj, indent=2, sort_keys=False)
