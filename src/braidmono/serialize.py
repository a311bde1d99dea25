"""JSON (de)serialization shared by the CLI: exact rationals as "p/q"
strings, integer matrices tagged with their parity class, configurations
with optional basepoint, and string rendering of ring-valued matrices.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from .geometry import AdmissibleConfig, GeometryError, validate_admissible
from .groupring import LaurentElt, GroupRingElt, format_laurent, format_ring_elt
from .matrices import MonomialGammaMatrix, RingMatrix
from .monodromy import IntersectionMatrix, ParityClass, validate_N
from .reconstruct import FanConfiguration, build_fan_config


class SerializeError(ValueError):
    pass


def parse_rational(s) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise SerializeError(f"bad rational {s!r}: {exc}") from None


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
    try:
        return int(x)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        if limit and isinstance(x, str) and len(x.strip().lstrip("+-")) > limit:
            raise _too_many_digits(source) from None
        raise


def _parse_point(item):
    if not isinstance(item, (list, tuple)) or len(item) != 2:
        raise SerializeError(f"point must be a [x, y] pair, got {item!r}")
    return parse_rational(item[0]), parse_rational(item[1])


def parse_parity(obj) -> ParityClass:
    if "n_class" not in obj:
        raise SerializeError('missing "n_class" field')
    return ParityClass(int(obj["n_class"]))


def load_config(obj):
    """Parse a configuration object.

    With "basepoint" -> FanConfiguration (tangents are then forced toward
    the basepoint and must not also be given); with "tangents" ->
    AdmissibleConfig.  One of the two is required.
    """
    if isinstance(obj, str):
        obj = _read_json(obj)
    parity = parse_parity(obj)
    points = [_parse_point(p) for p in obj.get("points", [])]
    if not points:
        raise SerializeError('missing or empty "points"')
    if "basepoint" in obj:
        if obj.get("tangents") is not None:
            raise SerializeError("give either basepoint or tangents, not both")
        z0 = _parse_point(obj["basepoint"])
        return build_fan_config(points, z0, parity)
    if "tangents" in obj:
        tans = [_parse_point(v) for v in obj["tangents"]]
        return validate_admissible(points, tans, parity)
    raise SerializeError('config needs a "basepoint" or "tangents" field')


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
    source = "matrix"
    if isinstance(obj, str):
        source, obj = obj, _read_json(obj)
    parity = parse_parity(obj)
    if expect_parity is not None and parity != expect_parity:
        raise SerializeError(
            f"matrix n_class {parity.n_mod_4} != expected {expect_parity.n_mod_4}"
        )
    rows = obj.get("matrix")
    if not isinstance(rows, list):
        raise SerializeError('missing "matrix" field')
    return validate_N(parity, [[_to_int(x, source) for x in r] for r in rows])


def int_matrix_json(parity: ParityClass, rows) -> dict:
    return {"n_class": parity.n_mod_4, "matrix": [list(r) for r in rows]}


def _entry_str(e) -> str:
    if isinstance(e, LaurentElt):
        return format_laurent(e)
    if isinstance(e, GroupRingElt):
        return format_ring_elt(e)
    return str(e)


def ring_matrix_json(mat: RingMatrix) -> list:
    return [[_entry_str(e) for e in row] for row in mat.rows]


def monomial_json(mono: MonomialGammaMatrix) -> dict:
    return {
        "perm": list(mono.perm),
        "entries": [str(s) for s in mono.entries],
        "dense": ring_matrix_json(mono.to_dense()),
    }


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False)
