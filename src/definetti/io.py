"""JSON file formats and value serialization.

Measure files:  {"atoms": [{"p": <number or "num/den">, "w": ...}, ...]}
Moment files:   {"c": [<number or "num/den">, ...]}      (c[0] = 1)
Law files:      {"q": [<number or "num/den">, ...]}      (weights over 0..N)

Each file is a JSON object whose "atoms", "c" or "q" holds a list; any
other shape is an input error (exit 2).  Every number is read by one
scalar parser, ``_entry``.  Rational strings keep a pipeline exact end to
end; plain JSON numbers put it on the float path.  Whether a moment vector
or count law is held exactly or as float64 is decided by ``model._Ratios``
alone.  Exact values always serialize back as "num/den" strings (plain
integers without the "/1"), never as decimals.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any

from .model import MixingMeasure, MomentVector, SampleMeanLaw, Value, any_size


class InputFormatError(ValueError):
    """Malformed input file or value."""


def _entry(x: Any) -> tuple[int, int] | float:
    """A JSON scalar as an unreduced (numerator, denominator) pair, or a
    finite float.

    ``json`` reads NaN and Infinity; they are rejected here, so no measure,
    moment or law file can carry them into a report.  Plain "n" and "n/d"
    strings are read with ``int()``, which skips the gcd ``Fraction`` would
    take; every other spelling goes through ``Fraction``.
    """
    if isinstance(x, str):
        num, slash, den = x.partition("/")
        digits = num[1:] if num.startswith("-") else num
        if digits.isdecimal() and (den.isdecimal() or not slash):
            d = any_size(int, den) if slash else 1
            if d == 0:
                raise InputFormatError(f"malformed rational string {x!r}")
            return any_size(int, num), d
        try:
            v = any_size(Fraction, x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputFormatError(f"malformed rational string {x!r}") from exc
        return v.numerator, v.denominator
    if isinstance(x, bool):
        raise InputFormatError(f"expected a number, got {x!r}")
    if isinstance(x, int):
        return x, 1
    if isinstance(x, float):
        if not math.isfinite(x):
            raise InputFormatError(f"expected a finite number, got {x!r}")
        return x
    raise InputFormatError(f"expected a number or 'num/den' string, got {x!r}")


def parse_value(x: Any) -> Value:
    """A JSON scalar as an exact or float value: int and "num/den" stay exact."""
    v = _entry(x)
    return v if isinstance(v, float) else Fraction(*v)


def _fraction_text(v: Fraction) -> str:
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def format_value(v: Value) -> Any:
    """JSON form of a value: Fractions as "num/den" (or "n"), floats as floats."""
    if isinstance(v, int):
        v = Fraction(v)
    if isinstance(v, Fraction):
        return any_size(_fraction_text, v)
    return float(v)


def _load_json(path: str) -> Any:
    try:
        # bytes decoded once: no text layer, no locale lookup; invalid UTF-8
        # is a ValueError, so it reads as "cannot parse"
        with open(path, "rb") as fh:
            return json.loads(fh.read().decode("utf-8"))
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:   # e.g. an integer literal past the int/str digit limit
        raise InputFormatError(f"cannot parse {path}: {exc}") from exc


def _entries(path: str, key: str) -> list:
    """The ``key`` list of the JSON object in ``path``."""
    doc = _load_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get(key), list):
        article = "an" if key == "atoms" else "a"
        raise InputFormatError(f"{path}: expected an object with {article} '{key}' list")
    return doc[key]


def load_measure(path: str) -> MixingMeasure:
    pairs = []
    for entry in _entries(path, "atoms"):
        if not isinstance(entry, dict) or "p" not in entry or "w" not in entry:
            raise InputFormatError(f"{path}: each atom needs 'p' and 'w'")
        pairs.append((parse_value(entry["p"]), parse_value(entry["w"])))
    return MixingMeasure.from_pairs(pairs)


def load_moments(path: str) -> MomentVector:
    return MomentVector._from_entries([_entry(x) for x in _entries(path, "c")])


def load_law(path: str) -> SampleMeanLaw:
    q = [_entry(x) for x in _entries(path, "q")]
    if len(q) < 2:
        raise InputFormatError(f"{path}: law needs at least two weights")
    return SampleMeanLaw._from_entries(q)


def measure_to_doc(mu: MixingMeasure, level: int | None = None) -> dict:
    doc: dict[str, Any] = {
        "atoms": [{"p": format_value(p), "w": format_value(w)} for p, w in mu.atoms]
    }
    if level is not None:
        doc["level"] = level
    return doc
