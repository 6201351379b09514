"""JSON file formats and value serialization.

Measure files:  {"atoms": [{"p": <number or "num/den">, "w": ...}, ...]}
Moment files:   {"c": [<number or "num/den">, ...]}      (c[0] = 1)
Law files:      {"q": [<number or "num/den">, ...]}      (weights over 0..N)

Rational strings keep a pipeline exact end to end; plain JSON numbers put it
on the float path.  Exact values always serialize back as "num/den" strings
(plain integers without the "/1"), never as decimals.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any

from .model import (
    MixingMeasure,
    MomentVector,
    SampleMeanLaw,
    Value,
    any_size,
    integer_ratios,
)


class InputFormatError(ValueError):
    """Malformed input file or value."""


def parse_value(x: Any) -> Value:
    """A JSON scalar as an exact or float value: int and "num/den" stay exact.

    ``json`` reads NaN and Infinity; they are rejected here, so no measure,
    moment or law file can carry them into a report.
    """
    if isinstance(x, bool):
        raise InputFormatError(f"expected a number, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise InputFormatError(f"expected a finite number, got {x!r}")
        return x
    if isinstance(x, str):
        try:
            return any_size(Fraction, x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputFormatError(f"malformed rational string {x!r}") from exc
    raise InputFormatError(f"expected a number or 'num/den' string, got {x!r}")


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
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:   # e.g. an integer literal past the int/str digit limit
        raise InputFormatError(f"cannot parse {path}: {exc}") from exc


def load_measure(path: str) -> MixingMeasure:
    doc = _load_json(path)
    if not isinstance(doc, dict) or "atoms" not in doc:
        raise InputFormatError(f"{path}: expected an object with an 'atoms' list")
    pairs = []
    for entry in doc["atoms"]:
        if not isinstance(entry, dict) or "p" not in entry or "w" not in entry:
            raise InputFormatError(f"{path}: each atom needs 'p' and 'w'")
        pairs.append((parse_value(entry["p"]), parse_value(entry["w"])))
    return MixingMeasure.from_pairs(pairs)


def _entry(x: Any) -> tuple[int, int] | float:
    """A law weight or moment as (numerator, denominator), unreduced, or a
    float.

    Plain "n" and "n/d" strings are read with ``int()``, which skips the
    gcd ``Fraction`` would take; every other spelling goes through
    ``parse_value``.
    """
    if isinstance(x, str):
        num, slash, den = x.partition("/")
        digits = num[1:] if num.startswith("-") else num
        if digits.isdecimal() and (den.isdecimal() or not slash):
            d = any_size(int, den) if slash else 1
            if d == 0:
                raise InputFormatError(f"malformed rational string {x!r}")
            return any_size(int, num), d
    v = parse_value(x)
    return v if isinstance(v, float) else (v.numerator, v.denominator)


def _entries(path: str, key: str) -> list:
    """The ``key`` list of the JSON object in ``path``, read by ``_entry``."""
    doc = _load_json(path)
    if not isinstance(doc, dict) or key not in doc or not isinstance(doc[key], list):
        raise InputFormatError(f"{path}: expected an object with a '{key}' list")
    return [_entry(x) for x in doc[key]]


def load_moments(path: str) -> MomentVector:
    """A moment vector.  All-exact entries become integer numerators over
    the lcm of their denominators; any float among them makes a float
    vector."""
    c = _entries(path, "c")
    if any(isinstance(v, float) for v in c):
        return MomentVector(v if isinstance(v, float) else Fraction(*v) for v in c)
    return MomentVector.from_integer_ratios(*integer_ratios(c))


def load_law(path: str) -> SampleMeanLaw:
    """A count law.  All-exact weights become integer numerators over the
    lcm of their denominators, so validation sums integers; any float among
    them makes a float law."""
    q = _entries(path, "q")
    if len(q) < 2:
        raise InputFormatError(f"{path}: law needs at least two weights")
    if any(isinstance(v, float) for v in q):
        weights = (v if isinstance(v, float) else Fraction(*v) for v in q)
        return SampleMeanLaw(N=len(q) - 1, weights=tuple(weights))
    return SampleMeanLaw.from_integer_ratios(*integer_ratios(q))


def measure_to_doc(mu: MixingMeasure, level: int | None = None) -> dict:
    doc: dict[str, Any] = {
        "atoms": [{"p": format_value(p), "w": format_value(w)} for p, w in mu.atoms]
    }
    if level is not None:
        doc["level"] = level
    return doc
