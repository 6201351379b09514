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
import sys
from fractions import Fraction
from typing import Any

from .model import (
    MixingMeasure,
    MomentVector,
    SampleMeanLaw,
    Value,
)


class InputFormatError(ValueError):
    """Malformed input file or value."""


def _any_size(convert, x):
    """``convert(x)``, retried once with CPython's int<->str digit limit
    (4300 by default) lifted when it raises ValueError; the limit is
    restored before returning.

    Exact reports at N in the thousands carry integers far past the limit.
    Only a failed conversion takes the retry, so short numbers pay nothing.
    """
    try:
        return convert(x)
    except ValueError:
        if not hasattr(sys, "set_int_max_str_digits"):  # no limit before 3.10.7
            raise
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return convert(x)
        finally:
            sys.set_int_max_str_digits(old)


def parse_value(x: Any) -> Value:
    """A JSON scalar as an exact or float value: int and "num/den" stay exact."""
    if isinstance(x, bool):
        raise InputFormatError(f"expected a number, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return x
    if isinstance(x, str):
        try:
            return _any_size(Fraction, x)
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
        return _any_size(_fraction_text, v)
    return float(v)


def _load_json(path: str) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc


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


def load_moments(path: str) -> MomentVector:
    doc = _load_json(path)
    if not isinstance(doc, dict) or "c" not in doc or not isinstance(doc["c"], list):
        raise InputFormatError(f"{path}: expected an object with a 'c' list")
    return MomentVector(tuple(parse_value(x) for x in doc["c"]))


def load_law(path: str) -> SampleMeanLaw:
    doc = _load_json(path)
    if not isinstance(doc, dict) or "q" not in doc or not isinstance(doc["q"], list):
        raise InputFormatError(f"{path}: expected an object with a 'q' list")
    q = [parse_value(x) for x in doc["q"]]
    if len(q) < 2:
        raise InputFormatError(f"{path}: law needs at least two weights")
    return SampleMeanLaw(N=len(q) - 1, weights=tuple(q))


def measure_to_doc(mu: MixingMeasure, level: int | None = None) -> dict:
    doc: dict[str, Any] = {
        "atoms": [{"p": format_value(p), "w": format_value(w)} for p, w in mu.atoms]
    }
    if level is not None:
        doc["level"] = level
    return doc
