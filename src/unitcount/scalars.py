"""Exact scalar arithmetic over the rationals and the Gaussian rationals.

A value is stored as an integer triple (re, im, den) meaning (re + im*i)/den,
kept in a unique canonical form: den > 0 and gcd(re, im, den) == 1, with zero
represented as (0, 0, 1).  Canonical form makes equality and hashing agree
with value equality.  The counts key their histograms by ring integers
(`ElementSet.scaled_integers`).

The field tag is explicit ("Q" or "Qi") so that accidental mixing of a purely
rational computation with a Gaussian one is an error instead of a silent
promotion.
"""

from __future__ import annotations

import math
import re as _re
from dataclasses import MISSING, fields, is_dataclass
from decimal import Decimal, InvalidOperation

Q = "Q"
QI = "Qi"
FIELDS = (Q, QI)


# Longest whole number parse_whole builds; 1e(10^9) would exhaust memory.
_WHOLE_DIGITS = 4300


def parse_whole(value, what: str = "value") -> int:
    """The exact whole number written as integer text, decimal or scientific
    text ("2e8", "1.5e3"), or given as an int or a whole-valued float (a JSON
    number).  Anything else, booleans included, raises ValueError naming
    `what`; nothing is rounded."""
    if isinstance(value, bool):
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if not value.is_integer():
            raise ValueError(f"{what} must be a whole number, got {value!r}")
        return int(value)
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        number = Decimal(value)
    except InvalidOperation:
        raise ValueError(f"{what} must be a whole number, got {value!r}") from None
    if not number.is_finite() or number.adjusted() >= _WHOLE_DIGITS:
        raise ValueError(f"{what} must be a finite whole number, got {value!r}")
    if number != number.to_integral_value():
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    return int(number)


# str() and int() refuse ints past sys.get_int_max_str_digits() digits, a
# process-wide limit (4,300 by default, never below 640); decimal converts
# exactly at any length, so a longer int goes through it and no limit is set.
_SHORT_BITS = 2100  # 2^2100 < 10^633


def int_text(value: int) -> str:
    """The decimal text of an int of any length."""
    if value.bit_length() <= _SHORT_BITS:
        return str(value)
    return format(Decimal(value), "f")


def _text_int(digits: str) -> int:
    """The int of a decimal digit string of any length."""
    return int(digits) if len(digits) <= 640 else int(Decimal(digits))


def parse_list(value, what: str = "value"):
    """`value` when it is a JSON list (or a tuple), never a string read
    character by character; anything else raises ValueError naming `what`."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def _refuse_unknown_keys(obj: dict, known, what: str, error=ValueError) -> None:
    """Raise `error` naming the first key of `obj` (sorted) not in `known`."""
    unknown = sorted(set(obj).difference(known))
    if unknown:
        raise error(f"{what} has unknown key {unknown[0]!r}")


class FieldMismatchError(ValueError):
    """Raised when an operation combines scalars from different fields."""


class ScalarParseError(ValueError):
    """Raised when scalar text does not conform to the input grammar."""


def _check_field(field: str) -> str:
    if field not in FIELDS:
        raise ValueError(f"unknown field tag {field!r}; expected one of {FIELDS}")
    return field


class Scalar:
    """Immutable exact element of Q or Q(i) in canonical reduced form."""

    __slots__ = ("field", "re", "im", "den")

    def __init__(self, field: str, re: int, im: int = 0, den: int = 1):
        _check_field(field)
        if den == 0:
            raise ZeroDivisionError("scalar with zero denominator")
        if field == Q and im != 0:
            raise FieldMismatchError("imaginary part is not representable in field Q")
        if den < 0:
            re, im, den = -re, -im, -den
        g = math.gcd(math.gcd(re, im), den)
        if g > 1:
            re //= g
            im //= g
            den //= g
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Scalar is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def rational(num: int, den: int = 1, field: str = Q) -> "Scalar":
        return Scalar(field, num, 0, den)

    @staticmethod
    def gaussian(re: int, im: int, den: int = 1) -> "Scalar":
        return Scalar(QI, re, im, den)

    @staticmethod
    def zero(field: str = Q) -> "Scalar":
        return Scalar(field, 0)

    @staticmethod
    def one(field: str = Q) -> "Scalar":
        return Scalar(field, 1)

    @staticmethod
    def imaginary_unit() -> "Scalar":
        return Scalar(QI, 0, 1)

    # -- predicates and views -------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other: "Scalar") -> None:
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatchError(
                f"cannot combine field {self.field} with field {other.field}"
            )

    def __add__(self, other: "Scalar") -> "Scalar":
        self._coerce(other)
        a, b, d = self.re, self.im, self.den
        e, f, g = other.re, other.im, other.den
        return Scalar(self.field, a * g + e * d, b * g + f * d, d * g)

    def __sub__(self, other: "Scalar") -> "Scalar":
        self._coerce(other)
        a, b, d = self.re, self.im, self.den
        e, f, g = other.re, other.im, other.den
        return Scalar(self.field, a * g - e * d, b * g - f * d, d * g)

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._coerce(other)
        a, b, d = self.re, self.im, self.den
        e, f, g = other.re, other.im, other.den
        return Scalar(self.field, a * e - b * f, a * f + b * e, d * g)

    def __neg__(self) -> "Scalar":
        return Scalar(self.field, -self.re, -self.im, self.den)

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        a, b, d = self.re, self.im, self.den
        n = a * a + b * b
        return Scalar(self.field, d * a, -d * b, n)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        self._coerce(other)
        return self * other.inverse()

    # No count calls this; perfbench/spans.py looks the name up to count it.
    def square(self) -> "Scalar":
        return self * self

    def __pow__(self, exponent: int) -> "Scalar":
        if not isinstance(exponent, int):
            raise TypeError("exponent must be an integer")
        base = self
        if exponent < 0:
            base = self.inverse()
            exponent = -exponent
        result = Scalar.one(self.field)
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- equality and hashing ---------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return (
            self.field == other.field
            and self.re == other.re
            and self.im == other.im
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.field, self.re, self.im, self.den))

    # -- encoding ----------------------------------------------------------

    def text(self) -> str:
        """Render in the grammar accepted by `parse_scalar` (round-trips)."""
        return scalar_text(self.re, self.im, self.den)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Scalar({self.text()!r}, {self.field!r})"


def scalar_text(re: int, im: int, den: int) -> str:
    """The text of (re + im*i)/den, den > 0, in lowest terms, each int
    written by `int_text`."""
    g = math.gcd(re, im, den)
    re, im, den = re // g, im // g, den // g
    if im == 0:
        body = int_text(re)
    elif re == 0:
        body = "i" if im == 1 else "-i" if im == -1 else f"{int_text(im)}*i"
    else:
        sign = "+" if im > 0 else "-"
        tail = "i" if abs(im) == 1 else f"{int_text(abs(im))}*i"
        body = f"({int_text(re)}{sign}{tail})"
    return body if den == 1 else f"{body}/{int_text(den)}"


def _json_form(value):
    """JSON of a field value: a Scalar's text, a tuple as a list and a
    dataclass as the object of its fields, each read the same way."""
    if isinstance(value, Scalar):
        return value.text()
    if isinstance(value, tuple):
        return [_json_form(item) for item in value]
    if is_dataclass(value):
        return {f.name: _json_form(getattr(value, f.name)) for f in fields(value)}
    return value


def _read_whole(value, what: str, field: str) -> int:
    return parse_whole(value, what)


def _read_bool(value, what: str, field: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{what} must be a boolean, got {value!r}")
    return value


def _read_scalar(value, what: str, field: str) -> Scalar:
    return parse_scalar(value, field)


def _read_range(value, what: str, field: str) -> tuple[int, int]:
    lo, hi = parse_list(value, "a range")
    return parse_whole(lo, "range end"), parse_whole(hi, "range end")


def _read_tuple(read):
    return lambda value, what, field: tuple(read(v, what, field) for v in parse_list(value, what))


# The reader of each field annotation that a dataclass read from JSON
# declares, called as read(value, key, field).  The annotations are text:
# every module here has `from __future__ import annotations`.
_READERS = {
    "int": _read_whole,
    "bool": _read_bool,
    "Scalar": _read_scalar,
    "tuple[int, ...]": _read_tuple(_read_whole),
    "tuple[Scalar, ...]": _read_tuple(_read_scalar),
    "tuple[tuple[int, int], ...]": _read_tuple(_read_range),
}


def _read_fields(cls, obj: dict, field: str) -> dict:
    """The fields of the dataclass `cls` read from the JSON object `obj`,
    scalars in `field`: the inverse of `_json_form`.  A field that `obj`
    leaves out is read from its default's JSON form, or raises KeyError
    when it has none; keys that are not fields are not read."""
    out = {}
    for f in fields(cls):
        if f.name in obj:
            value = obj[f.name]
        elif f.default is not MISSING:
            value = _json_form(f.default)
        else:
            raise KeyError(f.name)
        out[f.name] = _READERS[f.type](value, f.name, field)
    return out


# -- parsing ----------------------------------------------------------------
#
# Grammar (whitespace insignificant):
#   expr   := term (('+' | '-') term)*
#   term   := unary (('*' | '/') unary)*
#   unary  := ('-' | '+') unary | power
#   power  := atom ('^' signed_int)?
#   atom   := INT | 'i' | '(' expr ')'
#
# Unary minus binds looser than '^', so "-2^5" is -(2^5).

_TOKEN = _re.compile(r"\s*(?:(\d+)|([i+\-*/^()]))")


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ScalarParseError(f"unexpected character {rest[0]!r} in {text!r}")
        tokens.append(match.group(1) or match.group(2))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str], field: str, source: str):
        self.tokens = tokens
        self.field = field
        self.source = source
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise ScalarParseError(f"unexpected end of input in {self.source!r}")
        self.pos += 1
        return token

    def parse(self) -> Scalar:
        value = self.expr()
        if self.peek() is not None:
            raise ScalarParseError(
                f"trailing input {self.peek()!r} in {self.source!r}"
            )
        return value

    def expr(self) -> Scalar:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Scalar:
        value = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.unary()
            if op == "*":
                value = value * rhs
            else:
                if rhs.is_zero():
                    raise ScalarParseError(f"division by zero in {self.source!r}")
                value = value / rhs
        return value

    def unary(self) -> Scalar:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        value = self.power()
        return -value if sign < 0 else value

    def power(self) -> Scalar:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            exponent = self.signed_int()
            if exponent < 0 and base.is_zero():
                raise ScalarParseError(f"zero raised to {exponent} in {self.source!r}")
            base = base**exponent
        return base

    def signed_int(self) -> int:
        sign = 1
        if self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -1
        token = self.take()
        if not token.isdigit():
            raise ScalarParseError(
                f"expected integer exponent, got {token!r} in {self.source!r}"
            )
        return sign * int(token)

    def atom(self) -> Scalar:
        token = self.take()
        if token.isdigit():
            return Scalar.rational(_text_int(token), 1, self.field)
        if token == "i":
            if self.field != QI:
                raise ScalarParseError(
                    f"imaginary unit used in field {self.field} in {self.source!r}"
                )
            return Scalar.imaginary_unit()
        if token == "(":
            value = self.expr()
            if self.take() != ")":
                raise ScalarParseError(f"unbalanced parentheses in {self.source!r}")
            return value
        raise ScalarParseError(f"unexpected token {token!r} in {self.source!r}")


def parse_scalar(text: str, field: str = Q) -> Scalar:
    """Parse scalar text (integers, fractions, powers, products, i) exactly."""
    _check_field(field)
    if not isinstance(text, str):
        raise ScalarParseError(f"expected string, got {type(text).__name__}")
    tokens = _tokenize(text)
    if not tokens:
        raise ScalarParseError("empty scalar text")
    return _Parser(tokens, field, text).parse()

