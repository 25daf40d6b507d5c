"""Construction of the finite element sets the counting code runs over.

An ElementSet is an ordered collection of distinct nonzero scalars from one
field.  Sets are either given explicitly or materialized from a parametric
family; families are what the growth experiments scale along the size knob.
"""

from __future__ import annotations

import json
import math
import operator
import random
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate, chain
from pathlib import Path

from .scalars import Q, QI, Scalar, parse_scalar, parse_whole


class FamilyError(ValueError):
    """Raised for ill-formed family parameters or empty materializations."""


@dataclass(frozen=True)
class Geometric:
    """Powers base^s for start <= s <= stop."""

    base: Scalar
    start: int
    stop: int


@dataclass(frozen=True)
class SignedGeometric:
    """Both signs of base^s for 0 <= s < count."""

    base: Scalar
    count: int


@dataclass(frozen=True)
class GaussianUnitsScaled:
    """Each scale multiplied by the four Gaussian units 1, -1, i, -i."""

    scales: tuple[Scalar, ...]


@dataclass(frozen=True)
class LatticeBox:
    """Seeded sample of products gen_j^{e_j} with e_j drawn from integer ranges."""

    generators: tuple[Scalar, ...]
    ranges: tuple[tuple[int, int], ...]
    sample_size: int
    seed: int


@dataclass(frozen=True)
class Explicit:
    elements: tuple[Scalar, ...]


FamilySpec = Geometric | SignedGeometric | GaussianUnitsScaled | LatticeBox | Explicit


class ElementSet:
    """Ordered, duplicate-free, zero-free set of scalars from a single field.

    Construction is strict: duplicates or zeros are errors here.  Family
    materialization deduplicates before constructing and reports how many
    collisions it absorbed.  `first_indices[j]` is the index of element j's
    first occurrence among the values the set was deduplicated from (j
    itself for a set given explicitly); `prefix` reads it.
    """

    __slots__ = ("field", "elements", "collisions", "first_indices", "_scaled")

    def __init__(
        self,
        elements: tuple[Scalar, ...] | list[Scalar],
        collisions: int = 0,
        first_indices: tuple[int, ...] | None = None,
    ):
        elements = tuple(elements)
        if not elements:
            raise FamilyError("element set is empty")
        for value in elements:
            if not isinstance(value, Scalar):
                raise TypeError(f"expected Scalar, got {type(value).__name__}")
        field = elements[0].field
        positions: dict[Scalar, int] = {}
        for pos, value in enumerate(elements):
            if value.field != field:
                raise FamilyError("element set mixes fields")
            if value.is_zero():
                raise FamilyError("element set contains zero")
            if positions.setdefault(value, pos) != pos:
                raise FamilyError(f"duplicate element {value}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "collisions", collisions)
        if first_indices is None:
            first_indices = tuple(range(len(elements)))
        object.__setattr__(self, "first_indices", first_indices)
        object.__setattr__(self, "_scaled", None)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("ElementSet is immutable")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, index: int) -> Scalar:
        return self.elements[index]

    def prefix(self, raw_length: int) -> "ElementSet":
        """The set deduplicated from the first `raw_length` of the values
        this set was deduplicated from: the elements first seen before that
        index, in order, with the collisions among those values.  Its
        elements were checked when this set was built, and its scaled
        integers are this set's, rescaled to its own denominator."""
        if not 1 <= raw_length <= len(self) + self.collisions:
            raise FamilyError(
                f"prefix of {raw_length} values out of {len(self) + self.collisions}"
            )
        size = bisect_left(self.first_indices, raw_length)
        lcm, values, _ = self.scaled_integers()
        values = values[:size]
        # The prefix's denominator is lcm / g, g the gcd of lcm and every
        # scaled coordinate, as each reduced element x = v / lcm needs
        # lcm / gcd(lcm, coordinates of v).
        if self.field == Q:
            shrink = math.gcd(lcm, *values)
            if shrink > 1:
                values = [v // shrink for v in values]
        else:
            shrink = math.gcd(lcm, *chain.from_iterable(values))
            if shrink > 1:
                values = [(a // shrink, b // shrink) for a, b in values]
        prefix = object.__new__(ElementSet)
        for name, value in (
            ("field", self.field),
            ("elements", self.elements[:size]),
            ("collisions", raw_length - size),
            ("first_indices", self.first_indices[:size]),
            ("_scaled", (lcm // shrink, values, _magnitude(self.field, values))),
        ):
            object.__setattr__(prefix, name, value)
        return prefix

    def scaled_integers(self) -> tuple[int, list, int]:
        """Clear denominators: (L, scaled values, max magnitude).

        L is the lcm of all denominators.  For field Q the scaled values are
        ints x*L; for field Qi they are (re, im) int pairs.  The max magnitude
        bounds every scaled component and feeds kernel overflow preflight.
        """
        cached = self._scaled
        if cached is not None:
            return cached
        lcm = math.lcm(*(value.den for value in self.elements))
        if self.field == Q:
            scaled = [value.re * (lcm // value.den) for value in self.elements]
        else:
            scaled = [
                (value.re * (lcm // value.den), value.im * (lcm // value.den))
                for value in self.elements
            ]
        result = (lcm, scaled, _magnitude(self.field, scaled))
        object.__setattr__(self, "_scaled", result)
        return result

    def __repr__(self) -> str:
        shown = ", ".join(v.text() for v in self.elements[:6])
        if len(self.elements) > 6:
            shown += ", ..."
        return f"ElementSet({self.field}, [{shown}], size={len(self)})"


def _magnitude(field: str, scaled: list) -> int:
    """The largest magnitude of a component of the scaled values."""
    if field == Q:
        return max(map(abs, scaled))
    return max(max(abs(a), abs(b)) for a, b in scaled)


def _powers(base: Scalar, start: int, count: int) -> list[Scalar]:
    """base^start, ..., base^(start+count-1), each power one product from
    the one before."""
    if count < 1:
        return []
    return list(accumulate([base] * (count - 1), operator.mul, initial=base**start))


def _power_table(base: Scalar, exponents) -> dict[int, Scalar]:
    """base^e for each e in `exponents`, walked in increasing order so that
    each power is the one before times base^gap (one product for gap 1)."""
    table: dict[int, Scalar] = {}
    power = previous = None
    for e in sorted(set(exponents)):
        if power is None:
            power = base**e
        elif e - previous == 1:
            power = power * base
        else:
            power = power * base ** (e - previous)
        table[e] = power
        previous = e
    return table


def _walk(spec: FamilySpec) -> list[Scalar]:
    """The values a family describes, in order, duplicates included."""
    if isinstance(spec, Geometric):
        if spec.base.is_zero():
            raise FamilyError("geometric family with zero base")
        values = _powers(spec.base, spec.start, spec.stop - spec.start + 1)
    elif isinstance(spec, SignedGeometric):
        if spec.base.is_zero():
            raise FamilyError("signed geometric family with zero base")
        if spec.count < 1:
            raise FamilyError("signed geometric family needs count >= 1")
        values = []
        for power in _powers(spec.base, 0, spec.count):
            values.append(power)
            values.append(-power)
    elif isinstance(spec, GaussianUnitsScaled):
        one = Scalar.one(QI)
        i_unit = Scalar.imaginary_unit()
        values = []
        for scale in spec.scales:
            if scale.field != QI:
                raise FamilyError("unit-scaled family requires Qi scales")
            if scale.is_zero():
                raise FamilyError("unit-scaled family with zero scale")
            values.extend([scale, -scale, i_unit * scale, -(i_unit * scale)])
    elif isinstance(spec, LatticeBox):
        if len(spec.generators) != len(spec.ranges):
            raise FamilyError("lattice box needs one range per generator")
        if not spec.generators:
            raise FamilyError("lattice box needs at least one generator")
        for gen in spec.generators:
            if gen.is_zero():
                raise FamilyError("lattice box with zero generator")
        for lo, hi in spec.ranges:
            if lo > hi:
                raise FamilyError(f"empty exponent range ({lo}, {hi})")
        if spec.sample_size < 1:
            raise FamilyError("lattice box needs sample_size >= 1")
        rng = random.Random(spec.seed)
        field = spec.generators[0].field
        draws = [
            [rng.randint(lo, hi) for lo, hi in spec.ranges]
            for _ in range(spec.sample_size)
        ]
        tables = [
            _power_table(gen, column) for gen, column in zip(spec.generators, zip(*draws))
        ]
        values = []
        for exponents in draws:
            value = Scalar.one(field)
            for table, e in zip(tables, exponents):
                value = value * table[e]
            values.append(value)
    elif isinstance(spec, Explicit):
        values = list(spec.elements)
    else:
        raise TypeError(f"unknown family spec {type(spec).__name__}")

    return values


def materialize(spec: FamilySpec) -> ElementSet:
    """Build the element set a family describes, deduplicating silently and
    keeping each element's first index in the walk, so that
    `prefix(r)` is the set of the walk's first r values."""
    values = _walk(spec)
    first_indices: dict[Scalar, int] = {}
    for index, value in enumerate(values):
        first_indices.setdefault(value, index)
    if not first_indices:
        raise FamilyError("family materialized to an empty set")
    return ElementSet(
        tuple(first_indices),
        len(values) - len(first_indices),
        tuple(first_indices.values()),
    )


def tight_equation_coeffs(n: int) -> tuple[Scalar, ...]:
    """Coefficient vector whose homogeneous solution count meets the
    general upper bound's growth order.

    Even n = 2k: k ones then k minus-ones, so any pairing x_i = x_{k+i}
    solves.  Odd n = 2k+1: k-1 ones, k+1 minus-ones, and a final 2.
    """
    if n < 2:
        raise ValueError("need at least two coefficients")
    one = Scalar.one(Q)
    if n % 2 == 0:
        k = n // 2
        return tuple([one] * k + [-one] * k)
    k = n // 2
    return tuple([one] * (k - 1) + [-one] * (k + 1) + [Scalar.rational(2)])


# -- JSON forms ---------------------------------------------------------------


@contextmanager
def _reading(variant):
    """Turn a missing key or a malformed value of a family object into a
    FamilyError."""
    try:
        yield
    except FamilyError:
        raise
    except KeyError as exc:
        raise FamilyError(f"family variant {variant!r} missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise FamilyError(f"family variant {variant!r}: {exc}") from exc


def _listed(value, what: str):
    """A JSON list (a tuple in a template), never a string read char by char."""
    if not isinstance(value, (list, tuple)):
        raise FamilyError(f"{what} must be a list, got {value!r}")
    return value


def _range(value) -> tuple[int, int]:
    lo, hi = _listed(value, "a range")
    return parse_whole(lo, "range end"), parse_whole(hi, "range end")


def family_from_json(obj: dict) -> FamilySpec:
    if not isinstance(obj, dict) or "variant" not in obj:
        raise FamilyError("family object needs a 'variant' key")
    variant = obj["variant"]
    field = obj.get("field", Q)
    with _reading(variant):
        if variant == "geometric":
            return Geometric(
                base=parse_scalar(obj["base"], field),
                start=parse_whole(obj["start"], "start"),
                stop=parse_whole(obj["stop"], "stop"),
            )
        if variant == "signed_geometric":
            return SignedGeometric(
                base=parse_scalar(obj["base"], field),
                count=parse_whole(obj["count"], "count"),
            )
        if variant == "gaussian_units_scaled":
            return GaussianUnitsScaled(
                scales=tuple(
                    parse_scalar(s, QI) for s in _listed(obj["scales"], "scales")
                )
            )
        if variant == "lattice_box":
            return LatticeBox(
                generators=tuple(
                    parse_scalar(g, field)
                    for g in _listed(obj["generators"], "generators")
                ),
                ranges=tuple(_range(r) for r in _listed(obj["ranges"], "ranges")),
                sample_size=parse_whole(obj["sample_size"], "sample_size"),
                seed=parse_whole(obj["seed"], "seed"),
            )
        if variant == "explicit":
            return Explicit(
                elements=tuple(
                    parse_scalar(e, field) for e in _listed(obj["elements"], "elements")
                )
            )
    raise FamilyError(f"unknown family variant {variant!r}")


# A growth template is a family object without its size field; the keys each
# variant keeps besides "variant" and "field".
_TEMPLATE_KEYS = {
    "geometric": ("base", "start"),
    "signed_geometric": ("base",),
    "gaussian_units_scaled": ("scale_base",),
    "lattice_box": ("generators", "ranges", "seed"),
}

# Values each variant's walk adds per unit of the size knob k: r(k) / k.
_WALK_PER_K = {
    "geometric": 2,
    "signed_geometric": 2,
    "gaussian_units_scaled": 4,
    "lattice_box": 1,
}


def _frozen(value):
    return tuple(_frozen(v) for v in value) if isinstance(value, list) else value


def _thawed(value):
    return [_thawed(v) for v in value] if isinstance(value, tuple) else value


@dataclass(frozen=True)
class FamilyTemplate:
    """A family object whose size field the size knob k fills in.

    geometric: base^start .. base^(start+2k-1), 2k values; start defaults to 1
    signed_geometric: both signs of base^0..base^(k-1), 2k values
    gaussian_units_scaled: the four units times scale_base^0..^(k-1), over
        Qi, 4k values
    lattice_box: a seeded sample of k exponent vectors, k values

    Contract, which a new variant must keep: the walk of `family_at(k)`
    makes r(k) = `walk_length(k)` values, and they are the first r(k) values
    of the walk of `family_at(K)` for every K > k.  A first-occurrence
    dedupe of a prefix is a prefix of the dedupe, so
    `materialize(family_at(K)).prefix(walk_length(k))` is
    `materialize(family_at(k))`: the growth experiments build one set, at
    the largest k, and take every other k's set from it.
    """

    config: tuple[tuple[str, object], ...]

    @staticmethod
    def from_json(obj: dict) -> "FamilyTemplate":
        """Keep the template keys, fill the defaults, and check every key
        by reading the family at k = 1 through `family_from_json`."""
        if not isinstance(obj, dict) or "variant" not in obj:
            raise FamilyError("family template needs a 'variant' key")
        variant = obj["variant"]
        if not isinstance(variant, str) or variant not in _TEMPLATE_KEYS:
            raise FamilyError(f"unknown family template variant {variant!r}")
        keep = {"variant": variant, "field": obj.get("field", Q)}
        if variant == "geometric":
            keep["start"] = 1
        keep.update((key, obj[key]) for key in _TEMPLATE_KEYS[variant] if key in obj)
        if variant == "gaussian_units_scaled":
            keep["field"] = QI
        template = FamilyTemplate(
            tuple(sorted((key, _frozen(value)) for key, value in keep.items()))
        )
        with _reading(variant):
            template.family_at(1)
        return template

    def as_dict(self) -> dict:
        return {key: _thawed(value) for key, value in self.config}

    @property
    def field(self) -> str:
        return dict(self.config)["field"]

    def walk_length(self, k: int) -> int:
        """r(k): how many values the walk of `family_at(k)` makes, before
        duplicates drop."""
        return _WALK_PER_K[dict(self.config)["variant"]] * k

    def family_at(self, k: int) -> FamilySpec:
        """The family at size knob k: the template with its size field set."""
        if k < 1:
            raise FamilyError("size parameter k must be >= 1")
        obj = dict(self.config)
        variant = obj["variant"]
        if variant == "geometric":
            obj["stop"] = parse_whole(obj["start"], "start") + self.walk_length(k) - 1
        elif variant == "signed_geometric":
            obj["count"] = k
        elif variant == "gaussian_units_scaled":
            base = parse_scalar(obj["scale_base"], QI)
            obj["scales"] = [power.text() for power in _powers(base, 0, k)]
        else:
            obj["sample_size"] = k
        return family_from_json(obj)


def set_to_json(elements: ElementSet) -> dict:
    return {
        "field": elements.field,
        "elements": [value.text() for value in elements.elements],
    }


def set_from_json(obj: dict) -> ElementSet:
    if not isinstance(obj, dict):
        raise FamilyError("set object must be a JSON object")
    if "family" in obj:
        return materialize(family_from_json(obj["family"]))
    if "elements" not in obj:
        raise FamilyError("set object needs 'elements' or 'family'")
    field = obj.get("field", Q)
    elements = _listed(obj["elements"], "elements")
    return ElementSet(tuple(parse_scalar(e, field) for e in elements))


def load_set(path: str | Path) -> ElementSet:
    with open(path, "r", encoding="utf-8") as handle:
        return set_from_json(json.load(handle))
