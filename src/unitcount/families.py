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
from functools import reduce
from dataclasses import dataclass, fields
from itertools import chain
from pathlib import Path
from typing import get_args

from .scalars import Q, QI, Scalar, _read_fields, _refuse_unknown_keys, parse_scalar, parse_whole


class FamilyError(ValueError):
    """Raised for ill-formed family parameters or empty materializations."""


class _Family:
    """A family dataclass declares its `variant` name, the field it is
    always read in if any (`only_field`), its checks (`__post_init__`, so
    a family built from JSON or in code is refused by one rule) and `walk`,
    the values it describes in order, duplicates included.  One that a
    growth template sizes (`FamilyTemplate`) also declares the keys its
    template keeps besides "variant" and "field", their defaults, r(k) / k
    (`walk_per_k`) and `at(obj, k)`: the family object at size knob k of
    the template object `obj`."""

    only_field: str | None = None
    template_keys: tuple[str, ...] = ()
    template_defaults: dict = {}


@dataclass(frozen=True)
class Geometric(_Family):
    """Powers base^s for start <= s <= stop.  Templated, start defaults
    to 1 and stop is start + 2k - 1: 2k values."""

    variant = "geometric"
    template_keys = ("base", "start")
    template_defaults = {"start": 1}
    walk_per_k = 2

    base: Scalar
    start: int
    stop: int

    def __post_init__(self):
        if self.base.is_zero():
            raise FamilyError("geometric family with zero base")
        if self.start > self.stop:
            raise FamilyError(f"geometric family with start {self.start} > stop {self.stop}")

    def walk(self) -> list[Scalar]:
        return list(_power_table(self.base, range(self.start, self.stop + 1)).values())

    @staticmethod
    def at(obj: dict, k: int) -> dict:
        return {**obj, "stop": parse_whole(obj["start"], "start") + 2 * k - 1}


@dataclass(frozen=True)
class SignedGeometric(_Family):
    """Both signs of base^s for 0 <= s < count.  Templated, count is k:
    2k values."""

    variant = "signed_geometric"
    template_keys = ("base",)
    walk_per_k = 2

    base: Scalar
    count: int

    def __post_init__(self):
        if self.base.is_zero():
            raise FamilyError("signed geometric family with zero base")
        if self.count < 1:
            raise FamilyError("signed geometric family needs count >= 1")

    def walk(self) -> list[Scalar]:
        powers = _power_table(self.base, range(self.count)).values()
        return [value for power in powers for value in (power, -power)]

    @staticmethod
    def at(obj: dict, k: int) -> dict:
        return {**obj, "count": k}


@dataclass(frozen=True)
class GaussianUnitsScaled(_Family):
    """Each scale multiplied by the four Gaussian units 1, -1, i, -i, over
    Q(i) whatever the "field" key says.  Templated, the scales are
    scale_base^0 .. scale_base^(k-1): 4k values."""

    variant = "gaussian_units_scaled"
    only_field = QI
    template_keys = ("scale_base",)
    walk_per_k = 4

    scales: tuple[Scalar, ...]

    def __post_init__(self):
        if not self.scales:
            raise FamilyError("unit-scaled family needs at least one scale")
        for scale in self.scales:
            if scale.field != QI:
                raise FamilyError("unit-scaled family requires Qi scales")
            if scale.is_zero():
                raise FamilyError("unit-scaled family with zero scale")

    def walk(self) -> list[Scalar]:
        i = Scalar.imaginary_unit()
        return [value for s in self.scales for value in (s, -s, i * s, -(i * s))]

    @staticmethod
    def at(obj: dict, k: int) -> dict:
        obj = dict(obj)
        base = parse_scalar(obj.pop("scale_base"), QI)
        return {**obj, "scales": [power.text() for power in _power_table(base, range(k)).values()]}


@dataclass(frozen=True)
class LatticeBox(_Family):
    """Seeded sample of products gen_j^{e_j} with e_j drawn from integer
    ranges.  Templated, sample_size is k: k values, the seeded draws one
    after another."""

    variant = "lattice_box"
    template_keys = ("generators", "ranges", "seed")
    walk_per_k = 1

    generators: tuple[Scalar, ...]
    ranges: tuple[tuple[int, int], ...]
    sample_size: int
    seed: int

    def __post_init__(self):
        if len(self.generators) != len(self.ranges):
            raise FamilyError("lattice box needs one range per generator")
        if not self.generators:
            raise FamilyError("lattice box needs at least one generator")
        if any(gen.is_zero() for gen in self.generators):
            raise FamilyError("lattice box with zero generator")
        for lo, hi in self.ranges:
            if lo > hi:
                raise FamilyError(f"empty exponent range ({lo}, {hi})")
        if self.sample_size < 1:
            raise FamilyError("lattice box needs sample_size >= 1")

    def walk(self) -> list[Scalar]:
        """Each draw's product, its powers read from one table per generator."""
        rng = random.Random(self.seed)
        draws = [[rng.randint(lo, hi) for lo, hi in self.ranges] for _ in range(self.sample_size)]
        tables = [_power_table(gen, column) for gen, column in zip(self.generators, zip(*draws))]
        one = Scalar.one(self.generators[0].field)
        return [reduce(operator.mul, map(dict.get, tables, draw), one) for draw in draws]

    @staticmethod
    def at(obj: dict, k: int) -> dict:
        return {**obj, "sample_size": k}


@dataclass(frozen=True)
class Explicit(_Family):
    variant = "explicit"

    elements: tuple[Scalar, ...]

    def walk(self) -> list[Scalar]:
        return list(self.elements)


FamilySpec = Geometric | SignedGeometric | GaussianUnitsScaled | LatticeBox | Explicit

# A family object's keys are "variant", "field" and its dataclass's fields.
_VARIANTS = {cls.variant: cls for cls in get_args(FamilySpec)}


class ElementSet:
    """Ordered, duplicate-free, zero-free set of scalars from a single field.

    Construction is strict: duplicates or zeros are errors here.  Family
    materialization deduplicates before constructing and reports how many
    collisions it absorbed.  `first_indices[j]` is the index of element j's
    first occurrence among the values the set was deduplicated from (j
    itself for a set given explicitly); `prefix` reads it, so construction
    checks that it rises strictly from 0 and stays below the number of
    those values, len + collisions.
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
        if collisions < 0:
            raise FamilyError(f"collisions must be >= 0, got {collisions}")
        if first_indices is None:
            first_indices = tuple(range(len(elements)))
        elif not (
            isinstance(first_indices, tuple)
            and len(first_indices) == len(elements)
            and first_indices[0] == 0
            and first_indices[-1] < len(elements) + collisions
            and all(map(operator.lt, first_indices, first_indices[1:]))
        ):
            raise FamilyError(
                "first_indices must rise strictly from 0, one per element, below"
                f" {len(elements) + collisions}; got {first_indices!r}"
            )
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "collisions", collisions)
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
        lcm, values = self.scaled_integers()
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
            ("_scaled", (lcm // shrink, values)),
        ):
            object.__setattr__(prefix, name, value)
        return prefix

    def scaled_integers(self) -> tuple[int, list]:
        """Clear denominators: (L, the ring values x*L), L the lcm of all
        denominators.  Over Q the ring values are ints, over Qi (re, im)
        int pairs; the int64 proofs in `_kernels` read them."""
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
        object.__setattr__(self, "_scaled", (lcm, scaled))
        return self._scaled

    def __repr__(self) -> str:
        shown = ", ".join(v.text() for v in self.elements[:6])
        if len(self.elements) > 6:
            shown += ", ..."
        return f"ElementSet({self.field}, [{shown}], size={len(self)})"


def _power_table(base: Scalar, exponents) -> dict[int, Scalar]:
    """base^e for each e in `exponents`, keyed in increasing order of e,
    each power the one before times base^gap (one product for gap 1)."""
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


def materialize(spec: FamilySpec) -> ElementSet:
    """Build the element set a family describes, deduplicating silently and
    keeping each element's first index in the walk, so that
    `prefix(r)` is the set of the walk's first r values."""
    values = spec.walk()
    first_indices: dict[Scalar, int] = {}
    for index, value in enumerate(values):
        first_indices.setdefault(value, index)
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
def _reading(what: str):
    """Turn a missing key or a malformed value of the object `what` names
    into a FamilyError."""
    try:
        yield
    except FamilyError:
        raise
    except KeyError as exc:
        raise FamilyError(f"{what} missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise FamilyError(f"{what}: {exc}") from exc


def family_from_json(obj: dict) -> FamilySpec:
    if not isinstance(obj, dict) or "variant" not in obj:
        raise FamilyError("family object needs a 'variant' key")
    variant = obj["variant"]
    cls = _VARIANTS.get(variant) if isinstance(variant, str) else None
    if cls is None:
        raise FamilyError(f"unknown family variant {variant!r}")
    known = ("variant", "field", *(f.name for f in fields(cls)))
    _refuse_unknown_keys(obj, known, f"family variant {variant!r}", FamilyError)
    with _reading(f"family variant {variant!r}"):
        return cls(**_read_fields(cls, obj, cls.only_field or obj.get("field", Q)))


def _frozen(value):
    return tuple(_frozen(v) for v in value) if isinstance(value, list) else value


def _thawed(value):
    return [_thawed(v) for v in value] if isinstance(value, tuple) else value


@dataclass(frozen=True)
class FamilyTemplate:
    """A family object whose size field the size knob k fills in: each
    variant's `at` says how, and its docstring what the family at k holds.

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
        """Refuse any key but the template keys, fill the defaults, and
        check every key by building the family at k = 2, the least k whose
        family holds every template scalar (scale_base^1 included), so that
        its variant's checks refuse what a run would."""
        if not isinstance(obj, dict) or "variant" not in obj:
            raise FamilyError("family template needs a 'variant' key")
        variant = obj["variant"]
        cls = _VARIANTS.get(variant) if isinstance(variant, str) else None
        if cls is None or not cls.template_keys:
            raise FamilyError(f"unknown family template variant {variant!r}")
        known = ("variant", "field", *cls.template_keys)
        _refuse_unknown_keys(obj, known, f"family template {variant!r}", FamilyError)
        keep = {**cls.template_defaults, **obj, "field": cls.only_field or obj.get("field", Q)}
        template = FamilyTemplate(tuple(sorted((key, _frozen(v)) for key, v in keep.items())))
        with _reading(f"family variant {variant!r}"):
            template.family_at(2)
        return template

    def as_dict(self) -> dict:
        return {key: _thawed(value) for key, value in self.config}

    @property
    def field(self) -> str:
        return dict(self.config)["field"]

    def walk_length(self, k: int) -> int:
        """r(k): how many values the walk of `family_at(k)` makes, before
        duplicates drop."""
        return _VARIANTS[dict(self.config)["variant"]].walk_per_k * k

    def family_at(self, k: int) -> FamilySpec:
        """The family at size knob k: the template with its size field set."""
        if k < 1:
            raise FamilyError("size parameter k must be >= 1")
        obj = dict(self.config)
        return family_from_json(_VARIANTS[obj["variant"]].at(obj, k))


def set_to_json(elements: ElementSet) -> dict:
    return {
        "field": elements.field,
        "elements": [value.text() for value in elements.elements],
    }


def set_from_json(obj: dict) -> ElementSet:
    if not isinstance(obj, dict):
        raise FamilyError("set object must be a JSON object")
    if "family" in obj:
        _refuse_unknown_keys(obj, ("family",), "set object", FamilyError)
        return materialize(family_from_json(obj["family"]))
    if "elements" not in obj:
        raise FamilyError("set object needs 'elements' or 'family'")
    _refuse_unknown_keys(obj, ("field", "elements"), "set object", FamilyError)
    with _reading("set object"):
        elements = _read_fields(Explicit, obj, obj.get("field", Q))["elements"]
    return ElementSet(elements)


def load_set(path: str | Path) -> ElementSet:
    with open(path, "r", encoding="utf-8") as handle:
        return set_from_json(json.load(handle))
