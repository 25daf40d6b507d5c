import json
import random

import pytest

from conftest import int_element_set, rand_scalar
from oracles import PZERO, padd, pair, pmul
from unitcount.families import (
    ElementSet,
    Explicit,
    FamilyError,
    FamilyTemplate,
    GaussianUnitsScaled,
    Geometric,
    LatticeBox,
    SignedGeometric,
    family_from_json,
    load_set,
    materialize,
    set_from_json,
    set_to_json,
    tight_equation_coeffs,
)
from unitcount.scalars import Q, QI, Scalar, parse_scalar


def test_element_set_rejects_bad_inputs():
    one = Scalar.one(Q)
    with pytest.raises(FamilyError):
        ElementSet(())
    with pytest.raises(FamilyError):
        ElementSet((one, Scalar.zero(Q)))
    with pytest.raises(FamilyError):
        ElementSet((one, Scalar.rational(2), one))
    with pytest.raises(FamilyError):
        ElementSet((one, Scalar.one(QI)))
    # The type is checked before any element's field is read.
    for bad in ((1, 2), (one, Scalar.rational(2), 3)):
        with pytest.raises(TypeError, match="expected Scalar, got int"):
            ElementSet(bad)


def test_element_set_lookup_and_order():
    es = int_element_set([3, 1, 2])
    assert [v.text() for v in es] == ["3", "1", "2"]
    assert Scalar.rational(1) in es
    assert Scalar.rational(9) not in es
    assert len(es) == 3


def test_scaled_integers_clears_denominators():
    es = ElementSet(
        (Scalar.rational(1, 2), Scalar.rational(2), Scalar.rational(-3, 4))
    )
    lcm, scaled, bound = es.scaled_integers()
    assert lcm == 4
    assert scaled == [2, 8, -3]
    assert bound == 8


def test_scaled_integers_gaussian_pairs():
    es = ElementSet((Scalar(QI, 1, 1, 2), Scalar(QI, 0, -3, 1)))
    lcm, scaled, bound = es.scaled_integers()
    assert lcm == 2
    assert scaled == [(1, 1), (0, -6)]
    assert bound == 6


def test_geometric_materialization():
    es = materialize(Geometric(base=Scalar.rational(2), start=1, stop=4))
    assert [v.text() for v in es] == ["2", "4", "8", "16"]
    es = materialize(Geometric(base=Scalar.rational(1, 2), start=0, stop=2))
    assert [v.text() for v in es] == ["1", "1/2", "1/4"]


def test_geometric_rejects_zero_base_and_collapses_unit_base():
    with pytest.raises(FamilyError):
        materialize(Geometric(base=Scalar.zero(Q), start=1, stop=3))
    es = materialize(Geometric(base=Scalar.one(Q), start=1, stop=5))
    assert len(es) == 1 and es.collisions == 4


def test_prefix_is_the_set_of_the_first_values():
    # (-1)^0 .. (-1)^4 walks 1, -1, 1, -1, 1.
    es = materialize(Geometric(base=Scalar.rational(-1), start=0, stop=4))
    assert es.first_indices == (0, 1) and es.collisions == 3
    prefixes = [es.prefix(r) for r in range(1, 6)]
    assert [[v.text() for v in p] for p in prefixes] == [["1"]] + [["1", "-1"]] * 4
    assert [p.collisions for p in prefixes] == [0, 0, 1, 2, 3]
    assert prefixes[-1].prefix(3).collisions == 1
    for bad in (0, 6):
        with pytest.raises(FamilyError):
            es.prefix(bad)
    explicit = ElementSet((Scalar.rational(2), Scalar.rational(3)))
    assert explicit.first_indices == (0, 1)
    assert [v.text() for v in explicit.prefix(1)] == ["2"]


@pytest.mark.parametrize(
    "spec",
    [
        # 30 draws from a 12 x 8 box: some collide.
        LatticeBox((parse_scalar("2"), parse_scalar("3")), ((0, 11), (0, 7)), 30, 22),
        # Denominators: a prefix's denominator can be below the whole set's.
        Explicit(tuple(parse_scalar(t) for t in ("3", "1/2", "-5", "7/6", "1/4", "2"))),
        Geometric(parse_scalar("1+i", QI), -3, 9),
        # Its prefixes' denominators are 1, 2 and 4.
        LatticeBox((parse_scalar("i", QI), parse_scalar("(1+i)/2", QI)), ((0, 3), (-4, 4)), 30, 4),
    ],
    ids=["lattice-collisions", "q-denominators", "qi-geometric", "qi-lattice"],
)
def test_prefix_equals_a_freshly_built_set(spec):
    es = materialize(spec)
    for raw_length in range(1, len(es) + es.collisions + 1):
        got = es.prefix(raw_length)
        fresh = ElementSet(got.elements, got.collisions, got.first_indices)
        size = len(fresh)
        assert got.elements == es.elements[:size]
        assert got.first_indices == es.first_indices[:size]
        assert got.field == fresh.field
        assert got.collisions == raw_length - size
        assert all(es.first_indices[j] < raw_length for j in range(size))
        assert size == len(es) or es.first_indices[size] >= raw_length
        assert [value in got for value in es] == [value in fresh for value in es]
        assert got.scaled_integers() == fresh.scaled_integers()


def test_signed_geometric_materialization():
    es = materialize(SignedGeometric(base=Scalar.rational(2), count=3))
    assert [v.text() for v in es] == ["1", "-1", "2", "-2", "4", "-4"]


def test_gaussian_units_scaled_materialization():
    two = Scalar.rational(2, 1, QI)
    es = materialize(GaussianUnitsScaled(scales=(Scalar.one(QI), two)))
    assert [v.text() for v in es] == ["1", "-1", "i", "-i", "2", "-2", "2*i", "-2*i"]
    for v in es:
        assert v * Scalar.rational(-1, 1, QI) in es
        assert v * Scalar.imaginary_unit() in es


def test_lattice_box_seeded_and_deterministic():
    spec = LatticeBox(
        generators=(Scalar.rational(2), Scalar.rational(3)),
        ranges=((0, 5), (0, 4)),
        sample_size=12,
        seed=99,
    )
    first = materialize(spec)
    second = materialize(spec)
    assert [v.text() for v in first] == [v.text() for v in second]
    assert len(first) + first.collisions == 12
    shifted = LatticeBox(
        generators=spec.generators, ranges=spec.ranges, sample_size=12, seed=100
    )
    assert [v.text() for v in materialize(shifted)] != [v.text() for v in first]


def _materialized_by_pow(spec) -> list[Scalar]:
    """Each element as one `base**s` (the values before deduplication)."""
    if isinstance(spec, Geometric):
        return [spec.base**s for s in range(spec.start, spec.stop + 1)]
    if isinstance(spec, SignedGeometric):
        return [v for s in range(spec.count) for v in (spec.base**s, -(spec.base**s))]
    rng = random.Random(spec.seed)
    values = []
    for _ in range(spec.sample_size):
        value = Scalar.one(spec.generators[0].field)
        for gen, (lo, hi) in zip(spec.generators, spec.ranges):
            value = value * gen ** rng.randint(lo, hi)
        values.append(value)
    return values


@pytest.mark.parametrize(
    "spec",
    [
        Geometric(parse_scalar("2"), 1, 56),
        Geometric(parse_scalar("-3/2"), -5, 7),
        Geometric(parse_scalar("1+i", QI), -3, 9),
        Geometric(parse_scalar("-1"), 0, 4),
        SignedGeometric(parse_scalar("2/3"), 6),
        SignedGeometric(parse_scalar("i", QI), 5),
        LatticeBox((parse_scalar("2"), parse_scalar("3")), ((0, 11), (0, 7)), 30, 22),
        LatticeBox((parse_scalar("i", QI), parse_scalar("1+i", QI)), ((0, 3), (0, 19)), 30, 33),
        LatticeBox((parse_scalar("2"), parse_scalar("-1/3")), ((-40, 200), (3, 4)), 25, 5),
        LatticeBox((parse_scalar("5"),), ((7, 7),), 3, 1),
    ],
)
def test_materialize_builds_the_same_powers_as_pow(spec):
    """Powers built one product at a time (and lattice powers read from a
    table) are the same Scalars, in the same order, as one `**` each."""
    values = _materialized_by_pow(spec)
    kept = list(dict.fromkeys(values))
    es = materialize(spec)
    assert [(v.field, v.re, v.im, v.den) for v in es] == [
        (v.field, v.re, v.im, v.den) for v in kept
    ]
    assert es.collisions == len(values) - len(kept)


def test_geometric_with_an_empty_range_is_an_error():
    with pytest.raises(FamilyError):
        materialize(Geometric(base=Scalar.rational(2), start=3, stop=2))


def test_lattice_box_validates_shape():
    two = Scalar.rational(2)
    with pytest.raises(FamilyError):
        materialize(LatticeBox(generators=(two,), ranges=(), sample_size=3, seed=1))
    with pytest.raises(FamilyError):
        materialize(
            LatticeBox(generators=(), ranges=(), sample_size=3, seed=1)
        )
    with pytest.raises(FamilyError):
        materialize(
            LatticeBox(
                generators=(Scalar.zero(Q),), ranges=((0, 2),), sample_size=3, seed=1
            )
        )
    with pytest.raises(FamilyError):
        materialize(
            LatticeBox(generators=(two,), ranges=((0, 2),), sample_size=0, seed=1)
        )


def test_explicit_materialization_dedupes():
    es = materialize(
        Explicit(elements=(Scalar.rational(1), Scalar.rational(2), Scalar(Q, 2, 0, 2)))
    )
    assert [v.text() for v in es] == ["1", "2"]
    assert es.collisions == 1


@pytest.mark.parametrize(
    "spec",
    [
        (
            Geometric(base=Scalar.rational(3, 2), start=-2, stop=3),
            {"variant": "geometric", "base": "3/2", "start": -2, "stop": 3},
        ),
        (
            SignedGeometric(base=Scalar.rational(2), count=4),
            {"variant": "signed_geometric", "base": "2", "count": 4, "field": "Q"},
        ),
        (
            GaussianUnitsScaled(scales=(Scalar.one(QI), Scalar.rational(3, 1, QI))),
            {"variant": "gaussian_units_scaled", "scales": ["1", "3"]},
        ),
        (
            LatticeBox(
                generators=(Scalar.rational(2), Scalar.rational(5)),
                ranges=((0, 3), (-1, 2)),
                sample_size=7,
                seed=4,
            ),
            {
                "variant": "lattice_box",
                "generators": ["2", "5"],
                "ranges": [[0, 3], [-1, 2]],
                "sample_size": 7,
                "seed": 4,
            },
        ),
        (
            Explicit(elements=(Scalar.rational(1), Scalar.rational(-7, 3))),
            {"variant": "explicit", "elements": ["1", "-7/3"]},
        ),
    ],
)
def test_family_json_round_trip(spec):
    spec, obj = spec
    rebuilt = family_from_json(json.loads(json.dumps(obj)))
    assert rebuilt == spec
    assert [v.text() for v in materialize(rebuilt)] == [
        v.text() for v in materialize(spec)
    ]


def test_family_from_json_rejects_unknown_variant():
    with pytest.raises(FamilyError):
        family_from_json({"variant": "mystery"})
    with pytest.raises(FamilyError):
        family_from_json({"variant": "geometric"})


@pytest.mark.parametrize(
    "obj",
    [
        {"variant": "geometric", "base": "2", "start": 1.5, "stop": 4},
        {"variant": "geometric", "base": "2", "start": True, "stop": 4},
        {"variant": "signed_geometric", "base": "2", "count": 2.5},
        {"variant": "lattice_box", "generators": ["2"], "ranges": [[0, 3.5]],
         "sample_size": 3, "seed": 1},
        {"variant": "lattice_box", "generators": ["2"], "ranges": [[0, 3]],
         "sample_size": 3, "seed": False},
        {"variant": "lattice_box", "generators": ["2"], "ranges": [[0]],
         "sample_size": 3, "seed": 1},
        {"variant": "geometric", "base": "2+", "start": 1, "stop": 4},
        {"variant": "geometric", "base": "2", "start": 1, "stop": 4, "field": "R"},
        # A string is not a list, even when its characters would parse.
        {"variant": "lattice_box", "generators": "23", "ranges": [[0, 2], [0, 2]],
         "sample_size": 3, "seed": 1},
        {"variant": "lattice_box", "generators": ["2"], "ranges": ["03"],
         "sample_size": 3, "seed": 1},
        {"variant": "gaussian_units_scaled", "scales": "12"},
        {"variant": "explicit", "elements": "123"},
    ],
)
def test_family_from_json_reads_values_exactly(obj):
    with pytest.raises(FamilyError):
        family_from_json(obj)


def test_family_from_json_accepts_whole_numbers_in_any_json_form():
    obj = {"variant": "geometric", "base": "2", "start": 1.0, "stop": "4"}
    assert family_from_json(obj) == Geometric(Scalar.rational(2), 1, 4)


# -- growth templates: a family object without its size field ------------------

_TEMPLATES = {
    "geometric": {"variant": "geometric", "base": "3/2", "start": 0},
    "signed_geometric": {"variant": "signed_geometric", "base": "2"},
    "gaussian_units_scaled": {"variant": "gaussian_units_scaled", "scale_base": "1+i"},
    "lattice_box": {
        "variant": "lattice_box",
        "generators": ["2", "-3"],
        "ranges": [[0, 4], [1, 3]],
        "seed": 5,
    },
}


def test_family_template_sizes_per_variant():
    three_halves, two = Scalar.rational(3, 2), Scalar.rational(2)
    geo = FamilyTemplate.from_json(_TEMPLATES["geometric"])
    assert geo.family_at(1) == Geometric(three_halves, 0, 1)
    assert geo.family_at(3) == Geometric(three_halves, 0, 5)
    default = FamilyTemplate.from_json({"variant": "geometric", "base": "2"})
    assert default.family_at(3) == Geometric(two, 1, 6)
    assert len(materialize(default.family_at(5))) == 10

    signed = FamilyTemplate.from_json(_TEMPLATES["signed_geometric"])
    assert signed.family_at(4) == SignedGeometric(two, 4)
    assert len(materialize(signed.family_at(4))) == 8

    units = FamilyTemplate.from_json(_TEMPLATES["gaussian_units_scaled"])
    assert units.field == QI
    base = parse_scalar("1+i", QI)
    assert units.family_at(3) == GaussianUnitsScaled(
        (Scalar.one(QI), base, base * base)
    )
    assert len(materialize(units.family_at(2))) == 8

    box = FamilyTemplate.from_json(_TEMPLATES["lattice_box"])
    assert box.family_at(12) == LatticeBox(
        (two, Scalar.rational(-3)), ((0, 4), (1, 3)), 12, 5
    )
    assert 1 <= len(materialize(box.family_at(12))) <= 12


def test_family_template_fills_its_field():
    assert FamilyTemplate.from_json(_TEMPLATES["geometric"]).field == Q
    forced = dict(_TEMPLATES["gaussian_units_scaled"], field="Q")
    assert FamilyTemplate.from_json(forced).field == QI
    gaussian = dict(_TEMPLATES["lattice_box"], generators=["i", "1+i"], field="Qi")
    assert FamilyTemplate.from_json(gaussian).family_at(2).generators[0].field == QI


@pytest.mark.parametrize("variant", sorted(_TEMPLATES))
def test_family_template_rejects_k_below_one(variant):
    template = FamilyTemplate.from_json(_TEMPLATES[variant])
    for k in (0, -1):
        with pytest.raises(FamilyError):
            template.family_at(k)


@pytest.mark.parametrize("variant", sorted(_TEMPLATES))
def test_family_template_missing_keys(variant):
    required = [key for key in _TEMPLATES[variant] if key not in ("variant", "start")]
    assert required
    for key in required:
        obj = {k: v for k, v in _TEMPLATES[variant].items() if k != key}
        with pytest.raises(FamilyError, match=key):
            FamilyTemplate.from_json(obj)


@pytest.mark.parametrize("variant", sorted(_TEMPLATES))
def test_family_template_as_dict_round_trip(variant):
    template = FamilyTemplate.from_json(_TEMPLATES[variant])
    obj = template.as_dict()
    assert json.loads(json.dumps(obj)) == obj
    assert FamilyTemplate.from_json(obj) == template
    assert {"variant", "field"} <= set(obj) <= {"variant", "field"} | set(
        _TEMPLATES[variant]
    )


def test_family_template_keeps_only_template_keys():
    obj = {"variant": "geometric", "base": "2", "stop": 9, "count": 3, "shards": 8}
    template = FamilyTemplate.from_json(obj)
    assert template.as_dict() == {
        "variant": "geometric", "base": "2", "start": 1, "field": "Q",
    }
    assert template.family_at(2).stop == 4


@pytest.mark.parametrize(
    "obj",
    [
        {"base": "2"},
        {"variant": "spiral", "base": "2"},
        {"variant": "explicit", "elements": ["1"]},
        {"variant": "geometric", "base": "2+"},
        {"variant": "geometric", "base": "2", "start": 1.5},
        {"variant": "lattice_box", "generators": ["2"], "ranges": [[0, 3]], "seed": 2.5},
        {"variant": "lattice_box", "generators": ["2"], "ranges": [[0, 3.5]], "seed": 2},
    ],
)
def test_family_template_errors_are_family_errors(obj):
    with pytest.raises(FamilyError):
        FamilyTemplate.from_json(obj)


def test_set_json_round_trip_and_file_io(tmp_path):
    rng = random.Random(11)
    values = []
    seen = set()
    while len(values) < 6:
        v = rand_scalar(rng, QI, span=9, max_den=4)
        if v not in seen:
            seen.add(v)
            values.append(v)
    es = ElementSet(tuple(values))
    assert [v.text() for v in set_from_json(set_to_json(es))] == [
        v.text() for v in es
    ]
    path = tmp_path / "set.json"
    obj = {"elements": ["(1+2*i)/2", "-3", "2*i"], "field": "Qi"}
    path.write_text(json.dumps(obj))
    assert set_to_json(load_set(path)) == obj


def test_set_file_with_family_spec(tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(
        json.dumps(
            {
                "family": {
                    "variant": "geometric",
                    "base": "2",
                    "start": 1,
                    "stop": 3,
                    "field": "Q",
                }
            }
        )
    )
    assert [v.text() for v in load_set(path)] == ["2", "4", "8"]


def test_set_from_json_rejects_malformed():
    with pytest.raises(FamilyError):
        set_from_json([1, 2])
    with pytest.raises(FamilyError):
        set_from_json({"field": "Q"})
    with pytest.raises(FamilyError):
        set_from_json({"field": "Q", "elements": "123"})


@pytest.mark.parametrize("n", range(2, 9))
def test_tight_equation_coeffs_solve_on_diagonal(n):
    coeffs = tight_equation_coeffs(n)
    assert len(coeffs) == n
    total = PZERO
    x = pair(Scalar.rational(5, 3))
    for c in coeffs:
        total = padd(total, pmul(pair(c), x))
    assert total == PZERO
    assert all(not c.is_zero() for c in coeffs)


def test_tight_equation_coeffs_small_cases():
    assert [c.text() for c in tight_equation_coeffs(2)] == ["1", "-1"]
    assert [c.text() for c in tight_equation_coeffs(3)] == ["-1", "-1", "2"]
    assert [c.text() for c in tight_equation_coeffs(4)] == ["1", "1", "-1", "-1"]
