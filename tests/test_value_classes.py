"""The contract every frozen value class of katolab keeps: value equality and
hashing, immutability, strict constructors and the validation each class does
on construction."""

from functools import cached_property

import pytest

from katolab import (
    CanonicalData,
    ContractionReport,
    DimensionValue,
    FactorSeq,
    FunctionTheoryNote,
    InvariantMonomial,
    InvariantReport,
    LatticeBasis,
    MembershipResult,
    MonomialVectorField,
    PerronData,
    QuadraticSurd,
    Recognized,
    SparseLaurentPoly,
    StandardForm,
    build_report,
    canonical_descriptor,
    certify_ball12_contraction,
    function_nullity_note,
    hol_vf_dimension,
    invariant_monomials,
    parse_matrix,
    parse_point,
    perron_data,
    recognize,
    stable_membership,
    standard_field_generators,
)
from katolab import words
from katolab.invariants import SemidirectGroup

A23 = "1,0,2;0,0,1;0,1,2"

# Each factory builds a fresh instance from scratch, so two calls give equal
# values held in distinct objects.
FACTORIES = {
    LatticeBasis: lambda: recognize(parse_matrix(A23)).fixed_lattice,
    FactorSeq: lambda: recognize(parse_matrix(A23)).word,
    StandardForm: lambda: recognize(parse_matrix(A23)).form,
    Recognized: lambda: recognize(parse_matrix(A23)),
    ContractionReport: lambda: certify_ball12_contraction(parse_matrix(A23), samples=8),
    QuadraticSurd: lambda: perron_data(parse_matrix(A23)).surd,
    PerronData: lambda: perron_data(parse_matrix(A23)),
    MembershipResult: lambda: stable_membership(parse_matrix(A23), parse_point("0+0i;1/9+0i;1/9+0i")),
    MonomialVectorField: lambda: standard_field_generators(parse_matrix(A23))[0],
    FunctionTheoryNote: lambda: function_nullity_note(parse_matrix(A23)),
    InvariantMonomial: lambda: invariant_monomials(parse_matrix(A23))[0],
    DimensionValue: lambda: hol_vf_dimension(parse_matrix(A23)),
    CanonicalData: lambda: canonical_descriptor(parse_matrix(A23)),
    SemidirectGroup: lambda: build_report(parse_matrix(A23)).pi1_M_minus_C,
    InvariantReport: lambda: build_report(parse_matrix(A23)),
}
CLASSES = list(FACTORIES)
UNHASHABLE = {MonomialVectorField, InvariantReport}  # Laurent polynomials and lists


def field_names(cls) -> list[str]:
    return list(cls.__annotations__)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_value_class_contract(cls):
    a, b = FACTORIES[cls](), FACTORIES[cls]()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert repr(a).startswith(f"{cls.__name__}(")

    names = field_names(cls)
    values = [getattr(a, name) for name in names]
    assert cls(*values) == a
    assert cls(**dict(zip(names, values))) == a

    other = FACTORIES[CLASSES[(CLASSES.index(cls) + 1) % len(CLASSES)]]()
    assert a != other and not a == other
    assert a.__eq__(object()) is NotImplemented

    with pytest.raises(AttributeError):
        setattr(a, names[0], values[0])
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    with pytest.raises(AttributeError):
        delattr(a, names[0])
    assert getattr(a, names[0]) is values[0]

    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, not_a_field=None)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})


def test_factor_seq_validates_and_normalizes():
    assert FactorSeq(3, [2, 3]).indices == (2, 3)
    for n, indices in ((1, (1,)), (3, ()), (3, (4,)), (3, (0,))):
        with pytest.raises(ValueError):
            FactorSeq(n, indices)


def test_monomial_vector_field_validates():
    with pytest.raises(ValueError):
        MonomialVectorField(())
    with pytest.raises(ValueError):
        MonomialVectorField((SparseLaurentPoly.zero(2), SparseLaurentPoly.zero(3)))


def test_dimension_value_defaults():
    value = DimensionValue("exact")
    assert value.value is None and value.bounds is None
    assert DimensionValue.between(1, 2) == DimensionValue("bounds", None, (1, 2))
    assert DimensionValue.exact(3) == DimensionValue("exact", 3)


def test_lattice_basis_equality_is_lattice_equality():
    assert LatticeBasis.from_rows(2, [[2, 0], [0, 1]]) == LatticeBasis.from_rows(2, [[2, 1], [0, 1]])
    assert LatticeBasis.from_rows(2, [[2, 0], [0, 1]]) != LatticeBasis.from_rows(2, [[1, 0], [0, 2]])
    assert LatticeBasis.from_rows(2, [[1, 0]]) != LatticeBasis.from_rows(3, [[1, 0, 0]])


def test_recognized_computes_each_value_once(monkeypatch):
    calls = []

    def counting(a):
        calls.append(a)
        return real(a)

    real = words.left_fixed_lattice
    monkeypatch.setattr(words, "left_fixed_lattice", counting)
    rec = recognize(parse_matrix(A23))
    lazy = [name for name, attr in vars(Recognized).items() if isinstance(attr, cached_property)]
    assert "fixed_lattice" in lazy
    for name in lazy:
        first = getattr(rec, name)
        assert name in vars(rec)
        assert getattr(rec, name) is first
    assert len(calls) == 1
