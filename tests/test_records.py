"""The immutable records: construction, validation, repr, hash and pickling.

Every record but ``VarSet`` is a ``typing.NamedTuple``; the ones that
normalize or validate their input do so in ``__new__``.
"""

import pickle
from fractions import Fraction

import pytest

from detres.chern_degree import ExistenceError, ProblemSpec
from detres.partition_schur import ComplexTerm
from detres.polyring import PolyError, Polynomial, VarSet
from detres.resultant_engine import (
    ConcreteMorphism,
    build_sigma,
    generic_morphism,
    resultant_gcd,
)
from detres.scroll_chow import PlaneStiefel, ScrollSpec

SYL11 = ProblemSpec(m=2, n=1, r=0, d=(1, 1), k=(0,))
XY = VarSet(("x0", "x1"))


def linear(a, b):
    return Polynomial(XY, {(1, 0): a, (0, 1): b})


def concrete():
    return ConcreteMorphism(spec=SYL11, varset=XY, entries=((linear(1, 0), linear(0, 1)),))


RECORDS = {
    "ProblemSpec": lambda: ProblemSpec(m=2, n=1, r=0, d=[1, 1], k=[0]),
    "ScrollSpec": lambda: ScrollSpec(degrees=[2, 1]),
    "PlaneStiefel": lambda: PlaneStiefel(rows=[[1, 0], ["1/2", 3]]),
    "ComplexTerm": lambda: ComplexTerm(I=(2,), I_prime=(1, 1), ampleness=1),
    "ConcreteMorphism": concrete,
    "GenericMorphism": lambda: generic_morphism(SYL11),
    "SigmaMatrix": lambda: build_sigma(SYL11, 1, generic_morphism(SYL11)),
    "ConcreteSigmaMatrix": lambda: build_sigma(SYL11, 1, concrete()),
    "ResultantOutput": lambda: resultant_gcd(SYL11),
}


@pytest.fixture(params=list(RECORDS), ids=list(RECORDS))
def record(request):
    return RECORDS[request.param]()


class TestNamedTupleRecords:
    def test_repr_names_every_field(self, record):
        fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in record._fields)
        assert repr(record) == f"{type(record).__name__}({fields})"

    def test_hash_is_that_of_the_field_tuple(self, record):
        values = tuple(getattr(record, f) for f in record._fields)
        if type(record).__name__ == "GenericMorphism":
            # its coeff_names is a dict, so it was never hashable
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(values)
        # records are tuples: they equal the plain tuple of their fields
        assert record == values

    def test_immutable(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_pickle_round_trip(self, record):
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record)
        assert back == record


class TestValidation:
    def test_problem_spec(self):
        spec = RECORDS["ProblemSpec"]()
        assert spec.d == (1, 1) and spec.k == (0,)
        assert hash(spec) == hash((2, 1, 0, (1, 1), (0,)))
        assert repr(spec) == "ProblemSpec(m=2, n=1, r=0, d=(1, 1), k=(0,))"
        with pytest.raises(ExistenceError, match=r"^d must have length m=2$"):
            ProblemSpec(2, 1, 0, [1], [0])
        with pytest.raises(ExistenceError, match=r"^k must have length n=1$"):
            ProblemSpec(2, 1, 0, [1, 1], [0, 0])

    def test_scroll_spec(self):
        scroll = RECORDS["ScrollSpec"]()
        assert scroll.degrees == (2, 1)
        assert repr(scroll) == "ScrollSpec(degrees=(2, 1))"
        with pytest.raises(ExistenceError, match="^scroll needs at least one degree$"):
            ScrollSpec([])
        with pytest.raises(ExistenceError, match="^scroll degrees must all be >= 1; degree-0"):
            ScrollSpec((1, 0))

    def test_plane_stiefel(self):
        plane = RECORDS["PlaneStiefel"]()
        assert plane.rows == ((1, 0), (Fraction(1, 2), 3))
        assert all(type(v) is Fraction for row in plane.rows for v in row)
        assert repr(plane) == (
            "PlaneStiefel(rows=((Fraction(1, 1), Fraction(0, 1)),"
            " (Fraction(1, 2), Fraction(3, 1))))"
        )
        with pytest.raises(PolyError, match="^plane rows must have equal length$"):
            PlaneStiefel([[1, 0], [1]])

    def test_complex_term(self):
        term = RECORDS["ComplexTerm"]()
        assert repr(term) == "ComplexTerm(I=(2,), I_prime=(1, 1), ampleness=1)"
        assert term.homological_index == -1

    @pytest.mark.parametrize(
        "varset, entries, message",
        [
            (VarSet(("x1", "x0")), ((linear(1, 0), linear(0, 1)),), "variables must be x0, x1"),
            (XY, (), "expected 1 rows"),
            (XY, ((linear(1, 0),),), "row 1 must have 2 entries"),
            (XY, ((linear(1, 0), Polynomial(VarSet(("x0", "y")), {})),), r"entry \(1,2\) is not over x0, x1"),
            (XY, ((linear(1, 0), Polynomial(XY, {(2, 0): 1})),), r"entry \(1,2\) must be homogeneous of degree 1"),
        ],
        ids=["varset", "rows", "row-length", "entry-varset", "entry-degree"],
    )
    def test_concrete_morphism(self, varset, entries, message):
        with pytest.raises(PolyError, match=f"^{message}$"):
            ConcreteMorphism(SYL11, varset, entries)


class TestVarSet:
    def test_normalization_and_lookup(self):
        vs = VarSet(names=["x0", "x1"])
        assert vs.names == ("x0", "x1")
        assert vs.index("x1") == 1 and "x0" in vs and len(vs) == 2
        with pytest.raises(PolyError, match=r"^duplicate variable names in \('x', 'x'\)$"):
            VarSet(["x", "x"])
        with pytest.raises(PolyError, match="^unknown variable 'y'$"):
            vs.index("y")

    def test_equality_hash_and_repr_follow_names(self):
        vs = VarSet(("x0", "x1"))
        assert vs == XY and vs != VarSet(("x1", "x0"))
        assert vs != ("x0", "x1")
        assert hash(vs) == hash((("x0", "x1"),))
        assert repr(vs) == "VarSet(names=('x0', 'x1'))"

    def test_immutable(self):
        with pytest.raises(AttributeError):
            XY.names = ("y",)
        with pytest.raises(AttributeError):
            del XY.names
        with pytest.raises(AttributeError):
            XY.extra = 1

    def test_pickle_round_trip(self):
        back = pickle.loads(pickle.dumps(XY))
        assert back == XY and back.index("x1") == 1
