"""Value semantics of the package's immutable record classes.

Each record is equal to another only when both are of the same class with
equal fields, equal records hash alike, fields can be neither assigned nor
deleted, and a pickle or copy round trip gives an equal record.  Every
record writes JSON types only, a graph anywhere inside it as its graph6.
"""

import copy
import json
import pickle

import pytest

from zfforge.certify import MatrixCertificate
from zfforge.claims import ClaimReport
from zfforge.constructions import (ConstructionPair, Corollary52Report, Expected,
                                   GridShrikhandeReport, SwitchingPartition,
                                   TensorFamilyResult, corollary52_family)
from zfforge.forcing import ForcingCertificate, Rule, ZfResult
from zfforge.graphs import Graph, GraphError, OrderCapError, emit_graph6, path
from zfforge.skew_rank import SkewWitness
from zfforge.spectra import CharPoly, RegularCospectralReport

_CERT = {"rule": Rule.STANDARD, "initial": (0,), "forces": ((0, 1),)}
_SKEW = {"graph": path(2), "matrix": MatrixCertificate("skew", ((0, 2), (-2, 0))),
         "achieved_nullity": 0, "certified": True, "seed": 7}
_EXPECTED = {"name": "Z", "value": 3, "tag": "paper"}

# (class, fields by keyword in declaration order, one field and another value for it)
SAMPLES = [
    (Graph, {"n": 3, "adj": (0b110, 0b001, 0b001)}, ("adj", (0b010, 0b101, 0b010))),
    (CharPoly, {"coeffs": (1, 0, -2)}, ("coeffs", (1, 0, -3))),
    (RegularCospectralReport,
     {"regular": True, "degree": 4, "adjacency_cospectral": True, "laplacian_verified": True,
      "signless_verified": True, "normalized_laplacian_derived": True},
     ("degree", 5)),
    (ForcingCertificate, _CERT, ("rule", Rule.PSD)),
    (ZfResult, {"value": 1, "witness": ForcingCertificate(**_CERT), "explored": 3},
     ("explored", 4)),
    (SkewWitness, _SKEW, ("matrix", MatrixCertificate("skew", ((0, 3), (-3, 0))))),
    (ClaimReport,
     {"claim_id": "fig1.Z.left", "description": "d", "expected": 6, "tag": "paper",
      "computed": 6, "status": "pass", "certificates": {"graph6": "G?"}, "wall_time": 0.5},
     ("certificates", {"graph6": "G@"})),
    (SwitchingPartition,
     {"part_counts": ((1, None),), "outside_counts": ((3, (2,)),), "issues": ()},
     ("issues", ("part 0 is empty",))),
    (Expected, _EXPECTED, ("value", 4)),
    (ConstructionPair,
     {"g": path(3), "g_prime": path(3), "provenance": "test", "params": (("m", 1),),
      "expected": (Expected(**_EXPECTED),), "parts": (0b11,)},
     ("parts", (0b101,))),
    (Corollary52Report,
     {"c": 3, "order": 18, "z_first": 8, "z_second": 12, "gap": 4, "g1": None,
      "g2": path(2), "skipped": ""},
     ("g1", path(2))),
    (TensorFamilyResult,
     {"graph": path(2), "base": path(2), "r": 1, "z_minus_base": 0,
      "witness": SkewWitness(**_SKEW), "expected": ()},
     ("r", 2)),
    # bound arithmetic only; the pair's cospectrality and non-isomorphism are
    # the claims cartesian.cospectral.A and cartesian.noniso
    (GridShrikhandeReport,
     {"r": 11, "zplus_grid": 10, "zplus_switched": 9, "product_upper_bound": 99,
      "product_lower_bound": 100, "separation_holds": True},
     ("separation_holds", False)),
]
IDS = [cls.__name__ for cls, _fields, _other in SAMPLES]


@pytest.mark.parametrize("cls, fields, other", SAMPLES, ids=IDS)
def test_value_equality(cls, fields, other):
    value = cls(**fields)
    assert value == cls(*fields.values())
    assert all(getattr(value, name) == v for name, v in fields.items())
    name, changed = other
    assert value != cls(**{**fields, name: changed})
    assert value != tuple(fields.values())
    twin = type(f"{cls.__name__}Twin", (cls,), {})
    assert value != twin(**fields) and twin(**fields) != value


@pytest.mark.parametrize("cls, fields, other", SAMPLES, ids=IDS)
def test_equal_values_hash_alike(cls, fields, other):
    if cls is ClaimReport:
        with pytest.raises(TypeError):  # its certificates are a dict
            hash(cls(**fields))
        return
    assert hash(cls(**fields)) == hash(cls(*fields.values()))
    assert len({cls(**fields), cls(**fields)}) == 1


@pytest.mark.parametrize("cls, fields, other", SAMPLES, ids=IDS)
def test_value_is_immutable(cls, fields, other):
    value = cls(**fields)
    name, changed = other
    with pytest.raises(AttributeError):
        setattr(value, name, changed)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, name) == fields[name]


@pytest.mark.parametrize("cls, fields, other", SAMPLES, ids=IDS)
def test_value_survives_pickle_and_copy(cls, fields, other):
    value = cls(**fields)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(value, protocol))
        assert type(again) is cls and again == value
    assert copy.copy(value) == value and copy.deepcopy(value) == value


@pytest.mark.parametrize("cls, fields, other", SAMPLES, ids=IDS)
def test_value_repr(cls, fields, other):
    value = cls(**fields)
    if cls is Graph:
        assert repr(value) == "Graph(n=3, m=2)"
    else:
        shown = ", ".join(f"{name}={v!r}" for name, v in fields.items())
        assert repr(value) == f"{cls.__qualname__}({shown})"


@pytest.mark.parametrize("cls, fields, other", SAMPLES, ids=IDS)
def test_value_json_holds_json_types_only(cls, fields, other):
    data = cls(**fields).to_json()
    assert json.loads(json.dumps(data)) == data


def test_graph_json_is_its_graph6():
    g = Graph(3, (0b110, 0b001, 0b001))
    assert g.to_json() == emit_graph6(g)
    data = ConstructionPair(g, path(3), "test", ()).to_json()
    assert data["g"] == emit_graph6(g) and data["g_prime"] == emit_graph6(path(3))


def test_corollary52_json_without_graphs():
    # past the order cap the report keeps its graph keys, written as null
    data = corollary52_family(5).to_json()
    assert data["g1"] is None and data["g2"] is None and data["assembled"] is None
    assert data.keys() == corollary52_family(3).to_json().keys()


@pytest.mark.parametrize("args, kwargs", [
    (("Z", 3, "paper", "extra"), {}),
    (("Z", 3), {}),
    (("Z", 3), {"name": "Z", "tag": "paper"}),
    (("Z", 3, "paper"), {"note": "x"}),
])
def test_bad_constructor_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Expected(*args, **kwargs)


# fields given as lists, nested ones included, for each class that holds sequences
AS_LISTS = [
    (ForcingCertificate, {"rule": Rule.STANDARD, "initial": [0], "forces": [[0, 1], [1, 2]]}),
    # a witness's sequences are its matrix's rows: it hashes only if they are stored as tuples
    (SkewWitness, {"graph": path(3),
                   "matrix": MatrixCertificate("skew", [[0, 1, 0], [-1, 0, -2], [0, 2, 0]]),
                   "achieved_nullity": 1, "certified": True, "seed": None}),
    (SwitchingPartition, {"part_counts": [[1, None], [0, 2]], "outside_counts": [[3, [2, 0]]],
                          "issues": ["part 0 is empty"]}),
    (ConstructionPair, {"g": path(3), "g_prime": path(3), "provenance": "test",
                        "params": [["m", 1], ["n", 3]], "expected": [Expected(**_EXPECTED)],
                        "parts": [0b11]}),
]


def _as_tuples(value):
    return tuple(map(_as_tuples, value)) if isinstance(value, list) else value


def _scramble(value):
    if isinstance(value, list):
        for item in value:
            _scramble(item)
        value.append(None)


@pytest.mark.parametrize("cls, fields", AS_LISTS, ids=[cls.__name__ for cls, _ in AS_LISTS])
def test_lists_are_stored_as_tuples(cls, fields):
    fields = copy.deepcopy(fields)
    value = cls(**fields)
    twin = cls(**{name: _as_tuples(v) for name, v in fields.items()})
    assert value == twin and hash(value) == hash(twin)
    for v in fields.values():
        _scramble(v)
    assert value == twin and hash(value) == hash(twin)
    assert all(type(getattr(value, name)) is not list for name in fields)


def test_constructor_defaults():
    pair = ConstructionPair(path(3), path(3), "test", ())
    assert pair.expected == () and pair.parts == ()
    witness = SkewWitness(path(2), MatrixCertificate("skew", ((0, 1), (-1, 0))), 0, False)
    assert witness.seed is None


@pytest.mark.parametrize("build, error, match", [
    (lambda: Graph(65, (0,) * 65), OrderCapError, "outside 0..64"),
    (lambda: Graph(-1, ()), OrderCapError, "outside 0..64"),
    (lambda: Graph(2, (0,)), GraphError, "1 adjacency rows for order 2"),
    (lambda: Graph(2, (0b100, 0)), GraphError, "beyond vertex 1"),
    (lambda: Graph(1, (0b1,)), GraphError, "self-loop at vertex 0"),
    (lambda: Graph(2, (0b10, 0)), GraphError, "asymmetric"),
    (lambda: CharPoly(()), ValueError, "monic"),
    (lambda: CharPoly((2, 1)), ValueError, "monic"),
    (lambda: ConstructionPair(path(3), path(4), "test", ()), ValueError, "equal order"),
])
def test_construction_checks_still_raise(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_graph_keeps_a_tuple_of_the_rows_it_is_given():
    rows = [0b10, 0b01]
    g = Graph(2, rows)
    rows[0] = 0  # the caller's list is not the graph's
    assert g.adj == (0b10, 0b01) and isinstance(g.adj, tuple)
    assert g == Graph(2, (0b10, 0b01)) and hash(g) == hash(Graph(2, (0b10, 0b01)))
    with pytest.raises(TypeError):
        g.adj[0] = 0


def test_charpoly_keeps_a_tuple_of_the_coefficients_it_is_given():
    coeffs = [1, 0, -1]
    p = CharPoly(coeffs)
    coeffs[0] = 2
    assert p.coeffs == (1, 0, -1) and isinstance(p.coeffs, tuple)
    assert p == CharPoly((1, 0, -1)) and hash(p) == hash(CharPoly((1, 0, -1)))
