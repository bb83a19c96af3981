"""The package's value types are slotted dataclasses.

A query keeps one Sequence, Certificate and IndexResult alive, and a
verification run keeps a report per modulus; none of them needs a
per-instance __dict__.  Each must still compare, hash (when frozen),
refuse assignment (when frozen) and survive pickling, which is how
counterexample reports cross the `--jobs` process boundary.

The four types built once per sequence (Sequence, NormalForm,
ReductionOutcome and Certificate), and IndexResult, built once per
`index` call, write their own `__init__`: it runs the type's checks, if
any, and stores each field through its slot's setter, with no
`__post_init__`.  They must still build like the generated dataclass:
by position, by keyword, with the field defaults and through
`dataclasses.replace`.
"""

import dataclasses
import importlib
import inspect
import pickle
import pkgutil
from fractions import Fraction

import pytest

import zsindex
from zsindex import (
    Certificate,
    IndexResult,
    NormalForm,
    ReductionOutcome,
    Sequence,
    classify,
    find_certificate,
    index,
    iter_orbit_reps,
    make_sequence,
    normal_form_sequence,
    shape_stats,
)
from zsindex.harness import verify_modulus

_FORM = NormalForm(11, 2, 3, 4)

# One real instance of every dataclass in the package, built the way the
# package builds it.
VALUES = {
    "Sequence": lambda: make_sequence(175, [5, 77, 133, 135]),
    "IndexResult": lambda: index(make_sequence(8, [1, 4, 5, 6])),
    "OrbitRep": lambda: next(iter_orbit_reps(25)),
    "NormalForm": lambda: _FORM,
    "ReductionOutcome": lambda: classify(normal_form_sequence(_FORM)),
    "Certificate": lambda: find_certificate(make_sequence(13, [1, 5, 10, 10])),
    "CounterexampleReport": lambda: find_certificate(make_sequence(8, [1, 4, 5, 6])),
    "ShapeStats": lambda: shape_stats(_FORM),
    "VerificationReport": lambda: verify_modulus(8, "full"),
}


def test_every_package_dataclass_is_listed():
    modules = [
        importlib.import_module(f"zsindex.{info.name}") for info in pkgutil.iter_modules(zsindex.__path__)
    ]
    found = {
        cls.__name__
        for module in modules
        for cls in vars(module).values()
        if inspect.isclass(cls) and dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
    }
    assert found == set(VALUES)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_type_contract(name):
    value = VALUES[name]()
    cls = type(value)
    assert cls.__name__ == name
    assert not hasattr(value, "__dict__")
    assert pickle.loads(pickle.dumps(value)) == value
    first = dataclasses.fields(value)[0].name
    if cls.__dataclass_params__.frozen:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, first, getattr(value, first))
        assert hash(pickle.loads(pickle.dumps(value))) == hash(value)
    # No slot, no new attribute.  A frozen slotted class refuses it with
    # TypeError rather than FrozenInstanceError (CPython 3.10 to 3.13).
    with pytest.raises((AttributeError, TypeError)):
        value.extra = 1


# Each hand-built type with one full set of field values, defaults overridden.
HAND_BUILT = {
    "Sequence": (Sequence, (11, (1, 2, 3, 5))),
    "NormalForm": (NormalForm, (11, 2, 3, 4)),
    "ReductionOutcome": (ReductionOutcome, ("normal", None, _FORM, 3)),
    "Certificate": (Certificate, (5, "interval", 2)),
    "IndexResult": (IndexResult, (Fraction(3, 2), 5)),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_written_init_builds_like_a_dataclass(name):
    cls, args = HAND_BUILT[name]
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    assert "__post_init__" not in vars(cls)
    params = inspect.signature(cls).parameters
    assert list(params) == names
    assert [p.default for p in params.values()] == [
        inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default for f in fields
    ]
    value = cls(*args)
    assert [getattr(value, name) for name in names] == list(args)
    assert cls(**dict(zip(names, args))) == value
    assert dataclasses.replace(value) == value


def test_hand_written_init_defaults():
    assert ReductionOutcome("opaque") == ReductionOutcome("opaque", None, None, 1)
    assert ReductionOutcome("nu1", forced_multiplier=1).normal_form is None
    assert Certificate(1, "forced").k is None
    assert Certificate(m=1, derivation="forced") == Certificate(1, "forced", None)


def test_replace_runs_the_checks():
    cert = Certificate(5, "interval", 2)
    assert dataclasses.replace(cert, k=None) == Certificate(5, "interval")
    with pytest.raises(ValueError, match="^unknown derivation tag 'bogus'$"):
        dataclasses.replace(cert, derivation="bogus")
    outcome = ReductionOutcome("normal", normal_form=_FORM, scaling=3)
    assert dataclasses.replace(outcome, scaling=1).scaling == 1
    assert dataclasses.replace(_FORM, n=13) == NormalForm(13, 2, 3, 4)
    assert dataclasses.replace(Sequence(11, (1, 2, 3, 5)), n=13).n == 13
    with pytest.raises(ValueError, match="must be a tuple"):
        dataclasses.replace(Sequence(11, (1, 2, 3, 5)), coeffs=[1, 2, 3, 5])


@pytest.mark.parametrize(
    "args, message",
    [
        ((11, 2, 3, 5), "normal form needs 1 + c = a + b, got a=2 b=3 c=5"),
        ((11, 1, 3, 3), "normal form needs 1 < a <= b < c, got a=1 b=3 c=3"),
        ((11, 3, 2, 4), "normal form needs 1 < a <= b < c, got a=3 b=2 c=4"),
        ((7, 2, 3, 4), "normal form needs c < n/2, got c=4 n=7"),
        ((8, 2, 3, 4), "normal form needs c < n/2, got c=4 n=8"),
    ],
)
def test_normal_form_rejections_keep_their_messages(args, message):
    with pytest.raises(ValueError) as info:
        NormalForm(*args)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        dataclasses.replace(_FORM, **dict(zip("nabc", args)))
    assert str(info.value) == message
