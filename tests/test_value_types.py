"""The package's value types are slotted dataclasses.

A query keeps one Sequence, Certificate and IndexResult alive, and a
verification run keeps a report per modulus; none of them needs a
per-instance __dict__.  Each must still compare, hash (when frozen),
refuse assignment (when frozen) and survive pickling, which is how
counterexample reports cross the `--jobs` process boundary.
"""

import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import pytest

import zsindex
from zsindex import (
    NormalForm,
    classify,
    find_certificate,
    index,
    iter_orbit_reps,
    make_sequence,
    normal_form_sequence,
    shape_stats,
    try_subgroup_reduce,
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
    "SubgroupReduction": lambda: try_subgroup_reduce(make_sequence(25, [5, 5, 5, 10])),
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
