"""The package's records against dataclasses of the same fields, and an
import of the CLI that loads no dataclasses."""

import copy
import dataclasses
import inspect
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from torusvass.analysis import AuxiliaryScalars, DependencyRelation, ScanReport
from torusvass.errors import FrozenRecord
from torusvass.extract import AnsatzFit, ExtractionReport, GTableComparison, _Plan
from torusvass.groups import Family, GroupFactorVector, GroupInstance
from torusvass.knots import CanonicalTorusKnot, TorusKnot
from torusvass.linalg import ExactPoly, LinearSolution
from torusvass.suites import Check, SuiteResult
from torusvass.tables import InvariantTable

SRC = Path(__file__).resolve().parents[1] / "src"

#: each record class, the defaults of its fields (list or dict where each
#: instance gets a fresh one) and the arguments of one instance, every field
#: given and no two fields alike
RECORDS = {
    TorusKnot: ({}, (3, -2)),
    CanonicalTorusKnot: ({}, (5, -3)),
    LinearSolution: ({}, ((F(1), F(-2)), 2, True)),
    ExactPoly: ({"variable": "x"}, ((F(1), F(1, 2)), "N")),
    GroupInstance: ({"N": None, "j": None}, (Family.PRODUCT, 2, 1)),
    GroupFactorVector: ({}, ((((0, 1), F(1)), ((2, 1), F(-3, 4))), F(2))),
    InvariantTable: ({}, ("beta", TorusKnot(2, 3), {(2, 1): F(1)})),
    ExtractionReport: ({"rank": dict, "equations": dict},
                       (TorusKnot(2, 5), "alpha", {2: 1}, {2: 25})),
    _Plan: ({}, ((GroupInstance(Family.SU2, j=1),), (1,), ((0,),), (F(1),), (F(2),))),
    AnsatzFit: ({}, (Family.SU2, "A", {(2, 1): ExactPoly((F(1),), "A")})),
    GTableComparison: ({}, ((4, 1), ExactPoly((F(1),)), ExactPoly((F(2),)), False)),
    ScanReport: ({"checked": 0, "violations": list, "notes": list},
                 ("scan", 6, 4, [(2, 3)], ["note"])),
    DependencyRelation: ({"note": ""},
                         ("r", "b41 = 2 b21^2", (4, 1), ((2, ((2, 1), (2, 1))),), "caveat")),
    AuxiliaryScalars: ({}, (F(6), F(1), F(-1, 3))),
    Check: ({"detail": ""}, ("label", True, "why")),
    SuiteResult: ({"checks": list, "elapsed_seconds": 0.0}, ("trefoil", [Check("c", True)], 0.5)),
}

FACTORIES = (list, dict)


def reference(cls):
    """A dataclass of cls's name, fields, defaults and frozen flag."""
    defaults = RECORDS[cls][0]
    fields = []
    for name in cls._fields:
        default = defaults.get(name, dataclasses.MISSING)
        if default in FACTORIES:
            fields.append((name, object, dataclasses.field(default_factory=default)))
        elif default is not dataclasses.MISSING:
            fields.append((name, object, dataclasses.field(default=default)))
        else:
            fields.append((name, object))
    return dataclasses.make_dataclass(cls.__qualname__, fields,
                                      frozen=issubclass(cls, FrozenRecord))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_a_record_behaves_as_the_dataclass_of_its_fields(cls):
    defaults, args = RECORDS[cls]
    ref = reference(cls)
    record, twin, expected = cls(*args), cls(*args), ref(*args)
    frozen = issubclass(cls, FrozenRecord)
    # the constructor takes the dataclass's parameters, in order, with its
    # plain defaults
    params = inspect.signature(cls).parameters
    assert list(params) == [f.name for f in dataclasses.fields(ref)] == list(cls._fields)
    for name, param in params.items():
        default = defaults.get(name, inspect.Parameter.empty)
        if default not in FACTORIES:
            assert param.default == default, name
    assert [getattr(record, name) for name in cls._fields] == list(args)
    if frozen:
        assert record._key == args
    # repr, byte for byte
    assert repr(record) == repr(expected)
    # equal only to a record of the same class and the same fields
    assert record == twin and not record != twin
    assert record != expected and record != args and record != list(args)
    if cls is TorusKnot:
        assert TorusKnot(3, 2) != (3, 2) and TorusKnot(3, 2) != CanonicalTorusKnot(3, 2)
    # frozen records hash as the dataclass does; mutable ones do not hash
    if frozen:
        try:
            want = hash(expected)
        except TypeError:
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(twin) == want
        for name in cls._fields:
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"assign to field '{name}'"):
                setattr(record, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"delete field '{name}'"):
                delattr(record, name)
        assert record == twin
    else:
        with pytest.raises(TypeError):
            hash(record)
    # each instance gets fresh default lists and dicts
    made = [name for name in cls._fields if defaults.get(name) in FACTORIES]
    if made:
        required = args[:len(args) - len(defaults)]
        first, second = cls(*required), cls(*required)
        for name in made:
            assert getattr(first, name) == defaults[name]()
            assert getattr(first, name) is not getattr(second, name), name
    # pickle, copy and deepcopy give an equal record of the same class
    copies = [pickle.loads(pickle.dumps(record, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in [*copies, copy.copy(record), copy.deepcopy(record)]:
        assert type(other) is cls and other == record


def test_the_cli_imports_without_dataclasses():
    # pytest loads these modules itself, so the import runs in a fresh
    # interpreter with no site packages
    code = ("import sys, torusvass.cli; "
            "print(*sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")
