"""The frozen record base shared by the package's value classes."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import toricsym
from toricsym.datasets import load_bundled
from toricsym.fan import Fan, polytope_from_fan
from toricsym.latticecount import EnumerationPlan, build_plan, plan_for_polytope
from toricsym.polytope import Polytope
from toricsym.record import Record

RECORDS = {cls.__name__: cls for cls in Record.__subclasses__()}
GENERIC = sorted(name for name, cls in RECORDS.items() if cls.__init__ is Record.__init__)
# Fan's own __init__ only gives its uncompared last field a default, so the
# generic tests hold for it too once they read `_compare`.
TABLED = GENERIC + ["Fan"]


def test_every_value_class_is_a_record():
    assert sorted(RECORDS) == sorted([
        "BarycenterRationalFunction", "ChainReport", "ClassGroup", "DemazureReport",
        "EhrhartPolynomial", "EnumerationPlan", "Fan", "FanValidationReport", "HPolytope",
        "LatticeAutGroup", "PlanRow", "Polytope", "RigidityVerdict", "RootData",
        "SmithDecomposition", "StabilityReport", "SymmetryClassification", "VPolytope",
    ])
    # The records with their own __init__, each for a field that equality leaves out.
    assert GENERIC == sorted(set(RECORDS) - {"EnumerationPlan", "Fan", "Polytope"})


@pytest.mark.parametrize("name", TABLED)
def test_construction_equality_and_hash(name):
    cls = RECORDS[name]
    fields = cls._fields
    values = tuple((i, name) for i in range(len(fields)))
    a = cls(*values)
    b = cls(**dict(zip(fields, values)))
    c = cls(*values[:1], **dict(zip(fields[1:], values[1:])))
    assert a == b == c and a is not b
    assert hash(a) == hash(b) == hash(c)
    assert {a: 1}[b] == 1
    assert tuple(getattr(a, f) for f in fields) == values
    compared = cls._compare
    for i, f in enumerate(fields):
        other = cls(*values[:i], "other", *values[i + 1:])
        assert (a != other) == (f in compared)
    shown = (f"{f}={v!r}" for f, v in zip(fields, values) if f in compared)
    assert repr(a) == f"{name}(" + ", ".join(shown) + ")"
    assert pickle.loads(pickle.dumps(a)) == a
    assert copy.copy(a) == a and copy.deepcopy(a) == a


@pytest.mark.parametrize("name", TABLED)
def test_construction_errors(name):
    cls = RECORDS[name]
    fields = cls._fields
    values = tuple(range(len(fields)))
    with pytest.raises(TypeError, match="missing"):
        cls(*values[:fields.index(cls._compare[-1])])
    with pytest.raises(TypeError, match="missing"):
        cls(**dict(zip(fields[1:], values[1:])))
    with pytest.raises(TypeError, match="takes"):
        cls(*values, 0)
    with pytest.raises(TypeError, match="unexpected keyword argument 'nonfield'"):
        cls(*values, nonfield=0)
    with pytest.raises(TypeError, match="multiple values"):
        cls(*values, **{fields[0]: 0})


@pytest.mark.parametrize("name", TABLED)
def test_assignment_raises(name):
    cls = RECORDS[name]
    a = cls(*range(len(cls._fields)))
    for f in cls._fields:
        with pytest.raises(AttributeError):
            setattr(a, f, None)
        with pytest.raises(AttributeError):
            delattr(a, f)
    with pytest.raises(AttributeError):
        a.nonfield = None
    assert getattr(a, cls._fields[0]) == 0


def test_a_record_must_list_its_slots():
    with pytest.raises(TypeError, match="__slots__"):
        type("Loose", (Record,), {})


def test_dropped_inequalities_are_left_out_of_equality():
    p = polytope_from_fan(load_bundled("dp3"))
    q = Polytope(p.h, p.v, p.incidence, dropped_inequalities=(((1, 0), 5),))
    assert p.dropped_inequalities == () and q == p and hash(q) == hash(p)
    assert "dropped" not in repr(q)
    assert Polytope(h=p.h, v=p.v, incidence=p.incidence) == p
    with pytest.raises(TypeError):
        Polytope(p.h, p.v)
    with pytest.raises(TypeError):
        Polytope(p.h, p.v, p.incidence, (), None)
    with pytest.raises(AttributeError):
        q.dropped_inequalities = ()


def test_plan_caches_are_left_out_of_equality():
    plan = build_plan(polytope_from_fan(load_bundled("dp3")))
    other = EnumerationPlan(plan.dim, plan.levels)
    plan.scans[1] = (19, (0, 0))
    object.__setattr__(plan, "rational", "held")
    assert plan == other and hash(plan) == hash(other)
    assert plan.memo_keys == other.memo_keys
    assert other.scans == {} and other.rational is None and other.constants == ()
    assert repr(plan) == (
        f"EnumerationPlan(dim=2, levels={plan.levels!r}, constants=(), order=(0, 1))"
    )
    assert EnumerationPlan(dim=2, levels=plan.levels, scans={2: 1}).scans == {2: 1}
    with pytest.raises(TypeError):
        EnumerationPlan(dim=2)
    with pytest.raises(AttributeError):
        plan.scans = {}


def test_fan_hull_is_left_out_of_equality():
    f = Fan.from_rays([(1, 0), (0, 1), (-1, -1)])
    twin = Fan(2, f.rays, f.max_cones)
    assert f.hull is not None and twin.hull is None
    assert f == twin and hash(f) == hash(twin) and {f: 1}[twin] == 1
    assert repr(f) == repr(twin) == (
        f"Fan(dim=2, rays={f.rays!r}, max_cones={f.max_cones!r})"
    )
    assert Fan(dim=2, rays=f.rays, max_cones=f.max_cones, hull=f.hull) == f
    assert f != Fan(2, f.rays, f.max_cones[:-1], f.hull)
    for g in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
        assert g == f and g.hull == f.hull and g.hull.dropped_inequalities == ()


def test_the_hash_is_kept_per_object():
    p = polytope_from_fan(load_bundled("p2"))
    h = hash(p)
    assert p._hash == h
    assert hash(p) == h


def test_plan_cache_hits_on_an_equal_polytope():
    p = polytope_from_fan(load_bundled("dp2"))
    q = Polytope(p.h, p.v, p.incidence)
    assert q is not p and q == p
    plan = plan_for_polytope(p)
    hits = plan_for_polytope.cache_info().hits
    assert plan_for_polytope(q) is plan
    assert plan_for_polytope.cache_info().hits == hits + 1


def test_import_leaves_out_dataclasses_and_inspect():
    # Without `site`, so that only the package's own imports are seen.
    src = Path(toricsym.__file__).resolve().parents[1]
    code = (
        "import sys, toricsym.cli; print(' '.join(m for m in "
        "('dataclasses', 'inspect', 'hashlib', '_hashlib') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == ""
