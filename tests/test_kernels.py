"""Kernel families: pointwise values, classification, tails, support.

Values are checked against frozen closed-form constants.  The package's own
imports are checked too: flocklab needs the standard library and numpy only.
"""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flocklab
from flocklab.errors import KernelDomainError, UnsupportedQueryError
from flocklab.kernels import (
    KernelKind,
    KernelSpec,
    SingularityClass,
    classify,
    evaluate,
    has_fat_tail,
    support_radius,
    tail_minorant,
)


# ---------------------------------------------------------------------------
# pointwise evaluation

POINTWISE = [
    (KernelSpec(KernelKind.CLASSICAL_CS, lam=1.0, beta=1.0), math.sqrt(3.0), 0.5),
    (KernelSpec(KernelKind.CLASSICAL_CS, lam=3.0, beta=0.0), 17.0, 3.0),
    (KernelSpec(KernelKind.SINGULAR_POWER, lam=1.0, beta=1.0), 0.25, 4.0),
    (KernelSpec(KernelKind.SINGULAR_POWER, lam=1.0, beta=2.0), 2.0, 0.25),
    (KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=2.0, r0=1.0), 0.5, 2.0),
    (KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=2.0, r0=1.0), 0.95, 1.0),
    (KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=2.0, r0=1.0), 1.5, 0.0),
    (KernelSpec(KernelKind.ANNULAR, lam=1.0, beta=1.0, r0=0.5), 0.3, 0.0),
    (KernelSpec(KernelKind.ANNULAR, lam=1.0, beta=1.0, r0=0.5), 0.5, 1.0),
    (KernelSpec(KernelKind.ANNULAR, lam=1.0, beta=1.0, r0=0.5), 1.5, 0.5),
    (KernelSpec(KernelKind.CONSTANT_NEAR_ZERO, lam=2.0, beta=1.0, r0=2.0), 1.0, 2.0),
    (KernelSpec(KernelKind.CONSTANT_NEAR_ZERO, lam=2.0, beta=1.0, r0=2.0), 3.0, math.sqrt(2.0)),
]


@pytest.mark.parametrize("spec,r,expected", POINTWISE)
def test_pointwise_values(spec, r, expected):
    assert evaluate(spec, r) == pytest.approx(expected, abs=1e-14)


def test_evaluate_scalar_vs_array():
    spec = KernelSpec(KernelKind.CLASSICAL_CS, lam=1.0, beta=1.0)
    out = evaluate(spec, np.array([0.0, math.sqrt(3.0)]))
    assert isinstance(out, np.ndarray)
    np.testing.assert_allclose(out, [1.0, 0.5], atol=1e-15)
    assert isinstance(evaluate(spec, 1.0), float)


def test_evaluate_at_zero():
    # bounded families return lam at contact, singular ones refuse
    assert evaluate(KernelSpec(KernelKind.CLASSICAL_CS, lam=2.0, beta=3.0), 0.0) == 2.0
    assert evaluate(KernelSpec(KernelKind.CONSTANT_NEAR_ZERO, lam=2.0, beta=1.0), 0.0) == 2.0
    with pytest.raises(KernelDomainError):
        evaluate(KernelSpec(KernelKind.SINGULAR_POWER, lam=1.0, beta=0.5), 0.0)


def test_evaluate_negative_range_rejected():
    spec = KernelSpec(KernelKind.CLASSICAL_CS, lam=1.0, beta=1.0)
    with pytest.raises(KernelDomainError):
        evaluate(spec, -0.1)
    with pytest.raises(KernelDomainError):
        evaluate(spec, np.array([0.5, -0.5]))


# ---------------------------------------------------------------------------
# classification and tails

def test_classification():
    assert classify(KernelSpec(KernelKind.SINGULAR_POWER, beta=0.5)) is SingularityClass.INTEGRABLE_SINGULAR
    assert classify(KernelSpec(KernelKind.SINGULAR_POWER, beta=1.0)) is SingularityClass.STRONG_SINGULAR
    assert classify(KernelSpec(KernelKind.SINGULAR_POWER, beta=2.5)) is SingularityClass.STRONG_SINGULAR
    assert classify(KernelSpec(KernelKind.SINGULAR_POWER, beta=0.0)) is SingularityClass.SMOOTH
    for kind in (KernelKind.CLASSICAL_CS, KernelKind.LOCAL_MOLLIFIED,
                 KernelKind.ANNULAR, KernelKind.CONSTANT_NEAR_ZERO):
        assert classify(KernelSpec(kind, beta=3.0 if kind is not KernelKind.LOCAL_MOLLIFIED else 0.0)) is SingularityClass.SMOOTH


def test_fat_tail_predicate():
    assert has_fat_tail(KernelSpec(KernelKind.CLASSICAL_CS, beta=1.0))
    assert not has_fat_tail(KernelSpec(KernelKind.CLASSICAL_CS, beta=1.5))
    assert has_fat_tail(KernelSpec(KernelKind.SINGULAR_POWER, beta=0.5))
    assert not has_fat_tail(KernelSpec(KernelKind.SINGULAR_POWER, beta=2.0))
    assert has_fat_tail(KernelSpec(KernelKind.ANNULAR, beta=1.0, r0=0.5))
    assert has_fat_tail(KernelSpec(KernelKind.CONSTANT_NEAR_ZERO, beta=0.5))
    # compact support never has a fat tail, whatever beta says
    assert not has_fat_tail(KernelSpec(KernelKind.LOCAL_MOLLIFIED, r0=1.0))


def test_tail_minorant_values():
    sp = KernelSpec(KernelKind.SINGULAR_POWER, lam=1.0, beta=0.5, r0=1.0)
    # constant extension left of r0, the kernel itself beyond
    assert tail_minorant(sp, 0.5) == pytest.approx(1.0)
    assert tail_minorant(sp, 0.0) == pytest.approx(1.0)
    assert tail_minorant(sp, 4.0) == pytest.approx(0.5)
    cs = KernelSpec(KernelKind.CLASSICAL_CS, lam=2.0, beta=1.0)
    r = np.linspace(0.0, 10.0, 101)
    np.testing.assert_allclose(tail_minorant(cs, r), evaluate(cs, r))


def test_tail_minorant_monotone_and_below_kernel():
    # the annular minorant sits above the kernel's dead zone by construction,
    # so the pointwise comparison only applies from r0 outward
    r = np.linspace(0.0, 20.0, 2001)
    for spec, valid_from in (
        (KernelSpec(KernelKind.SINGULAR_POWER, lam=1.0, beta=0.5, r0=1.0), 1e-6),
        (KernelSpec(KernelKind.ANNULAR, lam=2.0, beta=1.0, r0=0.5), 0.5),
        (KernelSpec(KernelKind.CONSTANT_NEAR_ZERO, lam=1.0, beta=0.5, r0=1.0), 1e-6),
        (KernelSpec(KernelKind.CLASSICAL_CS, lam=1.0, beta=1.0), 1e-6),
    ):
        minor = tail_minorant(spec, r)
        assert np.all(np.diff(minor) <= 1e-15)
        assert np.all(np.isfinite(minor))
        sel = r >= valid_from
        assert np.all(minor[sel] <= evaluate(spec, r[sel]) + 1e-12)


def test_tail_minorant_unsupported():
    with pytest.raises(UnsupportedQueryError):
        tail_minorant(KernelSpec(KernelKind.LOCAL_MOLLIFIED, r0=1.0), 0.5)
    with pytest.raises(UnsupportedQueryError):
        tail_minorant(KernelSpec(KernelKind.SINGULAR_POWER, beta=2.0), 0.5)
    sp = KernelSpec(KernelKind.SINGULAR_POWER, lam=1.0, beta=0.5)
    with pytest.raises(KernelDomainError):
        tail_minorant(sp, -1.0)


def test_local_mollified_sharp_indicator():
    sharp = KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=2.0, r0=1.0, moll_width=0.0)
    assert evaluate(sharp, 0.5) == 2.0
    assert evaluate(sharp, 1.0) == 0.0


# ---------------------------------------------------------------------------
# spec validation and serialization

def test_spec_defaults():
    spec = KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=1.0, r0=2.0)
    assert spec.moll_width == pytest.approx(0.2)


@pytest.mark.parametrize("kwargs", [
    dict(kind=KernelKind.CLASSICAL_CS, lam=0.0),
    dict(kind=KernelKind.CLASSICAL_CS, lam=-1.0),
    dict(kind=KernelKind.CLASSICAL_CS, beta=-0.5),
    dict(kind=KernelKind.CLASSICAL_CS, r0=0.0),
    dict(kind=KernelKind.LOCAL_MOLLIFIED, r0=1.0, moll_width=1.5),
    dict(kind=KernelKind.ANNULAR, moll_width=0.1),
    dict(kind=KernelKind.LOCAL_MOLLIFIED, r0=1.0, moll_width=-0.1),
    dict(kind=KernelKind.CLASSICAL_CS, lam=math.nan),
    dict(kind=KernelKind.CLASSICAL_CS, beta=math.nan),
    dict(kind=KernelKind.CLASSICAL_CS, r0=math.inf),
])
def test_spec_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        KernelSpec(**kwargs)


def test_spec_roundtrip():
    specs = [
        KernelSpec(KernelKind.CLASSICAL_CS, lam=1.5, beta=0.7),
        KernelSpec(KernelKind.SINGULAR_POWER, lam=1.0, beta=2.5, r0=0.3),
        KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=1.0, r0=1.0, moll_width=0.25),
        KernelSpec(KernelKind.ANNULAR, lam=2.0, beta=1.0, r0=0.5),
        KernelSpec(KernelKind.CONSTANT_NEAR_ZERO, lam=1.0, beta=0.5, r0=1.0),
    ]
    for spec in specs:
        assert KernelSpec.from_dict(spec.to_dict()) == spec
    assert KernelSpec.from_dict({"kind": "classical_cs"}) == KernelSpec(KernelKind.CLASSICAL_CS)


def test_spec_reads_configs_with_an_upper_constant():
    # "Lambda" never changed a result; older configs with any value still load
    old = {"kind": "classical_cs", "lambda": 2.0, "Lambda": 1.0, "beta": 0.5}
    spec = KernelSpec.from_dict(old)
    assert spec == KernelSpec(KernelKind.CLASSICAL_CS, lam=2.0, beta=0.5)
    assert "Lambda" not in spec.to_dict()


def test_import_leaves_quadrature_unloaded():
    # flocklab needs no scipy (see the import test below); importing it must
    # not pull scipy in through numpy or anything else
    src = os.path.dirname(os.path.dirname(os.path.abspath(flocklab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = ("import sys, flocklab; "
             "print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_package_imports_only_the_standard_library_and_numpy():
    # parsed, not imported, so an import inside a function body counts too
    package = Path(flocklab.__file__).parent
    allowed = set(sys.stdlib_module_names) | {"numpy", "flocklab"}
    paths = sorted(package.rglob("*.py"))
    assert len(paths) > 5  # the harness subpackage included
    foreign = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # not relative
                names = [node.module]
            else:
                continue
            foreign += [f"{path.relative_to(package)}:{node.lineno} {name}"
                        for name in names if name.split(".")[0] not in allowed]
    assert foreign == []


@pytest.mark.parametrize("moll_width", [0.0, 0.1, 0.5])
def test_local_kernel_vanishes_from_its_support_radius(moll_width):
    spec = KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=2.0, r0=0.5, moll_width=moll_width)
    r = support_radius(spec)
    assert r == 0.5
    assert evaluate(spec, np.array([r, r + 1e-12, 3.0])).tolist() == [0.0, 0.0, 0.0]
    assert evaluate(spec, math.nextafter(r, 0.0)) > 0.0


@pytest.mark.parametrize("kind", [k for k in KernelKind if k is not KernelKind.LOCAL_MOLLIFIED])
def test_other_kernels_have_unbounded_support(kind):
    assert support_radius(KernelSpec(kind, beta=1.0, r0=0.5)) == math.inf
