"""Kernel families: pointwise values, classification, tails, range integrals.

Integrals are checked two ways: against frozen closed-form constants and
against an independent composite-Simpson quadrature of the pointwise
evaluator (split at the known breakpoints, since two families are only
piecewise smooth).
"""

import math
import os
import subprocess
import sys

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
    primitive_integral,
    support_radius,
    tail_minorant,
)


def _breakpoints(spec):
    if spec.kind is KernelKind.LOCAL_MOLLIFIED:
        return (spec.r0 - spec.moll_width, spec.r0)
    if spec.kind in (KernelKind.ANNULAR, KernelKind.CONSTANT_NEAR_ZERO):
        return (spec.r0,)
    return ()


def _simpson(f, a, b, n=20000):
    xs = np.linspace(a, b, 2 * n + 1)
    ys = f(xs)
    h = (b - a) / (2 * n)
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1::2].sum() + 2.0 * ys[2:-1:2].sum())


def quad_oracle(spec, r1, r2):
    """Composite Simpson of evaluate(), piecewise across family breakpoints.

    Pieces are inset by 1e-12 so a jump sitting exactly on a cut is sampled
    from the correct side; the trimmed mass is far below the tolerance used.
    """
    cuts = sorted({r1, r2, *(b for b in _breakpoints(spec) if r1 < b < r2)})
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b - a > 2e-12:
            total += _simpson(lambda r: np.asarray(evaluate(spec, r)), a + 1e-12, b - 1e-12)
    return total


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


# ---------------------------------------------------------------------------
# range integrals

INTEGRALS = [
    # (spec, r1, r2, frozen closed-form value)
    (KernelSpec(KernelKind.SINGULAR_POWER, lam=1.0, beta=1.0), 0.1, 1.0, math.log(10.0)),
    (KernelSpec(KernelKind.SINGULAR_POWER, lam=1.0, beta=0.5), 0.01, 1.0, 1.8),
    (KernelSpec(KernelKind.SINGULAR_POWER, lam=1.0, beta=1.5), 1.0, 4.0, 1.0),
    (KernelSpec(KernelKind.SINGULAR_POWER, lam=2.0, beta=0.0), 1.0, 3.0, 4.0),
    (KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=1.0, r0=1.0), 0.0, 1.0, 0.95),
    (KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=1.0, r0=1.0), 0.9, 1.0, 0.05),
    (KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=1.0, r0=1.0), 0.92, 0.96, 0.0256),
    (KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=1.0, r0=1.0), 1.0, 5.0, 0.0),
    (KernelSpec(KernelKind.ANNULAR, lam=1.0, beta=1.0, r0=0.5), 0.0, 0.5, 0.0),
    (KernelSpec(KernelKind.ANNULAR, lam=1.0, beta=1.0, r0=0.5), 0.5, 1.5, math.log(2.0)),
    (KernelSpec(KernelKind.ANNULAR, lam=1.0, beta=1.0, r0=0.5), 0.2, 0.6, math.log(1.1)),
    (KernelSpec(KernelKind.ANNULAR, lam=1.0, beta=0.5, r0=0.5), 0.5, 3.5, 2.0),
    (KernelSpec(KernelKind.CLASSICAL_CS, lam=1.0, beta=1.0), 0.0, 1.0, math.asinh(1.0)),
    (KernelSpec(KernelKind.CLASSICAL_CS, lam=1.0, beta=2.0), 0.0, 1.0, math.pi / 4.0),
    (KernelSpec(KernelKind.CONSTANT_NEAR_ZERO, lam=2.0, beta=1.0, r0=2.0), 0.0, 2.0, 4.0),
    (KernelSpec(KernelKind.CONSTANT_NEAR_ZERO, lam=2.0, beta=1.0, r0=2.0), 0.0, 3.0,
     4.0 + 2.0 * math.asinh(1.0)),
]


@pytest.mark.parametrize("spec,r1,r2,expected", INTEGRALS)
def test_primitive_integral_closed_forms(spec, r1, r2, expected):
    got = primitive_integral(spec, r1, r2)
    assert got == pytest.approx(expected, abs=1e-12, rel=1e-12)
    assert got == pytest.approx(quad_oracle(spec, r1, r2), abs=1e-9)


def test_primitive_integral_improper():
    # integrable singularity: the improper value is the antiderivative limit
    sp = KernelSpec(KernelKind.SINGULAR_POWER, lam=1.0, beta=0.5)
    assert primitive_integral(sp, 0.0, 1.0) == pytest.approx(2.0, abs=1e-14)
    # strong singularity: explicit divergence marker
    strong = KernelSpec(KernelKind.SINGULAR_POWER, lam=1.0, beta=1.5)
    assert primitive_integral(strong, 0.0, 1.0) == math.inf
    assert primitive_integral(KernelSpec(KernelKind.SINGULAR_POWER, beta=1.0), 0.0, 1.0) == math.inf


def test_primitive_integral_additive():
    rng = np.random.default_rng(7)
    for spec in (
        KernelSpec(KernelKind.SINGULAR_POWER, lam=1.3, beta=0.7),
        KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=2.0, r0=1.5),
        KernelSpec(KernelKind.ANNULAR, lam=1.0, beta=1.2, r0=0.8),
        KernelSpec(KernelKind.CLASSICAL_CS, lam=1.0, beta=0.8),
        KernelSpec(KernelKind.CONSTANT_NEAR_ZERO, lam=1.0, beta=1.4, r0=0.6),
    ):
        pts = np.sort(rng.uniform(0.05, 4.0, size=3))
        a, b, c = pts
        whole = primitive_integral(spec, a, c)
        split = primitive_integral(spec, a, b) + primitive_integral(spec, b, c)
        assert whole == pytest.approx(split, rel=1e-10, abs=1e-12)


def test_primitive_integral_degenerate_and_invalid():
    spec = KernelSpec(KernelKind.CLASSICAL_CS, lam=1.0, beta=1.0)
    assert primitive_integral(spec, 0.7, 0.7) == 0.0
    with pytest.raises(KernelDomainError):
        primitive_integral(spec, -0.1, 1.0)
    with pytest.raises(KernelDomainError):
        primitive_integral(spec, 1.0, 0.5)


def test_local_mollified_sharp_indicator():
    sharp = KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=2.0, r0=1.0, moll_width=0.0)
    assert evaluate(sharp, 0.5) == 2.0
    assert evaluate(sharp, 1.0) == 0.0
    assert primitive_integral(sharp, 0.5, 2.0) == pytest.approx(1.0)


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
    # scipy dominates import time and only the quadrature fallback loads it
    src = os.path.dirname(os.path.dirname(os.path.abspath(flocklab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = ("import sys, flocklab; "
             "print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


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
