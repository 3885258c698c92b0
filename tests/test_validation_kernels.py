"""The TV experiment (paper Section 3.4 / artifact A.4(2)):
translation-validate the compiler's output on the evaluation kernels.

The full 21-kernel sweep is the benchmark harness's job; here we cover
one kernel per category end-to-end, which exercises every validation
path (structural, canonical, randomized fallback)."""

import pytest

from repro.compiler import CompileOptions, compile_spec
from repro.kernels import (
    extra_kernels,
    make_conv2d,
    make_matmul,
    make_qprod,
    make_qr,
    table1_kernels,
)

OPTIONS = CompileOptions(time_limit=8.0, node_limit=60_000, validate=True)


@pytest.mark.parametrize(
    "kernel",
    [
        make_matmul(2, 2, 2),
        make_matmul(2, 3, 3),
        make_conv2d(3, 3, 2, 2),
        make_qprod(),
    ],
    ids=lambda k: k.name,
)
def test_kernel_validates(kernel):
    result = compile_spec(kernel.spec(), OPTIONS)
    assert result.validation is not None
    assert result.validated, [
        (l.index, l.method, l.detail) for l in result.validation.failing_lanes()
    ]


def test_qr3_validates_with_random_fallback():
    """QR's lanes overflow the canonical form; randomized differential
    validation must take over and accept."""
    result = compile_spec(make_qr(3).spec(), OPTIONS)
    assert result.validated
    assert result.validation.methods_used.get("random", 0) > 0


def test_validation_not_run_when_disabled():
    from dataclasses import replace

    result = compile_spec(
        make_matmul(2, 2, 2).spec(), replace(OPTIONS, validate=False)
    )
    assert result.validation is None
    assert not result.validated


#: Per-lane proof method (c = canonical, s = structural, r = random) and
#: the total canonicalization work charged, for budget-free compiles.
#: Computed with the plain all-``Fraction`` canonicalizer: the work
#: budget decides which lanes fall back to random sampling, so a faster
#: canonicalizer must reproduce these exactly (DESIGN.md §14).
PINNED_LANES = {
    "matmul-4x4-4x4": ("c" * 16, 1952),
    "2dconv-3x3-2x2": ("cccccssccccccccc", 702),
    "normalize-8": ("c" * 8, 2016),
    "quat2rot": ("c" * 9, 612),
    "inverse-2x2": ("c" * 4, 312),
    "qrdecomp-2x2": ("crrrccrr", 4370),
}


@pytest.mark.parametrize("name", sorted(PINNED_LANES))
def test_lane_methods_verdicts_and_work_pinned(name):
    methods, work = PINNED_LANES[name]
    known = {k.name: k for k in table1_kernels() + extra_kernels() + [make_qr(2)]}
    result = compile_spec(known[name].spec(), CompileOptions(time_limit=None))
    lanes = result.validation.lanes
    assert "".join(lane.method[0] for lane in lanes) == methods
    assert [lane.ok for lane in lanes] == [True] * len(methods)
    assert sum(lane.work for lane in lanes) == work
