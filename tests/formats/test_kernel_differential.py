"""Differential conformance harness: LUT kernels vs the scalar oracle.

Every registry format with ``bits <= 16`` must behave **bit-for-bit**
identically whether the codec kernels (:mod:`repro.formats.kernels`) or the
historical scalar/vectorized module functions serve the call:

* ``from_bits`` — exhaustive over all ``2**bits`` codes, including NaR/NaN
  patterns and signed zeros (compared with ``signbit``, not just value);
  posit codes are also checked against the per-code scalar decoder.
* ``to_bits`` / ``quantize`` — exhaustive over the representable grid, every
  midpoint between adjacent representable values, the one-ulp neighbours of
  every midpoint (the tie-to-even boundary), seeded log-uniform and normal
  random draws, and the special values named in the issue: ``±0``, ``±inf``,
  ``NaN``, the subnormal range, and magnitudes beyond ``maxpos``.
* ``stochastic`` rounding — deterministic on exactly representable inputs,
  and compared distribution-wise (up-rounding frequency per probe point)
  under fixed seeds otherwise, since kernel and oracle consume their
  generators over different index sets.

The oracle side always goes through :func:`repro.formats.reference_ops`,
which binds the module-level functions directly — those never dispatch back
into the kernels, so the comparison stays meaningful even with kernels
forced on.  The kernel side goes through the *format methods*, so the
dispatch layer is exercised end-to-end, not just the kernel object.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.formats import (
    KERNEL_MAX_BITS,
    available_formats,
    get_kernel,
    reference_ops,
    set_kernels_enabled,
)
from repro.posit import PositConfig
from repro.posit import scalar as posit_scalar


def _narrow_formats():
    """Distinct registry formats with ``bits <= KERNEL_MAX_BITS``."""
    seen, out = set(), []
    for fmt in available_formats().values():
        if fmt.bits <= KERNEL_MAX_BITS and fmt not in seen:
            seen.add(fmt)
            out.append(fmt)
    return sorted(out, key=lambda f: f.spec())


NARROW_FORMATS = _narrow_formats()
FORMAT_IDS = [fmt.spec() for fmt in NARROW_FORMATS]

#: Deterministic rounding modes.  Posit distinguishes ``zero`` (Algorithm 1
#: truncation) from ``nearest``; float/fixed map ``zero`` onto ``nearest``,
#: and the harness runs both spellings so that mapping is pinned too.
DETERMINISTIC_MODES = ("zero", "nearest")


@pytest.fixture(autouse=True)
def _force_kernels_on():
    previous = set_kernels_enabled(True)
    yield
    set_kernels_enabled(previous)


def _assert_same_values(kernel_vals, oracle_vals, context: str) -> None:
    kernel_vals = np.asarray(kernel_vals, dtype=np.float64)
    oracle_vals = np.asarray(oracle_vals, dtype=np.float64)
    assert np.array_equal(kernel_vals, oracle_vals, equal_nan=True), context
    # Value equality treats -0.0 == +0.0; the bit pattern must match too.
    assert np.array_equal(np.signbit(kernel_vals), np.signbit(oracle_vals)), (
        f"{context}: signed-zero mismatch"
    )


def _grid_values(fmt) -> np.ndarray:
    """Sorted unique finite representable values, via the oracle decoder."""
    ref = reference_ops(fmt)
    codes = np.arange(1 << fmt.bits, dtype=np.int64)
    values = np.asarray(ref.from_bits(codes), dtype=np.float64)
    return np.unique(values[np.isfinite(values)])


def _encode_sweep(fmt) -> np.ndarray:
    """Adversarial encode inputs: grid, midpoints, tie neighbours, randoms,
    specials (±0, ±inf, NaN, subnormal range, beyond-maxpos magnitudes)."""
    grid = _grid_values(fmt)
    mids = 0.5 * (grid[:-1] + grid[1:])
    neighbours = np.concatenate(
        [np.nextafter(mids, -np.inf), np.nextafter(mids, np.inf)]
    )
    rng = np.random.default_rng(0x5EED + fmt.bits)
    minpos, maxpos = float(fmt.minpos), float(fmt.maxpos)
    log_mag = np.exp(
        rng.uniform(np.log(minpos / 8.0), np.log(maxpos * 8.0), size=4096)
    )
    randoms = np.concatenate(
        [log_mag, -log_mag, rng.normal(scale=max(1.0, maxpos / 16.0), size=1024)]
    )
    specials = np.array(
        [
            0.0, -0.0, np.inf, -np.inf, np.nan,
            1e308, -1e308, 5e-324, -5e-324,
            minpos, -minpos, minpos / 2.0, -minpos / 2.0,
            minpos / 4.0, -minpos / 4.0,
            np.nextafter(minpos / 2.0, 0.0), np.nextafter(minpos / 2.0, 1.0),
            maxpos, -maxpos, maxpos * 2.0, -maxpos * 2.0,
            np.nextafter(maxpos, np.inf), -np.nextafter(maxpos, np.inf),
        ]
    )
    return np.concatenate([grid, mids, neighbours, randoms, specials])


def test_every_narrow_registry_format_has_a_kernel():
    """The issue requires kernels for *every* bits<=16 registry format."""
    missing = [fmt.spec() for fmt in NARROW_FORMATS if get_kernel(fmt) is None]
    assert not missing, f"no kernel built for: {missing}"


@pytest.mark.parametrize("fmt", NARROW_FORMATS, ids=FORMAT_IDS)
def test_from_bits_exhaustive(fmt):
    """All 2**bits codes decode identically through kernel and oracle."""
    ref = reference_ops(fmt)
    codes = np.arange(1 << fmt.bits, dtype=np.int64)
    kernel_vals = fmt.from_bits(codes)
    _assert_same_values(kernel_vals, ref.from_bits(codes), f"{fmt.spec()} from_bits")
    if isinstance(fmt, PositConfig):
        # The posit decode LUT is built by the vectorized oracle; anchor it
        # to the per-code scalar reference as well.
        scalar = [posit_scalar.decode(int(code), fmt) for code in codes]
        _assert_same_values(kernel_vals, scalar, f"{fmt.spec()} from_bits vs scalar")


@pytest.mark.parametrize("mode", DETERMINISTIC_MODES)
@pytest.mark.parametrize("fmt", NARROW_FORMATS, ids=FORMAT_IDS)
def test_to_bits_bit_identity(fmt, mode):
    ref = reference_ops(fmt)
    x = _encode_sweep(fmt)
    kernel_bits = fmt.to_bits(x, mode=mode)
    oracle_bits = ref.to_bits(x, mode=mode)
    np.testing.assert_array_equal(
        kernel_bits, oracle_bits, err_msg=f"{fmt.spec()} to_bits[{mode}]"
    )


@pytest.mark.parametrize("mode", DETERMINISTIC_MODES)
@pytest.mark.parametrize("fmt", NARROW_FORMATS, ids=FORMAT_IDS)
def test_quantize_bit_identity(fmt, mode):
    ref = reference_ops(fmt)
    x = _encode_sweep(fmt)
    _assert_same_values(
        fmt.quantize(x, mode=mode),
        ref.quantize(x, mode=mode),
        f"{fmt.spec()} quantize[{mode}]",
    )


# The fixed-point *oracle* warns on inf - inf under stochastic rounding
# (pre-existing behaviour both paths share; the kernel delegates to it).
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("fmt", NARROW_FORMATS, ids=FORMAT_IDS)
def test_stochastic_is_deterministic_on_grid(fmt):
    """Exactly representable inputs round to themselves with probability 1,
    so stochastic mode must agree bit-for-bit on the grid (and on the
    specials the oracle handles deterministically)."""
    ref = reference_ops(fmt)
    grid = _grid_values(fmt)
    x = np.concatenate([grid, [0.0, -0.0, np.inf, -np.inf, np.nan]])
    kernel_bits = fmt.to_bits(x, mode="stochastic", rng=np.random.default_rng(1))
    oracle_bits = ref.to_bits(x, mode="stochastic", rng=np.random.default_rng(2))
    np.testing.assert_array_equal(
        kernel_bits, oracle_bits, err_msg=f"{fmt.spec()} stochastic grid"
    )
    _assert_same_values(
        fmt.quantize(x, mode="stochastic", rng=np.random.default_rng(3)),
        ref.quantize(x, mode="stochastic", rng=np.random.default_rng(4)),
        f"{fmt.spec()} stochastic grid quantize",
    )


@pytest.mark.parametrize("fmt", NARROW_FORMATS, ids=FORMAT_IDS)
def test_stochastic_distribution_matches(fmt):
    """Between grid points the two paths draw from their generators over
    different index sets, so seeds don't align call-for-call; compare the
    up-rounding frequency per probe point instead (law, not stream)."""
    ref = reference_ops(fmt)
    grid = _grid_values(fmt)
    positive = grid[grid > 0]
    rng = np.random.default_rng(99)
    idx = rng.choice(positive.size - 1, size=min(16, positive.size - 1),
                     replace=False)
    lo, hi = positive[idx], positive[idx + 1]
    fractions = np.array([0.25, 0.5, 0.75])[:, None]
    points = (lo + fractions * (hi - lo)).ravel()

    draws = 3000
    tiled = np.tile(points, draws)
    kernel_bits = fmt.to_bits(
        tiled, mode="stochastic", rng=np.random.default_rng(7)
    ).reshape(draws, points.size)
    oracle_bits = np.asarray(ref.to_bits(
        tiled, mode="stochastic", rng=np.random.default_rng(11)
    )).reshape(draws, points.size)

    # Each point has exactly two admissible codes; compare P(higher code).
    kernel_lo = kernel_bits.min(axis=0)
    oracle_lo = oracle_bits.min(axis=0)
    np.testing.assert_array_equal(kernel_lo, oracle_lo)
    np.testing.assert_array_equal(kernel_bits.max(axis=0),
                                  oracle_bits.max(axis=0))
    kernel_up = (kernel_bits != kernel_lo).mean(axis=0)
    oracle_up = (oracle_bits != oracle_lo).mean(axis=0)
    np.testing.assert_allclose(
        kernel_up, oracle_up, atol=0.04,
        err_msg=f"{fmt.spec()} stochastic up-probability",
    )


@pytest.mark.parametrize("fmt", NARROW_FORMATS, ids=FORMAT_IDS)
def test_kernel_disabled_matches_kernel_enabled(fmt):
    """The switch changes the engine, never the answer."""
    x = _encode_sweep(fmt)
    on_bits = fmt.to_bits(x, mode="nearest")
    on_vals = fmt.quantize(x, mode="nearest")
    set_kernels_enabled(False)
    try:
        off_bits = fmt.to_bits(x, mode="nearest")
        off_vals = fmt.quantize(x, mode="nearest")
    finally:
        set_kernels_enabled(True)
    np.testing.assert_array_equal(on_bits, off_bits)
    _assert_same_values(on_vals, off_vals, f"{fmt.spec()} switch")
