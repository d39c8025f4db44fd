import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emodeid.dsp import poles_to_coeffs, poly_roots
from emodeid.errors import InvalidParamError


def root_errors(found, expected):
    """Each expected root's distance to its greedy nearest match in ``found``."""
    pool = list(found)
    errors = []
    for z in expected:
        i = min(range(len(pool)), key=lambda i: abs(pool[i] - z))
        errors.append(abs(pool.pop(i) - z))
    return np.array(errors)


def match_roots(found, expected):
    """Greedy nearest matching; returns the worst per-root distance."""
    return float(root_errors(found, expected).max(initial=0.0))


def root_conditions(poles):
    """cond_i = prod over j != i of (|z_i| + |z_j|) / |z_i - z_j|, per pole.

    ``poles_to_coeffs`` rounds each coefficient to within a few ulps of the
    matching coefficient of prod_j (z + |z_j|). By Wilkinson's first-order
    bound, root z_i then moves by about eps * 2|z_i| * cond_i. The factor
    2|z_i| is left out: it is at most 2, and near zero the finder's own
    rounding is absolute, not relative to |z_i|.
    """
    gaps = np.abs(poles[:, None] - poles[None, :])
    sums = np.abs(poles)[:, None] + np.abs(poles)[None, :]
    np.fill_diagonal(gaps, 1.0)
    np.fill_diagonal(sums, 1.0)
    return np.prod(sums / gaps, axis=1)


# Each root must lie within ROOT_ERROR_C * eps * cond of its pole. Over 53,000
# random seeds the polished finder's worst root reached 0.66 of eps * cond; a
# finder without the Newton polish exceeds 8 on about 3% of seeds.
ROOT_ERROR_C = 8.0


def random_conjugate_closed(rng, max_degree=24, max_magnitude=0.99):
    degree = int(rng.integers(1, max_degree + 1))
    n_pairs = degree // 2
    poles = []
    for _ in range(n_pairs):
        mag = rng.uniform(0.0, max_magnitude)
        theta = rng.uniform(0.01, np.pi - 0.01)
        z = mag * np.exp(1j * theta)
        poles.extend([z, np.conj(z)])
    for _ in range(degree - 2 * n_pairs):
        poles.append(complex(rng.uniform(-max_magnitude, max_magnitude)))
    return np.array(poles)


def test_real_factor_pair():
    roots = poly_roots([1.0, -1.7, 0.72])
    assert sorted(r.real for r in roots) == pytest.approx([0.8, 0.9])
    assert all(r.imag == 0.0 for r in roots)


def test_pure_imaginary_pair():
    roots = sorted(poly_roots([1.0, 0.0, 0.25]), key=lambda z: z.imag)
    np.testing.assert_allclose(roots, [-0.5j, 0.5j], atol=1e-12)


def test_degree_zero_gives_empty_set():
    assert poly_roots([1.0]).size == 0


def test_leading_zero_rejected():
    with pytest.raises(InvalidParamError):
        poly_roots([0.0, 1.0, 2.0])


def test_conjugate_pairing_is_exact():
    rng = np.random.default_rng(2)
    for _ in range(20):
        coeffs = poles_to_coeffs(random_conjugate_closed(rng))
        roots = poly_roots(coeffs)
        complex_roots = [z for z in roots if z.imag != 0.0]
        assert len(complex_roots) % 2 == 0
        remaining = list(complex_roots)
        while remaining:
            z = remaining.pop()
            matches = [i for i, w in enumerate(remaining) if w == np.conj(z)]
            assert matches, f"no exact conjugate for {z}"
            remaining.pop(matches[0])


def test_poles_to_coeffs_known_pair():
    np.testing.assert_allclose(
        poles_to_coeffs(np.array([0.9, 0.8], dtype=complex)),
        [1.0, -1.7, 0.72],
    )


def test_poles_to_coeffs_empty():
    np.testing.assert_array_equal(poles_to_coeffs(np.zeros(0, dtype=complex)), [1.0])


def test_poles_to_coeffs_rejects_unpaired_complex_pole():
    with pytest.raises(InvalidParamError):
        poles_to_coeffs(np.array([0.5 + 0.5j, 0.3]))


def test_poles_to_coeffs_real_output():
    rng = np.random.default_rng(4)
    for _ in range(50):
        coeffs = poles_to_coeffs(random_conjugate_closed(rng))
        assert coeffs.dtype == np.float64


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
# Clustered poles: even the exact roots of the rounded coefficients are
# 1.8e-6 off, yet well within the bound.
@example(seed=4000001621)
# Without the Newton polish one root is 381 eps * cond off.
@example(seed=1219)
def test_root_coefficient_round_trip(seed):
    rng = np.random.default_rng(seed)
    poles = random_conjugate_closed(rng)
    coeffs = poles_to_coeffs(poles)
    bound = ROOT_ERROR_C * np.finfo(np.float64).eps * root_conditions(poles)
    assert np.all(root_errors(poly_roots(coeffs), poles) <= bound)
