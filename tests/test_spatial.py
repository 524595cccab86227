import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expdg.linalg import solve_periodic_banded
from expdg.spatial import (
    PeriodicStencilOperator,
    apply_stencil,
    build_grid,
    derivative_operator,
    quadrature,
)


def test_build_grid_spacing_and_nodes():
    g = build_grid(math.pi, 80)
    assert g.spacing == pytest.approx(math.pi / 40.0, rel=1e-15)
    assert g.size == 80
    assert g.nodes[0] == -math.pi
    assert g.nodes[40] == 0.0  # node k=M/2 sits exactly at the origin

    g2 = build_grid(25.0, 1024)
    assert g2.spacing == pytest.approx(50.0 / 1024.0, rel=1e-15)

    g3 = build_grid(1.0, 4)
    assert np.array_equal(g3.nodes, np.array([-1.0, -0.5, 0.0, 0.5]))


@pytest.mark.parametrize(
    "half_length,size",
    [(1.0, 5), (1.0, 2), (1.0, 3.5), (0.0, 8), (-2.0, 8), (math.inf, 8), (5e-324, 256), (1e-322, 256), (1e308, 8)],
)
def test_build_grid_rejects_bad_arguments(half_length, size):
    with pytest.raises(ValueError):
        build_grid(half_length, size)


@pytest.mark.parametrize("half_length, refused", [(1e-307, (1, 2, 3)), (1e-300, (2, 3)), (1e-155, (2, 3)),
                                                  (1e300, (2, 3))])
def test_derivative_operator_refuses_coefficients_that_over_or_underflow(half_length, refused):
    # 1e-300: dx**2 underflows to 0; 1e-155: 1/dx**2 overflows; 1e300: dx**2 overflows
    g = build_grid(half_length, 256)
    for order in (1, 2, 3):
        if order in refused:
            with pytest.raises(ValueError, match=f"order-{order} difference stencil"):
                derivative_operator(g, order)
        else:
            assert np.isfinite(derivative_operator(g, order).coeffs).all()


def test_quadrature_constant_is_domain_length():
    g = build_grid(math.pi, 128)
    assert quadrature(g, np.ones(g.size)) == pytest.approx(2.0 * math.pi, rel=1e-15)


def test_quadrature_gaussian_matches_erf():
    # wide Gaussian sampled on [-pi, pi): the rectangle rule on a periodic
    # smooth function is spectrally accurate up to the domain truncation
    g = build_grid(math.pi, 80)
    u = np.exp(-g.nodes**2 / 2.0) / math.sqrt(2.0 * math.pi)
    q = quadrature(g, u)
    assert abs(q - math.erf(math.pi / math.sqrt(2.0))) <= 1e-4
    assert q == pytest.approx(0.998310423378624, rel=1e-14)


def test_quadrature_sin_cancels():
    g = build_grid(math.pi, 256)
    assert abs(quadrature(g, np.sin(g.nodes))) <= 1e-14


def test_quadrature_rejects_wrong_length():
    g = build_grid(1.0, 8)
    with pytest.raises(ValueError):
        quadrature(g, np.ones(9))


def test_first_derivative_of_constant_vanishes():
    g = build_grid(math.pi, 64)
    d1 = derivative_operator(g, 1)
    out = d1.apply(np.full(g.size, 3.7))
    assert np.max(np.abs(out)) <= 1e-13 / g.spacing


@pytest.mark.parametrize("order", [1, 2, 3])
def test_row_sums_vanish(order):
    g = build_grid(math.pi, 64)
    op = derivative_operator(g, order)
    row_sums = op.to_dense().sum(axis=1)
    assert np.max(np.abs(row_sums)) <= 1e-13 / g.spacing**order


def test_first_derivative_on_sin_second_order():
    errors, spacings = [], []
    for m in (64, 128, 256, 512):
        g = build_grid(math.pi, m)
        d1 = derivative_operator(g, 1)
        errors.append(np.max(np.abs(d1.apply(np.sin(g.nodes)) - np.cos(g.nodes))))
        spacings.append(g.spacing)
    slope = np.polyfit(np.log(spacings), np.log(errors), 1)[0]
    assert abs(slope - 2.0) <= 0.1


@pytest.mark.parametrize(
    "order,exact",
    [
        (2, lambda x: -np.sin(x)),
        (3, lambda x: -np.cos(x)),
    ],
)
def test_higher_derivatives_converge_at_second_order(order, exact):
    errors, spacings = [], []
    for m in (64, 128, 256, 512):
        g = build_grid(math.pi, m)
        op = derivative_operator(g, order)
        errors.append(np.max(np.abs(op.apply(np.sin(g.nodes)) - exact(g.nodes))))
        spacings.append(g.spacing)
    slope = np.polyfit(np.log(spacings), np.log(errors), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_third_derivative_stencil_is_d1_of_d2():
    g = build_grid(1.0, 8)
    d3 = derivative_operator(g, 3)
    dx = g.spacing
    expected = {
        -2: -0.5 / dx**3,
        -1: 1.0 / dx**3,
        1: -1.0 / dx**3,
        2: 0.5 / dx**3,
    }
    assert dict(zip(d3.offsets, d3.coeffs)) == pytest.approx(expected, rel=1e-13)
    product = derivative_operator(g, 1).to_dense() @ derivative_operator(g, 2).to_dense()
    assert np.allclose(d3.to_dense(), product, rtol=1e-12, atol=1e-12 / dx**3)


@pytest.mark.parametrize("half_length,size", [(1.0, 8), (math.pi, 80), (10.0, 248), (25.0, 1024)])
def test_third_derivative_coefficients_are_the_stencil_product(half_length, size):
    # entry d + e of D1 D2 is the product of the D1 entry at d and the D2 entry at e;
    # at offset 0 the two products cancel exactly
    g = build_grid(half_length, size)
    (left, right), (off, mid, _) = derivative_operator(g, 1).coeffs, derivative_operator(g, 2).coeffs
    assert left * off + right * off == 0.0
    d3 = derivative_operator(g, 3)
    assert d3.offsets == (-2, -1, 1, 2)
    assert d3.coeffs.tobytes() == np.array([left * off, left * mid, right * mid, right * off]).tobytes()


def test_apply_matches_dense_columns():
    g = build_grid(2.0, 16)
    d2 = derivative_operator(g, 2)
    e1 = np.zeros(g.size)
    e1[1] = 1.0
    assert np.array_equal(d2.apply(e1), d2.to_dense()[:, 1])


def test_apply_matches_dense_on_gaussian():
    g = build_grid(math.pi, 80)
    d1 = derivative_operator(g, 1)
    u = np.exp(-g.nodes**2 / 2.0)
    direct = d1.apply(u)
    dense = d1.to_dense() @ u
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(direct - dense)) <= 1e-14 * scale


def test_first_and_third_derivatives_are_skew():
    rng = np.random.default_rng(3)
    g = build_grid(math.pi, 64)
    for order in (1, 3):
        a = derivative_operator(g, order).to_dense()
        assert np.max(np.abs(a + a.T)) <= 1e-12 * np.max(np.abs(a))
    u, v = rng.standard_normal(g.size), rng.standard_normal(g.size)
    d1 = derivative_operator(g, 1)
    assert abs(np.dot(d1.apply(u), v) + np.dot(u, d1.apply(v))) <= 1e-12 / g.spacing


def test_second_derivative_is_symmetric():
    g = build_grid(math.pi, 64)
    a = derivative_operator(g, 2).to_dense()
    assert np.max(np.abs(a - a.T)) <= 1e-12 * np.max(np.abs(a))


def test_integration_by_parts_identity():
    rng = np.random.default_rng(11)
    g = build_grid(math.pi, 64)
    d1 = derivative_operator(g, 1)
    u, v = rng.standard_normal(g.size), rng.standard_normal(g.size)
    total = quadrature(g, u * d1.apply(v) + d1.apply(u) * v)
    assert abs(total) <= 1e-12


def test_apply_stencil_free_function():
    # the free function on an operator built from raw (offset, coefficient)
    # pairs matches the difference operator's apply
    g = build_grid(math.pi, 32)
    d1 = derivative_operator(g, 1)
    u = np.cos(g.nodes)
    c = 1.0 / (2.0 * g.spacing)
    raw = PeriodicStencilOperator(g.size, (-1, 1), (-c, c))
    assert np.array_equal(apply_stencil(raw, u), d1.apply(u))


def test_apply_on_integer_input_matches_apply_stencil():
    d2 = derivative_operator(build_grid(1.0, 8), 2)
    u = np.arange(8)
    expected = apply_stencil(d2, u.astype(float))
    assert expected.dtype == np.float64
    out = d2.apply(u)
    assert out.dtype == expected.dtype
    assert np.array_equal(out, expected)


def roll_sum(stencil, u):
    """Reference apply: sum_d c_d u[(i+d) % n], spelled with np.roll."""
    out = np.zeros_like(u)
    for d, c in stencil:
        out = out + c * np.roll(u, -d)
    return out


@st.composite
def stencils_and_vectors(draw):
    n = draw(st.integers(3, 64))
    reach = (n - 1) // 2  # |d| < n/2
    offsets = draw(st.lists(st.integers(-reach, reach), min_size=1, max_size=5, unique=True))
    coefficients = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    stencil = tuple((d, draw(coefficients)) for d in offsets)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.standard_normal(n)
    if draw(st.booleans()):
        u = u + 1j * rng.standard_normal(n)
    return stencil, u


@settings(max_examples=200, deadline=None)
@given(case=stencils_and_vectors(), scale=st.floats(-10.0, 10.0))
def test_stencil_slicing_is_bitwise_equal_to_roll(case, scale):
    stencil, u = case
    n = u.size
    expected = roll_sum(stencil, u)
    op = PeriodicStencilOperator(n, *zip(*stencil))
    for out in (op.apply(u), apply_stencil(op, u)):
        assert out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()
    # scale * C diag(u): entry (i, i + d) is scale * c * u[(i + d) % n]
    mat = (scale * op).scale_columns(u)
    assert mat.offsets == op.offsets
    for (d, c), row in zip(stencil, mat.coeffs):
        expected_row = scale * c * np.roll(u, -d)
        assert row.dtype == expected_row.dtype
        assert row.tobytes() == expected_row.tobytes()


@settings(max_examples=100, deadline=None)
@given(case=stencils_and_vectors(), lead=st.lists(st.integers(1, 4), min_size=1, max_size=2),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_apply_equals_each_row_bitwise(case, lead, seed):
    stencil, u = case
    op = PeriodicStencilOperator(u.size, *zip(*stencil))
    rng = np.random.default_rng(seed)
    stack = u * rng.standard_normal((*lead, u.size))
    out = op.apply(stack)
    assert out.shape == stack.shape and out.flags.c_contiguous
    rows = np.array([op.apply(row) for row in stack.reshape(-1, u.size)])
    assert out.reshape(-1, u.size).tobytes() == rows.tobytes()


def test_derivative_operator_rejects_bad_order_and_tiny_grid():
    g = build_grid(1.0, 8)
    with pytest.raises(ValueError):
        derivative_operator(g, 4)
    # D3 needs bandwidth 2, impossible on 4 nodes
    with pytest.raises(ValueError):
        derivative_operator(build_grid(1.0, 4), 3)


def test_apply_rejects_wrong_length():
    g = build_grid(1.0, 8)
    d1 = derivative_operator(g, 1)
    with pytest.raises(ValueError):
        d1.apply(np.ones(7))


@pytest.mark.parametrize("shape", [(2,), (3, 7), (3, 8, 1)])
def test_banded_matrix_rejects_a_bad_coefficient_shape(shape):
    with pytest.raises(ValueError, match=r"3 offsets need coefficients of shape \(3,\), \(3, 1\) or \(3, 8\)"):
        PeriodicStencilOperator(8, (-1, 0, 1), np.ones(shape))


def test_banded_matrix_sum_rejects_mismatched_sizes():
    with pytest.raises(ValueError, match="sizes 8 and 6 differ"):
        PeriodicStencilOperator(8, (0,), (1.0,)) + PeriodicStencilOperator(6, (0,), (1.0,))


@pytest.mark.parametrize("n", [8, 80, 1024])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_a_stencil_is_a_column_that_acts_bitwise_as_its_constant_rows(order, n):
    stencil = derivative_operator(build_grid(math.pi, n), order)
    k = len(stencil.offsets)
    assert stencil.coeffs.shape == (k, 1)
    rows = PeriodicStencilOperator(n, stencil.offsets, np.repeat(stencil.coeffs, n, axis=1))
    eye = PeriodicStencilOperator(n, (0,), (0.75,))  # a stencil on another band: its sum is a union

    def same(a, b):  # bitwise, a stencil result read as the rows it stands for
        if isinstance(a, PeriodicStencilOperator):
            assert a.offsets == b.offsets
            a, b = np.broadcast_to(a.coeffs, (len(a.offsets), n)), b.coeffs
        assert a.shape == b.shape and a.tobytes() == b.tobytes()

    rng = np.random.default_rng(n + order)
    u, stack, w = rng.standard_normal(n), rng.standard_normal((4, 2, n)), rng.standard_normal(n)
    for op in (
        lambda a: a.apply(u),
        lambda a: a.apply(stack),
        lambda a: a.scale_columns(w),
        lambda a: (a + eye).shift(1.5, -0.5),
        lambda a: a + a,
        lambda a: a + eye,
        lambda a: a + rows,
        lambda a: a.to_dense(),
        lambda a: solve_periodic_banded(a + eye, u),
    ):
        same(op(stencil), op(rows))
