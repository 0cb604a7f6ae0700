"""PuiseuxSeries on its integer exponent lattice against the Fraction-keyed
series it replaced (fraction_series.py), operation by operation: operands
on different and on non-least lattices, shifts and bounds off the lattice,
and Fourier sectors in (1/2)Z."""

from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import fraction_series as ref
from fraction_series import ref_of, same
from nektau import series
from nektau.fourier import FourierSeries
from nektau.rationals import GaussianRational as G
from nektau.series import PuiseuxSeries, on_lattice, theta_products
from nektau.symbols import NonInvertible, SymExpr, rational_power
from test_series import ATOMS, POLYS, factored_polys, maybe_z0, symbolic_series


def stretched(p, k):
    """p stored on the lattice (1/(k L))Z instead of (1/L)Z."""
    return on_lattice(p.L * k, {X * k: c for X, c in p.xterms.items()}, p.trunc)


@st.composite
def lattice_series(draw):
    """A symbolic series, at times stored on a lattice finer than its least."""
    return stretched(draw(symbolic_series()), draw(st.sampled_from([1, 1, 2, 3])))


@st.composite
def lattice_fourier(draw):
    """Up to three sectors in (1/2)Z, each on a lattice of its own."""
    keys = draw(st.lists(st.sampled_from([F(-3, 2), F(-1), F(-1, 2), F(0), F(1, 2), F(1)]),
                         max_size=3, unique=True))
    return FourierSeries({k: draw(lattice_series()) for k in keys},
                         draw(st.sampled_from([F(0), F(7, 3), F(5, 2)])))


def outcome(op, *args):
    """('value', result) or ('raises', exception type) of op(*args)."""
    try:
        return "value", op(*args)
    except (ZeroDivisionError, NonInvertible) as exc:
        return "raises", type(exc)


def assert_same_outcome(op, *args):
    kind, new = outcome(op, *args)
    ref_kind, old = outcome(op, *map(ref_of, args))
    assert kind == ref_kind
    assert same(new, old) if kind == "value" else new is old


# shifts off the operand's lattice (1/3 onto a 1/2-lattice) and bounds off
# it (7/3)
SHIFTS = [F(1, 3), F(-1, 2), F(5, 6), F(0), F(2), F(-7, 4)]
BOUNDS = [F(7, 3), F(1, 2), F(-1), F(5), F(0), F(3, 4)]
scalars = st.builds(lambda a, c: a * c, st.sampled_from(ATOMS),
                    st.sampled_from([G(0), G(1), G(-3, 2), G(F(1, 3), 1)]))


@given(lattice_series(), lattice_series())
@settings(max_examples=80)
def test_ring_operations(p, q):
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        assert_same_outcome(op, p, q)
        assert_same_outcome(op, p, p)
    assert_same_outcome(lambda a: -a, p)
    assert_same_outcome(lambda a: a + 2, p)
    assert_same_outcome(lambda a: a - SymExpr.coerce(F(1, 3)), p)
    assert_same_outcome(lambda a: a * 3, p)


@given(lattice_series(), scalars, st.sampled_from(SHIFTS), st.sampled_from(BOUNDS))
@settings(max_examples=80)
def test_unary_operations(p, c, de, E):
    assert_same_outcome(lambda a: a.scale(c), p)
    assert_same_outcome(lambda a: a.shift(de), p)
    assert_same_outcome(lambda a: a.truncate(E), p)
    assert_same_outcome(lambda a: a.theta(), p)
    assert_same_outcome(lambda a: a.shift(de).truncate(E) + a, p)


@given(lattice_series(), st.sampled_from([F(0), F(1), F(-1, 2), F(3, 4)]),
       st.sampled_from([F(1, 2), F(2, 3)]))
@settings(max_examples=40)
def test_dilations(p, x, t):
    sample = SimpleNamespace(t=t, dq=4)
    assert_same_outcome(lambda a: a.dilate(x, sample), p)
    new, old = p.dilate_t(t, x), ref.ref_dilate_t(ref_of(p), t, x)
    assert same(new, old)


@pytest.mark.parametrize("t,texps", [
    (F(2, 3), [F(1), F(-2), F(1, 2), F(2, 3)]),
    (F(-3, 5), [F(1), F(-2), F(3)]),
])
def test_dilate_t_scales_by_the_fraction_power_at_integer_exponents(t, texps):
    # terms at z^-1, z^(1/2), z^1 and z^(3/2), each with two monomials: an
    # integer t-exponent scales by the Fraction t^e, any other one by the
    # rational_power of the reference; the terms and their order agree
    two = SymExpr.one() * F(2, 7) + ATOMS[1] * G(1, -3)
    p = PuiseuxSeries({F(-1): two, F(1, 2): two * ATOMS[2], F(1): two * ATOMS[4],
                       F(3, 2): ATOMS[6]}, F(2))
    for texp in texps:
        new, old = p.dilate_t(t, texp), ref.ref_dilate_t(ref_of(p), t, texp)
        assert same(new, old)
        assert [list(c.terms.items()) for c in new.coeffs.values()] == \
            [list(c.terms.items()) for c in old.coeffs.values()]


@pytest.mark.parametrize("t,texp,exponents", [
    # terms on L = 6: texp 1/3 makes t-exponents 1/18 + {0, 1} at z^(1/6)
    # and z^(19/6), 1/9 + {0, 1} at z^(1/3) and z^(10/3), and integers at
    # z^0 and z^3; texp -1/2 pairs z^(-5/6) with z^(7/6) and z^(1/6) with
    # z^(13/6)
    (F(2, 3), F(1, 3), [F(-5, 6), F(0), F(1, 6), F(1, 3), F(3), F(19, 6), F(10, 3)]),
    (F(12, 7), F(-1, 2), [F(-5, 6), F(0), F(1, 6), F(1, 3), F(7, 6), F(13, 6), F(3)]),
    (F(2, 3), F(-4, 3), [F(-1), F(1, 2), F(3, 2), F(5, 2), F(2)]),
    (F(5, 2), F(2), [F(-1, 3), F(2, 3), F(5, 3), F(1)]),
    # a negative base: half-integer exponents through the Gaussian unit
    (F(-3, 5), F(1, 2), [F(-1), F(0), F(1), F(3), F(4)]),
    (F(-3, 5), F(-3, 2), [F(-2), F(1), F(3)]),
])
def test_dilate_t_makes_one_root_per_residue(monkeypatch, t, texp, exponents):
    # term for term, and in order, the per-term rational_power(t, texp e)
    # route; with texp = p/q each residue of p X mod q L makes one root
    two = SymExpr.one() * F(2, 7) + ATOMS[1] * G(1, -3)
    p = PuiseuxSeries({e: two * ATOMS[k % 3] for k, e in enumerate(exponents)}, F(4))
    calls = []
    monkeypatch.setattr(series, "rational_power",
                        lambda *args: calls.append(args) or rational_power(*args))
    new = p.dilate_t(t, texp)
    monkeypatch.undo()
    old = ref.ref_dilate_t(ref_of(p), t, texp)
    assert same(new, old)
    assert [list(c.terms.items()) for c in new.coeffs.values()] == \
        [list(c.terms.items()) for c in old.coeffs.values()]
    m = texp.denominator * p.L
    residues = {texp.numerator * X % m for X in p.xterms} - {0}
    assert sorted(args[1] for args in calls) == [F(r, m) for r in sorted(residues)]


@given(lattice_series(), st.sampled_from([F(0), F(1, 3), F(3, 2)]))
@settings(max_examples=40)
def test_exp_and_inverse(p, top):
    assert_same_outcome(lambda a: a.inverse(), p)
    # exp needs positive exponents: shift p above 0, and keep it short
    if p.xterms:
        p = p.shift(F(1, 6) - p.min_exp())
    assert_same_outcome(lambda a: a.truncate(top).exp(), p)


@given(lattice_series())
def test_items_dump_and_coeff(p):
    old = ref_of(p)
    assert p.items() == old.items()
    assert p.dump() == old.dump()
    for e in [*old.coeffs, F(1, 5), F(7, 3), F(0), F(-1, 2), 2]:
        assert p.coeff(e) == old.coeff(e)
    assert p.min_exp() == old.min_exp()


@given(lattice_series(), lattice_series(), st.sampled_from([2, 3, 6]))
def test_equality_across_lattices(p, q, k):
    assert (p == q) == (ref_of(p) == ref_of(q))
    assert p == stretched(p, k) and stretched(p, k) == p
    assert (stretched(p, k) == q) == (p == q)
    assert p != p.truncate(p.trunc - 1)


def test_equal_series_on_different_lattices():
    # z^(1/2) cancels from the sum, which stays on the 1/2-lattice
    a = PuiseuxSeries({F(1, 2): 1, 1: 3}, F(7, 3)) + PuiseuxSeries({F(1, 2): -1}, F(7, 3))
    b = PuiseuxSeries({1: 3}, F(7, 3))
    assert (a.L, b.L) == (2, 1)
    assert a == b and b == a
    assert a != PuiseuxSeries({1: 3}, F(2))


def test_shift_and_bound_off_the_lattice():
    p = PuiseuxSeries({F(1, 2): 1, F(3, 2): G(0, 2)}, F(7, 3))
    q = p.shift(F(1, 3))  # onto the 1/6-lattice, bound 8/3
    assert (p.L, q.L, q.trunc) == (2, 6, F(8, 3))
    assert q.items() == [(F(5, 6), SymExpr.one()), (F(11, 6), SymExpr.coerce(G(0, 2)))]
    for op in (lambda a: a.shift(F(1, 3)), lambda a: a.truncate(F(4, 3)),
               lambda a: a * a.shift(F(1, 3)), lambda a: a + a.shift(F(-1, 3)),
               lambda a: a.inverse(), lambda a: a.shift(F(1, 3)).exp()):
        assert_same_outcome(op, p)


@given(lattice_fourier())
@settings(max_examples=60)
def test_fourier_inverse(f):
    assert_same_outcome(lambda a: a.inverse(), f)


@given(maybe_z0(lattice_series()), maybe_z0(lattice_series()), st.booleans(),
       factored_polys())
@settings(max_examples=25)
def test_theta_products(f, g, same_pair, polys):
    g = f if same_pair else g
    news = theta_products(f, g, polys)
    olds = ref.theta_products(ref_of(f), ref_of(f) if same_pair else ref_of(g), polys)
    assert all(same(new, old) for new, old in zip(news, olds))


@given(maybe_z0(lattice_fourier()), maybe_z0(lattice_fourier()))
@settings(max_examples=25)
def test_theta_products_on_sectors(f, g):
    news = theta_products(f, g, POLYS)
    olds = ref.theta_products(ref_of(f), ref_of(g), POLYS)
    assert all(same(new, old) for new, old in zip(news, olds))


def test_coeffs_view_is_read_only():
    p = PuiseuxSeries({F(1, 2): 1}, F(3))
    view = p.coeffs
    with pytest.raises(TypeError):
        view[F(2)] = SymExpr.one()
    with pytest.raises(TypeError):
        del view[F(1, 2)]
    assert p.coeffs == {F(1, 2): SymExpr.one()}
    assert p.coeff(F(2)) == 0 and not (p - PuiseuxSeries({F(1, 2): 1}, F(3))).xterms
