"""Parameter samples: hashing, derived exponents, construction guards."""

from fractions import Fraction as F

import pytest

from nektau.sampling import ParameterSample


def test_sample_is_frozen_and_hashable():
    s = ParameterSample(t=F(1, 3), dq=8, sigma=F(3, 8))
    assert hash(s) == hash(ParameterSample(t=F(1, 3), dq=8, sigma=F(3, 8)))
    with pytest.raises(Exception):
        s.t = F(1, 2)


def test_derived_exponents():
    s = ParameterSample(t=F(1, 3), dq=8, sigma=F(1, 4))
    assert s.u_exp == 2 * 8 * F(1, 4)


def test_describe_is_json_ready():
    d = ParameterSample(t=F(1, 3), dq=8, sigma=F(3, 8)).describe()
    assert d["t"] == [1, 3]
    assert d["dq"] == 8
    # the fixed 4d fields of the self-dual point, a = -2 sigma
    assert (d["eps1"], d["eps2"], d["a"], d["seed"]) == ([1, 1], [-1, 1], [-3, 4], 0)


@pytest.mark.parametrize("dq", [0, 6, -8])
def test_dq_must_be_a_positive_multiple_of_four(dq):
    # dq = 0 makes q = 1, a root of unity
    with pytest.raises(ValueError):
        ParameterSample(t=F(1, 3), dq=dq, sigma=F(1, 4))
