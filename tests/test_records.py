"""Value records: validation, memo-key identity and pickling.

The records are namedtuples or plain classes; the reprs, hashes and
equalities below are the ones the memo and perfbench's repeat counts key on.
"""

import pickle
from fractions import Fraction as F

import pytest

import nektau.identities as idmod
from nektau.fourier import EqualityReport
from nektau.nekrasov import Theory4d, Theory5d
from nektau.qseries import PochhammerSpec, UnsupportedRegion
from nektau.sampling import ParameterSample


@pytest.mark.parametrize("cls, fields, text", [
    (Theory4d, (F(1), F(-1)), "Theory4d(e1=Fraction(1, 1), e2=Fraction(-1, 1))"),
    (Theory4d, (F(1, 2), F(-3, 2)), "Theory4d(e1=Fraction(1, 2), e2=Fraction(-3, 2))"),
    (Theory5d, (F(-4), F(8), 0), "Theory5d(E1=Fraction(-4, 1), E2=Fraction(8, 1), m=0)"),
    (Theory5d, (F(-4), F(8), 2), "Theory5d(E1=Fraction(-4, 1), E2=Fraction(8, 1), m=2)"),
    (ParameterSample, (F(1, 3), 4, F(1, 4)),
     "ParameterSample(t=Fraction(1, 3), dq=4, sigma=Fraction(1, 4))"),
    (ParameterSample, (F(2, 5), 8, F(3, 8)),
     "ParameterSample(t=Fraction(2, 5), dq=8, sigma=Fraction(3, 8))"),
])
def test_memo_key_records_keep_repr_hash_and_equality(cls, fields, text):
    record = cls(*fields)
    assert repr(record) == text
    # the hash of the field values, in field order
    assert hash(record) == hash(fields)
    assert record == cls(*fields)
    assert record != cls(F(1, 7), *fields[1:])


@pytest.mark.parametrize("t, dq, sigma", [
    (F(0), 4, F(1, 4)), (F(1), 4, F(1, 4)), (F(3, 2), 4, F(1, 4)),
    (F(1, 3), 4, F(1, 8)),
])
def test_parameter_sample_rejects_points_off_the_lattice(t, dq, sigma):
    with pytest.raises(ValueError):
        ParameterSample(t, dq, sigma)


def test_pochhammer_spec_coerces_and_rejects():
    spec = PochhammerSpec(F(1), 1, (2, F(-3)))
    assert type(spec.zpow) is F and spec.zpow == 1
    assert all(type(b) is F for b in spec.bases) and spec.bases == (2, -3)
    assert type(spec.bases) is tuple
    assert PochhammerSpec(F(1), 1, [2, -3]) == spec
    with pytest.raises(UnsupportedRegion):
        PochhammerSpec(F(1), F(-1, 2), (1,))


def test_family_defaults_to_the_domain():
    for e in idmod.CATALOG.values():
        assert e.family is not None
        rebuilt = idmod._entry(e.id, e.status, e.anchor, e.domain, e.default_order, e.run)
        assert rebuilt.family == e.domain


def test_a_verification_report_survives_pickling():
    residual = (F(0), F(1), 1, "(1)")
    rep = idmod.VerificationReport(
        id="NY", status="theorem", ok=False, order=F(3, 2), sample={"sigma": [1, 4]},
        parts=[("lhs", EqualityReport(False, F(3, 2), [residual], "why")),
               ("decided", EqualityReport(True, F(0)))],
        elapsed=0.25, error=("Resonance", "pole"))
    back = pickle.loads(pickle.dumps(rep))
    assert back == rep and type(back) is idmod.VerificationReport
    assert [type(part) for _, part in back.parts] == [EqualityReport, EqualityReport]
    assert back.to_dict() == rep.to_dict() and back.summary() == rep.summary()
