import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diagalg.fields import (
    CyclotomicField,
    FieldError,
    PrimeField,
    RationalField,
    cyclotomic_polynomial,
    make_field,
)


def F(c):
    return Fraction(c)


def test_rational_arithmetic():
    Q = RationalField()
    assert Q.add(F("1/2"), F("1/3")) == F("5/6")
    assert Q.inv(F("3/4")) == F("4/3")
    assert Q.add(Q.one, Q.neg(Q.one)) == Q.zero


def test_prime_field_examples():
    F5 = PrimeField(5)
    assert F5.inv(2) == 3
    F7 = PrimeField(7)
    assert F7.inv(3) == 5
    assert F5.mul(2, F5.inv(2)) == F5.one


def test_prime_field_rejects_composite():
    with pytest.raises(FieldError):
        PrimeField(6)
    with pytest.raises(FieldError):
        PrimeField(1)


def test_cyclotomic_polynomials():
    as_ints = lambda r: tuple(int(c) for c in cyclotomic_polynomial(r))
    assert as_ints(1) == (-1, 1)
    assert as_ints(2) == (1, 1)
    assert as_ints(3) == (1, 1, 1)
    assert as_ints(4) == (1, 0, 1)
    assert as_ints(6) == (1, -1, 1)
    assert as_ints(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_zeta_squared_is_minus_one():
    C4 = CyclotomicField(4)
    z = C4.generator()
    assert C4.mul(z, z) == C4.neg(C4.one)


def test_cyclotomic_inverse_of_generator():
    C3 = CyclotomicField(3)
    z = C3.generator()
    zinv = C3.inv(z)
    assert C3.mul(z, zinv) == C3.one
    assert zinv == C3.mul(z, z)  # zeta^3 = 1


def test_cyclotomic_r1_and_r2_are_degree_one():
    for r in (1, 2):
        C = CyclotomicField(r)
        assert C.degree == 1
        assert C.mul(C.from_int(2), C.from_int(3)) == C.from_int(6)


def test_inverse_of_zero_raises():
    for fld in (RationalField(), PrimeField(5), CyclotomicField(4)):
        with pytest.raises(ZeroDivisionError):
            fld.inv(fld.zero)


def _random_element(fld, rng):
    if isinstance(fld, RationalField):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    if isinstance(fld, PrimeField):
        return rng.randrange(fld.p)
    return fld._from_poly([Fraction(rng.randint(-4, 4)) for _ in range(fld.degree)])


@pytest.mark.parametrize("spec", ["q", "fp:5", "fp:7", "cyc:3", "cyc:4", "cyc:6"])
def test_field_axioms_on_random_triples(spec):
    fld = make_field(spec)
    rng = random.Random(0)
    for _ in range(60):
        a, b, c = (_random_element(fld, rng) for _ in range(3))
        assert fld.add(a, b) == fld.add(b, a)
        assert fld.mul(a, b) == fld.mul(b, a)
        assert fld.add(fld.add(a, b), c) == fld.add(a, fld.add(b, c))
        assert fld.mul(fld.mul(a, b), c) == fld.mul(a, fld.mul(b, c))
        assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))
        assert fld.add(a, fld.neg(a)) == fld.zero
        assert fld.mul(fld.one, a) == a
        if not fld.is_zero(a):
            assert fld.mul(a, fld.inv(a)) == fld.one


@pytest.mark.parametrize("spec", ["q", "fp:11", "cyc:5"])
def test_format_parse_roundtrip(spec):
    fld = make_field(spec)
    rng = random.Random(1)
    for _ in range(20):
        a = _random_element(fld, rng)
        assert fld.parse(fld.format(a)) == a


def test_make_field_rejects_garbage():
    with pytest.raises(FieldError):
        make_field("r:17")
    with pytest.raises(FieldError):
        make_field("cyc:0")


def test_characteristic():
    assert make_field("q").characteristic() == 0
    assert make_field("fp:5").characteristic() == 5
    assert make_field("cyc:3").characteristic() == 0


# -- canonical rationals against a plain-Fraction reference ---------------------

# Phi_3 = 1 + x + x^2 and Phi_6 = 1 - x + x^2, so x^2 = -c0 - c1 x
PHI = {"cyc:3": (Fraction(1), Fraction(1)), "cyc:6": (Fraction(1), Fraction(-1))}

# derandomized so that the suite gives the same verdict on every run
props = settings(max_examples=150, deadline=None, database=None, derandomize=True)

# integral values arrive both as int and as Fraction(n, 1): either input form
# must give canonical results
rationals = st.one_of(
    st.integers(-50, 50),
    st.integers(-50, 50).map(Fraction),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


def assert_canonical_rational(x):
    assert type(x) in (int, Fraction), repr(x)
    if type(x) is Fraction:
        assert x.denominator > 1, repr(x)


def assert_canonical(spec, x):
    if spec == "q":
        assert_canonical_rational(x)
    else:
        assert type(x) is tuple and len(x) == 2
        for c in x:
            assert_canonical_rational(c)


def ref_reduce(spec, coeffs):
    """Residue of sum coeffs[k] x^k modulo Phi, as two Fractions."""
    c0, c1 = PHI[spec]
    p = [Fraction(c) for c in coeffs] + [Fraction(0)] * 2
    for k in range(len(p) - 1, 1, -1):
        top, p[k] = p[k], Fraction(0)
        p[k - 2] -= top * c0
        p[k - 1] -= top * c1
    return (p[0], p[1])


def ref_mul(spec, a, b):
    if spec == "q":
        return Fraction(a) * Fraction(b)
    return ref_reduce(spec, [a[0] * b[0], a[0] * b[1] + a[1] * b[0], a[1] * b[1]])


def ref_inv(spec, a):
    if spec == "q":
        return 1 / Fraction(a)
    # (a0 + a1 x)(u + v x) = 1 with x^2 = -c0 - c1 x: a 2x2 system by Cramer
    c0, c1 = PHI[spec]
    a0, a1 = Fraction(a[0]), Fraction(a[1])
    m = ((a0, -a1 * c0), (a1, a0 - a1 * c1))
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return (m[1][1] / det, -m[1][0] / det)


def elements(spec):
    if spec == "q":
        return rationals
    return st.tuples(rationals, rationals).map(lambda t: make_field(spec).parse(
        "[" + ",".join(str(c) for c in t) + "]"))


def as_ref(spec, x):
    return Fraction(x) if spec == "q" else tuple(Fraction(c) for c in x)


SPECS = ["q", "cyc:3", "cyc:6"]


@pytest.mark.parametrize("spec", SPECS)
@props
@given(data=st.data())
def test_arithmetic_matches_fraction_reference_and_is_canonical(spec, data):
    fld = make_field(spec)
    a, b = data.draw(elements(spec)), data.draw(elements(spec))
    if spec == "q":
        want_add, want_neg = Fraction(a) + Fraction(b), -Fraction(a)
    else:
        want_add = tuple(Fraction(x) + Fraction(y) for x, y in zip(a, b))
        want_neg = tuple(-Fraction(x) for x in a)
    cases = [
        (fld.add(a, b), want_add),
        (fld.neg(a), want_neg),
        (fld.mul(a, b), ref_mul(spec, a, b)),
    ]
    if not fld.is_zero(a):
        cases.append((fld.inv(a), ref_inv(spec, a)))
    for got, want in cases:
        assert_canonical(spec, got)
        assert got == want
    assert fld.is_zero(a) == (as_ref(spec, a) == as_ref(spec, fld.zero))


@pytest.mark.parametrize("spec", SPECS)
@props
@given(n=st.integers(-10**6, 10**6), d=st.integers(1, 60), coeffs=st.lists(
    st.tuples(st.integers(-40, 40), st.integers(1, 9)), min_size=1, max_size=5))
def test_parse_and_from_int_match_fraction_reference(spec, n, d, coeffs):
    fld = make_field(spec)
    got = fld.from_int(n)
    assert_canonical(spec, got)
    assert got == (Fraction(n) if spec == "q" else ref_reduce(spec, [n]))
    got = fld.parse(f"{n}/{d}")
    assert_canonical(spec, got)
    assert got == (Fraction(n, d) if spec == "q" else ref_reduce(spec, [Fraction(n, d)]))
    if spec != "q":
        # coefficient lists longer than deg Phi are reduced modulo Phi
        got = fld.parse("[" + ",".join(f"{p}/{q}" for p, q in coeffs) + "]")
        assert_canonical(spec, got)
        assert got == ref_reduce(spec, [Fraction(p, q) for p, q in coeffs])


def test_canonical_rational_pins():
    Q = RationalField()
    assert type(Q.inv(2)) is Fraction and Q.inv(2) == Fraction(1, 2)
    assert type(Q.parse("4/2")) is int and Q.parse("4/2") == 2
    assert type(Q.inv(Fraction(1, 3))) is int and Q.inv(Fraction(1, 3)) == 3
    assert type(Q.zero) is int and type(Q.one) is int
    C3 = CyclotomicField(3)
    assert C3.inv(C3.from_int(2)) == (Fraction(1, 2), 0)
    assert all(type(c) is int for c in C3.mul(C3.generator(), C3.generator()))
    # trailing zero coefficients: "[1,0,0]" is 1, "[0,1,0]" is zeta
    assert C3.parse("[1,0,0]") == C3.one
    assert C3.parse("[0,1,0]") == C3.generator()
