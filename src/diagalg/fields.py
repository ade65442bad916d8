"""Exact scalar arithmetic: rationals, prime fields F_p, cyclotomic fields Q(zeta_r).

Elements are plain hashable Python values kept in canonical form, so ``==``
and dict membership are semantic equality:

* rationals      -- ``int`` when integral, else a reduced ``fractions.Fraction``
  (denominator > 1); ``rational`` puts any exact rational in this form.
  Never divide with ``/`` where an operand can be an ``int``: ``1 / 2`` is
  the float 0.5.  Divide through a Fraction (``Fraction(1) / a``) and
  normalise the result.
* prime field    -- ``int`` in ``range(p)``
* cyclotomic(r)  -- tuple of rationals (in the form above) of length
  ``deg Phi_r``: coefficients of the residue modulo the r-th cyclotomic
  polynomial, low degree first.

Elements carry no field pointer; all arithmetic goes through a Field
instance.  Division by zero raises ``ZeroDivisionError`` so call sites can
attach context (e.g. "delta not invertible").
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


class FieldError(ValueError):
    """Bad field descriptor (non-prime modulus, r < 1, unparsable scalar)."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def rational(x):
    """The canonical form of an exact rational: its int value when integral,
    else x as a reduced Fraction."""
    if x.__class__ is int:
        return x
    return x.numerator if x.denominator == 1 else x


# -- polynomial helpers over the rationals, coefficient lists low degree first;
# -- coefficients may be in any exact form until ``_from_poly`` normalises them

def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _poly_trim(out)


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return _poly_trim([x - y for x, y in zip(a, b)])


def _poly_divmod(a, b):
    # trim first: a zero leading entry would give a negative shift below
    a = _poly_trim(list(a))
    assert b and b[-1] != 0
    q = [0] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    while len(a) >= len(b):
        shift = len(a) - len(b)
        c = a[-1] if lead == 1 else Fraction(a[-1]) / lead
        q[shift] = c
        for i, y in enumerate(b):
            a[shift + i] -= c * y
        _poly_trim(a)
    return _poly_trim(q), a


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(r: int) -> tuple:
    """Coefficients of Phi_r, low degree first, as ints (monic)."""
    if r < 1:
        raise FieldError(f"cyclotomic index must be >= 1, got {r}")
    num = [-1] + [0] * (r - 1) + [1]
    for d in _divisors(r):
        if d < r:
            num, rem = _poly_divmod(num, list(cyclotomic_polynomial(d)))
            assert not rem
    return tuple(num)


class Field:
    """Abstract arithmetic context over an exact field.

    ``p`` is the prime of a prime field and None otherwise: the sparse
    kernels of ``linalg`` inline the arithmetic of F_p, on ints in range(p),
    where it is set.
    """

    zero = None
    one = None
    p = None

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        return a == self.zero

    def from_int(self, n: int):
        raise NotImplementedError

    def characteristic(self) -> int:
        return 0

    def sum(self, items):
        acc = self.zero
        for x in items:
            acc = self.add(acc, x)
        return acc

    def descriptor(self) -> str:
        raise NotImplementedError

    def format(self, a) -> str:
        raise NotImplementedError

    def parse(self, s: str):
        raise NotImplementedError

    def __repr__(self):
        return f"Field({self.descriptor()})"

    def __eq__(self, other):
        return isinstance(other, Field) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(self.descriptor())


class RationalField(Field):
    zero = 0
    one = 1

    def add(self, a, b):
        return rational(a + b)

    def neg(self, a):
        return rational(-a)

    def mul(self, a, b):
        return rational(a * b)

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return rational(Fraction(1) / a)

    def is_zero(self, a):
        return not a

    def from_int(self, n):
        return rational(n)

    def descriptor(self):
        return "q"

    def format(self, a):
        return str(a)

    def parse(self, s):
        try:
            return rational(Fraction(s.strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"cannot parse rational {s!r}") from exc


class PrimeField(Field):
    def __init__(self, p: int):
        if not _is_prime(p):
            raise FieldError(f"modulus {p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return not a

    def from_int(self, n):
        return n % self.p

    def characteristic(self):
        return self.p

    def descriptor(self):
        return f"fp:{self.p}"

    def format(self, a):
        return f"{a} mod {self.p}"

    def parse(self, s):
        s = s.strip()
        if s.endswith(f"mod {self.p}"):
            s = s[: -len(f"mod {self.p}")].strip()
        try:
            if "/" in s:
                fr = Fraction(s)
                return self.mul(self.from_int(fr.numerator), self.inv(self.from_int(fr.denominator)))
            return int(s) % self.p
        except ValueError as exc:
            raise FieldError(f"cannot parse {s!r} in F_{self.p}") from exc


class CyclotomicField(Field):
    """Q(zeta_r) as Q[x] / Phi_r(x); elements are fixed-length coefficient tuples."""

    def __init__(self, r: int):
        if r < 1:
            raise FieldError(f"cyclotomic index must be >= 1, got {r}")
        self.r = r
        self.modulus = list(cyclotomic_polynomial(r))
        self.degree = len(self.modulus) - 1
        self.zero = (0,) * self.degree
        self.one = self._from_poly([1])

    def _from_poly(self, p):
        _, rem = _poly_divmod(list(p), self.modulus)
        return tuple(map(rational, rem)) + (0,) * (self.degree - len(rem))

    def generator(self):
        """The class of x, a primitive r-th root of unity."""
        return self._from_poly([0, 1])

    def add(self, a, b):
        return tuple(rational(x + y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(rational(-x) for x in a)

    def mul(self, a, b):
        return self._from_poly(_poly_mul(list(a), list(b)))

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        # extended Euclid in Q[x], invariant s_i * a == r_i mod Phi_r
        r0, r1 = self.modulus, _poly_trim(list(a))
        s0, s1 = [], [1]
        while r1:
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        assert len(r0) == 1, "Phi_r not coprime to a nonzero residue?"
        c = Fraction(1) / r0[0]
        return self._from_poly([x * c for x in s0])

    def from_int(self, n):
        return self._from_poly([n])

    def descriptor(self):
        return f"cyc:{self.r}"

    def format(self, a):
        return "[" + ",".join(str(c) for c in a) + "]"

    def parse(self, s):
        s = s.strip()
        try:
            if s.startswith("["):
                parts = [p for p in s.strip("[]").split(",") if p.strip()]
                return self._from_poly([Fraction(p.strip()) for p in parts])
            return self._from_poly([Fraction(s)])
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"cannot parse cyclotomic scalar {s!r}") from exc


def make_field(spec: str) -> Field:
    """Build a field from a descriptor string: 'q', 'fp:<p>' or 'cyc:<r>'."""
    spec = spec.strip().lower()
    if spec in ("q", "qq", "rationals"):
        return RationalField()
    if spec.startswith("fp:"):
        return PrimeField(int(spec[3:]))
    if spec.startswith("cyc:"):
        return CyclotomicField(int(spec[4:]))
    raise FieldError(f"unknown field descriptor {spec!r}")
