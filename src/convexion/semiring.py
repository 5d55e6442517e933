"""Coefficient semirings with exact arithmetic.

Two semirings are supported: nonnegative rationals (``fractions.Fraction``
payloads, always in lowest terms) and the Boolean semiring (``bool``
payloads, or/and).  Values are plain payloads; the semiring object supplies
the operations, so containers carry one semiring reference instead of
wrapping every scalar.

Each semiring also fixes the integer form of a weight map that
``distribution.py`` computes with: numerators (element -> int) over one
common denominator, with the semiring's normalisation test and its
canonical form of an accumulated sum.  Rationals use the lcm of the
reduced denominators and divide a sum by its gcd; Booleans use weight 1
over 1 for every support element.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import ParseError, SemiringMismatch

# Fractions are immutable, so every rational zero and one can be these two.
ZERO = Fraction(0)
ONE = Fraction(1)


class Semiring:
    name = "abstract"

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def sum(self, values):
        total = self.zero()
        for v in values:
            total = self.add(total, v)
        return total

    def is_zero(self, v) -> bool:
        return v == self.zero()

    def is_one(self, v) -> bool:
        return v == self.one()

    def coerce(self, v):
        """Accept convenient payload spellings (ints, strings) exactly."""
        raise NotImplementedError

    def parse(self, s: str):
        raise NotImplementedError

    def format(self, v) -> str:
        raise NotImplementedError

    # -- integer form ------------------------------------------------------

    def int_form(self, weights):
        """(nums, den): integer numerators over one denominator for a map of
        payloads; a zero payload gets numerator 0."""
        raise NotImplementedError

    def is_normalized(self, nums, den) -> bool:
        """Whether the integer form (nums, den) sums to one."""
        raise NotImplementedError

    def canonical_form(self, acc, den):
        """(nums, den, weights): the canonical integer form and the payloads
        of positive integer numerators ``acc`` over ``den`` that sum to one."""
        raise NotImplementedError

    def __repr__(self):
        return f"<semiring {self.name}>"


class RationalSemiring(Semiring):
    """Nonnegative rationals under + and *."""

    name = "rational"

    def zero(self):
        return ZERO

    def one(self):
        return ONE

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def is_zero(self, v) -> bool:
        return not v

    def coerce(self, v):
        if isinstance(v, bool):
            raise SemiringMismatch("boolean payload in a rational context")
        if isinstance(v, Fraction):
            out = v
        elif isinstance(v, int):
            out = Fraction(v)
        elif isinstance(v, str):
            return self.parse(v)
        else:
            raise ParseError(f"cannot coerce {v!r} to a nonnegative rational")
        if out.numerator < 0:
            raise ParseError(f"negative coefficient {out} is not allowed")
        return out

    def parse(self, s: str):
        num, slash, den = s.partition("/")
        try:
            if num.isdecimal() and (den.isdecimal() or not slash):
                # "p/q" and "n", the forms canonical JSON writes, skip the
                # regular expression of Fraction(str)
                return Fraction(int(num), int(den) if slash else 1)
            out = Fraction(s.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {s!r}: {exc}") from None
        if out < 0:
            raise ParseError(f"negative coefficient {s!r} is not allowed")
        return out

    def format(self, v) -> str:
        return str(Fraction(v))

    def int_form(self, weights):
        den = lcm(*[w.denominator for w in weights.values()])
        return {el: w.numerator * (den // w.denominator) for el, w in weights.items()}, den

    def is_normalized(self, nums, den):
        return sum(nums.values()) == den

    def canonical_form(self, acc, den):
        g = gcd(den, *acc.values())
        if g != 1:
            den //= g
            acc = {el: n // g for el, n in acc.items()}
        return acc, den, {el: Fraction(n, den) for el, n in acc.items()}


class BooleanSemiring(Semiring):
    """Truth values under or and and."""

    name = "boolean"

    def zero(self):
        return False

    def one(self):
        return True

    def add(self, a, b):
        return a or b

    def mul(self, a, b):
        return a and b

    def coerce(self, v):
        if isinstance(v, bool):
            return v
        if isinstance(v, int) and v in (0, 1):
            return bool(v)
        if isinstance(v, str):
            return self.parse(v)
        raise ParseError(f"cannot coerce {v!r} to a boolean weight")

    def parse(self, s: str):
        s = s.strip()
        if s == "1":
            return True
        if s == "0":
            return False
        raise ParseError(f"bad boolean literal {s!r} (expected '0' or '1')")

    def format(self, v) -> str:
        return "1" if v else "0"

    def int_form(self, weights):
        return {el: int(w) for el, w in weights.items()}, 1

    def is_normalized(self, nums, den):
        return any(nums.values())

    def canonical_form(self, acc, den):
        return dict.fromkeys(acc, 1), 1, dict.fromkeys(acc, True)


RATIONAL = RationalSemiring()
BOOLEAN = BooleanSemiring()

_BY_NAME = {"rational": RATIONAL, "boolean": BOOLEAN}


def semiring_by_name(name: str) -> Semiring:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ParseError(f"unknown semiring {name!r}") from None


def require_rational(semiring: Semiring, what: str) -> None:
    """Guard for the rational-only machinery (quotients, joins, tensors)."""
    if semiring is not RATIONAL and semiring.name != "rational":
        raise SemiringMismatch(
            f"{what} is implemented over the rational semiring only "
            f"(got {semiring.name})"
        )
