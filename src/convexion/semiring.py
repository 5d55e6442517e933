"""Coefficient semirings, fixed by the integer form that distributions and
matrices store.

Two semirings are supported: nonnegative rationals (``fractions.Fraction``
payloads, always in lowest terms) and the Boolean semiring (``bool``
payloads, or/and).  A container stores no payloads: it keeps positive int
numerators over one common denominator and one semiring reference, and the
semiring fixes that integer form.  ``ratio`` reads a payload spelling (a
payload, an int or a string) straight into a numerator and a denominator
in lowest terms, ``read`` does so for a string literal, ``payload`` turns
a numerator over a denominator back into a payload (``parse`` and
``format`` go between a literal and a payload), ``is_normalized`` tests
whether an integer form sums to one, and ``canonical_form`` reduces one.
Rationals divide by the gcd of the denominator and the numerators, which
leaves the lcm of the reduced denominators; Booleans use 1 over 1 for
every nonzero numerator, so a cell reached by two paths (numerator 2)
reads 1 again.  All arithmetic is int arithmetic on that form, in the
containers.  ``canonical_form`` is for sums, mixtures and products, whose
numerators share factors.  The constructors and the decoders, which read
weights, build the canonical form directly in their one reading pass (as
``jsonio.decode_distribution`` does), since weights read in lowest terms
need no reduction over their lcm.  The two semirings are singletons,
compared by identity: a copied or unpickled one is the same object.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import ParseError, SemiringMismatch


class Semiring:
    name = "abstract"

    def parse(self, s: str):
        """The payload of a string literal."""
        return self.payload(*self.read(s))

    def format(self, v) -> str:
        """The canonical literal of a payload."""
        raise NotImplementedError

    def ratio(self, v):
        """(numerator, denominator) of a payload spelling, as ints."""
        raise NotImplementedError

    def read(self, s: str):
        """(numerator, denominator) of a string literal, as ints in lowest
        terms."""
        raise NotImplementedError

    def payload(self, n: int, den: int):
        """The payload of the numerator n over the denominator den."""
        raise NotImplementedError

    def is_normalized(self, nums, den) -> bool:
        """Whether the integer form (nums, den) sums to one."""
        raise NotImplementedError

    def canonical_form(self, acc, den):
        """(nums, den): the canonical integer form of the positive integer
        numerators ``acc`` over ``den``."""
        raise NotImplementedError

    def __repr__(self):
        return f"<semiring {self.name}>"

    def __reduce__(self):
        # containers compare semirings by identity, so a copied or
        # unpickled container must hold the same semiring object
        return semiring_by_name, (self.name,)


class RationalSemiring(Semiring):
    """Nonnegative rationals under + and *."""

    name = "rational"

    def ratio(self, v):
        if isinstance(v, (Fraction, int)) and not isinstance(v, bool):
            n, den = v.numerator, v.denominator
            if n < 0:
                raise ParseError(f"negative coefficient {v} is not allowed")
            return n, den
        if isinstance(v, str):
            return self.read(v)
        if isinstance(v, bool):
            raise SemiringMismatch("boolean payload in a rational context")
        raise ParseError(f"cannot coerce {v!r} to a nonnegative rational")

    def read(self, s: str):
        num, slash, den = s.partition("/")
        try:
            if num.isdecimal() and (den.isdecimal() or not slash):
                # "p/q" and "n", the forms canonical JSON writes, skip the
                # regular expression of Fraction(str)
                n, d = int(num), int(den) if slash else 1
                if d:
                    g = gcd(n, d)  # d for a zero weight, which reads 0/1
                    return n // g, d // g
                raise ZeroDivisionError(f"Fraction({n}, 0)")
            out = Fraction(s.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {s!r}: {exc}") from None
        if out < 0:
            raise ParseError(f"negative coefficient {s!r} is not allowed")
        return out.numerator, out.denominator

    def format(self, v) -> str:
        return str(Fraction(v))

    def payload(self, n, den):
        return Fraction(n, den)

    def is_normalized(self, nums, den):
        return sum(nums.values()) == den

    def canonical_form(self, acc, den):
        g = gcd(den, *acc.values())
        if g != 1:
            den //= g
            acc = {el: n // g for el, n in acc.items()}
        return acc, den


class BooleanSemiring(Semiring):
    """Truth values under or and and."""

    name = "boolean"

    def ratio(self, v):
        if isinstance(v, str):
            return self.read(v)
        if isinstance(v, bool) or (isinstance(v, int) and v in (0, 1)):
            return int(v), 1
        raise ParseError(f"cannot coerce {v!r} to a boolean weight")

    def read(self, s: str):
        s = s.strip()
        if s == "1":
            return 1, 1
        if s == "0":
            return 0, 1
        raise ParseError(f"bad boolean literal {s!r} (expected '0' or '1')")

    def format(self, v) -> str:
        return "1" if v else "0"

    def payload(self, n, den):
        return bool(n)

    def is_normalized(self, nums, den):
        return any(nums.values())

    def canonical_form(self, acc, den):
        return dict.fromkeys(acc, 1), 1


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
