"""Sparse multivariate polynomials and rational functions over the rationals.

Polynomials are stored sparsely as a map from exponent vectors to nonzero
``Fraction`` coefficients, under a fixed graded-lexicographic monomial order
(total degree first, ties broken lexicographically on the exponent vector).
That order fixes term storage, serialization, and the sign convention of
rational functions, so equal inputs always serialize identically.

Rational functions are pairs of polynomials kept in a canonical form that
does not require multivariate GCDs:

* numerator and denominator are scaled by one rational so both become
  integer polynomials whose coefficients have no common factor,
* the denominator's leading coefficient is positive,
* a common monomial factor (and nothing else) is cancelled.

Equality in the fraction field is decided by cross-multiplication, which is
exact without any polynomial factorization.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import PoleError

Exponent = tuple[int, ...]


def _grlex_key(exponent: Exponent) -> tuple[int, Exponent]:
    return (sum(exponent), exponent)


def _merge_variables(a: Sequence[str], b: Sequence[str]) -> tuple[str, ...]:
    """Union of two variable tuples, keeping first-seen order."""
    merged = list(a)
    seen = set(a)
    for name in b:
        if name not in seen:
            merged.append(name)
            seen.add(name)
    return tuple(merged)


class Polynomial:
    """Immutable sparse polynomial with Fraction coefficients.

    ``terms`` maps exponent tuples (one entry per variable, all nonnegative)
    to nonzero coefficients.  Instances must not be mutated after creation;
    every operation returns a fresh polynomial.
    """

    __slots__ = ("variables", "terms")

    def __init__(
        self,
        variables: Sequence[str],
        terms: Mapping[Sequence[int], int | str | Fraction]
        | Iterable[tuple[Sequence[int], int | str | Fraction]] = (),
    ):
        names = tuple(str(v) for v in variables)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names: {names}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Exponent, Fraction] = {}
        for exponent, coefficient in items:
            exp = tuple(int(e) for e in exponent)
            if len(exp) != len(names):
                raise ValueError(f"exponent {exp} does not match variables {names}")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            c = clean.get(exp, Fraction(0)) + Fraction(coefficient)
            if c == 0:
                clean.pop(exp, None)
            else:
                clean[exp] = c
        self.variables = names
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str] = ()) -> "Polynomial":
        return cls(variables, {})

    @classmethod
    def constant(cls, value: int | str | Fraction, variables: Sequence[str] = ()) -> "Polynomial":
        zero_exp = (0,) * len(tuple(variables))
        return cls(variables, {zero_exp: Fraction(value)} if Fraction(value) != 0 else {})

    @classmethod
    def variable(cls, name: str, variables: Sequence[str] | None = None) -> "Polynomial":
        names = tuple(variables) if variables is not None else (name,)
        if name not in names:
            raise ValueError(f"{name!r} not among variables {names}")
        exp = tuple(1 if v == name else 0 for v in names)
        return cls(names, {exp: Fraction(1)})

    # -- basic queries ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading_coefficient(self) -> Fraction:
        """Coefficient of the graded-lex leading term (0 for the zero polynomial)."""
        if not self.terms:
            return Fraction(0)
        return self.terms[max(self.terms, key=_grlex_key)]

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in descending graded-lexicographic order."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def __iter__(self) -> Iterator[tuple[Exponent, Fraction]]:
        return iter(self.sorted_terms())

    # -- variable handling --------------------------------------------

    def reindexed(self, variables: Sequence[str]) -> "Polynomial":
        """Rewrite over a superset of the current variables (zero exponents added)."""
        names = tuple(variables)
        if names == self.variables:
            return self
        positions = []
        for v in self.variables:
            if v not in names:
                raise ValueError(f"variable {v!r} missing from {names}")
            positions.append(names.index(v))
        terms = {}
        for exp, c in self.terms.items():
            new_exp = [0] * len(names)
            for pos, e in zip(positions, exp):
                new_exp[pos] = e
            terms[tuple(new_exp)] = c
        return Polynomial(names, terms)

    def renamed(self, variables: Sequence[str]) -> "Polynomial":
        """Rename variables positionally (same count, exponents untouched)."""
        names = tuple(variables)
        if len(names) != len(self.variables):
            raise ValueError(f"expected {len(self.variables)} names, got {len(names)}")
        return Polynomial(names, dict(self.terms))

    def _aligned(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if self.variables == other.variables:
            return self, other
        merged = _merge_variables(self.variables, other.variables)
        return self.reindexed(merged), other.reindexed(merged)

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(value) -> "Polynomial":
        if isinstance(value, Polynomial):
            return value
        return Polynomial.constant(Fraction(value))

    def __add__(self, other) -> "Polynomial":
        f, g = self._aligned(self._coerce(other))
        terms = dict(f.terms)
        for exp, c in g.terms.items():
            s = terms.get(exp, Fraction(0)) + c
            if s == 0:
                terms.pop(exp, None)
            else:
                terms[exp] = s
        return Polynomial(f.variables, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Polynomial":
        f, g = self._aligned(self._coerce(other))
        terms: dict[Exponent, Fraction] = {}
        for e1, c1 in f.terms.items():
            for e2, c2 in g.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(exp, Fraction(0)) + c1 * c2
                if s == 0:
                    terms.pop(exp, None)
                else:
                    terms[exp] = s
        return Polynomial(f.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.constant(1, self.variables)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- evaluation and comparison ------------------------------------

    def evaluate(self, values: Sequence[int | Fraction]) -> Fraction:
        """Exact value at a rational point, given by position."""
        if len(values) != len(self.variables):
            raise ValueError(
                f"expected {len(self.variables)} values for {self.variables}, got {len(values)}"
            )
        point = [Fraction(v) for v in values]
        total = Fraction(0)
        for exp, c in self.terms.items():
            term = c
            for v, e in zip(point, exp):
                if e:
                    term *= v**e
            total += term
        return total

    def substitute(self, values: Sequence["Polynomial | int | Fraction"]) -> "Polynomial":
        """Compose with one polynomial (or constant) per variable, by position."""
        if len(values) != len(self.variables):
            raise ValueError(
                f"expected {len(self.variables)} substitutions, got {len(values)}"
            )
        images = [Polynomial._coerce(v) for v in values]
        merged: tuple[str, ...] = ()
        for image in images:
            merged = _merge_variables(merged, image.variables)
        total = Polynomial.zero(merged)
        for exp, c in self.terms.items():
            term = Polynomial.constant(c, merged)
            for image, e in zip(images, exp):
                if e:
                    term = term * image**e
            total = total + term
        return total

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Polynomial, int, Fraction)):
            return NotImplemented
        f, g = self._aligned(self._coerce(other))
        return f.terms == g.terms

    def __hash__(self) -> int:
        return hash((self.variables, tuple(self.sorted_terms())))

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- formatting ----------------------------------------------------

    def _monomial_str(self, exp: Exponent) -> str:
        parts = []
        for name, e in zip(self.variables, exp):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for exp, c in self.sorted_terms():
            mono = self._monomial_str(exp)
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def variables(names: str | Sequence[str]) -> tuple[Polynomial, ...]:
    """Create polynomial generators over a shared variable tuple.

    >>> x1, x2 = variables("x1 x2")
    >>> str(1 - x1 * x2)
    '-x1*x2 + 1'
    """
    split = tuple(names.split()) if isinstance(names, str) else tuple(names)
    return tuple(Polynomial.variable(n, split) for n in split)


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


class RationalFunction:
    """Quotient of two polynomials in canonical form.

    The denominator is never the zero polynomial.  Construction aligns the
    variable sets, cancels a common monomial factor, scales both parts by a
    single rational so they become jointly primitive integer polynomials,
    and flips signs so the denominator's leading coefficient is positive.
    No other cancellation happens, so two equal functions can have different
    canonical forms.  ``==`` and :meth:`equals` both test equality in the
    fraction field (cross-multiplication); compare ``numerator`` and
    ``denominator`` to pin a canonical form.  Instances are unhashable: no
    hash of a canonical form would agree with ``==``.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Polynomial | int | Fraction, denominator: Polynomial | int | Fraction = 1):
        num = Polynomial._coerce(numerator)
        den = Polynomial._coerce(denominator)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator polynomial")
        num, den = num._aligned(den)
        if num.is_zero:
            self.numerator = Polynomial.zero(num.variables)
            self.denominator = Polynomial.constant(1, num.variables)
            return
        num, den = _cancel_common_monomial(num, den)
        num, den = _jointly_primitive(num, den)
        self.numerator = num
        self.denominator = den

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_polynomial(cls, poly: Polynomial) -> "RationalFunction":
        return cls(poly, Polynomial.constant(1, poly.variables))

    # -- queries ---------------------------------------------------------

    @property
    def variables(self) -> tuple[str, ...]:
        return self.numerator.variables

    @property
    def is_zero(self) -> bool:
        return self.numerator.is_zero

    def reindexed(self, names: Sequence[str]) -> "RationalFunction":
        return RationalFunction(self.numerator.reindexed(names), self.denominator.reindexed(names))

    def renamed(self, names: Sequence[str]) -> "RationalFunction":
        return RationalFunction(self.numerator.renamed(names), self.denominator.renamed(names))

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "RationalFunction":
        if isinstance(value, RationalFunction):
            return value
        if isinstance(value, Polynomial):
            return RationalFunction.from_polynomial(value)
        return RationalFunction(Polynomial.constant(Fraction(value)))

    def __add__(self, other) -> "RationalFunction":
        g = self._coerce(other)
        # Same denominator: add numerators, avoiding quadratic denominator growth.
        if self.denominator == g.denominator:
            return RationalFunction(self.numerator + g.numerator, self.denominator)
        return RationalFunction(
            self.numerator * g.denominator + g.numerator * self.denominator,
            self.denominator * g.denominator,
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.numerator, self.denominator)

    def __sub__(self, other) -> "RationalFunction":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RationalFunction":
        return self._coerce(other) - self

    def __mul__(self, other) -> "RationalFunction":
        g = self._coerce(other)
        return RationalFunction(self.numerator * g.numerator, self.denominator * g.denominator)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        g = self._coerce(other)
        if g.numerator.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        # Shared denominator cancels structurally: (a/d) / (b/d) = a/b.
        if self.denominator == g.denominator:
            return RationalFunction(self.numerator, g.numerator)
        return RationalFunction(self.numerator * g.denominator, self.denominator * g.numerator)

    def __rtruediv__(self, other) -> "RationalFunction":
        return self._coerce(other) / self

    def __pow__(self, exponent: int) -> "RationalFunction":
        if exponent >= 0:
            return RationalFunction(self.numerator**exponent, self.denominator**exponent)
        if self.numerator.is_zero:
            raise ZeroDivisionError("zero function to a negative power")
        return RationalFunction(self.denominator**-exponent, self.numerator**-exponent)

    # -- evaluation and comparison ----------------------------------------

    def evaluate(self, values: Sequence[int | Fraction]) -> Fraction:
        """Exact value at a rational point; raises PoleError on a vanishing denominator."""
        den = self.denominator.evaluate(values)
        if den == 0:
            raise PoleError(f"denominator {self.denominator} vanishes at {tuple(values)}")
        return self.numerator.evaluate(values) / den

    def equals(self, other) -> bool:
        """Equality in the fraction field, by cross-multiplication."""
        g = self._coerce(other)
        return (self.numerator * g.denominator - g.numerator * self.denominator).is_zero

    def __eq__(self, other) -> bool:
        if not isinstance(other, (RationalFunction, Polynomial, int, Fraction)):
            return NotImplemented
        return self.equals(other)

    __hash__ = None

    def __str__(self) -> str:
        if self.denominator == Polynomial.constant(1, self.denominator.variables):
            return str(self.numerator)
        return f"({self.numerator}) / ({self.denominator})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


def _cancel_common_monomial(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Divide out x^m where m is the largest monomial dividing every term."""

    def floor_exponent(poly: Polynomial) -> tuple[int, ...]:
        exps = iter(poly.terms)
        low = list(next(exps))
        for e in exps:
            for i, v in enumerate(e):
                if v < low[i]:
                    low[i] = v
        return tuple(low)

    shift = tuple(min(a, b) for a, b in zip(floor_exponent(num), floor_exponent(den)))
    if not any(shift):
        return num, den

    def shifted(poly: Polynomial) -> Polynomial:
        return Polynomial(
            poly.variables,
            {tuple(e - s for e, s in zip(exp, shift)): c for exp, c in poly.terms.items()},
        )

    return shifted(num), shifted(den)


def _jointly_primitive(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Scale num and den by one rational: integer coefficients, joint content 1,
    positive leading denominator coefficient."""
    coefficients = list(num.terms.values()) + list(den.terms.values())
    denominator_lcm = 1
    for c in coefficients:
        denominator_lcm = _lcm(denominator_lcm, c.denominator)
    content = 0
    for c in coefficients:
        content = gcd(content, abs(c.numerator) * (denominator_lcm // c.denominator))
    scale = Fraction(denominator_lcm, content)
    if den.leading_coefficient() * scale < 0:
        scale = -scale

    def scaled(poly: Polynomial) -> Polynomial:
        return Polynomial(poly.variables, {e: c * scale for e, c in poly.terms.items()})

    return scaled(num), scaled(den)


def sum_rational_functions(functions: Iterable[RationalFunction]) -> RationalFunction:
    """Sum rational functions, grouping equal denominators first.

    Grouping keeps the denominator of the result a product of the distinct
    denominators rather than of all summands, which matters because no
    polynomial GCD cancellation is performed.
    """
    fs = list(functions)
    if not fs:
        return RationalFunction(0)
    merged: tuple[str, ...] = ()
    for f in fs:
        merged = _merge_variables(merged, f.variables)
    fs = [f.reindexed(merged) for f in fs]
    groups: dict[tuple, tuple[Polynomial, Polynomial]] = {}
    for f in fs:
        key = tuple(f.denominator.sorted_terms())
        if key in groups:
            num, den = groups[key]
            groups[key] = (num + f.numerator, den)
        else:
            groups[key] = (f.numerator, f.denominator)
    total = RationalFunction(0)
    for num, den in groups.values():
        total = total + RationalFunction(num, den)
    return total
