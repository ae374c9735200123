"""Sparse multivariate polynomials and rational functions over the rationals.

A polynomial stores nonzero integer coefficients over one positive common
denominator, keyed by exponent vectors.  The pair is kept canonical: the
content of the coefficients is coprime to the denominator, so equal
polynomials store equal integers and ``==`` compares them directly.
``Polynomial(...)`` validates its input; the results of arithmetic,
variables and constants given as ints or Fractions are built by the
unchecked :meth:`Polynomial._make`, which trusts its caller to pass nonzero
integers and only divides out their gcd with the denominator.

A polynomial's variable tuple is its ring.  Arithmetic, comparison and
every constructor of a rational function take operands over one tuple
(:func:`common_variables`); a constant over no variables, such as an ``int``
or a ``Fraction``, is padded to its partner's tuple by
:meth:`Polynomial.placed`, the one change of variables.

Terms are listed under a fixed graded-lexicographic monomial order (total
degree first, ties broken lexicographically on the exponent vector).  That
order fixes serialization and the sign convention of rational functions, so
equal inputs always serialize identically.

Rational functions are pairs of polynomials kept in a canonical form that
does not require multivariate GCDs:

* numerator and denominator are scaled by one rational so both become
  integer polynomials whose coefficients have no common factor,
* the denominator's leading coefficient is positive,
* a common monomial factor (and nothing else) is cancelled.

Equality in the fraction field is decided by cross-multiplication, which is
exact without any polynomial factorization.  Sums have one path,
:func:`lcm_sum`, over the exponent-wise lcm of factored denominators; it is
behind ``+``, :func:`sum_rational_functions`, the Horn sum-to-one and the
partition-of-unity and linear-precision checks.  Every rational function
enters a sum keyed by the primitive part of its denominator
(:func:`primitive_term`), so denominators that differ only by an integer
content are one factor and a constant denominator is none.

Evaluation has one path, in Python integers.  A rational point is written
as an integer vector ``xs`` over a positive denominator ``q``
(:func:`integer_point`, or a sampler that never builds the fraction).  An
:class:`EvaluationKernel` for a list of rational functions is written as
straight-line integer code in the pass that plans it and compiled when
built; each call computes every distinct monomial, homogenised in ``q``,
once and every distinct polynomial once (so a shared denominator once), and
returns one unreduced integer pair ``(N, D)`` per function with
``f(xs / q) = N / D``.  A function has a pole exactly where its ``D`` is 0.
``evaluate`` on a rational function is the kernel of that one function, a
polynomial is evaluated as the rational function ``p / 1``, and only the
final value becomes a ``Fraction``.  :func:`straight_line` compiles the
kernels and the IPS update of :mod:`toric_precision.mle`, each under a file
name of its own, so a profile lists them apart.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import count, pairwise
from math import gcd, lcm
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import PoleError

Exponent = tuple[int, ...]


def exact_rational(value: int | str | Fraction, what: str = "coefficient") -> Fraction:
    """``Fraction(value)``, refusing a float, whose binary value is rarely the rational meant."""
    if isinstance(value, float):
        raise TypeError(f"float {what} {value!r}; pass an int, Fraction or 'p/q' string")
    return Fraction(value)


def exact_integer(value: int | str | Fraction, what: str = "entry") -> int:
    """``value`` as an ``int``, refusing a float and a non-integral rational
    instead of truncating them."""
    if type(value) is int:
        return value
    if not isinstance(value, float):
        q = Fraction(value)
        if q.denominator == 1:
            return q.numerator
    raise TypeError(f"{what} {value!r} is not an exact integer; pass an int")


def _names(variables: Sequence[str]) -> tuple[str, ...]:
    """Variable names as strings, refusing duplicates."""
    names = tuple(str(v) for v in variables)
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable names: {names}")
    return names


def _content(coefficients: Mapping[Exponent, int], start: int = 0) -> int:
    """The gcd of ``start`` and the coefficients' values (0 for none).

    Folded pair by pair, not as ``gcd(*values)``: that call builds an
    argument tuple per polynomial, and CPython 3.11 keeps every freed tuple
    of exactly 20 items on a free list that it never takes from, so the
    tuples of 19- and 20-term polynomials would pile up there until a full
    garbage collection.
    """
    return reduce(gcd, coefficients.values(), start)


def _grlex_key(exponent: Exponent) -> tuple[int, Exponent]:
    return (sum(exponent), exponent)


def common_variables(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...]:
    """The variable tuple of operands over ``a`` and ``b``: equal tuples, or
    one of them empty (a constant); any other pair raises ValueError."""
    if a == b or not b:
        return a
    if not a:
        return b
    raise ValueError(f"operands over different variables: {a} and {b}")


class Polynomial:
    """Immutable sparse polynomial with rational coefficients.

    Nonzero coefficients are keyed by exponent tuples, one nonnegative entry
    per variable; iteration yields them in :meth:`sorted_terms` order.
    Instances must not be mutated after creation; every operation returns a
    fresh polynomial, and the hash is computed once.
    """

    __slots__ = ("variables", "_coefficients", "_denominator", "_hash")

    def __init__(
        self,
        variables: Sequence[str],
        terms: Mapping[Sequence[int], int | str | Fraction]
        | Iterable[tuple[Sequence[int], int | str | Fraction]] = (),
    ):
        names = _names(variables)
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Exponent, Fraction] = {}
        for exponent, coefficient in items:
            exp = tuple(exponent)
            if any(isinstance(e, bool) or not isinstance(e, int) for e in exp):
                raise TypeError(f"exponents must be integers, got {exp}")
            if len(exp) != len(names):
                raise ValueError(f"exponent {exp} does not match variables {names}")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            c = clean.get(exp, 0) + exact_rational(coefficient)
            if c == 0:
                clean.pop(exp, None)
            else:
                clean[exp] = c
        # Reduced fractions over the lcm of their denominators are canonical.
        denominator = lcm(*[c.denominator for c in clean.values()])
        self.variables = names
        self._coefficients = {
            e: c.numerator * (denominator // c.denominator) for e, c in clean.items()
        }
        self._denominator = denominator
        self._hash = None

    @classmethod
    def _make(
        cls, variables: tuple[str, ...], coefficients: dict[Exponent, int], denominator: int = 1
    ) -> "Polynomial":
        """Unchecked constructor for arithmetic results: nonzero integer
        coefficients over a positive denominator, whose gcd it divides out."""
        if denominator != 1:
            g = _content(coefficients, denominator)
            if g != 1:
                coefficients = {e: c // g for e, c in coefficients.items()}
                denominator //= g
        poly = object.__new__(cls)
        poly.variables = variables
        poly._coefficients = coefficients
        poly._denominator = denominator
        poly._hash = None
        return poly

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str] = ()) -> "Polynomial":
        return cls.constant(0, variables)

    @classmethod
    def constant(cls, value: int | str | Fraction, variables: Sequence[str] = ()) -> "Polynomial":
        if type(value) is int or type(value) is Fraction:
            # Already exact: a Fraction is reduced over a positive denominator.
            names = _names(variables)
            zero = (0,) * len(names)
            return cls._make(names, {zero: value.numerator} if value else {}, value.denominator)
        names = tuple(variables)
        return cls(names, {(0,) * len(names): value})

    @classmethod
    def variable(cls, name: str, variables: Sequence[str] | None = None) -> "Polynomial":
        names = tuple(variables) if variables is not None else (name,)
        if name not in names:
            raise ValueError(f"{name!r} not among variables {names}")
        exp = tuple(1 if v == name else 0 for v in names)
        return cls._make(_names(names), {exp: 1})

    # -- basic queries ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._coefficients

    def total_degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self._coefficients:
            return -1
        return max(sum(e) for e in self._coefficients)

    def sorted_terms(self) -> list[tuple[Exponent, int | Fraction]]:
        """Terms in descending graded-lexicographic order, with the stored
        integer coefficients when the denominator is 1 and Fractions otherwise."""
        den = self._denominator
        items = sorted(self._coefficients.items(), key=lambda t: _grlex_key(t[0]), reverse=True)
        return items if den == 1 else [(e, Fraction(c, den)) for e, c in items]

    def __iter__(self) -> Iterator[tuple[Exponent, int | Fraction]]:
        return iter(self.sorted_terms())

    # -- variable handling --------------------------------------------

    def placed(self, variables: tuple[str, ...], offset: int) -> "Polynomial":
        """This polynomial over ``variables``, its own variables at positions
        ``offset``..: every exponent is padded with zeros, which keeps the term order."""
        pad = len(variables) - offset - len(self.variables)
        if offset < 0 or pad < 0:
            raise ValueError(f"{len(self.variables)} variables do not fit {variables} at offset {offset}")
        before, after = (0,) * offset, (0,) * pad
        coefficients = {before + e + after: c for e, c in self._coefficients.items()}
        return Polynomial._make(variables, coefficients, self._denominator)

    def _aligned(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Both operands over their :func:`common_variables`, the one over none padded."""
        if self.variables == other.variables:
            return self, other
        names = common_variables(self.variables, other.variables)
        if self.variables:
            return self, other.placed(names, 0)
        return self.placed(names, 0), other

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(value) -> "Polynomial":
        return value if isinstance(value, Polynomial) else Polynomial.constant(value)

    def __add__(self, other) -> "Polynomial":
        if type(other) is Polynomial and other.variables == self.variables:
            f, g = self, other
        else:
            f, g = self._aligned(self._coerce(other))
        df, dg = f._denominator, g._denominator
        common = df if df == dg else lcm(df, dg)
        sf, sg = common // df, common // dg
        coefficients = {e: c * sf for e, c in f._coefficients.items()} if sf != 1 else dict(f._coefficients)
        for exp, c in g._coefficients.items():
            s = coefficients.get(exp, 0) + c * sg
            if s:
                coefficients[exp] = s
            else:
                del coefficients[exp]
        return Polynomial._make(f.variables, coefficients, common)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._make(
            self.variables, {e: -c for e, c in self._coefficients.items()}, self._denominator
        )

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Polynomial":
        if type(other) is Polynomial and other.variables == self.variables:
            f, g = self, other
        elif type(other) is int:
            if not other:
                return Polynomial._make(self.variables, {})
            return Polynomial._make(
                self.variables, {e: c * other for e, c in self._coefficients.items()}, self._denominator
            )
        else:
            f, g = self._aligned(self._coerce(other))
        coefficients: dict[Exponent, int] = {}
        get = coefficients.get
        second = list(g._coefficients.items())
        for e1, c1 in f._coefficients.items():
            for e2, c2 in second:
                exp = tuple(map(add, e1, e2))
                coefficients[exp] = get(exp, 0) + c1 * c2
        coefficients = {e: c for e, c in coefficients.items() if c}
        return Polynomial._make(f.variables, coefficients, f._denominator * g._denominator)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial._make(self.variables, {(0,) * len(self.variables): 1})
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
        """Exact value at a rational point, given by position.

        Like :meth:`RationalFunction.evaluate`, each call compiles a
        one-function kernel; evaluate repeatedly through an
        :class:`EvaluationKernel` or ``BlendingSystem.evaluate``.
        """
        return RationalFunction(self).evaluate(values)

    def substitute(self, values: Sequence["Polynomial | int | Fraction"]) -> "Polynomial":
        """Compose with one polynomial (or constant) per variable, by position."""
        if len(values) != len(self.variables):
            raise ValueError(
                f"expected {len(self.variables)} substitutions, got {len(values)}"
            )
        images = [Polynomial._coerce(v) for v in values]
        names = reduce(common_variables, [image.variables for image in images], ())
        zero_exp = (0,) * len(names)
        total = Polynomial._make(names, {})
        for exp, c in self._coefficients.items():
            term = Polynomial._make(names, {zero_exp: c})
            for image, e in zip(images, exp):
                if e:
                    term = term * image**e
            total = total + term
        return Polynomial._make(names, total._coefficients, total._denominator * self._denominator)

    def __eq__(self, other) -> bool:
        """False for operands over two different nonempty variable tuples."""
        if not isinstance(other, (Polynomial, int, Fraction)):
            return NotImplemented
        g = self._coerce(other)
        if self.variables and g.variables and self.variables != g.variables:
            return False
        f, g = self._aligned(g)
        return f._denominator == g._denominator and f._coefficients == g._coefficients

    def __hash__(self) -> int:
        """Agrees with ``==``: a constant hashes as its value, any other
        polynomial by its stored integers and denominator."""
        if self._hash is None:
            coefficients = self._coefficients
            if not any(map(any, coefficients)):
                self._hash = hash(Fraction(sum(coefficients.values()), self._denominator))
            else:
                self._hash = hash((frozenset(coefficients.items()), self._denominator))
        return self._hash

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- formatting ----------------------------------------------------

    def _monomial_str(self, exp: Exponent) -> str:
        return "*".join([name if e == 1 else f"{name}^{e}" for name, e in zip(self.variables, exp) if e])

    def __str__(self) -> str:
        if not self._coefficients:
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


def power_table(base: Polynomial, top: int) -> list[Polynomial]:
    """``[base**0, base**1, ..., base**top]``, each power one product from the one before."""
    table = [Polynomial.constant(1, base.variables)]
    for _ in range(top):
        table.append(table[-1] * base)
    return table


def integer_point(values: Sequence[int | Fraction]) -> tuple[list[int], int]:
    """A rational point as ``(xs, q)``: integers over one positive common
    denominator.  An ``int`` or ``Fraction`` coordinate is read as it is."""
    point = [v if type(v) is Fraction or type(v) is int else Fraction(v) for v in values]
    q = lcm(*[v.denominator for v in point])
    return [v.numerator * (q // v.denominator) for v in point], q


def point_text(xs: Sequence[int], q: int) -> str:
    """The point ``xs / q`` as reduced ``p/q`` coordinates, e.g. ``(1/2, 1/3)``."""
    return "(" + ", ".join(str(Fraction(x, q)) for x in xs) + ")"


def _primitive(poly: Polynomial) -> tuple[int, Polynomial]:
    """``(content, primitive part)`` of a polynomial with integer
    coefficients over 1; the zero polynomial has content 1."""
    coefficients = poly._coefficients
    content = _content(coefficients) or 1
    if content == 1:
        return 1, poly
    return content, Polynomial._make(poly.variables, {e: c // content for e, c in coefficients.items()})


_straight_lines = count()


def straight_line(label: str, name: str, signature: str, body: Sequence[str], bound: Mapping[str, object]):
    """The function ``def name(signature): body``, compiled under the file
    name ``<label n>``, n from a module counter.

    ``body`` is its lines, unindented; ``bound`` maps each free name it reads
    to a value, passed to an enclosing ``_bind`` so no value is written as
    text.  The source is not kept in ``linecache``, which never shrinks.
    """
    lines = [f"def _bind({', '.join(bound)}):", f"    def {name}({signature}):"]
    lines += [f"        {line}" for line in body]
    lines.append(f"    return {name}")
    namespace: dict = {}
    exec(compile("\n".join(lines), f"<{label} {next(_straight_lines)}>", "exec"), namespace)
    return namespace.pop("_bind")(*bound.values())


# Terms per statement of a generated sum: the compiler recurses once per
# operator of an expression, so one sum over a large program would exceed
# its recursion limit.
_TERMS_PER_STATEMENT = 64


def _pole_error(denominator: Polynomial, xs: Sequence[int], q: int) -> PoleError:
    return PoleError(f"denominator {denominator} vanishes at {point_text(xs, q)}")


class _Written(dict):
    """Names by key of what generated code computes: a missing key is written
    when first met by ``write(key, len(self))``, which returns its name."""

    def __init__(self, write):
        self.write = write

    def __missing__(self, key):
        name = self[key] = self.write(key, len(self))
        return name


class EvaluationKernel:
    """Shared-monomial evaluation of a fixed list of rational functions.

    Every function's numerator and denominator, integer polynomials, are
    homogenised in ``q`` to the larger ``m`` of their two degrees, which
    keeps their quotient: a part with coefficients ``c_e`` becomes the
    program ``sum c_e * xs**e * q**(m - |e|)``.  Parts equal up to their
    integer content, as the canonical denominators of one toric system are,
    share one program.  The kernel is planned and written in one pass and
    compiled when built (:func:`straight_line`) into a function
    ``pairs(xs, q)`` that computes every distinct monomial once, as a
    product of powers of the coordinates and of ``q``, and every program
    once.  It keeps only that function and its arity.

    Coordinate ``i`` is ``x{i}``, its power ``e`` is ``x{i}_{e}``, monomial
    ``j`` is ``m{j}`` and program ``p`` is ``v{p}``, each written when first
    met (:class:`_Written`).  Only the powers the monomials read are
    written, in increasing order, each the power written before it times
    ``x{i}``, or times ``x{i} ** gap`` for a gap over 1, so ``x1**100000``
    costs one statement, not 99,999.  Integers enter as bound values, never
    as text, since an int of more than 4300 digits has no text under
    Python's default limit; a factor 1 is left out.  Each statement sums
    at most ``_TERMS_PER_STATEMENT`` terms.  A program is tested for a pole
    after the first function that reads it as a denominator, and names that
    function's denominator.
    """

    __slots__ = ("_arity", "_compiled")

    def __init__(self, functions: Sequence["RationalFunction"]):
        variables = {f.variables for f in functions}
        if len(variables) > 1:
            raise ValueError("the functions of a kernel must share their variables")
        self._arity = len(variables.pop()) if variables else None
        coordinates = [f"x{i}" for i in range(self._arity or 0)]
        head = [f"{', '.join(coordinates)}, = xs"] if coordinates else []
        coordinates.append("q")
        body: list[str] = []
        bound: dict[str, object] = {"_pole": _pole_error}

        def power(x: str, e: int) -> str:
            return x if e == 1 else f"{x}_{e}"

        def times(*names: str) -> str:
            """The product of names, leaving out the "" of a factor 1."""
            return " * ".join(filter(None, names)) or "1"

        def constant(value: int, k: int) -> str:
            bound[f"k{k}"] = value
            return f"k{k}"

        def monomial(exponent: Exponent, j: int) -> str:
            """A monomial (q last) as a product of powers, or "" for 1."""
            factors = [power(x, e) for x, e in zip(coordinates, exponent) if e]
            if len(factors) < 2:
                return "".join(factors)
            body.append(f"m{j} = {' * '.join(factors)}")
            return f"m{j}"

        def program(key: tuple[int, Polynomial], p: int) -> str:
            """A primitive integer polynomial homogenised to degree m."""
            m, poly = key
            terms = [
                f"{'-' if c < 0 else '+'} {times(constants[abs(c)], monomials[(*e, m - sum(e))])}"
                for e, c in poly._coefficients.items()
            ]
            chunks = [" ".join(terms[s:s + _TERMS_PER_STATEMENT]) for s in range(0, len(terms), _TERMS_PER_STATEMENT)]
            body.append(f"v{p} = {chunks[0].removeprefix('+ ') if chunks else 0}")
            body.extend(f"v{p} = v{p} {chunk}" for chunk in chunks[1:])
            return f"v{p}"

        constants, monomials, programs = _Written(constant), _Written(monomial), _Written(program)
        constants[1] = ""
        pairs = []
        for f in functions:
            m = max(f.numerator.total_degree(), f.denominator.total_degree())
            (cn, n), (cd, d) = _primitive(f.numerator), _primitive(f.denominator)
            n, d = programs[m, n], programs[m, d]
            if f"d{d}" not in bound:
                bound[f"d{d}"] = f.denominator
                body.append(f"if not {d}: raise _pole(d{d}, xs, q)")
            pairs.append(f"({times(n, constants[cn])}, {times(d, constants[cd])})")
        body.append(f"return [{', '.join(pairs)}]")
        for x, read in zip(coordinates, map(set, zip(*monomials))):
            steps = pairwise(sorted(read - {0} | {1}))
            head += [f"{x}_{e} = {power(x, d)} * {x if e - d == 1 else f'{x} ** {e - d}'}" for d, e in steps]
        self._compiled = straight_line("evaluation kernel", "pairs", "xs, q", head + body, bound)

    def pairs(self, xs: Sequence[int], q: int) -> list[tuple[int, int]]:
        """Unreduced integers ``(N_b, D_b)`` with ``f_b(xs / q) = N_b / D_b``.

        Raises PoleError naming the first function's denominator that
        vanishes and the point ``xs / q`` as ``p/q`` coordinates.
        """
        if self._arity is not None and len(xs) != self._arity:
            raise ValueError(f"expected {self._arity} coordinates, got {len(xs)}")
        return self._compiled(xs, q)


class RationalFunction:
    """Quotient of two polynomials in canonical form.

    The denominator is never the zero polynomial.  Construction pads a part
    over no variables to the other part's (:meth:`Polynomial._aligned`),
    cancels a common monomial factor, scales both parts by a single rational
    so they become jointly primitive integer polynomials, and flips signs so the denominator's leading coefficient is positive.
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
            self.numerator = Polynomial._make(num.variables, {})
            self.denominator = Polynomial._make(num.variables, {(0,) * len(num.variables): 1})
            return
        num, den = _cancel_common_monomial(num, den)
        num, den = _jointly_primitive(num, den)
        self.numerator = num
        self.denominator = den

    @classmethod
    def _make(cls, numerator: Polynomial, denominator: Polynomial) -> "RationalFunction":
        """Unchecked constructor for a pair already in canonical form."""
        f = object.__new__(cls)
        f.numerator = numerator
        f.denominator = denominator
        return f

    # -- queries ---------------------------------------------------------

    @property
    def variables(self) -> tuple[str, ...]:
        return self.numerator.variables

    @property
    def is_zero(self) -> bool:
        return self.numerator.is_zero

    def placed(self, variables: tuple[str, ...], offset: int) -> "RationalFunction":
        """Both parts placed (:meth:`Polynomial.placed`), which keeps the canonical form."""
        return RationalFunction._make(self.numerator.placed(variables, offset), self.denominator.placed(variables, offset))

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "RationalFunction":
        return value if isinstance(value, RationalFunction) else RationalFunction(value)

    def __add__(self, other) -> "RationalFunction":
        return sum_rational_functions((self, self._coerce(other)))

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
        """Exact value at a rational point; raises PoleError on a vanishing denominator.

        Each call builds and compiles a one-function :class:`EvaluationKernel`.
        To evaluate a system at many points, use ``BlendingSystem.evaluate``,
        whose kernel is compiled once and cached on the system.
        """
        if len(values) != len(self.variables):
            raise ValueError(f"expected {len(self.variables)} values for {self.variables}, got {len(values)}")
        ((num, den),) = EvaluationKernel((self,)).pairs(*integer_point(values))
        return Fraction(num, den)

    def equals(self, other) -> bool:
        """Equality in the fraction field, by cross-multiplication."""
        g = self._coerce(other)
        return (self.numerator * g.denominator - g.numerator * self.denominator).is_zero

    def __eq__(self, other) -> bool:
        """:meth:`equals`, but False for operands over two different nonempty variable tuples."""
        if not isinstance(other, (RationalFunction, Polynomial, int, Fraction)):
            return NotImplemented
        g = self._coerce(other)
        if self.variables and g.variables and self.variables != g.variables:
            return False
        return self.equals(g)

    __hash__ = None

    def __str__(self) -> str:
        if self.denominator == Polynomial.constant(1, self.denominator.variables):
            return str(self.numerator)
        return f"({self.numerator}) / ({self.denominator})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


def _cancel_common_monomial(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Divide out x^m where m is the largest monomial dividing every term."""
    shift = tuple(map(min, zip(*num._coefficients, *den._coefficients)))
    if not any(shift):
        return num, den

    def shifted(poly: Polynomial) -> Polynomial:
        return Polynomial._make(
            poly.variables,
            {tuple(e - s for e, s in zip(exp, shift)): c for exp, c in poly._coefficients.items()},
            poly._denominator,
        )

    return shifted(num), shifted(den)


def _jointly_primitive(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Scale num and den by one rational: integer coefficients, joint content 1,
    positive leading denominator coefficient."""
    # num / den = (a / p) / (b / r) = (a * r) / (b * p); g is the joint content.
    p, r = num._denominator, den._denominator
    g = gcd(r * _content(num._coefficients), p * _content(den._coefficients))
    # the denominator of den is positive, so its leading integer gives the sign
    if den._coefficients[max(den._coefficients, key=_grlex_key)] < 0:
        g = -g

    def scaled(poly: Polynomial, factor: int) -> Polynomial:
        if factor == g == 1:
            return Polynomial._make(poly.variables, poly._coefficients)
        return Polynomial._make(poly.variables, {e: c * factor // g for e, c in poly._coefficients.items()})

    return scaled(num, r), scaled(den, p)


def lcm_sum(
    terms: Iterable[tuple[Polynomial, Mapping[Polynomial, int]]], variables: Sequence[str]
) -> tuple[Polynomial, Polynomial]:
    """``(N, D)`` with ``N / D`` the sum of fractions with factored denominators.

    A term is a numerator over a map {factor: positive exponent}, each
    factor a polynomial over ``variables``.  Terms with equal maps are
    summed first, then the groups are brought over the exponent-wise lcm
    ``D`` of their maps, with each power of a factor built once.  Nothing
    cancels.
    """
    groups: dict[frozenset, tuple[Mapping, Polynomial]] = {}
    for numerator, denominator in terms:
        key = frozenset(denominator.items())
        if key in groups:
            numerator = groups[key][1] + numerator
        groups[key] = (denominator, numerator)
    lcm_exponents: dict[Polynomial, int] = {}
    for denominator, _ in groups.values():
        for factor, e in denominator.items():
            lcm_exponents[factor] = max(lcm_exponents.get(factor, 0), e)
    powers = {factor: power_table(factor, e) for factor, e in lcm_exponents.items()}

    def over_lcm(numerator: Polynomial, denominator: Mapping) -> Polynomial:
        for factor, e in lcm_exponents.items():
            missing = e - denominator.get(factor, 0)
            if missing:
                numerator = numerator * powers[factor][missing]
        return numerator

    total = Polynomial.zero(variables)
    for denominator, numerator in groups.values():
        total = total + over_lcm(numerator, denominator)
    return total, over_lcm(Polynomial.constant(1, variables), {})


def primitive_term(f: RationalFunction) -> tuple[Polynomial, dict[Polynomial, int]]:
    """``f`` as an :func:`lcm_sum` term keyed by the primitive part of its
    denominator, the denominator's integer content folded into the numerator.

    A constant denominator adds no factor at all.  Canonical denominators
    equal up to their content, as the functions of one toric system often
    are, then share one factor, so no group of a sum is multiplied by the
    others' "missing" powers of the same polynomial.
    """
    # A canonical denominator has integer coefficients over 1 and a positive
    # leading coefficient, so its content is positive.
    content, denominator = _primitive(f.denominator)
    numerator = f.numerator
    if content != 1:
        numerator = Polynomial._make(numerator.variables, numerator._coefficients, numerator._denominator * content)
    if not any(map(any, denominator._coefficients)):
        return numerator, {}
    return numerator, {denominator: 1}


def weighted_quotients(numerators: Sequence[Polynomial], weights: Sequence[Fraction]) -> list[RationalFunction]:
    """``RationalFunction(w_b * N_b, D)`` for every b, with D = sum_b w_b * N_b.

    The numerators are nonzero primitive integer polynomials over one
    variable tuple, as products of primitive forms are (Gauss's lemma), and
    the weights positive rationals w_b = a_b / c_b.  With L the lcm of the
    c_b and m_b = a_b * L / c_b, the integer polynomial L * D = sum_b m_b * N_b
    is formed once, and so are its content C and leading sign s.  When D has
    no monomial factor nothing cancels, and the canonical form of
    m_b * N_b / (L * D) is (u * N_b, v * D'), where D' = s * L * D / C is
    primitive and leads positive and u / v = s * m_b / C in lowest terms with
    v > 0, so the parts are jointly primitive.  Functions with equal v share
    one denominator object.  When D has a monomial factor, every function is
    built by ``RationalFunction``, which cancels what its parts share.
    """
    if not numerators:
        return []
    variables = numerators[0].variables
    scale = lcm(*[w.denominator for w in weights])
    multipliers = [w.numerator * (scale // w.denominator) for w in weights]
    total: dict[Exponent, int] = {}
    get = total.get
    for m, numerator in zip(multipliers, numerators):
        for e, c in numerator._coefficients.items():
            total[e] = get(e, 0) + m * c
    total = {e: c for e, c in total.items() if c}
    if not total:
        raise ZeroDivisionError("zero denominator polynomial")
    if any(map(min, zip(*total))):
        denominator = Polynomial._make(variables, total)
        return [
            RationalFunction(Polynomial._make(variables, {e: m * c for e, c in n._coefficients.items()}), denominator)
            for m, n in zip(multipliers, numerators)
        ]
    content = _content(total)
    sign = 1 if total[max(total, key=_grlex_key)] > 0 else -1
    primitive = {e: sign * c // content for e, c in total.items()}
    denominators: dict[int, Polynomial] = {}
    functions = []
    for m, numerator in zip(multipliers, numerators):
        g = gcd(m, content)
        u, v = sign * m // g, content // g
        if u != 1:
            numerator = Polynomial._make(variables, {e: u * c for e, c in numerator._coefficients.items()})
        denominator = denominators.get(v)
        if denominator is None:
            denominator = denominators[v] = Polynomial._make(
                variables, primitive if v == 1 else {e: v * c for e, c in primitive.items()}
            )
        functions.append(RationalFunction._make(numerator, denominator))
    return functions


def sum_rational_functions(functions: Iterable[RationalFunction]) -> RationalFunction:
    """Sum rational functions with :func:`lcm_sum`, each a :func:`primitive_term`.

    Functions whose denominators are equal up to content are summed first,
    so the result's denominator is the product of the distinct primitive
    denominators, not of all summands; that matters because no polynomial
    GCD is cancelled.
    """
    fs = list(functions)
    names = reduce(common_variables, [f.variables for f in fs], ())
    return RationalFunction(*lcm_sum([primitive_term(f) for f in fs], names))
