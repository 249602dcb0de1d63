"""Exact structure-constant core: rationals, vectors, products, skew brackets.

All scalars are exact rationals (``fractions.Fraction``); there is no floating
point and no rounding anywhere in the system, so "equals zero" is always a
decidable, exact question.  Every type in this module is immutable after
construction and may be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from typing import Iterable, Mapping, Sequence

__all__ = [
    "Rational",
    "InputError",
    "rat",
    "ElementVector",
    "ProductTensor",
    "SkewBracket",
    "DerivationMatrix",
    "AlgebraSystem",
    "basis_vectors",
    "canonicalize",
    "multiply",
    "bracket_apply",
]

#: The scalar field: arbitrary-precision rationals in lowest terms.
Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class InputError(ValueError):
    """Malformed user input: bad shapes, unknown names, unparsable data."""


def _dimension(d) -> int:
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise InputError(f"dimension must be a positive integer, got {d!r}")
    return d


def _rationals(entries, depth: int, what: str) -> tuple:
    # ``entries`` nested ``depth`` deep, as tuples of Rationals: the form a
    # save and a load give back, so equality survives the round trip.
    try:
        if depth == 1:
            return tuple(map(rat, entries))
        if depth == 2:  # spares a call per row
            return tuple(tuple(map(rat, row)) for row in entries)
        return tuple(_rationals(e, depth - 1, what) for e in entries)
    except TypeError:
        raise InputError(f"{what}: expected lists of rationals") from None


def rat(value) -> Fraction:
    """Coerce an int, Fraction, or canonical "p/q" / "p" string to a Rational.

    Floats are rejected: silently converting them would smuggle rounding
    into an exact computation.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise InputError(f"not an exact rational: {value!r}")
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError(f"malformed rational {value!r}: {exc}") from None


@dataclass(frozen=True)
class ElementVector:
    """An element of the algebra, as coordinates over the fixed basis."""

    coords: tuple[Fraction, ...]

    @classmethod
    def from_coords(cls, coords: Iterable) -> "ElementVector":
        return cls(tuple(rat(c) for c in coords))

    @classmethod
    def zero(cls, dim: int) -> "ElementVector":
        return zero_vector(dim)

    @classmethod
    def basis(cls, dim: int, index: int) -> "ElementVector":
        if not 0 <= index < dim:
            raise InputError(f"basis index {index} out of range for dimension {dim}")
        return cls(tuple(_ONE if k == index else _ZERO for k in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return not self.support()

    def support(self) -> tuple[tuple[int, Fraction], ...]:
        """Nonzero coordinates as (index, value) pairs; computed once and cached."""
        cached = self.__dict__.get("_support")
        if cached is None:
            cached = tuple((i, c) for i, c in enumerate(self.coords) if c)
            object.__setattr__(self, "_support", cached)
        return cached

    def scaled(self, a) -> "ElementVector":
        a = rat(a)
        if a == 1 or self.is_zero():
            return self
        return ElementVector(tuple(a * c for c in self.coords))

    def __add__(self, other: "ElementVector") -> "ElementVector":
        if len(self.coords) != len(other.coords):
            raise InputError("vector dimension mismatch")
        if not self.support():
            return other
        if not other.support():
            return self
        return ElementVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "ElementVector") -> "ElementVector":
        if len(self.coords) != len(other.coords):
            raise InputError("vector dimension mismatch")
        if not other.support():
            return self
        if not self.support():
            return -other
        return ElementVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "ElementVector":
        if self.is_zero():
            return self
        return ElementVector(tuple(-c for c in self.coords))


@lru_cache(maxsize=None)
def zero_vector(dim: int) -> ElementVector:
    return ElementVector((_ZERO,) * dim)


@lru_cache(maxsize=None)
def basis_vectors(dim: int) -> tuple[ElementVector, ...]:
    """The standard basis e_0, ..., e_{dim-1}, cached per dimension."""
    return tuple(ElementVector.basis(dim, i) for i in range(dim))


def _sorted_sign(indices: Sequence[int]) -> tuple[tuple[int, ...], int]:
    # Insertion sort counting swaps; sign 0 on a repeated index.
    idx = list(indices)
    swaps = 0
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            swaps += 1
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return tuple(idx), 0
    return tuple(idx), -1 if swaps % 2 else 1


def canonicalize(indices: Sequence[int], dim: int) -> tuple[tuple[int, ...], int]:
    """Sort a basis index tuple, returning (sorted_tuple, sign).

    The sign is the parity of the sorting permutation, or 0 if an index is
    repeated.  Raises InputError when an index is outside 0..dim-1.
    """
    for i in indices:
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < dim:
            raise InputError(f"index {i!r} out of range for dimension {dim}")
    return _sorted_sign(indices)


@dataclass(frozen=True)
class ProductTensor:
    """Structure constants of the commutative associative product.

    ``c[i][j][k]`` is the coefficient of e_k in e_i * e_j.  Stored dense;
    commutativity and associativity are checked, never assumed.
    """

    dim: int
    c: tuple[tuple[tuple[Fraction, ...], ...], ...]
    _rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        d = _dimension(self.dim)
        c = _rationals(self.c, 3, "product tensor")
        if len(c) != d or any(len(p) != d or any(len(row) != d for row in p) for p in c):
            raise InputError(f"product tensor must be {d}x{d}x{d}")
        object.__setattr__(self, "c", c)
        rows = tuple(
            tuple(
                tuple((k, v) for k, v in enumerate(c[i][j]) if v)
                for j in range(d)
            )
            for i in range(d)
        )
        object.__setattr__(self, "_rows", rows)

    @classmethod
    def zero(cls, dim: int) -> "ProductTensor":
        row = ((_ZERO,) * dim,) * dim
        return cls(dim, (row,) * dim)


def multiply(product: ProductTensor, x: ElementVector, y: ElementVector) -> ElementVector:
    """The bilinear product x * y expanded in coordinates."""
    d = product.dim
    if x.dim != d or y.dim != d:
        raise InputError(f"multiply: operands must have dimension {d}")
    xs, ys = x.support(), y.support()
    if not xs or not ys:
        return zero_vector(d)
    acc = [_ZERO] * d
    rows = product._rows
    touched = False
    for i, xi in xs:
        row = rows[i]
        for j, yj in ys:
            cell = row[j]
            if not cell:
                continue
            touched = True
            if xi == 1:
                w = yj
            elif yj == 1:
                w = xi
            else:
                w = xi * yj
            if w == 1:
                for k, ck in cell:
                    acc[k] += ck
            else:
                for k, ck in cell:
                    acc[k] += w if ck == 1 else w * ck
    if not touched:
        return zero_vector(d)
    return ElementVector(tuple(acc))


@dataclass(frozen=True)
class SkewBracket:
    """An arity-n skew-symmetric bracket stored on strictly increasing tuples.

    ``entries`` maps a strictly increasing index tuple (i_1 < ... < i_n) to
    the value [e_{i_1}, ..., e_{i_n}]; absent tuples denote the zero vector,
    and all other index orders follow by skew symmetry.  If arity > dim no
    strictly increasing tuple exists and the bracket is identically zero.
    """

    dim: int
    arity: int
    entries: Mapping[tuple[int, ...], ElementVector]

    def __post_init__(self) -> None:
        d, n = _dimension(self.dim), self.arity
        if not isinstance(n, int) or n < 2:
            raise InputError(f"bracket arity must be an integer >= 2, got {n!r}")
        # Every key is checked before the keys are sorted: sorting keys of
        # mixed types would raise a bare TypeError.
        keyed = {}
        for key, value in self.entries.items():
            try:
                key = tuple(key)
            except TypeError:
                raise InputError(f"bracket key {key!r} must be a tuple of {n} indices") from None
            if len(key) != n:
                raise InputError(f"bracket key {key} must have {n} indices")
            if any(
                not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < d for i in key
            ):
                raise InputError(f"bracket key {key} needs integer indices in 0..{d - 1}")
            if any(a >= b for a, b in zip(key, key[1:])):
                raise InputError(f"bracket key {key}: indices not strictly increasing")
            keyed[key] = value
        clean: dict[tuple[int, ...], ElementVector] = {}
        for key in sorted(keyed):
            value = keyed[key]
            # ElementVector() checks nothing, so only one of Fractions is kept.
            if not isinstance(value, ElementVector):
                value = ElementVector(_rationals(value, 1, f"bracket value for {key}"))
            elif not all(isinstance(c, Fraction) for c in value.coords):
                value = ElementVector(_rationals(value.coords, 1, f"bracket value for {key}"))
            if value.dim != d:
                raise InputError(f"bracket value for {key} must have length {d}")
            if not value.is_zero():
                clean[key] = value
        object.__setattr__(self, "entries", clean)

    @classmethod
    def zero(cls, dim: int, arity: int) -> "SkewBracket":
        return cls(dim, arity, {})


def bracket_apply(bracket: SkewBracket, args: Sequence[ElementVector]) -> ElementVector:
    """Multilinear skew-symmetric extension of the stored basis values."""
    d, n = bracket.dim, bracket.arity
    if len(args) != n:
        raise InputError(f"bracket of arity {n} applied to {len(args)} arguments")
    if any(a.dim != d for a in args):
        raise InputError(f"bracket arguments must have dimension {d}")
    entries = bracket.entries
    if not entries:
        return zero_vector(d)
    supports = [a.support() for a in args]
    if any(not s for s in supports):
        return zero_vector(d)
    acc = [_ZERO] * d
    touched = False
    for combo in iproduct(*supports):
        key, sign = _sorted_sign([i for i, _ in combo])
        if sign == 0:
            continue
        value = entries.get(key)
        if value is None:
            continue
        touched = True
        w = _ONE
        for _, coeff in combo:
            if coeff != 1:
                w = w * coeff if w != 1 else coeff
        if sign < 0:
            w = -w
        if w == 1:
            for k, vk in value.support():
                acc[k] += vk
        else:
            for k, vk in value.support():
                acc[k] += w if vk == 1 else w * vk
    if not touched:
        return zero_vector(d)
    return ElementVector(tuple(acc))


@dataclass(frozen=True)
class DerivationMatrix:
    """A linear map D as a d*d matrix: m[k][j] is the e_k coefficient of D(e_j).

    No structural constraint is imposed; being a derivation is a property
    that the checkers verify, never an assumption.
    """

    dim: int
    m: tuple[tuple[Fraction, ...], ...]
    _cols: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        d = _dimension(self.dim)
        m = _rationals(self.m, 2, "derivation matrix")
        if len(m) != d or any(len(row) != d for row in m):
            raise InputError(f"derivation matrix must be {d}x{d}")
        object.__setattr__(self, "m", m)
        cols = tuple(tuple((k, m[k][j]) for k in range(d) if m[k][j]) for j in range(d))
        object.__setattr__(self, "_cols", cols)

    @classmethod
    def zero(cls, dim: int) -> "DerivationMatrix":
        return cls(dim, ((_ZERO,) * dim,) * dim)

    def apply(self, x: ElementVector) -> ElementVector:
        if x.dim != self.dim:
            raise InputError(f"derivation applied to vector of wrong dimension")
        acc = [_ZERO] * self.dim
        cols = self._cols
        for j, xj in x.support():
            for k, mkj in cols[j]:
                acc[k] += mkj * xj
        return ElementVector(tuple(acc))

    def column(self, j: int) -> ElementVector:
        """D(e_j) as a vector."""
        if not 0 <= j < self.dim:
            raise InputError(f"column index {j} out of range")
        return ElementVector(tuple(self.m[k][j] for k in range(self.dim)))

    def scaled(self, a) -> "DerivationMatrix":
        a = rat(a)
        return DerivationMatrix(self.dim, tuple(tuple(a * v for v in row) for row in self.m))


@dataclass(frozen=True)
class AlgebraSystem:
    """A product, named brackets, and named candidate derivations on one space."""

    dim: int
    product: ProductTensor
    brackets: Mapping[str, SkewBracket]
    derivations: Mapping[str, DerivationMatrix] = field(default_factory=dict)
    basis_labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        d = _dimension(self.dim)
        if not isinstance(self.product, ProductTensor):
            raise InputError(f"product must be a ProductTensor, not {type(self.product).__name__}")
        if self.product.dim != d:
            raise InputError(f"product has dimension {self.product.dim}, system has {d}")
        for kind, parts, cls in (
            ("bracket", self.brackets, SkewBracket),
            ("derivation", self.derivations, DerivationMatrix),
        ):
            for name, part in parts.items():
                # Names are saved as JSON object keys, which are strings.
                if not isinstance(name, str):
                    raise InputError(f"{kind} name {name!r} must be a string")
                if not isinstance(part, cls):
                    what = type(part).__name__
                    raise InputError(f"{kind} {name!r} is a {what}, not a {cls.__name__}")
                if part.dim != d:
                    raise InputError(f"{kind} {name!r} has dimension {part.dim}, system has {d}")
        if self.basis_labels is not None:
            labels = tuple(str(s) for s in self.basis_labels)
            if len(labels) != d:
                raise InputError(f"expected {d} basis labels, got {len(labels)}")
            object.__setattr__(self, "basis_labels", labels)
        object.__setattr__(self, "brackets", dict(self.brackets))
        object.__setattr__(self, "derivations", dict(self.derivations))

    def bracket(self, name: str) -> SkewBracket:
        try:
            return self.brackets[name]
        except KeyError:
            known = ", ".join(sorted(self.brackets)) or "none"
            raise InputError(f"unknown bracket {name!r} (available: {known})") from None

    def derivation(self, name: str) -> DerivationMatrix:
        try:
            return self.derivations[name]
        except KeyError:
            known = ", ".join(sorted(self.derivations)) or "none"
            raise InputError(f"unknown derivation {name!r} (available: {known})") from None

    def with_bracket(self, name: str, bracket: SkewBracket) -> "AlgebraSystem":
        """A copy of the system with one more named bracket."""
        if name in self.brackets:
            raise InputError(f"bracket {name!r} already exists")
        brackets = dict(self.brackets)
        brackets[name] = bracket
        return AlgebraSystem(self.dim, self.product, brackets, self.derivations, self.basis_labels)

    def with_derivation(self, name: str, matrix: DerivationMatrix) -> "AlgebraSystem":
        """A copy of the system with one more named derivation candidate."""
        if name in self.derivations:
            raise InputError(f"derivation {name!r} already exists")
        derivations = dict(self.derivations)
        derivations[name] = matrix
        return AlgebraSystem(self.dim, self.product, self.brackets, derivations, self.basis_labels)
