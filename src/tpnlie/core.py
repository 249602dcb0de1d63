"""Exact structure-constant core: rationals, vectors, products, skew brackets.

All scalars are exact rationals (``fractions.Fraction``); there is no floating
point and no rounding anywhere in the system, so "equals zero" is always a
decidable, exact question.  Every type in this module is immutable after
construction (mappings are stored as read-only views; the only later writes
go to one private ``_derived`` dict per object, filled by ``_kept`` with
data derived from the fields, such as a vector's support and the checkers'
tables, which equality, hashing and repr ignore) and may be shared freely
across threads.  Every public entry point checks its arguments with the
rules here: ``_integer``, ``_bracket_key``, ``_components``, ``_system`` and
``_vectors``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, MappingView, Sequence, Set
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from itertools import product as iproduct
from itertools import repeat
from types import MappingProxyType

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


def _shown(value) -> str:
    """``value`` as a message echoes it: its repr (an exception's text), cut
    after 80 characters to a prefix, "…" and the full length."""
    try:
        text = str(value) if isinstance(value, BaseException) else repr(value)
    except (ValueError, RecursionError):  # an int past str()'s digit limit; deep nesting
        return f"<{type(value).__name__} too large to show>"
    return _cut(text)


def _cut(text: str) -> str:
    """``text`` cut after 80 characters to a prefix, "…" and the full length."""
    return text if len(text) <= 80 else f"{text[:80]}… ({len(text)} chars)"


def _integer(value, what: str, least: int | None = None, most: int | None = None) -> int:
    """``value`` if it is an int, never a bool, in ``least..most``; else an
    InputError that names ``what``.  Either bound may be None (open), but
    ``most`` comes only with ``least``."""
    if isinstance(value, int) and not isinstance(value, bool):
        if (least is None or value >= least) and (most is None or value <= most):
            return value
    rule = "an integer"
    if most is not None:
        rule += f" in {least}..{most}"
    elif least is not None:
        rule += f" >= {least}"
    raise InputError(f"{what} must be {rule}, got {_shown(value)}")


def _bracket_key(key, n: int, d: int, what: str) -> tuple[int, ...]:
    """``key`` as a stored bracket key: ``n`` integer indices in 0..d-1,
    strictly increasing; ``what`` names it in messages."""
    try:
        indices = tuple(key)
    except TypeError:
        indices = ()
    if len(indices) != n:
        raise InputError(f"{what} {_shown(key)} must be a tuple of {n} indices")
    try:
        for i in indices:
            _integer(i, "index", 0, d - 1)
    except InputError:
        raise InputError(
            f"{what} {_shown(key)} needs integer indices, none outside 0..{d - 1}"
        ) from None
    if any(a >= b for a, b in zip(indices, indices[1:])):
        raise InputError(f"{what} {_shown(key)}: indices not strictly increasing")
    return indices


# Every type here is immutable, and what is derived from an object depends on
# nothing else, so ``new()`` is kept on it, valid for its lifetime, freed with it.
def _kept(obj, key, new: Callable):
    derived = vars(obj).setdefault("_derived", {})
    if key not in derived:
        derived[key] = new()
    return derived[key]


def _mapping(value, what: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise InputError(f"{what} must be a mapping, got {type(value).__name__}")
    return value


def _listed(values, what: str) -> list | tuple:
    # A list or tuple passes, spared the ABC checks.  A string or bytes would
    # be read by character; a set, a mapping or a view holds no caller's order.
    if type(values) in (list, tuple):
        return values
    if isinstance(values, (str, bytes, Set, Mapping, MappingView)) or not isinstance(values, Iterable):
        raise InputError(f"{what} must be a list, got {type(values).__name__}")
    return list(values)


def _rationals(entries, depth: int, what: str) -> tuple:
    # ``entries``, ``depth`` levels of ``_listed`` lists, as tuples of Rationals:
    # the form a save and a load give back, so equality survives the round trip.
    if depth == 1:
        return tuple(map(rat, _listed(entries, what)))
    if depth == 2:  # spares a call per row
        return tuple(tuple(map(rat, _listed(row, what))) for row in _listed(entries, what))
    return tuple(_rationals(e, depth - 1, what) for e in _listed(entries, what))


def rat(value) -> Fraction:
    """Coerce an int, Fraction, or canonical "p/q" / "p" string to a Rational.

    Floats are rejected: silently converting them would smuggle rounding
    into an exact computation.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise InputError(f"not an exact rational: {_shown(value)}")
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError(f"malformed rational {_shown(value)}: {_shown(exc)}") from None


@dataclass(frozen=True)
class ElementVector:
    """An element of the algebra, as coordinates over the fixed basis."""

    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        # Coordinates go through ``rat`` like every constructor's constants,
        # except a nonempty tuple of Fractions: what the core ops build, many times.
        coords = self.coords
        if not (type(coords) is tuple and coords and all(map(isinstance, coords, repeat(Fraction)))):
            object.__setattr__(self, "coords", _rationals(coords, 1, "vector coordinates"))
            _integer(len(self.coords), "vector dimension", 1)

    @classmethod
    def zero(cls, dim: int) -> "ElementVector":
        return zero_vector(_integer(dim, "dimension", 1))

    @classmethod
    def basis(cls, dim: int, index: int) -> "ElementVector":
        dim = _integer(dim, "dimension", 1)
        index = _integer(index, "basis index", 0, dim - 1)
        return cls(tuple(_ONE if k == index else _ZERO for k in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return not self.support()

    def support(self) -> tuple[tuple[int, Fraction], ...]:
        """Nonzero coordinates as (index, value) pairs; computed once (``_kept``)."""
        return _kept(self, "nonzero", lambda: tuple((i, c) for i, c in enumerate(self.coords) if c))

    def scaled(self, a) -> "ElementVector":
        a = rat(a)
        if a == 1 or self.is_zero():
            return self
        return ElementVector(tuple(a * c for c in self.coords))

    def __add__(self, other: "ElementVector") -> "ElementVector":
        _vectors("vector sum", self.dim, (other,))
        if not self.support():
            return other
        if not other.support():
            return self
        return ElementVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "ElementVector") -> "ElementVector":
        _vectors("vector difference", self.dim, (other,))
        if not other.support():
            return self
        if not self.support():
            return -other
        return ElementVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "ElementVector":
        if self.is_zero():
            return self
        return ElementVector(tuple(-c for c in self.coords))


def _vectors(what: str, d: int, vectors) -> None:
    # The argument rule of a public op: every one of ``vectors`` is an
    # ElementVector of dimension d; else an InputError that names the op.
    for v in vectors:
        if not isinstance(v, ElementVector):
            raise InputError(f"{what}: expected an ElementVector, got {type(v).__name__}")
        if len(v.coords) != d:
            raise InputError(f"{what}: expected dimension {d}, got {v.dim}")


@lru_cache(maxsize=None)
def zero_vector(dim: int) -> ElementVector:
    return ElementVector((_ZERO,) * dim)


def _accumulated(acc: list) -> ElementVector:
    # ``acc`` started as [_ZERO] * d, and count() matches the coordinates no
    # term reached by identity: far cheaper than any() on Fractions.
    d = len(acc)
    return zero_vector(d) if acc.count(_ZERO) == d else ElementVector(tuple(acc))


@lru_cache(maxsize=None)
def basis_vectors(dim: int) -> tuple[ElementVector, ...]:
    """The standard basis e_0, ..., e_{dim-1}, cached per dimension."""
    return tuple(ElementVector.basis(dim, i) for i in range(_integer(dim, "dimension", 1)))


def _sorted_sign(indices: Sequence[int]) -> tuple[tuple[int, ...], int]:
    # The sign is the parity of the inversions, or 0 on a repeated index.
    key = tuple(sorted(indices))
    if len(set(key)) < len(key):
        return key, 0
    return key, -1 if sum(a > b for a, b in combinations(indices, 2)) % 2 else 1


def canonicalize(indices: Sequence[int], dim: int) -> tuple[tuple[int, ...], int]:
    """Sort a basis index tuple, returning (sorted_tuple, sign).

    The sign is the parity of the sorting permutation, or 0 if an index is
    repeated.  Raises InputError when an index is outside 0..dim-1.
    """
    most = _integer(dim, "dimension", 1) - 1
    indices = _listed(indices, "indices")
    for i in indices:
        _integer(i, "index", 0, most)
    return _sorted_sign(indices)


@dataclass(frozen=True)
class ProductTensor:
    """Structure constants of the commutative associative product.

    ``c[i][j][k]`` is the coefficient of e_k in e_i * e_j.  Stored dense;
    commutativity and associativity are checked, never assumed.
    """

    dim: int
    c: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def __post_init__(self) -> None:
        d = _integer(self.dim, "dimension", 1)
        c = _rationals(self.c, 3, "product tensor")
        if len(c) != d or any(len(p) != d or any(len(row) != d for row in p) for p in c):
            raise InputError(f"product tensor must be {d}x{d}x{d}")
        object.__setattr__(self, "c", c)

    @classmethod
    def zero(cls, dim: int) -> "ProductTensor":
        row = ((_ZERO,) * _integer(dim, "dimension", 1),) * dim
        return cls(dim, (row,) * dim)


def multiply(product: ProductTensor, x: ElementVector, y: ElementVector) -> ElementVector:
    """The bilinear product x * y expanded in coordinates."""
    d = product.dim
    _vectors("multiply", d, (x, y))
    acc = [_ZERO] * d
    for i, xi in x.support():
        for j, yj in y.support():
            w = xi * yj
            for k, ck in enumerate(product.c[i][j]):
                if ck:
                    acc[k] += w * ck
    return _accumulated(acc)


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
        d = _integer(self.dim, "dimension", 1)
        n = _integer(self.arity, "bracket arity", 2)
        clean: dict[tuple[int, ...], ElementVector] = {}
        for key, value in _mapping(self.entries, "bracket entries").items():
            key = _bracket_key(key, n, d, "bracket key")
            if isinstance(value, ElementVector):
                value = value.coords
            value = ElementVector(_rationals(value, 1, f"bracket value for {key}"))
            if value.dim != d:
                raise InputError(f"bracket value for {key} must have length {d}")
            if not value.is_zero():
                clean[key] = value
        # Sorted only now that every key is checked: sorting keys of mixed
        # types would raise a bare TypeError.
        object.__setattr__(self, "entries", MappingProxyType(dict(sorted(clean.items()))))

    @classmethod
    def zero(cls, dim: int, arity: int) -> "SkewBracket":
        return cls(dim, arity, {})


def bracket_apply(bracket: SkewBracket, args: Sequence[ElementVector]) -> ElementVector:
    """Multilinear skew-symmetric extension of the stored basis values."""
    d, n = bracket.dim, bracket.arity
    args = _listed(args, "bracket_apply arguments")
    if len(args) != n:
        raise InputError(f"bracket of arity {n} applied to {len(args)} arguments")
    _vectors("bracket_apply", d, args)
    acc = [_ZERO] * d
    for combo in iproduct(*(a.support() for a in args)):
        key, sign = _sorted_sign([i for i, _ in combo])
        value = bracket.entries.get(key) if sign else None
        if value is None:
            continue
        w = _ONE if sign > 0 else -_ONE  # an int times a Fraction is the slow path
        for _, coeff in combo:
            w *= coeff
        for k, vk in value.support():
            acc[k] += w * vk
    return _accumulated(acc)


@dataclass(frozen=True)
class DerivationMatrix:
    """A linear map D as a d*d matrix: m[k][j] is the e_k coefficient of D(e_j).

    No structural constraint is imposed; being a derivation is a property
    that the checkers verify, never an assumption.
    """

    dim: int
    m: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        d = _integer(self.dim, "dimension", 1)
        m = _rationals(self.m, 2, "derivation matrix")
        if len(m) != d or any(len(row) != d for row in m):
            raise InputError(f"derivation matrix must be {d}x{d}")
        object.__setattr__(self, "m", m)

    @classmethod
    def zero(cls, dim: int) -> "DerivationMatrix":
        return cls(dim, ((_ZERO,) * _integer(dim, "dimension", 1),) * dim)

    def apply(self, x: ElementVector) -> ElementVector:
        _vectors("DerivationMatrix.apply", self.dim, (x,))
        acc = [_ZERO] * self.dim
        for j, xj in x.support():
            for k, row in enumerate(self.m):
                if row[j]:
                    acc[k] += row[j] * xj
        return _accumulated(acc)

    def column(self, j: int) -> ElementVector:
        """D(e_j) as a vector."""
        j = _integer(j, "column index", 0, self.dim - 1)
        return ElementVector(tuple(self.m[k][j] for k in range(self.dim)))


def _components(what: str, product, bracket, derivation, used=(True, True, True)) -> int:
    """The one dimension of the components flagged in ``used``.

    Every component given must have its type, and each used one must be
    given; ``what`` names the caller in messages.
    """
    dims = {}
    for name, obj, kind, needed in (
        ("product", product, ProductTensor, used[0]),
        ("bracket", bracket, SkewBracket, used[1]),
        ("derivation", derivation, DerivationMatrix, used[2]),
    ):
        if obj is None:
            if needed:
                raise InputError(f"{what} requires a {name}")
        elif not isinstance(obj, kind):
            raise InputError(
                f"{what}: the {name} must be a {kind.__name__}, got a {type(obj).__name__}"
            )
        elif needed:
            dims[name] = obj.dim
    found = set(dims.values())
    if len(found) != 1:
        given = ", ".join(f"{name} {dim}" for name, dim in dims.items())
        raise InputError(f"{what}: component dimensions disagree ({given})")
    return found.pop()


@dataclass(frozen=True)
class AlgebraSystem:
    """A product, named brackets, and named candidate derivations on one space."""

    dim: int
    product: ProductTensor
    brackets: Mapping[str, SkewBracket]
    derivations: Mapping[str, DerivationMatrix] = field(default_factory=dict)
    basis_labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        d = _integer(self.dim, "dimension", 1)
        if not isinstance(self.product, ProductTensor):
            raise InputError(f"product must be a ProductTensor, not {type(self.product).__name__}")
        if self.product.dim != d:
            raise InputError(f"product has dimension {self.product.dim}, system has {d}")
        for kind, parts, cls in (
            ("bracket", self.brackets, SkewBracket),
            ("derivation", self.derivations, DerivationMatrix),
        ):
            for name, part in _mapping(parts, kind + "s").items():
                _name(kind, name)
                if not isinstance(part, cls):
                    what = type(part).__name__
                    raise InputError(f"{kind} {_shown(name)} is a {what}, not a {cls.__name__}")
                if part.dim != d:
                    raise InputError(
                        f"{kind} {_shown(name)} has dimension {part.dim}, system has {d}"
                    )
        if self.basis_labels is not None:
            labels = tuple(str(s) for s in _listed(self.basis_labels, "basis_labels"))
            if len(labels) != d:
                raise InputError(f"expected {d} basis labels, got {len(labels)}")
            object.__setattr__(self, "basis_labels", labels)
        object.__setattr__(self, "brackets", MappingProxyType(dict(self.brackets)))
        object.__setattr__(self, "derivations", MappingProxyType(dict(self.derivations)))

    def bracket(self, name: str) -> SkewBracket:
        return self._part("bracket", name)

    def derivation(self, name: str) -> DerivationMatrix:
        return self._part("derivation", name)

    def with_bracket(self, name: str, bracket: SkewBracket) -> "AlgebraSystem":
        """A copy of the system with one more named bracket."""
        return self._with("bracket", name, bracket)

    def with_derivation(self, name: str, matrix: DerivationMatrix) -> "AlgebraSystem":
        """A copy of the system with one more named derivation candidate."""
        return self._with("derivation", name, matrix)

    def _part(self, kind: str, name):
        parts = getattr(self, kind + "s")
        try:
            return parts[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            known = _cut(", ".join(sorted(parts)) or "none")
            raise InputError(f"unknown {kind} {_shown(name)} (available: {known})") from None

    def _with(self, kind: str, name, part) -> "AlgebraSystem":
        parts = getattr(self, kind + "s")
        if _name(kind, name) in parts:
            raise InputError(f"{kind} {_shown(name)} already exists")
        return replace(self, **{kind + "s": {**parts, name: part}})


def _name(kind: str, name) -> str:
    # Names are saved as JSON object keys, which are strings.
    if not isinstance(name, str):
        raise InputError(f"{kind} name {_shown(name)} must be a string")
    return name


def _system(value) -> AlgebraSystem:
    """``value`` if it is an AlgebraSystem; else an InputError naming ``system``."""
    if not isinstance(value, AlgebraSystem):
        raise InputError(f"system must be an AlgebraSystem, got {type(value).__name__}")
    return value
