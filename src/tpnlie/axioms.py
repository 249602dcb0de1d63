"""Exhaustive basis-tuple verification of the algebra identities.

Every checker evaluates LHS - RHS of one identity, transcribed exactly as
displayed (no algebraic pre-simplification), over basis index tuples in
lexicographic order of the identity's quantifier order.  Both sides of
every identity are multilinear in each quantified element, so verification
on basis tuples is equivalent to verification on all of L.  A failure is
reported as the lexicographically first failing tuple of the full index
cube together with its nonzero residual vector.

The quantifier tuple splits into blocks (the y's and the x's of NL, say),
and every residual is alternating in each skew block.  That follows from
the skew symmetry of the bracket alone, so it holds for any product and
any linear map D.  A tuple with a repeated index inside a skew block
therefore has residual zero, and sorting a skew block only flips the sign
of the residual while never moving the tuple later in lex order.  So the
first failing tuple of the full cube is the first failing *canonical*
tuple, one whose skew blocks are strictly increasing, and the single scan
engine visits only those.  ``tuples_checked`` keeps the full-cube count
all the same (see ``check_identity``).

``check_identity`` checks one identity and ``run_suite`` a set of them.
Inputs are validated once, at the boundary that ``check_identity`` and
``sampled_verdict`` share.  The scan then evaluates residuals with a private
kernel over tables of the components the identity uses (product rows, D
columns, bracket entries), on sparse vectors and without per-call checks.
An integral structure constant is held as an ``int`` and any other as a
``Fraction``, so the arithmetic stays exact.  Each identity is transcribed
once, as a function of an ops record; ``sampled_verdict`` runs the same
transcription through the public, validating ``multiply``, ``bracket_apply``
and ``DerivationMatrix.apply`` and so stays an oracle independent of the
kernel.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import chain, combinations
from itertools import product as iproduct
from typing import Callable, Iterable

from .core import (
    AlgebraSystem,
    DerivationMatrix,
    ElementVector,
    InputError,
    ProductTensor,
    SkewBracket,
    _sorted_sign,
    bracket_apply,
    multiply,
)

__all__ = [
    "IdentityId",
    "CheckReport",
    "check_identity",
    "run_suite",
    "sampled_verdict",
]


class IdentityId(Enum):
    """The closed catalog of checkable identities, in canonical report order.

    NL        fundamental (Filippov) identity of the n-ary bracket
    TP        transposed Leibniz compatibility of product and bracket
    NP1-NP4   the four identities every transposed Poisson n-Lie algebra obeys
    STRONG    the strong compatibility condition (automatic at n = 2)
    SCALE     the scaling identity implied by NL + TP + STRONG
    DER_MUL   Leibniz rule of a candidate derivation over the product
    DER_BRK   Leibniz rule of a candidate derivation over the bracket
    LEM1/LEM2 the two derivation-sum identities behind the arity extension
    COMM      commutativity of the product tensor
    ASSOC     associativity of the product tensor
    """

    NL = "NL"
    TP = "TP"
    NP1 = "NP1"
    NP2 = "NP2"
    NP3 = "NP3"
    NP4 = "NP4"
    STRONG = "STRONG"
    SCALE = "SCALE"
    DER_MUL = "DER_MUL"
    DER_BRK = "DER_BRK"
    LEM1 = "LEM1"
    LEM2 = "LEM2"
    COMM = "COMM"
    ASSOC = "ASSOC"


@dataclass(frozen=True)
class CheckReport:
    """Verdict of one identity over one instance.

    ``status`` is "fail" iff ``counterexample`` is present; the counterexample
    is the lexicographically first failing index tuple and ``residual`` its
    nonzero LHS - RHS value.  On a failure ``tuples_checked`` is the rank of
    the counterexample in enumeration order plus one, which is what a
    sequential early-exit scan of the full cube visits; on a pass it is the
    full tuple count.  DER_BRK enumerates strictly increasing tuples only.
    ``elapsed`` is wall time in seconds and is excluded from equality.
    """

    identity: IdentityId
    status: str
    tuples_checked: int
    counterexample: tuple[int, ...] | None
    residual: ElementVector | None
    elapsed: float = field(compare=False, default=0.0)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


# ---------------------------------------------------------------------------
# Residual evaluators, one transcription per identity.  Each takes an ops
# record (``mul``, ``brk``, ``der``, ``zero``, the arity ``n``) and the
# quantified elements in the identity's written order, and returns LHS - RHS
# as a vector of the ops' kind: a kernel vector inside the scan, an
# ElementVector through the public ops in ``sampled_verdict``.


def _res_nl(ops, e):
    # [[y_1..y_n], x_1..x_{n-1}] - sum_i (-1)^{i-1} [[y_i, x_1..x_{n-1}], y_1..^y_i..y_n]
    n = ops.n
    ys, xs = e[:n], e[n:]
    acc = ops.brk((ops.brk(ys),) + xs)
    for i in range(n):
        inner = ops.brk((ys[i],) + xs)
        term = ops.brk((inner,) + ys[:i] + ys[i + 1 :])
        acc = acc - term if i % 2 == 0 else acc + term
    return acc


def _res_tp(ops, e):
    # n*h*[x_1..x_n] - sum_i [x_1.., h*x_i, ..x_n]
    h, xs = e[0], e[1:]
    n = ops.n
    acc = ops.mul(h, ops.brk(xs)).scaled(n)
    for i in range(n):
        acc = acc - ops.brk(xs[:i] + (ops.mul(h, xs[i]),) + xs[i + 1 :])
    return acc


def _res_np1(ops, e):
    # sum_i (-1)^{i-1} x_i * [x_1..^x_i..x_{n+1}]
    acc = ops.zero
    for i in range(len(e)):
        term = ops.mul(e[i], ops.brk(e[:i] + e[i + 1 :]))
        acc = acc + term if i % 2 == 0 else acc - term
    return acc


def _res_np2(ops, e):
    # sum_i (-1)^{i-1} [h*[y_i, x..], y_1..^y_i..y_n] - [h*[y_1..y_n], x..]
    n = ops.n
    h, xs, ys = e[0], e[1:n], e[n:]
    acc = -ops.brk((ops.mul(h, ops.brk(ys)),) + xs)
    for i in range(n):
        inner = ops.mul(h, ops.brk((ys[i],) + xs))
        term = ops.brk((inner,) + ys[:i] + ys[i + 1 :])
        acc = acc + term if i % 2 == 0 else acc - term
    return acc


def _res_np3(ops, e):
    # sum_i (-1)^{i-1} [y_i, x..] * [y_1..^y_i..y_{n+1}]
    n = ops.n
    xs, ys = e[: n - 1], e[n - 1 :]
    acc = ops.zero
    for i in range(len(ys)):
        term = ops.mul(ops.brk((ys[i],) + xs), ops.brk(ys[:i] + ys[i + 1 :]))
        acc = acc + term if i % 2 == 0 else acc - term
    return acc


def _res_np4(ops, e):
    # sum_{i != j} [y_1.., y_i*x_1, .., y_j*x_2, ..y_n] - n(n-1)*x_1*x_2*[y_1..y_n]
    n = ops.n
    x1, x2, ys = e[0], e[1], e[2:]
    acc = -ops.mul(ops.mul(x1, x2), ops.brk(ys)).scaled(n * (n - 1))
    for i in range(n):
        yix1 = ops.mul(ys[i], x1)
        for j in range(n):
            if j == i:
                continue
            args = list(ys)
            args[i] = yix1
            args[j] = ops.mul(ys[j], x2)
            acc = acc + ops.brk(tuple(args))
    return acc


def _res_strong(ops, e):
    # y_1*[h*y_2, x..] - y_2*[h*y_1, x..]
    #   + sum_i (-1)^{i-1} h*x_i*[y_1, y_2, x_1..^x_i..x_{n-1}]
    h, y1, y2, xs = e[0], e[1], e[2], e[3:]
    acc = ops.mul(y1, ops.brk((ops.mul(h, y2),) + xs))
    acc = acc - ops.mul(y2, ops.brk((ops.mul(h, y1),) + xs))
    for i in range(len(xs)):
        term = ops.mul(ops.mul(h, xs[i]), ops.brk((y1, y2) + xs[:i] + xs[i + 1 :]))
        acc = acc + term if i % 2 == 0 else acc - term
    return acc


def _res_scale(ops, e):
    # y_1*[h*y_2, x..] - h*y_1*[y_2, x..] - y_2*[h*y_1, x..] + h*y_2*[y_1, x..]
    h, y1, y2, xs = e[0], e[1], e[2], e[3:]
    acc = ops.mul(y1, ops.brk((ops.mul(h, y2),) + xs))
    acc = acc - ops.mul(ops.mul(h, y1), ops.brk((y2,) + xs))
    acc = acc - ops.mul(y2, ops.brk((ops.mul(h, y1),) + xs))
    acc = acc + ops.mul(ops.mul(h, y2), ops.brk((y1,) + xs))
    return acc


def _res_der_mul(ops, e):
    # D(u*v) - D(u)*v - u*D(v)
    u, v = e
    acc = ops.der(ops.mul(u, v))
    acc = acc - ops.mul(ops.der(u), v)
    acc = acc - ops.mul(u, ops.der(v))
    return acc


def _res_der_brk(ops, e):
    # D([x_1..x_n]) - sum_k [x_1.., D(x_k), ..x_n]
    acc = ops.der(ops.brk(e))
    for k in range(len(e)):
        acc = acc - ops.brk(e[:k] + (ops.der(e[k]),) + e[k + 1 :])
    return acc


def _res_lem1(ops, e):
    # sum_i (-1)^{i-1} D(y_i)*D([..^y_i..])
    #   - sum_i sum_{j != i} (-1)^{i-1} D(y_i)*[y_1.., D(y_j), ..^y_i..]
    m = len(e)
    dys = [ops.der(y) for y in e]
    acc = ops.zero
    for i in range(m):
        rest = e[:i] + e[i + 1 :]
        lhs = ops.mul(dys[i], ops.der(ops.brk(rest)))
        acc = acc + lhs if i % 2 == 0 else acc - lhs
        for j in range(m):
            if j == i:
                continue
            args = tuple(dys[t] if t == j else e[t] for t in range(m) if t != i)
            term = ops.mul(dys[i], ops.brk(args))
            acc = acc - term if i % 2 == 0 else acc + term
    return acc


def _res_lem2(ops, e):
    # sum_i (-1)^{i-1} D(y_i)*D([..^y_i..])
    #   - sum_i sum_{j != i} sum_{k > j, k != i} (-1)^i
    #       y_i*[y_1.., D(y_j), .., D(y_k), ..^y_i..]
    # Empty inner sums contribute zero, which the loops realize natively.
    m = len(e)
    dys = [ops.der(y) for y in e]
    acc = ops.zero
    for i in range(m):
        sign = 1 if i % 2 == 0 else -1
        rest = e[:i] + e[i + 1 :]
        lhs = ops.mul(dys[i], ops.der(ops.brk(rest)))
        acc = acc + lhs if sign > 0 else acc - lhs
        for j in range(m):
            if j == i:
                continue
            for k in range(j + 1, m):
                if k == i:
                    continue
                args = tuple(
                    dys[t] if t in (j, k) else e[t] for t in range(m) if t != i
                )
                term = ops.mul(e[i], ops.brk(args))
                # RHS carries (-1)^i = -(-1)^{i-1}, so LHS - RHS adds with sign.
                acc = acc + term if sign > 0 else acc - term
    return acc


def _res_comm_sample(ops, e):
    x, y = e
    return ops.mul(x, y) - ops.mul(y, x)


def _res_assoc_sample(ops, e):
    x, y, z = e
    return ops.mul(ops.mul(x, y), z) - ops.mul(x, ops.mul(y, z))


# ---------------------------------------------------------------------------
# The ops the residuals run on.  ``_public_ops`` goes through the validating
# ``multiply``, ``bracket_apply`` and ``DerivationMatrix.apply``.
# ``_kernel_ops`` evaluates over tables that ``check_identity`` builds once,
# after its boundary checks, so nothing is validated per tuple.


@dataclass(frozen=True)
class _Ops:
    mul: Callable
    brk: Callable
    der: Callable
    zero: object
    n: int


def _public_ops(p, b, D, d: int, n: int) -> _Ops:
    return _Ops(
        lambda x, y: multiply(p, x, y),
        lambda args: bracket_apply(b, args),
        lambda x: D.apply(x),
        ElementVector.zero(d),
        n,
    )


class _Vec(dict):
    """A kernel vector: basis index -> nonzero coefficient; never mutated once built."""

    __slots__ = ()

    def __add__(self, other):
        if not other:
            return self
        if not self:
            return other
        acc = _Vec(self)
        for k, v in other.items():
            s = acc.get(k, 0) + v
            if s:
                acc[k] = s
            else:
                del acc[k]
        return acc

    def __sub__(self, other):
        if not other:
            return self
        acc = _Vec(self)
        for k, v in other.items():
            s = acc.get(k, 0) - v
            if s:
                acc[k] = s
            else:
                del acc[k]
        return acc

    def __neg__(self):
        return _Vec({k: -v for k, v in self.items()})

    def scaled(self, a: int):
        return _Vec({k: a * v for k, v in self.items()})


_ZERO_VEC = _Vec()


def _nonzero(acc: dict) -> _Vec:
    # ``acc`` without its cancelled entries; the ops call it on nonempty ones.
    if 0 in acc.values():
        return _Vec({k: v for k, v in acc.items() if v})
    return _Vec(acc)


def _exact(value: Fraction):
    # Integral constants become ints: exact, and far cheaper than Fractions.
    return value.numerator if value.denominator == 1 else value


def _pairs(pairs) -> tuple:
    return tuple((k, _exact(c)) for k, c in pairs)


def _kernel_ops(definition, p, b, D, n: int) -> _Ops:
    """Table-driven ops over ``_Vec``s, built from the components used only."""
    mul = brk = der = None
    if definition.needs_product:
        rows = [[_pairs(cell) for cell in row] for row in p._rows]

        def mul(x, y):
            if not y:
                return _ZERO_VEC
            acc = {}
            for i, xi in x.items():
                row = rows[i]
                for j, yj in y.items():
                    w = xi * yj
                    for k, c in row[j]:
                        acc[k] = acc.get(k, 0) + w * c
            return _nonzero(acc) if acc else _ZERO_VEC

    if definition.needs_bracket:
        table = {key: _pairs(value.support()) for key, value in b.entries.items()}
        signed = {}

        def lookup(idx):
            # [e_i1, .., e_in] for any index order, filled in on first use.
            key, sign = _sorted_sign(idx)
            value = table.get(key, ()) if sign else ()
            if sign < 0:
                value = tuple((k, -c) for k, c in value)
            signed[idx] = value
            return value

        def brk(args):
            acc = {}
            for idx in iproduct(*args):
                value = signed.get(idx)
                if value is None:
                    value = lookup(idx)
                if value:
                    w = 1
                    for a, i in zip(args, idx):
                        w *= a[i]
                    for k, c in value:
                        acc[k] = acc.get(k, 0) + w * c
            return _nonzero(acc) if acc else _ZERO_VEC

    if definition.needs_derivation:
        cols = [_pairs(col) for col in D._cols]

        def der(x):
            acc = {}
            for j, xj in x.items():
                for k, c in cols[j]:
                    acc[k] = acc.get(k, 0) + xj * c
            return _nonzero(acc) if acc else _ZERO_VEC

    return _Ops(mul, brk, der, _ZERO_VEC, n)


# ---------------------------------------------------------------------------
# Identity table.  ``blocks`` describes the quantifier tuple as (length, skew)
# runs, given the bracket arity n.  Each residual is alternating in every
# skew run, by the skew symmetry of the bracket alone.


@dataclass(frozen=True)
class _IdentityDef:
    needs_product: bool
    needs_bracket: bool
    needs_derivation: bool
    blocks: Callable[[int], tuple[tuple[int, bool], ...]]
    residual: Callable
    # COMM and ASSOC scan the coefficient tuples (i, j, k) / (i, j, l, k) of
    # the product tensor: the leading indices name the elements ``residual``
    # takes, and the last one the coordinate of their residual.
    coordinate: bool = False
    # DER_BRK is defined on strictly increasing tuples and counts only those.
    increasing_only: bool = False


_DEFS: dict[IdentityId, _IdentityDef] = {
    IdentityId.NL: _IdentityDef(
        False, True, False, lambda n: ((n, True), (n - 1, True)), _res_nl
    ),
    IdentityId.TP: _IdentityDef(
        True, True, False, lambda n: ((1, False), (n, True)), _res_tp
    ),
    IdentityId.NP1: _IdentityDef(
        True, True, False, lambda n: ((n + 1, True),), _res_np1
    ),
    IdentityId.NP2: _IdentityDef(
        True, True, False, lambda n: ((1, False), (n - 1, True), (n, True)), _res_np2
    ),
    IdentityId.NP3: _IdentityDef(
        True, True, False, lambda n: ((n - 1, True), (n + 1, True)), _res_np3
    ),
    IdentityId.NP4: _IdentityDef(
        True, True, False, lambda n: ((1, False), (1, False), (n, True)), _res_np4
    ),
    IdentityId.STRONG: _IdentityDef(
        True, True, False, lambda n: ((1, False), (2, True), (n - 1, True)), _res_strong
    ),
    IdentityId.SCALE: _IdentityDef(
        True, True, False, lambda n: ((1, False), (2, True), (n - 1, True)), _res_scale
    ),
    IdentityId.DER_MUL: _IdentityDef(
        True, False, True, lambda n: ((1, False), (1, False)), _res_der_mul
    ),
    IdentityId.DER_BRK: _IdentityDef(
        False, True, True, lambda n: ((n, True),), _res_der_brk, increasing_only=True
    ),
    IdentityId.LEM1: _IdentityDef(
        True, True, True, lambda n: ((n + 1, True),), _res_lem1
    ),
    IdentityId.LEM2: _IdentityDef(
        True, True, True, lambda n: ((n + 1, True),), _res_lem2
    ),
    IdentityId.COMM: _IdentityDef(
        True, False, False, lambda n: ((3, False),), _res_comm_sample, coordinate=True
    ),
    IdentityId.ASSOC: _IdentityDef(
        True, False, False, lambda n: ((4, False),), _res_assoc_sample, coordinate=True
    ),
}


# ---------------------------------------------------------------------------
# The scan engine.


def _lex_rank(idx: tuple[int, ...], d: int) -> int:
    rank = 0
    for v in idx:
        rank = rank * d + v
    return rank


def _evaluator(definition: _IdentityDef, ops: _Ops, d: int):
    """The residual of one identity as a function of a basis index tuple."""
    basis = [_Vec({t: 1}) for t in range(d)]
    residual = definition.residual
    if not definition.coordinate:

        def ev(idx):
            return residual(ops, tuple([basis[t] for t in idx]))

        return ev
    # Consecutive lex tuples share their leading indices, so the residual
    # vector of the current prefix is kept.
    prefix = [None, None]

    def ev(idx):
        head = idx[:-1]
        if head != prefix[0]:
            prefix[0] = head
            prefix[1] = residual(ops, tuple([basis[t] for t in head]))
        k = idx[-1]
        c = prefix[1].get(k)
        return _Vec({k: c}) if c else _ZERO_VEC

    return ev


def _scan(d: int, blocks, eval_fn):
    """Walk the canonical tuples in lex order up to the first nonzero residual.

    A skew block runs over strictly increasing index runs and a plain block
    over all of them; the product of lex-ordered block iterators is itself
    lex-ordered.  Returns (tuples visited, first failing tuple, residual),
    the last two None on a pass.
    """
    parts = [
        combinations(range(d), size) if skew else iproduct(range(d), repeat=size)
        for size, skew in blocks
    ]
    visited = 0
    for combo in iproduct(*parts):
        idx = tuple(chain.from_iterable(combo))
        visited += 1
        res = eval_fn(idx)
        if res:
            return visited, idx, res
    return visited, None, None


def _boundary(identity, product, bracket, derivation, samples: int = 1):
    """(definition, dimension, arity) of a check, after validating its inputs.

    The arity is 0 when the identity uses no bracket.  Every component given
    must have its type, and the ones the identity uses one dimension.
    """
    if not isinstance(identity, IdentityId):
        raise InputError(f"not an identity id: {identity!r}")
    if not isinstance(samples, int) or isinstance(samples, bool) or samples < 1:
        raise InputError(f"samples must be an integer >= 1, got {samples!r}")
    definition = _DEFS[identity]
    dims = {}
    for name, obj, kind, used in (
        ("product", product, ProductTensor, definition.needs_product),
        ("bracket", bracket, SkewBracket, definition.needs_bracket),
        ("derivation", derivation, DerivationMatrix, definition.needs_derivation),
    ):
        if obj is None:
            if used:
                raise InputError(f"{identity.name} requires a {name}")
        elif not isinstance(obj, kind):
            raise InputError(
                f"{identity.name}: the {name} must be a {kind.__name__}, "
                f"got a {type(obj).__name__}"
            )
        elif used:
            dims[name] = obj.dim
    found = set(dims.values())
    if len(found) != 1:
        given = ", ".join(f"{name} {dim}" for name, dim in dims.items())
        raise InputError(f"{identity.name}: component dimensions disagree ({given})")
    n = bracket.arity if definition.needs_bracket else 0
    return definition, found.pop(), n


def check_identity(
    identity: IdentityId,
    product: ProductTensor | None = None,
    bracket: SkewBracket | None = None,
    derivation: DerivationMatrix | None = None,
) -> CheckReport:
    """Verify one identity exhaustively; ``run_suite`` checks a set of them.

    The scan visits only the canonical tuples, whose skew blocks are strictly
    increasing (see the module docstring), yet the report is the one a full
    sequential scan of all d**length tuples gives: ``tuples_checked`` is
    d**length on a pass and the lex rank of the counterexample plus one on a
    failure.  DER_BRK counts strictly increasing tuples instead: all of them
    on a pass, the counterexample's position among them on a failure.
    """
    definition, d, n = _boundary(identity, product, bracket, derivation)
    blocks = definition.blocks(n)

    start = time.perf_counter()
    ops = _kernel_ops(definition, product, bracket, derivation, n)
    visited, ce, res = _scan(d, blocks, _evaluator(definition, ops, d))
    if res is not None:
        res = ElementVector(tuple(Fraction(res.get(k, 0)) for k in range(d)))
    elapsed = time.perf_counter() - start
    if definition.increasing_only:
        checked = visited
    elif ce is None:
        checked = d ** sum(size for size, _ in blocks)
    else:
        checked = _lex_rank(ce, d) + 1
    status = "pass" if ce is None else "fail"
    return CheckReport(identity, status, checked, ce, res, elapsed)


def run_suite(
    system: AlgebraSystem,
    bracket_name: str,
    derivation_name: str | None = None,
    ids: Iterable[IdentityId] | None = None,
) -> list[CheckReport]:
    """Run a set of identity checks against one named bracket (and derivation).

    Reports come back in the canonical IdentityId order, deterministically.
    ``ids=None`` means every identity applicable to the provided components;
    explicitly requesting a derivation-based identity without naming a
    derivation is an input error.
    """
    bracket = system.bracket(bracket_name)
    derivation = system.derivation(derivation_name) if derivation_name is not None else None
    if ids is None:
        wanted = [
            i for i in IdentityId if derivation is not None or not _DEFS[i].needs_derivation
        ]
    else:
        ids = set(ids)
        for i in ids:
            if not isinstance(i, IdentityId):
                raise InputError(f"not an identity id: {i!r}")
            if _DEFS[i].needs_derivation and derivation is None:
                raise InputError(f"{i.name} requires a derivation name")
        wanted = [i for i in IdentityId if i in ids]
    return [
        check_identity(i, product=system.product, bracket=bracket, derivation=derivation)
        for i in wanted
    ]


# ---------------------------------------------------------------------------
# Random-tuple cross checking.  Both sides of every identity are multilinear,
# so the exhaustive basis verdict must agree with evaluation on random
# rational elements; this is the independent oracle for the basis scan.


def _random_vector(dim: int, rng: random.Random) -> ElementVector:
    return ElementVector(
        tuple(
            Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
            for _ in range(dim)
        )
    )


def sampled_verdict(
    identity: IdentityId,
    product: ProductTensor | None = None,
    bracket: SkewBracket | None = None,
    derivation: DerivationMatrix | None = None,
    *,
    samples: int = 50,
    seed: int = 0,
) -> str:
    """Evaluate one identity on seeded random element tuples: "pass" or "fail"."""
    definition, d, n = _boundary(identity, product, bracket, derivation, samples)
    ops = _public_ops(product, bracket, derivation, d, n)
    count = sum(size for size, _ in definition.blocks(n)) - definition.coordinate
    rng = random.Random(seed)
    for _ in range(samples):
        elems = tuple(_random_vector(d, rng) for _ in range(count))
        res = definition.residual(ops, elems)
        if not res.is_zero():
            return "fail"
    return "pass"
