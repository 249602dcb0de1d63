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
    basis_vectors,
    bracket_apply,
    multiply,
)

__all__ = [
    "IdentityId",
    "CheckReport",
    "check_identity",
    "check_commutative_associative",
    "check_filippov",
    "check_transposed_leibniz",
    "check_np_identity",
    "check_strong",
    "check_scale_identity",
    "check_derivation",
    "check_lemma_identity",
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
# Residual evaluators.  Each takes the quantified elements in the identity's
# written order and returns LHS - RHS as a vector.


def _res_nl(p, b, D, e):
    # [[y_1..y_n], x_1..x_{n-1}] - sum_i (-1)^{i-1} [[y_i, x_1..x_{n-1}], y_1..^y_i..y_n]
    n = b.arity
    ys, xs = e[:n], e[n:]
    acc = bracket_apply(b, (bracket_apply(b, ys),) + xs)
    for i in range(n):
        inner = bracket_apply(b, (ys[i],) + xs)
        term = bracket_apply(b, (inner,) + ys[:i] + ys[i + 1 :])
        acc = acc - term if i % 2 == 0 else acc + term
    return acc


def _res_tp(p, b, D, e):
    # n*h*[x_1..x_n] - sum_i [x_1.., h*x_i, ..x_n]
    h, xs = e[0], e[1:]
    n = b.arity
    acc = multiply(p, h, bracket_apply(b, xs)).scaled(n)
    for i in range(n):
        acc = acc - bracket_apply(b, xs[:i] + (multiply(p, h, xs[i]),) + xs[i + 1 :])
    return acc


def _res_np1(p, b, D, e):
    # sum_i (-1)^{i-1} x_i * [x_1..^x_i..x_{n+1}]
    acc = ElementVector.zero(b.dim)
    for i in range(len(e)):
        term = multiply(p, e[i], bracket_apply(b, e[:i] + e[i + 1 :]))
        acc = acc + term if i % 2 == 0 else acc - term
    return acc


def _res_np2(p, b, D, e):
    # sum_i (-1)^{i-1} [h*[y_i, x..], y_1..^y_i..y_n] - [h*[y_1..y_n], x..]
    n = b.arity
    h, xs, ys = e[0], e[1:n], e[n:]
    acc = -bracket_apply(b, (multiply(p, h, bracket_apply(b, ys)),) + xs)
    for i in range(n):
        inner = multiply(p, h, bracket_apply(b, (ys[i],) + xs))
        term = bracket_apply(b, (inner,) + ys[:i] + ys[i + 1 :])
        acc = acc + term if i % 2 == 0 else acc - term
    return acc


def _res_np3(p, b, D, e):
    # sum_i (-1)^{i-1} [y_i, x..] * [y_1..^y_i..y_{n+1}]
    n = b.arity
    xs, ys = e[: n - 1], e[n - 1 :]
    acc = ElementVector.zero(b.dim)
    for i in range(len(ys)):
        term = multiply(
            p,
            bracket_apply(b, (ys[i],) + xs),
            bracket_apply(b, ys[:i] + ys[i + 1 :]),
        )
        acc = acc + term if i % 2 == 0 else acc - term
    return acc


def _res_np4(p, b, D, e):
    # sum_{i != j} [y_1.., y_i*x_1, .., y_j*x_2, ..y_n] - n(n-1)*x_1*x_2*[y_1..y_n]
    n = b.arity
    x1, x2, ys = e[0], e[1], e[2:]
    acc = -multiply(p, multiply(p, x1, x2), bracket_apply(b, ys)).scaled(n * (n - 1))
    for i in range(n):
        yix1 = multiply(p, ys[i], x1)
        for j in range(n):
            if j == i:
                continue
            args = list(ys)
            args[i] = yix1
            args[j] = multiply(p, ys[j], x2)
            acc = acc + bracket_apply(b, tuple(args))
    return acc


def _res_strong(p, b, D, e):
    # y_1*[h*y_2, x..] - y_2*[h*y_1, x..]
    #   + sum_i (-1)^{i-1} h*x_i*[y_1, y_2, x_1..^x_i..x_{n-1}]
    h, y1, y2, xs = e[0], e[1], e[2], e[3:]
    acc = multiply(p, y1, bracket_apply(b, (multiply(p, h, y2),) + xs))
    acc = acc - multiply(p, y2, bracket_apply(b, (multiply(p, h, y1),) + xs))
    for i in range(len(xs)):
        term = multiply(
            p, multiply(p, h, xs[i]), bracket_apply(b, (y1, y2) + xs[:i] + xs[i + 1 :])
        )
        acc = acc + term if i % 2 == 0 else acc - term
    return acc


def _res_scale(p, b, D, e):
    # y_1*[h*y_2, x..] - h*y_1*[y_2, x..] - y_2*[h*y_1, x..] + h*y_2*[y_1, x..]
    h, y1, y2, xs = e[0], e[1], e[2], e[3:]
    acc = multiply(p, y1, bracket_apply(b, (multiply(p, h, y2),) + xs))
    acc = acc - multiply(p, multiply(p, h, y1), bracket_apply(b, (y2,) + xs))
    acc = acc - multiply(p, y2, bracket_apply(b, (multiply(p, h, y1),) + xs))
    acc = acc + multiply(p, multiply(p, h, y2), bracket_apply(b, (y1,) + xs))
    return acc


def _res_der_mul(p, b, D, e):
    # D(u*v) - D(u)*v - u*D(v)
    u, v = e
    acc = D.apply(multiply(p, u, v))
    acc = acc - multiply(p, D.apply(u), v)
    acc = acc - multiply(p, u, D.apply(v))
    return acc


def _res_der_brk(p, b, D, e):
    # D([x_1..x_n]) - sum_k [x_1.., D(x_k), ..x_n]
    acc = D.apply(bracket_apply(b, e))
    for k in range(len(e)):
        acc = acc - bracket_apply(b, e[:k] + (D.apply(e[k]),) + e[k + 1 :])
    return acc


def _res_lem1(p, b, D, e):
    # sum_i (-1)^{i-1} D(y_i)*D([..^y_i..])
    #   - sum_i sum_{j != i} (-1)^{i-1} D(y_i)*[y_1.., D(y_j), ..^y_i..]
    m = len(e)
    dys = [D.apply(y) for y in e]
    acc = ElementVector.zero(b.dim)
    for i in range(m):
        rest = e[:i] + e[i + 1 :]
        lhs = multiply(p, dys[i], D.apply(bracket_apply(b, rest)))
        acc = acc + lhs if i % 2 == 0 else acc - lhs
        for j in range(m):
            if j == i:
                continue
            args = tuple(dys[t] if t == j else e[t] for t in range(m) if t != i)
            term = multiply(p, dys[i], bracket_apply(b, args))
            acc = acc - term if i % 2 == 0 else acc + term
    return acc


def _res_lem2(p, b, D, e):
    # sum_i (-1)^{i-1} D(y_i)*D([..^y_i..])
    #   - sum_i sum_{j != i} sum_{k > j, k != i} (-1)^i
    #       y_i*[y_1.., D(y_j), .., D(y_k), ..^y_i..]
    # Empty inner sums contribute zero, which the loops realize natively.
    m = len(e)
    dys = [D.apply(y) for y in e]
    acc = ElementVector.zero(b.dim)
    for i in range(m):
        sign = 1 if i % 2 == 0 else -1
        rest = e[:i] + e[i + 1 :]
        lhs = multiply(p, dys[i], D.apply(bracket_apply(b, rest)))
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
                term = multiply(p, e[i], bracket_apply(b, args))
                # RHS carries (-1)^i = -(-1)^{i-1}, so LHS - RHS adds with sign.
                acc = acc + term if sign > 0 else acc - term
    return acc


def _res_comm_sample(p, b, D, e):
    x, y = e
    return multiply(p, x, y) - multiply(p, y, x)


def _res_assoc_sample(p, b, D, e):
    x, y, z = e
    return multiply(p, multiply(p, x, y), z) - multiply(p, x, multiply(p, y, z))



def _eval_comm(p: ProductTensor):
    c = p.c
    d = p.dim

    def ev(idx):
        i, j, k = idx
        delta = c[i][j][k] - c[j][i][k]
        if not delta:
            return None
        coords = [Fraction(0)] * d
        coords[k] = delta
        return ElementVector(tuple(coords))

    return ev


def _eval_assoc(p: ProductTensor):
    c = p.c
    rows = p._rows
    d = p.dim

    def ev(idx):
        i, j, l, k = idx
        lhs = sum((w * c[m][l][k] for m, w in rows[i][j]), Fraction(0))
        rhs = sum((w * c[i][m][k] for m, w in rows[j][l]), Fraction(0))
        delta = lhs - rhs
        if not delta:
            return None
        coords = [Fraction(0)] * d
        coords[k] = delta
        return ElementVector(tuple(coords))

    return ev


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
    # COMM and ASSOC scan coordinate tuples (i, j, k) / (i, j, l, k) of the
    # product tensor with these kernels; ``residual`` is their element form,
    # on ``sample_count`` elements, for sampling.
    kernel: Callable[[ProductTensor], Callable] | None = None
    sample_count: int | None = None
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
        True, False, False, lambda n: ((3, False),), _res_comm_sample,
        kernel=_eval_comm, sample_count=2,
    ),
    IdentityId.ASSOC: _IdentityDef(
        True, False, False, lambda n: ((4, False),), _res_assoc_sample,
        kernel=_eval_assoc, sample_count=3,
    ),
}


# ---------------------------------------------------------------------------
# The scan engine.


def _lex_rank(idx: tuple[int, ...], d: int) -> int:
    rank = 0
    for v in idx:
        rank = rank * d + v
    return rank


def _evaluator(definition: _IdentityDef, p, b, D, d: int):
    """The residual of one identity as a function of a basis index tuple."""
    if definition.kernel is not None:
        return definition.kernel(p)
    basis = basis_vectors(d)
    residual = definition.residual

    def ev(idx):
        return residual(p, b, D, tuple(basis[t] for t in idx))

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
        if res is not None and not res.is_zero():
            return visited, idx, res
    return visited, None, None


def check_identity(
    identity: IdentityId,
    product: ProductTensor | None = None,
    bracket: SkewBracket | None = None,
    derivation: DerivationMatrix | None = None,
) -> CheckReport:
    """Verify one identity exhaustively; the single entry point all checkers share.

    The scan visits only the canonical tuples, whose skew blocks are strictly
    increasing (see the module docstring), yet the report is the one a full
    sequential scan of all d**length tuples gives: ``tuples_checked`` is
    d**length on a pass and the lex rank of the counterexample plus one on a
    failure.  DER_BRK counts strictly increasing tuples instead: all of them
    on a pass, the counterexample's position among them on a failure.
    """
    definition = _DEFS[identity]
    if definition.needs_product and product is None:
        raise InputError(f"{identity.name} requires a product")
    if definition.needs_bracket and bracket is None:
        raise InputError(f"{identity.name} requires a bracket")
    if definition.needs_derivation and derivation is None:
        raise InputError(f"{identity.name} requires a derivation")
    dims = {
        obj.dim
        for obj, used in (
            (product, definition.needs_product),
            (bracket, definition.needs_bracket),
            (derivation, definition.needs_derivation),
        )
        if used
    }
    if len(dims) != 1:
        raise InputError(f"{identity.name}: component dimensions disagree: {sorted(dims)}")
    d = dims.pop()
    blocks = definition.blocks(bracket.arity if bracket is not None else 0)

    start = time.perf_counter()
    ev = _evaluator(definition, product, bracket, derivation, d)
    visited, ce, res = _scan(d, blocks, ev)
    elapsed = time.perf_counter() - start
    if definition.increasing_only:
        checked = visited
    elif ce is None:
        checked = d ** sum(size for size, _ in blocks)
    else:
        checked = _lex_rank(ce, d) + 1
    status = "pass" if ce is None else "fail"
    return CheckReport(identity, status, checked, ce, res, elapsed)


# ---------------------------------------------------------------------------
# Named checkers.


def check_commutative_associative(product: ProductTensor) -> tuple[CheckReport, CheckReport]:
    """COMM over all (i, j, k) and ASSOC over all (i, j, l, k)."""
    return (
        check_identity(IdentityId.COMM, product=product),
        check_identity(IdentityId.ASSOC, product=product),
    )


def check_filippov(bracket: SkewBracket) -> CheckReport:
    """The fundamental identity of the n-ary bracket, over d^(2n-1) tuples."""
    return check_identity(IdentityId.NL, bracket=bracket)


def check_transposed_leibniz(product: ProductTensor, bracket: SkewBracket) -> CheckReport:
    """n*h*[x_1..x_n] = sum_i [x_1.., h*x_i, ..x_n], over d^(n+1) tuples."""
    return check_identity(IdentityId.TP, product=product, bracket=bracket)


_NP_IDS = (IdentityId.NP1, IdentityId.NP2, IdentityId.NP3, IdentityId.NP4)
_LEM_IDS = (IdentityId.LEM1, IdentityId.LEM2)


def check_np_identity(
    product: ProductTensor, bracket: SkewBracket, which: IdentityId
) -> CheckReport:
    """One of the four derived identities NP1..NP4."""
    if which not in _NP_IDS:
        raise InputError(f"expected one of NP1..NP4, got {which}")
    return check_identity(which, product=product, bracket=bracket)


def check_strong(product: ProductTensor, bracket: SkewBracket) -> CheckReport:
    """The strong compatibility condition, over d^(n+2) tuples."""
    return check_identity(IdentityId.STRONG, product=product, bracket=bracket)


def check_scale_identity(product: ProductTensor, bracket: SkewBracket) -> CheckReport:
    """The scaling identity, over d^(n+2) tuples."""
    return check_identity(IdentityId.SCALE, product=product, bracket=bracket)


def check_derivation(
    product: ProductTensor, bracket: SkewBracket, derivation: DerivationMatrix
) -> tuple[CheckReport, CheckReport]:
    """Leibniz over the product (all d^2 pairs) and over the bracket.

    DER_BRK is checked on strictly increasing tuples only: both sides are
    multilinear and skew under argument exchange, so those span all cases.
    """
    return (
        check_identity(IdentityId.DER_MUL, product=product, derivation=derivation),
        check_identity(IdentityId.DER_BRK, bracket=bracket, derivation=derivation),
    )


def check_lemma_identity(
    product: ProductTensor,
    bracket: SkewBracket,
    derivation: DerivationMatrix,
    which: IdentityId,
) -> CheckReport:
    """One of the two derivation-sum identities LEM1 / LEM2, over d^(n+1) tuples."""
    if which not in _LEM_IDS:
        raise InputError(f"expected LEM1 or LEM2, got {which}")
    return check_identity(which, product=product, bracket=bracket, derivation=derivation)


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
    definition = _DEFS[identity]
    if definition.needs_product and product is None:
        raise InputError(f"{identity.name} requires a product")
    if definition.needs_bracket and bracket is None:
        raise InputError(f"{identity.name} requires a bracket")
    if definition.needs_derivation and derivation is None:
        raise InputError(f"{identity.name} requires a derivation")
    d = product.dim if product is not None else bracket.dim
    n = bracket.arity if bracket is not None else 0
    if definition.sample_count is not None:
        count = definition.sample_count
    else:
        count = sum(size for size, _ in definition.blocks(n))
    rng = random.Random(seed)
    for _ in range(samples):
        elems = tuple(_random_vector(d, rng) for _ in range(count))
        res = definition.residual(product, bracket, derivation, elems)
        if not res.is_zero():
            return "fail"
    return "pass"
