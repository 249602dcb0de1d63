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

A grading skips more.  ``_weights`` solves exactly, for one component
alone, for integer weights w on the basis and a shift s under which its
constants are homogeneous (w_k = w_i + w_j + s for a product constant,
w_k = sum w_i + s for a bracket one, w_k = w_j + s for one of D); a check
takes the weights of the first component it uses (product, D, bracket)
that has any, and gives every component it uses the set of the shifts of
its constants under them.  Each term of a residual applies the product,
the bracket and D a fixed number of times (``_IdentityDef``), so on basis
vectors its weights are the tuple's weight sum plus sums of one shift of
each component per application; the engine skips each tuple for which none
of these is a basis weight, whose residual is zero, so the first failing
tuple does not move, and the report's counts come from its lex rank, not
the walk.  What a grading needs of a component (its weights, its shifts
under given weights) is computed once per component object (``core._kept``),
and the walk once per weights, blocks and targets (``_walk``): a table of
(head, tails) pairs, a head one run of each block but the last and its
tails the last block's runs that bring its weight sum to a target.

``check_identity`` checks one identity and ``run_suite`` a set of them.
Inputs are validated once, at the boundary that ``check_identity`` and
``sampled_verdict`` share.  The scan then evaluates residuals on sparse
vectors, without per-call checks, with a private kernel that alone owns
its tables: it reads each product cell and bracket value of the components
the identity uses from their dense constants on first use, and ``D`` whole.
An integral constant is held as an ``int`` and any other as a
``Fraction``, so the arithmetic stays exact.  Each component keeps its
tables for every later check of it, since a suite, a tower level or a
sweep instance checks one component many times, often between checks of
others.  The ops memoise nothing across tuples:
the grading leaves few tuples to evaluate (51 on the two towers, 16 750
on the acceptance sweep), on mostly basis-vector arguments, so a stored
inner term such as ``h*[y_i, x..]`` would save only a table read or two
and cost a key per call.  Each identity is
transcribed once, as a function of an ops record (COMM and ASSOC too, on
element pairs and triples, reported at the residual's first nonzero
coordinate); ``sampled_verdict`` runs the same transcription through the
public, validating ``multiply``, ``bracket_apply`` and
``DerivationMatrix.apply`` and so stays an oracle independent of the kernel.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from collections.abc import Set
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from itertools import product as iproduct
from math import comb, gcd, lcm
from typing import Callable, Iterable

from .core import (
    AlgebraSystem,
    DerivationMatrix,
    ElementVector,
    InputError,
    ProductTensor,
    SkewBracket,
    _components,
    _integer,
    _kept,
    _listed,
    _shown,
    _sorted_sign,
    _system,
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


def _res_comm(ops, e):
    x, y = e
    return ops.mul(x, y) - ops.mul(y, x)


def _res_assoc(ops, e):
    x, y, z = e
    return ops.mul(ops.mul(x, y), z) - ops.mul(x, ops.mul(y, z))


# ---------------------------------------------------------------------------
# The ops the residuals run on.  ``_public_ops`` goes through the validating
# ``multiply``, ``bracket_apply`` and ``DerivationMatrix.apply``.
# ``_kernel_ops`` evaluates over tables kept on their components (``_kept``),
# after the boundary checks, so nothing is validated per tuple.


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

    def __add__(self, other, sign: int = 1):
        # self + other, or self - other when ``sign`` is -1 (``__sub__``).
        if not other:
            return self
        if not self and sign > 0:
            return other
        acc = _Vec(self)
        get = acc.get  # bound once, as in the kernel ops
        for k, v in other.items():
            s = get(k, 0) + v if sign > 0 else get(k, 0) - v
            if s:
                acc[k] = s
            else:
                del acc[k]
        return acc

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        return _Vec({k: -v for k, v in self.items()})

    def scaled(self, a: int):
        return _Vec({k: a * v for k, v in self.items()})


def _pruned(acc: _Vec) -> _Vec:
    # An op's accumulator is its value; rebuilt only when an entry cancelled.
    return _Vec({k: v for k, v in acc.items() if v}) if 0 in acc.values() else acc


def _pairs(coords) -> tuple:
    # The nonzero (k, c); integral ones as ints: exact, and far cheaper than Fractions.
    return tuple((k, c.numerator if c.denominator == 1 else c) for k, c in enumerate(coords) if c)


def _kernel_ops(definition, p, b, D, d: int, n: int) -> _Ops:
    """Table-driven ops over ``_Vec``s.

    ``D``'s table is built whole on the first check that uses ``D``; product
    cells and bracket values are read one by one on first use, since a
    failing check reads few.  Each table is kept on its component
    (``_kept``) for every later check of it.  Nothing is memoised across
    tuples: the graded scan evaluates few tuples, and their arguments are
    mostly basis vectors, for which a memo hit saves a table read or two.
    Each op accumulates into the ``_Vec`` it returns, through a bound ``get``:
    ``acc.get`` per term on a dict subclass cost dense checks 9 % on CPython 3.11.
    """
    mul = brk = der = None
    if definition.products:
        cells = _kept(p, "table", lambda: [[None] * d for _ in range(d)])

        def mul(x, y):
            acc = _Vec()
            get = acc.get
            for i, xi in x.items():
                row = cells[i]
                for j, yj in y.items():
                    cell = row[j]
                    if cell is None:
                        cell = row[j] = _pairs(p.c[i][j])
                    w = xi * yj
                    for k, ck in cell:
                        acc[k] = get(k, 0) + w * ck
            return _pruned(acc)

    if definition.brackets:
        signed = _kept(b, "table", dict)

        def lookup(idx):
            # [e_i1, .., e_in] for any index order, filled in on first use.
            key, sign = _sorted_sign(idx)
            value = b.entries.get(key) if sign else None
            pairs = () if value is None else _pairs(value.coords)
            if sign < 0:
                pairs = tuple((k, -ck) for k, ck in pairs)
            signed[idx] = pairs
            return pairs

        def brk(args):
            acc = _Vec()
            get = acc.get
            for idx in iproduct(*args):
                pairs = signed.get(idx)
                if pairs is None:
                    pairs = lookup(idx)
                if pairs:
                    w = 1
                    for a, i in zip(args, idx):
                        w *= a[i]
                    for k, ck in pairs:
                        acc[k] = get(k, 0) + w * ck
            return _pruned(acc)

    if definition.ders:
        cols = _kept(D, "table", lambda: [_pairs(col) for col in zip(*D.m)])

        def der(x):
            acc = _Vec()
            get = acc.get
            for j, xj in x.items():
                for k, ck in cols[j]:
                    acc[k] = get(k, 0) + xj * ck
            return _pruned(acc)

    return _Ops(mul, brk, der, _Vec(), n)


# ---------------------------------------------------------------------------
# Identity table.  ``blocks`` describes the quantifier tuple as (length, skew)
# runs, given the bracket arity n.  Each residual is alternating in every
# skew run, by the skew symmetry of the bracket alone.


@dataclass(frozen=True)
class _IdentityDef:
    # Every term of the residual applies the product ``products`` times, the
    # bracket ``brackets`` times and D ``ders`` times.
    products: int
    brackets: int
    ders: int
    blocks: Callable[[int], tuple[tuple[int, bool], ...]]
    residual: Callable
    # COMM and ASSOC report on the coefficient tuples (i, j, k) / (i, j, l, k)
    # of the product tensor: a failing tuple of elements gains the first
    # nonzero coordinate k of its residual.
    coordinate: bool = False
    # DER_BRK is defined on strictly increasing tuples and counts only those.
    increasing_only: bool = False


_DEFS: dict[IdentityId, _IdentityDef] = {
    IdentityId.NL: _IdentityDef(0, 2, 0, lambda n: ((n, True), (n - 1, True)), _res_nl),
    IdentityId.TP: _IdentityDef(1, 1, 0, lambda n: ((1, False), (n, True)), _res_tp),
    IdentityId.NP1: _IdentityDef(1, 1, 0, lambda n: ((n + 1, True),), _res_np1),
    IdentityId.NP2: _IdentityDef(1, 2, 0, lambda n: ((1, False), (n - 1, True), (n, True)), _res_np2),
    IdentityId.NP3: _IdentityDef(1, 2, 0, lambda n: ((n - 1, True), (n + 1, True)), _res_np3),
    IdentityId.NP4: _IdentityDef(2, 1, 0, lambda n: ((1, False), (1, False), (n, True)), _res_np4),
    IdentityId.STRONG: _IdentityDef(
        2, 1, 0, lambda n: ((1, False), (2, True), (n - 1, True)), _res_strong
    ),
    IdentityId.SCALE: _IdentityDef(
        2, 1, 0, lambda n: ((1, False), (2, True), (n - 1, True)), _res_scale
    ),
    IdentityId.DER_MUL: _IdentityDef(1, 0, 1, lambda n: ((1, False), (1, False)), _res_der_mul),
    IdentityId.DER_BRK: _IdentityDef(
        0, 1, 1, lambda n: ((n, True),), _res_der_brk, increasing_only=True
    ),
    IdentityId.LEM1: _IdentityDef(1, 1, 2, lambda n: ((n + 1, True),), _res_lem1),
    IdentityId.LEM2: _IdentityDef(1, 1, 2, lambda n: ((n + 1, True),), _res_lem2),
    IdentityId.COMM: _IdentityDef(1, 0, 0, lambda n: ((2, False),), _res_comm, coordinate=True),
    IdentityId.ASSOC: _IdentityDef(2, 0, 0, lambda n: ((3, False),), _res_assoc, coordinate=True),
}


# ---------------------------------------------------------------------------
# The scan engine.


def _lex_rank(idx: tuple[int, ...], d: int) -> int:
    rank = 0
    for v in idx:
        rank = rank * d + v
    return rank


# The grading.  A homogeneity row of a component is a ``_Vec`` over the
# columns w_0..w_{d-1} (the basis weights) and d (the component's shift).


def _primitive(row: _Vec, pivot: int) -> _Vec:
    g = gcd(*row.values())
    g = g if row[pivot] > 0 else -g
    return _Vec({c: v // g for c, v in row.items()})


def _insert(echelon: dict, row: _Vec) -> None:
    """Add ``row`` to ``echelon``, a reduced echelon form {pivot: row} with
    primitive integer rows and positive pivots; exact integer elimination."""
    for p in [c for c in row if c in echelon]:
        prow = echelon[p]
        row = row.scaled(prow[p]) - prow.scaled(row[p])
    if row:
        p = min(row)
        row = _primitive(row, p)
        for q, qrow in echelon.items():
            if p in qrow:
                echelon[q] = _primitive(qrow.scaled(row[p]) - row.scaled(qrow[p]), q)
        echelon[p] = row


def _weights(vectors, d: int) -> tuple[int, ...] | None:
    """A generic integer point of the basis weights under which one component,
    from its constants' values and inputs, shifts weight by one amount; None
    when its homogeneity rows force every weight equal (rank d)."""
    if any(all(coords) for coords, _ in vectors()):
        return None  # all d outputs of one constant share one weight
    echelon = {}
    for coords, args in vectors():
        for k, ck in enumerate(coords):
            if ck:
                _insert(echelon, _Vec({k: 1}) - _Vec(Counter(args + (d,))))
                if len(echelon) == d:
                    return None
    free = [c for c in range(d + 1) if c not in echelon]
    scale = lcm(*(row[c] for c, row in echelon.items()))
    height = scale * max((abs(v) for row in echelon.values() for v in row.values()), default=1)
    # Any base skips exactly; this one keeps apart any two sums of at most 32
    # weights that differ as combinations of the free columns.
    base = 64 * height + 1
    x = {f: scale * base**t for t, f in enumerate(free)}
    for c, row in echelon.items():
        x[c] = -sum(v * x[f] for f, v in row.items() if f != c) // row[c]
    return tuple(x[c] for c in range(d))


def _grading(definition, p, b, D, d: int) -> tuple[tuple[int, ...], frozenset]:
    """Integer basis weights, and the targets the weight sum of a tuple must
    hit for its residual to be nonzero (see the module docstring); all
    weights zero, which skips nothing, when none fit.

    Each component keeps (``_kept``) its "point" (``_weights``) and its
    shifts per weights tuple, each built from its constants on first use.
    """
    used = [(c, count, vectors) for c, count, vectors in (
        (p, definition.products,
         lambda: ((cell, (i, j)) for i, row in enumerate(p.c) for j, cell in enumerate(row))),
        (D, definition.ders, lambda: ((col, (j,)) for j, col in enumerate(zip(*D.m)))),
        (b, definition.brackets, lambda: ((value.coords, key) for key, value in b.entries.items())),
    ) if count]
    ungraded = (0,) * d, frozenset((0,))
    points = (_kept(c, "point", lambda: _weights(vectors, d)) for c, _, vectors in used)
    weights = next(filter(None, points), None)
    if weights is None:
        return ungraded
    shifts = {0}
    for c, count, vectors in used:
        steps = _kept(c, weights, lambda: {
            weights[k] - sum(weights[a] for a in args)
            for coords, args in vectors() for k, ck in enumerate(coords) if ck})
        if len(steps) > d:
            return ungraded  # too loose: the targets would cost more than they skip
        for _ in range(count):
            shifts = {s + t for s in shifts for t in steps}
    return weights, frozenset(w - s for w in weights for s in shifts)


# Sized to hold every key of a sweep pass (binary_sweep_corpus(seed, 112),
# build included): 306-355 keys per pass at seeds 0-12, 393 over all 13.  A
# pass of the benchmark's towers uses 23 keys, of its hunt 1, of its cli 47.
@lru_cache(maxsize=512)
def _walk(weights: tuple[int, ...], blocks: tuple, targets: frozenset) -> tuple:
    """The kept canonical tuples of basis vectors in lex order, as (head, tails)
    pairs: a head joins one run of each block but the last (all runs of a
    plain block, the strictly increasing ones of a skew block), its tails are
    the last block's runs that bring its weight sum into ``targets``, and a
    head with no tails is left out.  Tuples all through: nothing can write it."""
    d = len(weights)
    basis = [_Vec({t: 1}) for t in range(d)]
    *firsts, last = [
        [(sum(weights[i] for i in run), tuple(basis[i] for i in run))
         for run in (combinations(range(d), size) if skew else iproduct(range(d), repeat=size))]
        for size, skew in blocks
    ]
    tails, walk = {}, []
    for runs in iproduct(*firsts):
        s = sum(w for w, _ in runs)
        if s not in tails:
            tails[s] = tuple(run for w, run in last if s + w in targets)
        if tails[s]:
            walk.append((sum((run for _, run in runs), ()), tails[s]))
    return tuple(walk)


def _boundary(identity, product, bracket, derivation):
    """(definition, dimension, arity) of a check, after validating its inputs.

    The arity is 0 when the identity uses no bracket.
    """
    if not isinstance(identity, IdentityId):
        raise InputError(f"not an identity id: {_shown(identity)}")
    definition = _DEFS[identity]
    used = (definition.products, definition.brackets, definition.ders)
    d = _components(identity.name, product, bracket, derivation, used)
    n = bracket.arity if definition.brackets else 0
    return definition, d, n


def check_identity(
    identity: IdentityId,
    product: ProductTensor | None = None,
    bracket: SkewBracket | None = None,
    derivation: DerivationMatrix | None = None,
) -> CheckReport:
    """Verify one identity exhaustively; ``run_suite`` checks a set of them.

    The scan visits only the canonical tuples that the grading keeps (see
    the module docstring), yet the report is the one a full sequential scan
    of all d**length tuples gives: ``tuples_checked`` is d**length on a pass
    and the lex rank of the counterexample plus one on a failure.  DER_BRK
    counts strictly increasing tuples instead: all of them on a pass, the
    counterexample's position among them on a failure.
    """
    definition, d, n = _boundary(identity, product, bracket, derivation)
    blocks = definition.blocks(n)
    m = sum(size for size, _ in blocks)

    start = time.perf_counter()
    ops = _kernel_ops(definition, product, bracket, derivation, d, n)
    weights, targets = _grading(definition, product, bracket, derivation, d)
    walk = _walk(weights, blocks, targets)
    for elems in (head + tail for head, tails in walk for tail in tails):
        res = definition.residual(ops, elems)
        if res:
            ce = tuple(map(min, elems))  # a basis vector's one index
            if definition.coordinate:
                k = min(res)
                ce, res = ce + (k,), {k: res[k]}
            res = ElementVector(tuple(res.get(k, 0) for k in range(d)))
            break
    else:
        ce = res = None
    elapsed = time.perf_counter() - start
    if definition.increasing_only:
        # comb(d, m) minus the increasing tuples after ce: ce's rank plus one
        checked = comb(d, m) - sum(comb(d - 1 - c, m - i) for i, c in enumerate(ce or ()))
    elif ce is None:
        checked = d ** (m + definition.coordinate)
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
    bracket = _system(system).bracket(bracket_name)
    derivation = system.derivation(derivation_name) if derivation_name is not None else None
    if ids is None:
        wanted = [i for i in IdentityId if derivation is not None or not _DEFS[i].ders]
    else:
        ids = ids if isinstance(ids, Set) else _listed(ids, "ids")  # order is ignored
        for i in ids:
            if not isinstance(i, IdentityId):
                raise InputError(f"ids: not an identity id: {_shown(i)}")
            if _DEFS[i].ders and derivation is None:
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
    definition, d, n = _boundary(identity, product, bracket, derivation)
    _integer(samples, "samples", 1)
    ops = _public_ops(product, bracket, derivation, d, n)
    count = sum(size for size, _ in definition.blocks(n))
    rng = random.Random(_integer(seed, "seed", 0))
    for _ in range(samples):
        elems = tuple(_random_vector(d, rng) for _ in range(count))
        res = definition.residual(ops, elems)
        if not res.is_zero():
            return "fail"
    return "pass"
