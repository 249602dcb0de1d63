"""Derivation-driven bracket constructions: the binary bootstrap, the arity
extension, and iterated towers.

The extension sends an arity-n bracket and a linear map D to the arity-(n+1)
operation

    mu(x_1, ..., x_{n+1}) = sum_i (-1)^{i-1} D(x_i) * [x_1, .., ^x_i, .., x_{n+1}]

which, when the input is a strong transposed Poisson n-Lie structure and D a
derivation of both operations, is again one at arity n+1.  Construction never
verifies anything by itself: counterexample hunting needs extensions built
from hypothesis-violating inputs, so verification stays the caller's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .axioms import CheckReport, IdentityId, check_identity
from .core import (
    AlgebraSystem,
    DerivationMatrix,
    ElementVector,
    ProductTensor,
    SkewBracket,
    _components,
    _listed,
    _system,
    basis_vectors,
    multiply,
)

__all__ = ["derivation_bracket", "extend_bracket", "TowerStep", "build_tower"]


def derivation_bracket(product: ProductTensor, derivation: DerivationMatrix) -> SkewBracket:
    """The binary bracket [x, y] = x*D(y) - y*D(x) on increasing basis pairs.

    Sign convention: this is the Witt-style orientation, which makes
    [1, t] = t for the Euler map t*d/dt on a truncated polynomial ring.
    Negating D (or the bracket) gives the isomorphic opposite convention.
    The caller is responsible for D actually being a derivation of the
    product; this routine just builds the tensor.
    """
    d = _components("derivation_bracket", product, None, derivation, (True, False, True))
    basis = basis_vectors(d)
    dcols = [derivation.column(j) for j in range(d)]
    entries = {}
    for i, j in combinations(range(d), 2):
        value = multiply(product, basis[i], dcols[j]) - multiply(product, basis[j], dcols[i])
        if not value.is_zero():
            entries[(i, j)] = value
    return SkewBracket(d, 2, entries)


def extend_bracket(
    product: ProductTensor, bracket: SkewBracket, derivation: DerivationMatrix
) -> SkewBracket:
    """Extend an arity-n bracket to arity n+1 through a linear map D.

    Stores, for every strictly increasing tuple (i_1 < ... < i_{n+1}),

        sum_k (-1)^{k-1} D(e_{i_k}) * [e_{i_1}, .., ^e_{i_k}, .., e_{i_{n+1}}]

    omitting zero values.  No identity is checked here; run the checkers on
    the result to verify anything.
    """
    d = _components("extend_bracket", product, bracket, derivation)
    n = bracket.arity
    dcols = [derivation.column(j) for j in range(d)]
    lookup = bracket.entries
    zero = ElementVector.zero(d)
    entries = {}
    for tup in combinations(range(d), n + 1):
        acc = zero
        for k in range(n + 1):
            # Removing one position from an increasing tuple keeps it
            # increasing, so the inner bracket is a direct table lookup.
            rest = tup[:k] + tup[k + 1 :]
            inner = lookup.get(rest)
            if inner is None:
                continue
            term = multiply(product, dcols[tup[k]], inner)
            acc = acc + term if k % 2 == 0 else acc - term
        if not acc.is_zero():
            entries[tup] = acc
    return SkewBracket(d, n + 1, entries)


@dataclass(frozen=True)
class TowerStep:
    """One extension step: the new bracket plus its verification reports."""

    bracket: SkewBracket
    reports: tuple[CheckReport, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.reports)


_TOWER_SUITE = (
    IdentityId.NL,
    IdentityId.TP,
    IdentityId.NP1,
    IdentityId.NP2,
    IdentityId.NP3,
    IdentityId.NP4,
    IdentityId.STRONG,
    IdentityId.SCALE,
)


def build_tower(
    system: AlgebraSystem,
    seed_bracket_name: str,
    derivation_names: list[str],
    *,
    verify: bool = True,
) -> list[TowerStep]:
    """Iterate the extension, one named derivation per step.

    Step k extends the previous bracket by derivation_names[k].  With
    ``verify`` set, each new bracket is run through NL, TP, NP1..NP4, STRONG
    and SCALE, plus DER_MUL / DER_BRK for the next step's derivation against
    the bracket it is about to extend.  Failures are findings, not errors:
    construction always continues through all steps.
    """
    current = _system(system).bracket(seed_bracket_name)
    maps = [system.derivation(name) for name in _listed(derivation_names, "derivation_names")]
    steps: list[TowerStep] = []
    for k, matrix in enumerate(maps):
        current = extend_bracket(system.product, current, matrix)
        reports: list[CheckReport] = []
        if verify:
            for ident in _TOWER_SUITE:
                reports.append(check_identity(ident, product=system.product, bracket=current))
            if k + 1 < len(maps):
                nxt = maps[k + 1]
                reports.append(
                    check_identity(IdentityId.DER_MUL, product=system.product, derivation=nxt)
                )
                reports.append(check_identity(IdentityId.DER_BRK, bracket=current, derivation=nxt))
        steps.append(TowerStep(current, tuple(reports)))
    return steps
