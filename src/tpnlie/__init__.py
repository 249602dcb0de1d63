"""Exact structure-constant workbench for transposed Poisson n-Lie algebras.

Represents finite-dimensional algebras by rational structure constants,
verifies the defining and derived identities by exhaustive basis-tuple
enumeration, and builds derivation-driven arity extensions and towers.
"""

from . import axioms, construct, core, corpus, files
from .axioms import *
from .construct import *
from .core import *
from .corpus import *
from .files import *

__version__ = "0.1.0"

__all__ = sorted(
    {*axioms.__all__, *construct.__all__, *core.__all__, *corpus.__all__, *files.__all__}
)
