"""concord: exact knot-concordance obstructions from Seifert data.

Library layout:

- laurent:      exact rational Laurent polynomials (gcd, factor)
- seifert:      Seifert matrices, Levine-Tristram signatures, certified rho0
- alexander:    rational Alexander modules, Blanchfield form, Lagrangians
- metabolizers: metabolizer search, derivatives and antiderivatives
- calculus:     symbolic signature expressions and the infection calculus
- pipeline:     verdicts, second-order sets, Cooper bounds, reports, CLI
"""

from .laurent import LaurentPoly, PrimeFactorization
from .seifert import SeifertMatrix, UnitCirclePoint
from .alexander import AlexanderModule, Submodule
from .metabolizers import DerivativeLink, Metabolizer
from .calculus import Assumptions, InfectionDesc, SigExpr
from .specs import KnotSpec, LinkSpec
from .pipeline import Verdict, ingest, report

__all__ = [
    "LaurentPoly", "PrimeFactorization",
    "SeifertMatrix", "UnitCirclePoint",
    "AlexanderModule", "Submodule",
    "DerivativeLink", "Metabolizer",
    "Assumptions", "InfectionDesc", "SigExpr",
    "KnotSpec", "LinkSpec",
    "Verdict", "ingest", "report",
]
