"""prenexify: a first-order-formula toolkit for the semi-classical prenex
hierarchy.

Decides membership in the classes J_k^n / R_k^n, performs degree-n
restricted prenex normalization with verifiable rewrite traces, and
cross-validates the characterization by exhaustive rewrite search on
small formulas.
"""

from .formula import (
    FALSUM,
    And,
    Exists,
    Falsum,
    Forall,
    Formula,
    Imp,
    Or,
    Prime,
    alpha_canonical,
    fresh_variable,
    is_prenex,
    replace_at,
    subformula_at,
)
from .hierarchy import PrenexShape, classify_prenex
from .normalizer import NormalizationResult, NotInClassError, normalize_J, normalize_R
from .oracle import (
    ReachableSet,
    SearchResult,
    Signature,
    can_reach,
    enumerate_formulas,
    reachable_set,
)
from .parser import ArityError, ParseError, parse, render
from .rewrite import (
    RewriteStep,
    Trace,
    applicable_steps,
    apply_step,
    verify_trace,
)
from .semiclassical import Classifier, Witness

__version__ = "0.1.0"
