"""convlab: a laboratory for modes of convergence of random variables.

Exact piecewise random variables on the unit interval with Lebesgue measure,
checkers for thirteen convergence modes (classical and summability-style),
a numerical series-convergence classifier, and a catalog of counterexample
families wired into the implication diagram between the modes.
"""

from .errors import AccuracyError, ConvlabError, ParameterError, RepresentationError
from .modes import (ALL_MODES, LIMIT_MODES, SERIES_MODES, UNIVERSAL_MODES,
                    Family, FamilyMeta, ModeParams, ModeReport, check_mode)
from .registry import (ImplicationDiagram, LipschitzWitness, SweepReport,
                       build_family, default_registry, expected_verdicts,
                       export_catalog, mode_diagram, soundness_sweep,
                       verify_lipschitz_s2d, verify_truncation_s1star)
from .series import (DEFAULT_POLICY, EnginePolicy, TermLaw, TermSource, Verdict,
                     analyze_series, fit_exponent, load_terms_csv,
                     null_sequence_test)
from .space import (Cdf, Piece, PowerAtOne, RandomVariable, cdf, char_fn,
                    constant_rv, density_rv, diff_abs, expectation,
                    expectation_joint, sup_norm, uniform_rv)
from .testfuncs import ClampedAffine, ClampedIdentity, Sine, TestFunction

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "ConvlabError", "ParameterError", "RepresentationError",
    "ALL_MODES", "LIMIT_MODES", "SERIES_MODES", "UNIVERSAL_MODES",
    "Family", "FamilyMeta", "ModeParams", "ModeReport", "check_mode",
    "ImplicationDiagram", "LipschitzWitness", "SweepReport",
    "build_family", "default_registry", "expected_verdicts", "export_catalog",
    "mode_diagram", "soundness_sweep", "verify_lipschitz_s2d",
    "verify_truncation_s1star",
    "DEFAULT_POLICY", "EnginePolicy", "TermLaw", "TermSource", "Verdict",
    "analyze_series", "fit_exponent",
    "load_terms_csv", "null_sequence_test",
    "Cdf", "Piece", "PowerAtOne", "RandomVariable", "cdf", "char_fn",
    "constant_rv", "density_rv", "diff_abs", "expectation",
    "expectation_joint", "sup_norm", "uniform_rv",
    "ClampedAffine", "ClampedIdentity", "Sine", "TestFunction",
    "__version__",
]
