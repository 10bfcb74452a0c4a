"""Numerical toolkit for the five kinematical groups.

Construction, membership and Cartan decomposition of the Lorentz,
Galilei, Orthogonal, Carroll and Aristotle groups in n >= 2 space
dimensions, classification of generator sets by the sign of the
causality parameter sigma, an affine layer acting on events and world
lines, and a randomized property suite.  Submodules:

* ``matcore``   validation, brackets, exponentials, adjoints, scale and time unit
* ``isotypic``  the coordinate pass that splits generators under the rotation action
* ``classify``  sigma extraction and the five-way classification
* ``groups``    group elements, membership tests, Cartan factors
* ``affine``    inhomogeneous groups acting on events and world lines
* ``verify``    randomized property suite with JSON reports
* ``cli``       the ``kinematica`` command
"""

from . import affine, classify, cli, groups, isotypic, matcore, verify
from .affine import AffineElement, Event, WorldLine
from .classify import (
    CaseLabel,
    ClassificationResult,
    Sigma,
    case_label,
    classify_algebra,
    collinearity_defect,
)
from .groups import (
    CartanFactors,
    boost_closed_form,
    cartan_decompose,
    in_K,
    in_normalizer,
    k_element,
    membership,
    p_generator,
    random_element,
)
from .matcore import bracket, dagger, mat_exp
from .verify import SuiteConfig, SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "AffineElement",
    "CartanFactors",
    "CaseLabel",
    "ClassificationResult",
    "Event",
    "Sigma",
    "SuiteConfig",
    "SuiteReport",
    "WorldLine",
    "affine",
    "boost_closed_form",
    "bracket",
    "cartan_decompose",
    "case_label",
    "classify",
    "classify_algebra",
    "cli",
    "collinearity_defect",
    "dagger",
    "groups",
    "in_K",
    "in_normalizer",
    "isotypic",
    "k_element",
    "mat_exp",
    "matcore",
    "membership",
    "p_generator",
    "random_element",
    "run_suite",
    "verify",
]
