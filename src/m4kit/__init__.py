"""m4kit: symbolic constructions of small exotic 4-manifolds with
machine-checked fundamental-group certificates.

The package encodes closed 4-manifolds as presentation-and-invariant data
(MarkedManifold), rewrites them by torus surgery, blow-up and fiber sum,
and certifies that the resulting fundamental groups are trivial, Z, or
Z/n with a replayable derivation trace (certify / checker.replay).
"""

from .abelian import AbelianGroup, h1, smith_normal_form
from .blocks import (
    CATALOG,
    EmbeddedSurface,
    MarkedManifold,
    SurgeryDatum,
    bbt4,
    bt4,
    g2xgn,
    t2xg2,
    t2xs2b4,
    t4,
    t4b2,
)
from .certify import Budget, BudgetError, certify, commutation_closure, simplify
from .checker import CheckFailure, replay
from .constructions import (
    cyclic_family,
    exotic_cp2_2,
    exotic_cp2_4,
    exotic_cp2_6,
    exotic_odd_cp2,
    finite_cyclic_example,
)
from .coset import CosetCount, Exceeded, coset_enumeration
from .geography import (
    FreedmanModel,
    GeoPoint,
    GeographyError,
    Realization,
    coords,
    freedman_model,
    in_odd_region,
    realize_pair,
)
from .manifest import (
    Manifest,
    ManifestError,
    format_manifest,
    parse_manifest,
    report_json,
    run_manifest,
)
from .presentation import (
    ConditionalRelator,
    FpPresentation,
    MeridionalTier,
    PresentationError,
    format_presentation,
    parse_presentation,
)
from .surgery import SurgeryError, blow_up, fiber_sum, rename_manifold, torus_surgery
from .trace import (
    Certificate,
    CertificateFormatError,
    FINITE_CYCLIC,
    INCONCLUSIVE,
    INFINITE_CYCLIC,
    TRIVIAL,
)
from .words import (
    Word,
    WordSyntaxError,
    commutator,
    cyclic_reduce,
    cyclically_equal,
    format_word,
    gen,
    parse_word,
    substitute,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup", "h1", "smith_normal_form",
    "CATALOG", "EmbeddedSurface", "MarkedManifold", "SurgeryDatum",
    "bbt4", "bt4", "g2xgn", "t2xg2", "t2xs2b4", "t4", "t4b2",
    "Budget", "BudgetError", "Certificate", "CertificateFormatError",
    "FINITE_CYCLIC", "INCONCLUSIVE",
    "INFINITE_CYCLIC", "TRIVIAL", "certify", "commutation_closure",
    "simplify",
    "CheckFailure", "replay",
    "cyclic_family", "exotic_cp2_2", "exotic_cp2_4", "exotic_cp2_6",
    "exotic_odd_cp2", "finite_cyclic_example",
    "CosetCount", "Exceeded", "coset_enumeration",
    "FreedmanModel", "GeoPoint", "GeographyError", "Realization",
    "coords", "freedman_model", "in_odd_region", "realize_pair",
    "Manifest", "ManifestError", "format_manifest", "parse_manifest",
    "report_json", "run_manifest",
    "ConditionalRelator", "FpPresentation", "MeridionalTier",
    "PresentationError", "format_presentation", "parse_presentation",
    "SurgeryError", "blow_up", "fiber_sum", "rename_manifold",
    "torus_surgery",
    "Word", "WordSyntaxError", "commutator", "cyclic_reduce",
    "cyclically_equal", "format_word", "gen", "parse_word", "substitute",
    "__version__",
]
