"""Capacity regions of symmetric injective deterministic interference channels.

The pipeline: describe a finite-alphabet channel (`channel`), compute every
conditional entropy the region formulas use (`entropy`), then obtain the
aggregate rate region two independent ways - by Fourier-Motzkin projection
of the rate-splitting region (`hk_region`) and by direct facet enumeration
(`theorem_region`) - and certify their equality with the polyhedral kernel
(`polytope`).  The facet algebra connecting the two routes lives in
`coeff_scheme`.
"""

from .channel import (
    ChannelSpec,
    InjectivityReport,
    load_channel,
    save_channel,
    validate_injectivity,
)
from .coeff_scheme import (
    CoefficientScheme,
    DEVector,
    ReductionCertificate,
    combined_inequality,
    de_of,
    normalize,
    project_combined,
    step1_reduce,
    step2_reduce,
)
from .entropy import (
    EntropyTable,
    InputDistribution,
    build_entropy_table,
    load_distribution,
    save_distribution,
)
from .errors import (
    ChannelFormatError,
    DicRegionError,
    EnumerationOverflowError,
    InfeasibleRegionError,
    SchemeReductionError,
    UnboundedDirectionError,
)
from .hk_region import build_A1, project_to_aggregate
from .polytope import (
    LinearInequality,
    Region,
    canonicalize,
    contains_point,
    fm_eliminate,
    is_subset,
    load_region,
    prune_redundant,
    regions_equal,
    save_region,
    support_value,
    vertices,
)
from .theorem_region import (
    FacetSpec,
    converse_complement_check,
    enumerate_facets,
    facet_inequality,
    facet_to_scheme,
    preset_closure,
    presets,
    relabel_facet,
    scheme_to_facet,
)

__version__ = "0.1.0"
