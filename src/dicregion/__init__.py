"""Capacity regions of symmetric injective deterministic interference channels.

The pipeline: describe a finite-alphabet channel (`channel`), compute every
conditional entropy the region formulas use (`entropy`), then obtain the
aggregate rate region two independent ways - by Fourier-Motzkin projection
of the rate-splitting region (`hk_region`) and by direct facet enumeration
(`theorem_region`) - and certify their equality with the polyhedral kernel
(`polytope`).  The facet algebra connecting the two routes lives in
`coeff_scheme`.

Importing the package loads the projection route and the kernel.  The names
of `theorem_region` and `coeff_scheme`, and those two modules, load on first
access, so a caller of the projection alone never runs them.
"""

from .channel import (
    ChannelSpec,
    InjectivityReport,
    load_channel,
    save_channel,
    validate_injectivity,
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

# Each name loaded on first access -> the submodule that defines it; a
# submodule's own name maps to itself.
_LAZY = {
    **dict.fromkeys((
        "coeff_scheme",
        "CoefficientScheme",
        "DEVector",
        "ReductionCertificate",
        "combined_inequality",
        "de_of",
        "normalize",
        "project_combined",
        "step1_reduce",
        "step2_reduce",
    ), "coeff_scheme"),
    **dict.fromkeys((
        "theorem_region",
        "FacetSpec",
        "converse_complement_check",
        "enumerate_facets",
        "facet_inequality",
        "facet_to_scheme",
        "preset_closure",
        "presets",
        "relabel_facet",
        "scheme_to_facet",
    ), "theorem_region"),
}

__all__ = [
    "ChannelSpec",
    "InjectivityReport",
    "load_channel",
    "save_channel",
    "validate_injectivity",
    "EntropyTable",
    "InputDistribution",
    "build_entropy_table",
    "load_distribution",
    "save_distribution",
    "ChannelFormatError",
    "DicRegionError",
    "EnumerationOverflowError",
    "InfeasibleRegionError",
    "SchemeReductionError",
    "UnboundedDirectionError",
    "build_A1",
    "project_to_aggregate",
    "LinearInequality",
    "Region",
    "canonicalize",
    "contains_point",
    "fm_eliminate",
    "is_subset",
    "load_region",
    "prune_redundant",
    "regions_equal",
    "save_region",
    "support_value",
    "vertices",
    *(name for name, module in _LAZY.items() if name != module),
]


def __getattr__(name):
    """Load a lazy name's submodule and keep the name, so later lookups are plain."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The builtin __import__, unlike importlib.import_module, reports to
    # -X importtime; importing a submodule binds it in this namespace.
    __import__(f"{__name__}.{_LAZY[name]}")
    module = globals()[_LAZY[name]]
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


__version__ = "0.1.0"
