"""Every module's export list names what the module defines."""

import importlib
import pkgutil

import pytest

import dicregion

MODULES = ["dicregion"] + [f"dicregion.{m.name}" for m in pkgutil.iter_modules(dicregion.__path__)]

# Names the package no longer defines: table readers that `ChannelSpec` and
# `EntropyTable` already hold, and exhaustive references that live in
# tests/reference.py.
REMOVED = {
    "interference_of", "output_of", "encode_v_tuple", "decode_v_index", "h_y_given_v",
    "aggregate_labels", "aggregate_projection_matrix", "_assignments",
    "enumerate_facet_specs", "check_injectivity_identity", "_own_input_entropies",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_and_star_import_succeeds(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), exported
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_no_removed_name_is_defined_or_exported():
    for name in MODULES:
        module = importlib.import_module(name)
        assert REMOVED & (set(getattr(module, "__all__", ())) | set(vars(module))) == set(), name
    assert not hasattr(dicregion.EntropyTable, "h_y_given_v")
