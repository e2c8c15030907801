"""Malformed documents of every kind, each rejection pinned to its full text.

One fault per case.  Every fault reads "malformed <kind> document: <reason>",
a ChannelFormatError for a channel document and a ValueError for every other
kind; the CLI prints it after "could not read <kind> file '<path>': " and
exits 2.
"""

import json

import pytest

from dicregion.channel import channel_from_dict
from dicregion.coeff_scheme import scheme_from_dict
from dicregion.entropy import load_distribution
from dicregion.errors import ChannelFormatError
from dicregion.polytope import region_from_dict
from dicregion.theorem_region import facet_from_dict, load_facets

XOR = {"K": 2, "x_alphabet_sizes": [2, 2], "g": [[0, 1], [0, 1]],
       "f": [[[0, 1], [1, 0]], [[0, 1], [1, 0]]]}
SIMPLEX = {"dim": 2, "labels": ["x1", "x2"], "inequalities": [
    {"coeffs": [1, 1], "rhs": 1.0}, {"coeffs": [-1, 0], "rhs": 0.0},
    {"coeffs": [0, -1], "rhs": 0.0}]}
FACET = {"a": [2, 1], "S": [[[], [1, 2]], [[1]]]}
SCHEME = {"K": 2, "c": [{"i": 1, "M": [1, 2], "w": 2}]}


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def _first_row(**fields):
    """SIMPLEX with fields of its first inequality replaced."""
    rows = [{**SIMPLEX["inequalities"][0], **fields}, *SIMPLEX["inequalities"][1:]]
    return {**SIMPLEX, "inequalities": rows}


def _entry(**fields):
    """SCHEME with fields of its one entry replaced."""
    return {**SCHEME, "c": [{**SCHEME["c"][0], **fields}]}


CASES = {
    "channel": [
        (_without(XOR, "f"), "'f'"),
        ({**XOR, "K": 1}, "K must be an integer >= 2, got 1"),
        ({**XOR, "x_alphabet_sizes": 2}, "alphabet sizes must be a list, got 2"),
        ({**XOR, "x_alphabet_sizes": [2]}, "expected 2 alphabet sizes, got 1"),
        ({**XOR, "x_alphabet_sizes": [2, 0]}, "user 2: alphabet size must be >= 1"),
        ({**XOR, "g": 5}, "interference tables must be a list, got 5"),
        ({**XOR, "g": [[0, 1]]}, "expected 2 interference tables"),
        ({**XOR, "g": [5, 6]}, "user 1: interference table must be a list, got 5"),
        ({**XOR, "g": [[0, 1], [0, 1, 0]]},
         "user 2: interference table has 3 entries, alphabet size is 2"),
        ({**XOR, "g": [[0, 1], [0, True]]}, "user 2: g(1) is not an integer"),
        ({**XOR, "f": 5}, "output tables must be a list, got 5"),
        ({**XOR, "f": XOR["f"][:1]}, "expected 2 output tables"),
        ({**XOR, "f": [5, 6]}, "receiver 1: output table must be a list, got 5"),
        ({**XOR, "f": [XOR["f"][0], XOR["f"][1][:1]]},
         "receiver 2: output table has 1 input rows, alphabet size is 2"),
        ({**XOR, "f": [[5, 6], XOR["f"][1]]},
         "receiver 1, input 0: output row must be a list, got 5"),
        ({**XOR, "f": [[[0], [1, 0]], XOR["f"][1]]},
         "receiver 1, input 0: output row has 1 entries, expected 2 interference tuples"),
        ({**XOR, "f": [[[0, 1], [1, 0.5]], XOR["f"][1]]},
         "receiver 1, input 1: non-integer output entry"),
        ([1, 2], "list, not an object"),
        # A string or an object stands for no list: its characters or keys
        # used to be read as the items.
        ({**XOR, "x_alphabet_sizes": {"2": 0, "3": 1}},
         "alphabet sizes must be a list, got {'2': 0, '3': 1}"),
        ({**XOR, "g": ["01", [0, 1]]}, "user 1: interference table must be a list, got '01'"),
    ],
    "distribution": [
        ({}, "'p'"),
        ({"p": 5}, "probabilities must be a list, got 5"),
        ({"p": [5, 6]}, "user 1: probabilities must be a list, got 5"),
        ({"p": [[0.5, "0.5"], [0.5, 0.5]]}, "user 1: probability entry '0.5' is not a real number"),
        ({"p": [[0.5, 0.5], [True, False]]}, "user 2: probability entry True is not a real number"),
        ({"p": [[0.5, 0.5], [float("nan"), 1.0]]}, "user 2: non-finite probability entry"),
        ({"p": [[1.5, -0.5], [0.5, 0.5]]}, "user 1: negative probability entry"),
        ({"p": [[0.5, 0.5], [0.5, 0.4]]}, "user 2: probabilities sum to 0.9, not 1"),
        ([1, 2], "list, not an object"),
        ({"p": "0.5"}, "probabilities must be a list, got '0.5'"),
        ({"p": [[0.5, 0.5], {"0.5": 1}]}, "user 2: probabilities must be a list, got {'0.5': 1}"),
    ],
    "region": [
        (_without(SIMPLEX, "inequalities"), "'inequalities'"),
        (_without(SIMPLEX, "dim"), "'dim'"),
        ({**SIMPLEX, "inequalities": [{"coeffs": [1, 1]}]}, "inequality 1: missing 'rhs'"),
        ({**SIMPLEX, "inequalities": 5}, "inequalities must be a list, got 5"),
        (_first_row(coeffs=5), "inequality 1: coeffs must be a list, got 5"),
        ({**SIMPLEX, "labels": "ab"}, "labels must be a list of strings, got 'ab'"),
        ({**SIMPLEX, "labels": [1, 2]}, "labels must be strings, got [1, 2]"),
        ({**SIMPLEX, "labels": ["u", "v", "w"]}, "3 labels for dimension 2"),
        ({**SIMPLEX, "labels": ["u", "u"]}, "duplicate labels in ['u', 'u']"),
        (_first_row(rhs="1"), "inequality 1: rhs '1' is not a real number"),
        (_first_row(coeffs=[True, 1]), "inequality 1: coefficient True is not a real number"),
        (_first_row(coeffs=[None, 1]), "inequality 1: coefficient None is not a real number"),
        (_first_row(coeffs=[{}, 1]), "inequality 1: coefficient {} is not a real number"),
        (_first_row(rhs=None), "inequality 1: rhs None is not a real number"),
        (_first_row(rhs=[1]), "inequality 1: rhs [1] is not a real number"),
        (_first_row(rhs={"b": 1}), "inequality 1: rhs {'b': 1} is not a real number"),
        (_first_row(coeffs=[2**53 + 1, 1]), "inequality 1: coefficient 9007199254740993 "
                                            "exceeds 2^53, beyond the integers a float holds exactly"),
        (_first_row(coeffs=[1.5, 1]), "inequality 1: coefficient 1.5 is not an exact integer"),
        (_first_row(coeffs=[float("inf"), 1]), "inequality 1: coefficient inf is not an exact integer"),
        (_first_row(rhs=float("nan")), "inequality 1: non-finite rhs nan"),
        (_first_row(coeffs=[1, 1, 1]), "inequality 1: coeffs [1, 1, 1] have arity 3, not dim 2"),
        ({**SIMPLEX, "inequalities": [*SIMPLEX["inequalities"][:2], {"coeffs": [0], "rhs": 0}]},
         "inequality 3: coeffs [0] have arity 1, not dim 2"),
        ({**SIMPLEX, "inequalities": [*SIMPLEX["inequalities"], {"coeffs": [0, 1], "rhs": None}]},
         "inequality 4: rhs None is not a real number"),
        ({**SIMPLEX, "dim": True}, "dim must be an integer >= 0, got True"),
        ({**SIMPLEX, "dim": 2.0}, "dim must be an integer >= 0, got 2.0"),
        ({**SIMPLEX, "dim": -1}, "dim must be an integer >= 0, got -1"),
        ([1, 2], "list, not an object"),
        ({**SIMPLEX, "inequalities": [[1, 2]]}, "inequality 1: list, not an object"),
        ({**SIMPLEX, "inequalities": [*SIMPLEX["inequalities"][:1], 5]},
         "inequality 2: int, not an object"),
        ({"dim": 2, "inequalities": [{"coeffs": [1, 0], "rhs": 1}, {"rhs": 1}]},
         "inequality 2: missing 'coeffs'"),
        (_first_row(coeffs="12"), "inequality 1: coeffs must be a list, got '12'"),
        (_first_row(coeffs={"a": 1, "b": 2}),
         "inequality 1: coeffs must be a list, got {'a': 1, 'b': 2}"),
        ({**SIMPLEX, "inequalities": {"coeffs": [1, 1], "rhs": 1.0}},
         "inequalities must be a list, got {'coeffs': [1, 1], 'rhs': 1.0}"),
        (_first_row(rhs=10**400), "inequality 1: rhs of 1329 bits is beyond the float range"),
        (_first_row(rhs=-(2**1024)), "inequality 1: rhs of 1025 bits is beyond the float range"),
    ],
    "facet": [
        (_without(FACET, "S"), "'S'"),
        (_without(FACET, "a"), "'a'"),
        ({**FACET, "a": 1}, "weights must be a list, got 1"),
        ({**FACET, "S": 5}, "subsets must be a list, got 5"),
        ({**FACET, "S": [5, [[1]]]}, "receiver 1: subsets must be a list, got 5"),
        ({**FACET, "S": [[5, [1, 2]], [[1]]]}, "receiver 1: subset must be a list, got 5"),
        ({**FACET, "S": FACET["S"][:1]}, "1 subset lists for 2 receivers"),
        ({**FACET, "a": [1.5, 1]}, "receiver 1: weight 1.5 is not an integer"),
        ({**FACET, "a": [-1, 1]}, "receiver 1: negative weight -1"),
        ({**FACET, "a": [1, 1]}, "receiver 1: 2 subsets for weight 1"),
        ({**FACET, "S": [[[], [0, 2]], [[1]]]}, "receiver 1: subset [0, 2] not within 1..2"),
        ({**FACET, "S": [[[], [1.0]], [[1]]]}, "receiver 1: subset {1.0} has a non-integer member"),
        ([1, 2], "list, not an object"),
        ({**FACET, "a": "21"}, "weights must be a list, got '21'"),
        ({**FACET, "S": [[[], "12"], [[1]]]}, "receiver 1: subset must be a list, got '12'"),
    ],
    "scheme": [
        (_without(SCHEME, "c"), "'c'"),
        (_without(SCHEME, "K"), "'K'"),
        ({**SCHEME, "c": [{"i": 1, "M": [1]}]}, "entry 1: missing 'w'"),
        ({**SCHEME, "c": 5}, "entries must be a list, got 5"),
        (_entry(M=5), "receiver 1: subset must be a list, got 5"),
        ({**SCHEME, "K": 2.0}, "K=2.0 must be a positive integer"),
        (_entry(i=3), "receiver 3 out of range 1..2"),
        (_entry(M=[1, 3]), "receiver 1: subset [1, 3] not within 1..2"),
        (_entry(M=[True]), "receiver 1: subset {True} has a non-integer member"),
        (_entry(w=-1), "weight -1 must be a nonnegative integer"),
        ({**SCHEME, "c": SCHEME["c"] * 2}, "duplicate entry for receiver 1, subset [1, 2]"),
        ([1, 2], "list, not an object"),
        ({**SCHEME, "c": [[1, 2]]}, "entry 1: list, not an object"),
        ({**SCHEME, "c": [*SCHEME["c"], 5]}, "entry 2: int, not an object"),
        ({**SCHEME, "c": [*SCHEME["c"], {"i": 2, "M": [1]}]}, "entry 2: missing 'w'"),
        ({**SCHEME, "c": SCHEME["c"][0]}, "entries must be a list, got {'i': 1, 'M': [1, 2], 'w': 2}"),
        (_entry(M="12"), "receiver 1: subset must be a list, got '12'"),
    ],
}


def _read(kind, doc, tmp_path):
    if kind == "distribution":  # read only from a file
        path = tmp_path / "dist.json"
        path.write_text(json.dumps(doc))
        return load_distribution(path)
    build = {"channel": channel_from_dict, "region": region_from_dict,
             "facet": facet_from_dict, "scheme": scheme_from_dict}[kind]
    return build(doc)


@pytest.mark.parametrize(
    "kind, doc, reason",
    [(kind, doc, reason) for kind, cases in CASES.items() for doc, reason in cases],
    ids=[f"{kind}-{k}" for kind, cases in CASES.items() for k in range(len(cases))],
)
def test_each_malformed_document_reads_as_its_pinned_message(tmp_path, kind, doc, reason):
    error = ChannelFormatError if kind == "channel" else ValueError
    with pytest.raises(error) as info:
        _read(kind, doc, tmp_path)
    assert str(info.value) == f"malformed {kind} document: {reason}"


def test_a_facet_file_of_items_that_are_not_objects_is_malformed(tmp_path):
    # Each item is named by its number, as region and scheme items are.
    path = tmp_path / "facets.json"
    for items, reason in [([1, 2], "facet 1: int, not an object"),
                          ([FACET, 2], "facet 2: int, not an object"),
                          ([FACET, _without(FACET, "S")], "facet 2: missing 'S'")]:
        path.write_text(json.dumps(items))
        with pytest.raises(ValueError) as info:
            load_facets(path)
        assert str(info.value) == f"malformed facet document: {reason}"
