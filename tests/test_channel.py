"""Channel representation and injectivity checking."""

import json
import random

import numpy as np
import pytest

from dicregion import channel
from dicregion.channel import (
    ChannelSpec,
    InjectivityReport,
    channel_from_dict,
    channel_to_dict,
    load_channel,
    save_channel,
    validate_injectivity,
)
from dicregion.errors import ChannelFormatError

from conftest import parity3_channel, product_channel, random_full_support, xor_channel
from reference import check_injectivity_identity


def test_xor_channel_is_injective(xor):
    # Exhaustive check over all 2x2 (input, interference) index pairs.
    report = validate_injectivity(xor)
    assert report.is_injective
    assert report.violations == ()


def test_parity3_not_injective_with_witness(parity3):
    report = validate_injectivity(parity3)
    assert not report.is_injective
    # (0,1) and (1,0) both land on output 1 at receiver 1, input 0.
    assert (1, 0, (0, 1), (1, 0)) in report.violations


def test_product_channel_injective(product):
    assert validate_injectivity(product).is_injective


def test_interference_table_map():
    spec = ChannelSpec(
        K=2,
        x_alphabet_sizes=(4, 2),
        g_tables=((0, 0, 1, 1), (0, 1)),  # floor(x/2) on user 1
        f_tables=(
            tuple(tuple((x + v) % 8 for v in (0, 1)) for x in range(4)),
            tuple(tuple(8 * x + v for v in (0, 1)) for x in range(2)),
        ),
    )
    assert spec.g_tables[0] == (0, 0, 1, 1)
    assert spec.v_images == ((0, 1), (0, 1))


def test_interference_constant_map():
    # g_1 is constant, so receiver 2 sees a single attainable interference value.
    spec = ChannelSpec(
        K=2,
        x_alphabet_sizes=(2, 2),
        g_tables=((0, 0), (0, 1)),
        f_tables=(
            tuple(tuple(2 * x + v for v in (0, 1)) for x in (0, 1)),
            tuple((x,) for x in (0, 1)),
        ),
    )
    assert spec.v_images[0] == (0,)
    assert list(spec.v_tuples_for(2)) == [(0,)]


XOR_F = (((0, 1), (1, 0)), ((0, 1), (1, 0)))


@pytest.mark.parametrize("K, sizes, g, f, message", [
    (1, (2,), ((0, 1),), (((0,), (1,)),), "K must be an integer >= 2, got 1"),
    (2, (2, 2, 2), ((0, 1), (0, 1)), XOR_F, "expected 2 alphabet sizes, got 3"),
    (2, (2, 0), ((0, 1), ()), (((), ()), ()), "user 2: alphabet size must be >= 1"),
    (2, (2, 2), ((0, 1),), XOR_F, "expected 2 interference tables"),
    (2, (2, 2), ((0, 1), (0, 1, 0)), XOR_F,
     "user 2: interference table has 3 entries, alphabet size is 2"),
    (2, (2, 2), ((0, 1), (0, 1.0)), XOR_F, "user 2: g(1) is not an integer"),
    (2, (2, 2), ((0, 1), (0, 1)), XOR_F[:1], "expected 2 output tables"),
    (2, (2, 2), ((0, 1), (0, 1)), (XOR_F[0], XOR_F[1][:1]),
     "receiver 2: output table has 1 input rows, alphabet size is 2"),
    (2, (2, 2), ((0, 1), (0, 1)), (((0,), (1, 0)), XOR_F[1]),
     "receiver 1, input 0: output row has 1 entries, expected 2 interference tuples"),
    (2, (2, 2), ((0, 1), (0, 1)), (((0, 1), (1, 0.5)), XOR_F[1]),
     "receiver 1, input 1: non-integer output entry"),
    # A table or row that is not a list used to fail as "'int' object is not iterable".
    (2, 2, ((0, 1), (0, 1)), XOR_F, "alphabet sizes must be a list, got 2"),
    (2, (2, 2), 5, XOR_F, "interference tables must be a list, got 5"),
    (2, (2, 2), (5, 6), XOR_F, "user 1: interference table must be a list, got 5"),
    (2, (2, 2), ((0, 1), (0, 1)), 5, "output tables must be a list, got 5"),
    (2, (2, 2), ((0, 1), (0, 1)), (5, 6), "receiver 1: output table must be a list, got 5"),
    (2, (2, 2), ((0, 1), (0, 1)), ((5, 6), XOR_F[1]),
     "receiver 1, input 0: output row must be a list, got 5"),
], ids=["K", "alphabet-sizes", "alphabet-size-value", "interference-tables",
        "interference-entries", "interference-entry-value", "output-tables", "input-rows",
        "output-row-entries", "output-entry-value", "alphabet-sizes-list",
        "interference-tables-list", "interference-table-list", "output-tables-list",
        "output-table-list", "output-row-list"])
def test_table_counts_must_fit_the_users_and_alphabets(K, sizes, g, f, message):
    # One fault per case, so each rejection is pinned to its exact message.
    with pytest.raises(ChannelFormatError) as info:
        ChannelSpec(K=K, x_alphabet_sizes=sizes, g_tables=g, f_tables=f)
    assert str(info.value) == message


def test_malformed_tables_are_structural_errors():
    with pytest.raises(ChannelFormatError):
        ChannelSpec(K=2, x_alphabet_sizes=(2, 2), g_tables=((0, 1),), f_tables=())
    with pytest.raises(ChannelFormatError):
        # f row too short for the attainable tuples
        ChannelSpec(
            K=2,
            x_alphabet_sizes=(2, 2),
            g_tables=((0, 1), (0, 1)),
            f_tables=(((0,), (1,)), ((0, 1), (1, 0))),
        )
    with pytest.raises(ChannelFormatError):
        ChannelSpec(K=1, x_alphabet_sizes=(2,), g_tables=((0, 1),), f_tables=(((0,), (1,)),))


@pytest.mark.parametrize("sizes, g, f", [
    ((2, True), ((0, 1), (0,)), (((0,), (1,)), ((0, 1),))),  # a one-symbol user
    ((2, 2), ((False, True), (0, 1)), (((0, 1), (1, 0)), ((0, 1), (1, 0)))),
    ((2, 2), ((0, 1), (0, 1)), (((False, True), (1, 0)), ((0, 1), (1, 0)))),
], ids=["alphabet-size", "g-entry", "f-entry"])
def test_bool_table_entries_are_not_integers(sizes, g, f):
    # With its bools written as ints, each table loads.
    ChannelSpec(K=2, x_alphabet_sizes=tuple(map(int, sizes)),
                g_tables=tuple(tuple(map(int, row)) for row in g),
                f_tables=tuple(tuple(tuple(map(int, row)) for row in t) for t in f))
    with pytest.raises(ChannelFormatError):
        ChannelSpec(K=2, x_alphabet_sizes=sizes, g_tables=g, f_tables=f)


def test_integer_test_accepts_ints_and_numpy_integers_only():
    class Count(int):
        pass

    accepted = [0, -3, 2**70, Count(2), np.int64(5), np.uint8(1), np.intp(-1)]
    rejected = [True, False, np.bool_(True), 1.0, np.float64(2.0), "1", None, 1 + 0j,
                np.array(1), np.array([1])]
    assert [channel._is_int(v) for v in accepted] == [True] * len(accepted)
    assert [channel._is_int(v) for v in rejected] == [False] * len(rejected)


def test_numpy_integer_tables_load_as_plain_ints(tmp_path):
    # Numpy integers pass the integer checks; the spec stores plain ints, so
    # it still saves as JSON.
    xor = xor_channel()
    spec = ChannelSpec(K=np.int64(2), x_alphabet_sizes=np.array(xor.x_alphabet_sizes),
                       g_tables=np.array(xor.g_tables), f_tables=np.array(xor.f_tables))
    assert spec == xor
    fields = (spec.K, *spec.x_alphabet_sizes, *sum(spec.g_tables, ()), *sum(sum(spec.f_tables, ()), ()))
    assert {type(v) for v in fields} == {int}
    save_channel(spec, tmp_path / "xor.json")
    assert load_channel(tmp_path / "xor.json") == xor


def test_v_alphabet_is_induced_image():
    # g values with gaps: the induced alphabet is exactly the image.
    spec = ChannelSpec(
        K=2,
        x_alphabet_sizes=(3, 2),
        g_tables=((5, 5, 9), (0, 1)),
        f_tables=(
            tuple(tuple(x * 2 + v for v in (0, 1)) for x in range(3)),
            tuple(tuple(x * 2 + r for r in (0, 1)) for x in range(2)),
        ),
    )
    assert spec.v_images[0] == (5, 9)
    assert spec.v_images[1] == (0, 1)


def test_v_index_encoding_round_trip():
    # Entry r of an output row belongs to the r-th tuple of v_tuples_for,
    # whose mixed-radix code over the sorted images, last position fastest,
    # is r: encoded here by Horner's rule.
    rng = random.Random(0)
    from conftest import random_injective_channel

    for _ in range(20):
        spec = random_injective_channel(rng, rng.choice([2, 3]), 4)
        for i in range(1, spec.K + 1):
            images = [spec.v_images[j - 1] for j in spec.other_users(i)]
            tuples = list(spec.v_tuples_for(i))
            assert len(tuples) == len(spec.f_tables[i - 1][0])
            for r, tup in enumerate(tuples):
                code = 0
                for image, v in zip(images, tup):
                    code = code * len(image) + image.index(v)
                assert code == r


def test_v_index_encoding_and_tuples_reject_out_of_range_users(xor):
    # Receiver 5 of XOR used to have 4 tuples.
    for i in (0, 3, 5):
        with pytest.raises(ValueError, match="user index"):
            xor.v_tuples_for(i)


def test_user_indices_must_be_integers(xor):
    # v_tuples_for(1.5) returned all 4 tuples over both users.
    for i in (1.5, 1.0, True, "1", None):
        with pytest.raises(ValueError, match="user index .* is not an integer"):
            xor.v_tuples_for(i)
    assert list(xor.v_tuples_for(np.int64(1))) == [(0,), (1,)]


def test_injectivity_report_verdict_mirrors_its_violations():
    witness = (1, 0, (0,), (1,))
    for is_injective, violations in ((True, (witness,)), (False, ())):
        with pytest.raises(ValueError, match="^is_injective must mirror an empty violation list$"):
            InjectivityReport(is_injective, violations)
    assert not InjectivityReport(False, (witness,)).is_injective


def test_injectivity_matches_definition_by_exhaustion():
    rng = random.Random(1)
    from conftest import random_injective_channel

    for _ in range(10):
        spec = random_injective_channel(rng, 2, 4)
        report = validate_injectivity(spec)
        for i in range(1, spec.K + 1):
            for x in range(spec.x_alphabet_sizes[i - 1]):
                outs = dict(zip(spec.v_tuples_for(i), spec.f_tables[i - 1][x]))
                assert len(set(outs.values())) == len(outs) == len(spec.f_tables[i - 1][x])
        assert report.is_injective


def test_injectivity_agrees_with_entropy_identity():
    # Injective channel + full support: identity holds; the parity channel
    # fails the identity under a full-support distribution.
    rng = random.Random(2)
    xor = xor_channel()
    assert check_injectivity_identity(xor, random_full_support(rng, xor), 1e-9)
    prod = product_channel()
    assert check_injectivity_identity(prod, random_full_support(rng, prod), 1e-9)
    par = parity3_channel()
    assert not validate_injectivity(par).is_injective
    assert not check_injectivity_identity(par, random_full_support(rng, par), 1e-9)


def test_channel_json_round_trip(tmp_path, xor):
    path = tmp_path / "chan.json"
    save_channel(xor, path)
    again = load_channel(path)
    assert again == xor
    # dict round trip too
    assert channel_from_dict(channel_to_dict(xor)) == xor


def test_channel_from_dict_rejects_garbage():
    with pytest.raises(ChannelFormatError):
        channel_from_dict({"K": 2})


def test_load_channel_file_format(tmp_path):
    doc = {
        "K": 2,
        "x_alphabet_sizes": [2, 2],
        "g": [[0, 1], [0, 1]],
        "f": [[[0, 1], [1, 0]], [[0, 1], [1, 0]]],
    }
    path = tmp_path / "xor.json"
    path.write_text(json.dumps(doc))
    assert load_channel(path) == xor_channel()
