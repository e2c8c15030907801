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
    decode_v_index,
    encode_v_tuple,
    interference_of,
    load_channel,
    output_of,
    save_channel,
    validate_injectivity,
)
from dicregion.entropy import InputDistribution, build_entropy_table, check_injectivity_identity
from dicregion.errors import ChannelFormatError

from conftest import parity3_channel, product_channel, random_full_support, xor_channel


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


def test_interference_identity_map(xor):
    assert interference_of(xor, 1, 1) == 1


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
    assert interference_of(spec, 1, 3) == 1


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
    assert interference_of(spec, 1, 1) == 0
    assert spec.v_images[0] == (0,)


def test_output_of_xor(xor):
    assert output_of(xor, 1, 1, (1,)) == 0
    assert output_of(xor, 1, 0, (1,)) == 1


def test_output_of_product(product):
    assert output_of(product, 1, 1, (0,)) == 2  # encodes the pair (1, 0)


def test_output_rejects_an_input_out_of_range(xor):
    for x in (2, -1):
        with pytest.raises(ValueError) as info:
            output_of(xor, 1, x, (0,))
        assert str(info.value) == f"input {x} out of range for receiver 1 (alphabet size 2)"


def test_output_rejects_unattainable_interference(xor):
    with pytest.raises(ValueError, match="not attainable"):
        output_of(xor, 1, 0, (2,))


def test_interference_rejects_out_of_range(xor):
    with pytest.raises(ValueError, match="out of range"):
        interference_of(xor, 1, 5)
    with pytest.raises(ValueError, match="out of range"):
        interference_of(xor, 3, 0)


XOR_F = (((0, 1), (1, 0)), ((0, 1), (1, 0)))


@pytest.mark.parametrize("sizes, g, f, message", [
    ((2, 2, 2), ((0, 1), (0, 1)), XOR_F, "expected 2 alphabet sizes, got 3"),
    ((2, 2), ((0, 1), (0, 1, 0)), XOR_F,
     "user 2: interference table has 3 entries, alphabet size is 2"),
    ((2, 2), ((0, 1), (0, 1)), XOR_F[:1], "expected 2 output tables"),
    ((2, 2), ((0, 1), (0, 1)), (XOR_F[0], XOR_F[1][:1]),
     "receiver 2: output table has 1 input rows, alphabet size is 2"),
], ids=["alphabet-sizes", "interference-entries", "output-tables", "input-rows"])
def test_table_counts_must_fit_the_users_and_alphabets(sizes, g, f, message):
    with pytest.raises(ChannelFormatError) as info:
        ChannelSpec(K=2, x_alphabet_sizes=sizes, g_tables=g, f_tables=f)
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
    rng = random.Random(0)
    from conftest import random_injective_channel

    for _ in range(20):
        spec = random_injective_channel(rng, rng.choice([2, 3]), 4)
        for i in range(1, spec.K + 1):
            for r, tup in enumerate(spec.v_tuples_for(i)):
                assert encode_v_tuple(spec, i, tup) == r
                assert decode_v_index(spec, i, r) == tup


def test_v_index_encoding_needs_one_symbol_per_other_user(xor):
    for v_tuple in ((), (0, 1)):
        message = f"^receiver 2: expected 1 interference symbols, got {len(v_tuple)}$"
        with pytest.raises(ValueError, match=message):
            encode_v_tuple(xor, 2, v_tuple)


def test_v_index_decoding_rejects_out_of_range_users_and_indices(xor):
    # On XOR each receiver has two tuples: r = 2 used to decode as r = 0,
    # r = -1 as (1,), and receiver 0 gave a 2-tuple.
    assert [decode_v_index(xor, 1, r) for r in (0, 1)] == [(0,), (1,)]
    for r in (2, -1):
        with pytest.raises(ValueError, match=r"index -?\d out of range 0..1"):
            decode_v_index(xor, 1, r)
    for i in (0, 3):
        with pytest.raises(ValueError, match="user index"):
            decode_v_index(xor, i, 0)


def test_v_index_encoding_and_tuples_reject_out_of_range_users(xor):
    # Receiver 3 of XOR used to encode (0, 0) as 0, and receiver 5 had 4 tuples.
    for i in (0, 3, 5):
        with pytest.raises(ValueError, match="user index"):
            encode_v_tuple(xor, i, (0, 0))
        with pytest.raises(ValueError, match="user index"):
            xor.v_tuples_for(i)


def test_user_indices_must_be_integers(xor):
    # v_tuples_for(1.5) returned all 4 tuples over both users, decode_v_index
    # answered for 1.0, interference_of raised a raw TypeError and
    # h_y_given_v an IndexError.
    table = build_entropy_table(xor, InputDistribution.uniform(xor))
    for i in (1.5, 1.0, True, "1", None):
        calls = [
            lambda: xor.v_tuples_for(i),
            lambda: decode_v_index(xor, i, 0),
            lambda: encode_v_tuple(xor, i, (0,)),
            lambda: interference_of(xor, i, 0),
            lambda: output_of(xor, i, 0, (0,)),
            lambda: table.h_y_given_v(i, {2}),
            lambda: table.h_y_given_v(1, {i}),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="user index .* is not an integer"):
                call()
    assert decode_v_index(xor, np.int64(1), 1) == (1,)
    assert table.h_y_given_v(np.int64(1), {np.int64(2)}) == table.h_y_given_v(1, {2})


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
                outs = [output_of(spec, i, x, t) for t in spec.v_tuples_for(i)]
                assert len(set(outs)) == len(outs)
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
