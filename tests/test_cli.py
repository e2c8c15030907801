"""Command-line surface: exit codes, file formats, plotting."""

import csv
import errno
import json
import math
import os
from xml.etree import ElementTree

import pytest

from dicregion import polytope
from dicregion.channel import save_channel
from dicregion.cli import main
from dicregion.entropy import InputDistribution, save_distribution
from dicregion.polytope import load_region, region_to_dict, regions_equal, save_region

from conftest import parity3_channel, xor_channel
from test_polytope import R, UNIT_SIMPLEX, UNIT_SQUARE


@pytest.fixture
def xor_file(tmp_path):
    path = tmp_path / "xor.json"
    save_channel(xor_channel(), path)
    return str(path)


@pytest.fixture
def uniform2_file(tmp_path):
    path = tmp_path / "uniform2.json"
    save_distribution(InputDistribution.uniform(xor_channel()), path)
    return str(path)


def test_validate_injective(xor_file, capsys):
    assert main(["validate", xor_file]) == 0
    assert "injective" in capsys.readouterr().out


def test_validate_non_injective(tmp_path, capsys):
    path = tmp_path / "parity.json"
    save_channel(parity3_channel(), path)
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "NOT injective" in out
    assert "collide" in out


def test_validate_truncated_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"K": 2, "x_alphabet_sizes": [2')
    assert main(["validate", str(path)]) == 2
    assert "could not read" in capsys.readouterr().err


def test_bool_and_string_entries_in_input_files_exit_2(xor_file, tmp_path, capsys):
    chan, dist = tmp_path / "bool.json", tmp_path / "strings.json"
    doc = json.loads(open(xor_file).read())
    doc["g"][0] = [False, True]
    chan.write_text(json.dumps(doc))
    dist.write_text(json.dumps({"p": [["0.5", "0.5"], [True, False]]}))
    assert main(["validate", str(chan)]) == 2
    assert capsys.readouterr().err.endswith("user 1: g(0) is not an integer\n")
    assert main(["region", xor_file, str(dist), "--method", "hk-project"]) == 2
    err = capsys.readouterr().err
    assert "malformed distribution document: user 1: probability entry '0.5'" in err


@pytest.mark.parametrize("kind, field, value, message", [
    ("channel", "x_alphabet_sizes", 2, "alphabet sizes must be a list, got 2"),
    ("channel", "g", [5, 6], "user 1: interference table must be a list, got 5"),
    ("channel", "f", [[5, 6], [[0, 1], [1, 0]]],
     "receiver 1, input 0: output row must be a list, got 5"),
    ("distribution", "p", [5, 6], "user 1: probabilities must be a list, got 5"),
    ("distribution", "p", 5, "malformed distribution document: probabilities must be a list, got 5"),
], ids=["alphabet-sizes", "g-row", "f-row", "p-row", "p"])
def test_a_table_that_is_not_a_list_exits_2_naming_it(xor_file, uniform2_file, tmp_path, capsys,
                                                       kind, field, value, message):
    # Each used to end in "'int' object is not iterable", naming no field.
    files = {"channel": xor_file, "distribution": uniform2_file}
    doc = json.loads(open(files[kind]).read())
    doc[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    files[kind] = str(bad)
    assert main(["region", files["channel"], files["distribution"], "--method", "hk-project"]) == 2
    assert capsys.readouterr().err.endswith(f"{message}\n")


def test_region_both_methods_agree(xor_file, uniform2_file, tmp_path):
    out_a = tmp_path / "hk.json"
    out_b = tmp_path / "thm.json"
    assert main(["region", xor_file, uniform2_file, "--method", "hk-project", "--out", str(out_a)]) == 0
    assert main(["region", xor_file, uniform2_file, "--method", "theorem", "--out", str(out_b)]) == 0
    a, b = load_region(out_a), load_region(out_b)
    assert regions_equal(a, b, 1e-9)
    assert {(q.coeffs, q.rhs) for q in a.inequalities} == {
        ((-1, 0), 0.0),
        ((0, -1), 0.0),
        ((1, 1), 1.0),
    }


def test_region_point_mass(xor_file, tmp_path):
    dist_path = tmp_path / "point.json"
    save_distribution(InputDistribution.point_mass(xor_channel()), dist_path)
    out = tmp_path / "region.json"
    assert main(["region", xor_file, str(dist_path), "--method", "theorem", "--out", str(out)]) == 0
    region = load_region(out)
    zero = R(2, [((1, 0), 0.0), ((0, 1), 0.0), ((-1, 0), 0.0), ((0, -1), 0.0)], labels=("R1", "R2"))
    assert regions_equal(region, zero, 1e-9)


@pytest.mark.parametrize("method", ["hk-project", "theorem"])
def test_region_rejects_a_nan_probability(xor_file, tmp_path, method, capsys):
    # Before the check, both methods wrote the region R1 <= 0 and exited 0.
    dist_path = tmp_path / "nan.json"
    dist_path.write_text('{"p": [[NaN, 1.0], [0.5, 0.5]]}')
    assert main(["region", xor_file, str(dist_path), "--method", method]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite" in captured.err


def test_region_files_with_non_finite_rhs_are_parse_errors(tmp_path, capsys):
    good = tmp_path / "good.json"
    save_region(UNIT_SIMPLEX, good)
    bad = tmp_path / "bad.json"
    bad.write_text(good.read_text().replace('"rhs": 1.0', '"rhs": NaN'))
    assert main(["compare", str(bad), str(good)]) == 2
    assert main(["plot", str(bad), "--out", str(tmp_path / "plot.svg")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("non-finite") == 2


@pytest.mark.parametrize(
    "field, value, message",
    [("labels", [1, 2], "labels must be strings"),
     ("coeffs", [10**400, 1], "exceeds 2^53"),
     ("coeffs", [math.inf, 1], "malformed region document"),
     ("labels", "ab", "malformed region document: labels must be a list of strings, got 'ab'"),
     ("labels", {"a": 0, "b": 1}, "malformed region document: labels must be a list of strings"),
     ("labels", "", "malformed region document: labels must be a list of strings, got ''"),
     ("rhs", "2", "malformed region document: inequality 1: rhs '2' is not a real number"),
     ("rhs", True, "malformed region document: inequality 1: rhs True is not a real number"),
     ("coeffs", [True, 1],
      "malformed region document: inequality 1: coefficient True is not a real number"),
     ("coeffs", [None, 1],
      "malformed region document: inequality 1: coefficient None is not a real number")],
    ids=["int-labels", "huge-int", "float-inf", "string-labels", "object-labels",
         "empty-string-labels", "string-rhs", "bool-rhs", "bool-coefficient", "null-coefficient"],
)
def test_region_files_with_bad_labels_or_coefficients_are_parse_errors(
    tmp_path, capsys, field, value, message
):
    # The first three used to end in a traceback and exit 1: AttributeError
    # in plot, OverflowError in compare and plot.  The others used to load:
    # "ab" as the labels ('a', 'b'), an object as its keys, "" as no labels,
    # "2" and true as the numbers 2 and 1.  A null coefficient read in
    # Python's words: "int() argument must be a string, ...".
    doc = region_to_dict(UNIT_SIMPLEX)
    (doc if field == "labels" else doc["inequalities"][0])[field] = value
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_text(json.dumps(doc))
    save_region(UNIT_SIMPLEX, good)
    assert main(["compare", str(bad), str(good)]) == 2
    assert main(["plot", str(bad), "--out", str(tmp_path / "plot.svg")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count(message) == 2


@pytest.mark.parametrize("dim", [True, 1.0, -1])
def test_region_files_whose_dim_is_not_a_count_are_parse_errors(tmp_path, capsys, dim):
    # "dim": true used to load as a 1-D region: compare against the same
    # region with "dim": 1 printed "equal", and plot "region has dim True".
    doc = region_to_dict(R(1, [((1,), 1.0), ((-1,), 0.0)]))
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(doc))
    bad.write_text(json.dumps({**doc, "dim": dim}))
    assert main(["compare", str(bad), str(good)]) == 2
    assert main(["plot", str(bad), "--out", str(tmp_path / "plot.svg")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    reason = "malformed region document: dim must be an integer"
    assert captured.err.count(f"could not read region file {str(bad)!r}: {reason}") == 2


def test_region_refuses_non_injective(tmp_path, capsys):
    chan = tmp_path / "parity.json"
    save_channel(parity3_channel(), chan)
    dist = tmp_path / "u3.json"
    save_distribution(InputDistribution.uniform(parity3_channel()), dist)
    assert main(["region", str(chan), str(dist), "--method", "theorem"]) == 1
    assert "refusing" in capsys.readouterr().err


def test_region_force_overrides_for_hk(tmp_path, capsys):
    chan = tmp_path / "parity.json"
    save_channel(parity3_channel(), chan)
    dist = tmp_path / "u3.json"
    save_distribution(InputDistribution.uniform(parity3_channel()), dist)
    out = tmp_path / "region.json"
    assert (
        main(["region", str(chan), str(dist), "--method", "hk-project", "--force", "--out", str(out)])
        == 0
    )
    assert "warning" in capsys.readouterr().err
    assert load_region(out).dim == 3
    # --force does not unlock the capacity formula
    assert main(["region", str(chan), str(dist), "--method", "theorem", "--force"]) == 1


def test_region_stdout_json(xor_file, uniform2_file, capsys):
    assert main(["region", xor_file, uniform2_file, "--method", "theorem"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim"] == 2 and doc["labels"] == ["R1", "R2"]


@pytest.mark.parametrize("probs, message", [
    (((0.2, 0.3, 0.5), (0.5, 0.5)), "error: user 1: distribution over 3 symbols, alphabet size 2"),
    (((0.5, 0.5),), "error: distribution has 1 users, channel has 2"),
], ids=["three-symbols", "one-user"])
def test_region_rejects_a_distribution_that_does_not_fit_the_channel(
    xor_file, tmp_path, probs, message, capsys
):
    path = tmp_path / "dist.json"
    save_distribution(InputDistribution(probs), path)
    assert main(["region", xor_file, str(path), "--method", "hk-project"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_compare_equal_and_unequal(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_region(UNIT_SIMPLEX, a)
    save_region(UNIT_SIMPLEX, b)
    assert main(["compare", str(a), str(b)]) == 0
    assert "equal" in capsys.readouterr().out
    save_region(UNIT_SQUARE, b)
    assert main(["compare", str(a), str(b)]) == 1
    assert "violated" in capsys.readouterr().out


def test_compare_regions_of_different_dimensions(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_region(UNIT_SQUARE, a)
    save_region(R(3, [((1, 1, 1), 1.0)]), b)
    assert main(["compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out == "unequal: dimensions differ (2 vs 3)\n"


def test_compare_equal_unbounded_half_planes(tmp_path, monkeypatch, capsys):
    # x1 + x2 <= 1, written twice with different scales: each containment
    # row is bounded, no spot direction is, and both regions must say so alike.
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_region(R(2, [((1, 1), 1.0)]), a)
    save_region(R(2, [((2, 2), 2.0)]), b)
    support, answers = polytope._support, []
    monkeypatch.setattr(
        polytope, "_support", lambda *args: answers.append(support(*args)) or answers[-1]
    )
    assert main(["compare", str(a), str(b), "--directions", "6"]) == 0
    assert capsys.readouterr().out.startswith("equal within tol")
    assert answers == [2.0, 1.0] + [None] * 12


HALF_PLANE = R(2, [((1, 1), 1.0)])
SMALL_SQUARE = R(2, [((1, 0), 0.1), ((0, 1), 0.1), ((-1, 0), 0.0), ((0, -1), 0.0)])
# Each rhs raised by 0.9e-9: within tol of every row, but the corner moves by
# more than tol * max(1, value) along some directions.
RAISED_SQUARE = R(2, [((1, 0), 0.1 + 0.9e-9), ((0, 1), 0.1 + 0.9e-9),
                      ((-1, 0), 0.9e-9), ((0, -1), 0.9e-9)])


@pytest.mark.parametrize("left, right, code, out", [
    (UNIT_SIMPLEX, UNIT_SIMPLEX, 0, "equal within tol 1e-09 (100 direction spot checks)"),
    (UNIT_SQUARE, UNIT_SIMPLEX, 1,
     "unequal: inequality [1, 1] . R <= 1 of {b} is violated (attains 2)"),
    (UNIT_SIMPLEX, UNIT_SQUARE, 1,
     "unequal: inequality [1, 1] . R <= 1 of {a} is violated (attains 2)"),
    (HALF_PLANE, UNIT_SIMPLEX, 1,
     "unequal: inequality [-1, 0] . R <= 0 of {b} is violated (attains unbounded)"),
    (UNIT_SIMPLEX, HALF_PLANE, 1,
     "unequal: inequality [-1, 0] . R <= 0 of {a} is violated (attains unbounded)"),
    (SMALL_SQUARE, RAISED_SQUARE, 1,
     "unequal: support values differ in direction [0.6888437030500962, 0.515908805880605]: "
     "0.12047525089307012 vs 0.12047525197734739"),
], ids=["equal", "row-of-b", "row-of-a", "unbounded-row-of-b",
        "unbounded-row-of-a", "support-only"])
def test_compare_prints_each_verdict_exactly(tmp_path, capsys, left, right, code, out):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_region(left, a)
    save_region(right, b)
    assert main(["compare", str(a), str(b)]) == code
    captured = capsys.readouterr()
    assert captured.out == out.format(a=a, b=b) + "\n"
    assert captured.err == ""


EMPTY = R(2, [((1, 0), -1.0), ((-1, 0), 0.0), ((0, -1), 0.0)])


@pytest.mark.parametrize("left, right, stream, message", [
    (EMPTY, EMPTY, "err", "error: support value of an empty region"),
    (EMPTY, UNIT_SQUARE, "out", "unequal: inequality [1, 0] . R <= -1 of"),
    (UNIT_SQUARE, EMPTY, "out", "unequal: inequality [1, 0] . R <= -1 of"),
    (EMPTY, R(2, []), "out", "unequal: inequality [1, 0] . R <= -1 of"),
    (R(2, []), EMPTY, "out", "unequal: inequality [1, 0] . R <= -1 of"),
], ids=["empty-empty", "empty-box", "box-empty", "empty-rowless", "rowless-empty"])
def test_compare_never_calls_an_empty_region_equal(tmp_path, capsys, left, right, stream, message):
    # The library's containment test raises for an empty left region; the
    # CLI goes on to the reverse test and the support spot checks.
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_region(left, a)
    save_region(right, b)
    assert main(["compare", str(a), str(b)]) == 1
    captured = capsys.readouterr()
    assert "equal within" not in captured.out
    assert getattr(captured, stream).startswith(message)


def test_region_k3_methods_agree(tmp_path):
    import random

    from conftest import random_injective_channel

    spec = random_injective_channel(random.Random(99), 3, 2)
    chan = tmp_path / "chan3.json"
    save_channel(spec, chan)
    dist = tmp_path / "u3.json"
    save_distribution(InputDistribution.uniform(spec), dist)
    out_a = tmp_path / "hk3.json"
    out_b = tmp_path / "thm3.json"
    assert main(["region", str(chan), str(dist), "--method", "hk-project", "--out", str(out_a)]) == 0
    assert main(["region", str(chan), str(dist), "--method", "theorem", "--out", str(out_b)]) == 0
    assert main(["compare", str(out_a), str(out_b)]) == 0


def test_compare_pipeline_outputs(xor_file, uniform2_file, tmp_path):
    out_a = tmp_path / "hk.json"
    out_b = tmp_path / "thm.json"
    main(["region", xor_file, uniform2_file, "--method", "hk-project", "--out", str(out_a)])
    main(["region", xor_file, uniform2_file, "--method", "theorem", "--out", str(out_b)])
    assert main(["compare", str(out_a), str(out_b), "--tol", "1e-9"]) == 0


def test_compare_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    good = tmp_path / "good.json"
    save_region(UNIT_SIMPLEX, good)
    assert main(["compare", str(bad), str(good)]) == 2


def read_error(kind, path, reason):
    return f"error: could not read {kind} file {str(path)!r}: {reason}\n"


def os_reason(code, path):
    return f"[Errno {code}] {os.strerror(code)}: {str(path)!r}"


def test_region_with_an_unreadable_channel_file_exits_2(uniform2_file, tmp_path, capsys):
    assert main(["region", str(tmp_path), uniform2_file, "--method", "hk-project"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == read_error("channel", tmp_path, os_reason(errno.EISDIR, tmp_path))


def test_region_with_a_missing_distribution_file_exits_2(xor_file, tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["region", xor_file, str(missing), "--method", "hk-project"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == read_error("distribution", missing, os_reason(errno.ENOENT, missing))


@pytest.mark.parametrize("command", ["validate", "region"])
def test_a_channel_file_with_an_over_long_integer_exits_2(uniform2_file, tmp_path, capsys, command):
    # Python's json refuses integers of more than 4,300 digits with a
    # ValueError, which used to end in a traceback and exit 1.
    path = tmp_path / "huge.json"
    path.write_text('{"K": ' + "9" * 5000 + "}")
    argv = [command, str(path)] + ([uniform2_file, "--method", "hk-project"] * (command == "region"))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(read_error("channel", path, "Exceeds the limit (4300")[:-1])
    tail = "value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit\n"
    assert captured.err.endswith(tail)


def test_a_channel_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"K": "\xe9"}')
    assert main(["validate", str(path)]) == 2
    reason = "'utf-8' codec can't decode byte 0xe9 in position 7: invalid continuation byte"
    assert capsys.readouterr().err == read_error("channel", path, reason)


@pytest.mark.parametrize("argv, kind", [
    (["validate", "{deep}"], "channel"),
    (["region", "{channel}", "{deep}", "--method", "hk-project"], "distribution"),
    (["compare", "{region}", "{deep}"], "region"),
    (["plot", "{deep}", "--out", "{svg}"], "region"),
], ids=["validate", "region", "compare", "plot"])
def test_a_file_nested_deeper_than_the_recursion_limit_exits_2(
    xor_file, tmp_path, capsys, argv, kind
):
    # json's RecursionError used to end in a traceback and exit 1.
    paths = {"deep": tmp_path / "deep.json", "channel": xor_file,
             "region": tmp_path / "good.json", "svg": tmp_path / "p.svg"}
    paths["deep"].write_text("[" * 100_000 + "]" * 100_000)
    save_region(UNIT_SIMPLEX, paths["region"])
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    reason = "JSON nested deeper than the recursion limit"
    assert captured.err == read_error(kind, paths["deep"], reason)
    assert not paths["svg"].exists()


@pytest.mark.parametrize("argv", [
    ["compare", "{bad}", "{good}"],
    ["compare", "{good}", "{bad}"],
    ["plot", "{bad}", "--out", "{svg}"],
], ids=["compare-first", "compare-second", "plot"])
def test_a_truncated_region_file_exits_2(tmp_path, capsys, argv):
    paths = {"bad": tmp_path / "bad.json", "good": tmp_path / "good.json", "svg": tmp_path / "p.svg"}
    paths["bad"].write_text('{"dim": 2, "inequ')
    save_region(UNIT_SIMPLEX, paths["good"])
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    reason = "Unterminated string starting at: line 1 column 12 (char 11)"
    assert captured.err == read_error("region", paths["bad"], reason)
    assert not paths["svg"].exists()


def test_plot_simplex_svg(tmp_path):
    region_path = tmp_path / "simplex.json"
    save_region(UNIT_SIMPLEX, region_path)
    out = tmp_path / "plot.svg"
    assert main(["plot", str(region_path), "--out", str(out)]) == 0
    svg = out.read_text()
    assert svg.startswith("<svg") and "<polygon" in svg
    assert "x1" in svg  # axis labels from the region file


def test_plot_square_svg(tmp_path):
    region_path = tmp_path / "square.json"
    save_region(UNIT_SQUARE, region_path)
    out = tmp_path / "plot.svg"
    assert main(["plot", str(region_path), "--out", str(out)]) == 0
    assert out.read_text().count("<circle") == 4


def test_plot_3d_emits_csv(tmp_path):
    from dicregion.polytope import LinearInequality, Region, nonneg_inequalities

    rows = [LinearInequality((1, 1, 1), 1.0)] + nonneg_inequalities(3)
    region = Region(3, tuple(rows), ("R1", "R2", "R3"))
    region_path = tmp_path / "r3.json"
    save_region(region, region_path)
    out = tmp_path / "verts.csv"
    assert main(["plot", str(region_path), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "R1,R2,R3"
    assert len(lines) == 5  # origin plus three unit corners


def test_plot_labels_vertices_without_negative_zero(xor_file, uniform2_file, tmp_path):
    # Vertices on -x_j <= 0 rows used to be labelled "(-0, -0)" and "(1, -0)".
    hk, svg = tmp_path / "hk.json", tmp_path / "region.svg"
    assert main(["region", xor_file, uniform2_file, "--method", "hk-project", "--out", str(hk)]) == 0
    assert main(["plot", str(hk), "--out", str(svg)]) == 0
    texts = ElementTree.fromstring(svg.read_text()).iter("{http://www.w3.org/2000/svg}text")
    assert sorted(t.text for t in texts)[:3] == ["(0, 0)", "(0, 1)", "(1, 0)"]
    assert "(-0" not in svg.read_text()


def test_plot_3d_writes_each_vertex_of_a_cut_cube(tmp_path):
    from dicregion.polytope import nonneg_inequalities

    rows = [((1, 0, 0), 1.0), ((0, 1, 0), 1.0), ((0, 0, 1), 1.0), ((1, 1, 1), 2.0)]
    region_path, out = tmp_path / "cube.json", tmp_path / "cube.csv"
    save_region(R(3, rows + [(q.coeffs, q.rhs) for q in nonneg_inequalities(3)]), region_path)
    assert main(["plot", str(region_path), "--out", str(out)]) == 0
    assert out.read_text() == "x1,x2,x3\n0,0,0\n0,0,1\n0,1,0\n0,1,1\n1,0,0\n1,0,1\n1,1,0\n"


def test_plot_svg_escapes_labels(tmp_path):
    from xml.sax.saxutils import escape

    labels = ("R<1", "a&b>c<&d")
    region_path = tmp_path / "simplex.json"
    save_region(R(2, [((1, 1), 1.0), ((-1, 0), 0.0), ((0, -1), 0.0)], labels), region_path)
    out = tmp_path / "plot.svg"
    assert main(["plot", str(region_path), "--out", str(out)]) == 0
    texts = ElementTree.fromstring(out.read_text()).iter("{http://www.w3.org/2000/svg}text")
    assert [t.text for t in texts][:2] == list(labels)
    svg = out.read_bytes()
    for label in labels:  # the bytes xml.sax.saxutils.escape gives
        assert f'font-size="14">{escape(label)}</text>'.encode() in svg


def test_plot_csv_quotes_labels(tmp_path):
    from dicregion.polytope import LinearInequality, Region, nonneg_inequalities

    rows = [LinearInequality((1, 1, 1), 1.0)] + nonneg_inequalities(3)
    region_path = tmp_path / "r3.json"
    save_region(Region(3, tuple(rows), ("a,b", 'R"2', "R3")), region_path)
    out = tmp_path / "verts.csv"
    assert main(["plot", str(region_path), "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    assert table[0] == ["a,b", 'R"2', "R3"]
    assert len(table) == 5 and all(len(row) == 3 for row in table)


@pytest.mark.parametrize("command", ["region", "plot"])
def test_unwritable_out_is_a_usage_error(xor_file, uniform2_file, tmp_path, command, capsys):
    region_path = tmp_path / "simplex.json"
    save_region(UNIT_SIMPLEX, region_path)
    args = {
        "region": ["region", xor_file, uniform2_file, "--method", "hk-project"],
        "plot": ["plot", str(region_path)],
    }[command]
    out = tmp_path / "missing" / "out.json"
    assert main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err


def test_plot_unbounded_names_direction(tmp_path, capsys):
    region = R(2, [((1, 0), 1.0), ((-1, 0), 0.0), ((0, -1), 0.0)], labels=("R1", "R2"))
    region_path = tmp_path / "open.json"
    save_region(region, region_path)
    assert main(["plot", str(region_path), "--out", str(tmp_path / "x.svg")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: region is unbounded in direction +R2\n"
    assert not (tmp_path / "x.svg").exists()


def test_plot_dim_guard(tmp_path, capsys):
    from dicregion.polytope import Region, nonneg_inequalities

    region = Region(4, tuple(nonneg_inequalities(4)))
    region_path = tmp_path / "r4.json"
    save_region(region, region_path)
    assert main(["plot", str(region_path), "--out", str(tmp_path / "x.svg")]) == 2
    assert "dim <= 3" in capsys.readouterr().err


def test_plot_rejects_a_one_dimensional_region(tmp_path, capsys):
    # The SVG writer reads two coordinates per vertex.
    region_path = tmp_path / "r1.json"
    save_region(R(1, [((1,), 2.0), ((-1,), 0.0)]), region_path)
    out = tmp_path / "x.svg"
    assert main(["plot", str(region_path), "--out", str(out)]) == 2
    assert "plotting supports 2 <= dim <= 3, region has dim 1" in capsys.readouterr().err
    assert not out.exists()


def test_region_check_a_max_stable(xor_file, uniform2_file, tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main(
        ["region", xor_file, uniform2_file, "--method", "theorem", "--check-a-max", "--out", str(out)]
    )
    assert rc == 0
    assert "left the region unchanged" in capsys.readouterr().out


def test_region_check_a_max_reports_a_changed_region(tmp_path, capsys):
    import random

    from conftest import random_full_support, random_injective_channel
    from dicregion.entropy import build_entropy_table
    from dicregion.theorem_region import enumerate_facets

    rng = random.Random(7)
    spec = random_injective_channel(rng, 3, 3)
    dist = random_full_support(rng, spec)
    chan, dist_path, out = tmp_path / "chan.json", tmp_path / "dist.json", tmp_path / "r.json"
    save_channel(spec, chan)
    save_distribution(dist, dist_path)
    rc = main(
        ["region", str(chan), str(dist_path), "--method", "theorem", "--a-max", "1",
         "--check-a-max", "--out", str(out)]
    )
    assert rc == 1
    assert "changed the region" in capsys.readouterr().err
    assert load_region(out) == enumerate_facets(spec, build_entropy_table(spec, dist), a_max=1)


def test_region_check_a_max_at_the_k4_default_fits_the_default_guard(tmp_path, capsys):
    # Both halves of the a_max=6 search hold 7^6 cells; the full lattice's
    # 7^8 = 5,764,801 cells were refused with "size guard".
    import random

    from conftest import random_full_support, random_injective_channel

    rng = random.Random("check-a-max/4/0")
    spec = random_injective_channel(rng, 4, 3)
    assert spec.x_alphabet_sizes == (3, 2, 3, 2)
    chan, dist_path, out = tmp_path / "chan.json", tmp_path / "dist.json", tmp_path / "r.json"
    save_channel(spec, chan)
    save_distribution(random_full_support(rng, spec), dist_path)
    rc = main(["region", str(chan), str(dist_path), "--method", "theorem", "--check-a-max",
               "--out", str(out)])
    captured = capsys.readouterr()
    assert "size guard" not in captured.err
    assert (rc, captured.out.splitlines()[0]) == (
        0, "a_max check: raising 5 -> 6 left the region unchanged"
    ) or (rc == 1 and "changed the region" in captured.err)


def test_region_guard_overflow(xor_file, uniform2_file, capsys):
    rc = main(["region", xor_file, uniform2_file, "--method", "theorem", "--guard", "3"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: facet enumeration needs 27 DP states (lattice cells), over the size guard "
        "of 3; raise the guard to continue\n"
    )


def test_presets_dump(capsys):
    assert main(["presets", "--k", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc) == 7
    assert doc[0]["a"] == [1, 0]
    assert main(["presets", "--k", "3"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 28


def test_presets_unsupported_k_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["presets", "--k", "4"])
    assert exc.value.code == 2


def test_seed_env_override(xor_file, uniform2_file, tmp_path, monkeypatch, capsys):
    out = tmp_path / "r.json"
    main(["region", xor_file, uniform2_file, "--method", "theorem", "--out", str(out)])
    monkeypatch.setenv("DIC_SEED", "123")
    assert main(["compare", str(out), str(out), "--directions", "5"]) == 0
    assert "equal" in capsys.readouterr().out


def exit_code(argv):
    """main's return value, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "extra",
    [
        ["--tol", "-1"],
        ["--tol", "nan"],
        ["--tol", "inf"],
        ["--method", "hk-project", "--tol", "1"],
        ["--method", "hk-project", "--tol", "1e300"],
        ["--guard", "0"],
        ["--a-max", "-3"],
        ["--a-max", "0"],
    ],
    ids=["tol-negative", "tol-nan", "tol-inf", "tol-one", "tol-huge", "guard-zero",
         "a-max-negative", "a-max-zero"],
)
def test_region_invalid_values_are_usage_errors(xor_file, uniform2_file, extra, capsys):
    # A later --method overrides the first one.
    assert exit_code(["region", xor_file, uniform2_file, "--method", "theorem"] + extra) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "extra", [["--directions", "0"], ["--tol", "0"]], ids=["directions-zero", "tol-zero"]
)
def test_compare_invalid_values_are_usage_errors(tmp_path, extra, capsys):
    path = tmp_path / "simplex.json"
    save_region(UNIT_SIMPLEX, path)
    assert exit_code(["compare", str(path), str(path)] + extra) == 2
    assert capsys.readouterr().out == ""


def test_invalid_seed_env_is_read_only_by_compare(xor_file, uniform2_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DIC_SEED", "abc")
    out = tmp_path / "r.json"
    assert main(["region", xor_file, uniform2_file, "--method", "theorem", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["compare", str(out), str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "DIC_SEED" in captured.err
