"""Command-line surface: exit codes, file formats, plotting."""

import json

import pytest

from dicregion.channel import save_channel
from dicregion.cli import main
from dicregion.entropy import InputDistribution, save_distribution
from dicregion.polytope import load_region, regions_equal, save_region

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


EMPTY = R(2, [((1, 0), -1.0), ((-1, 0), 0.0), ((0, -1), 0.0)])


@pytest.mark.parametrize("left, right, stream, message", [
    (EMPTY, EMPTY, "err", "error: support value of an empty region"),
    (EMPTY, UNIT_SQUARE, "out", "unequal: inequality [1, 0] . R <= -1 of"),
    (UNIT_SQUARE, EMPTY, "out", "unequal: inequality [1, 0] . R <= -1 of"),
], ids=["empty-empty", "empty-box", "box-empty"])
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


def test_plot_unbounded_names_direction(tmp_path, capsys):
    region = R(2, [((1, 0), 1.0), ((-1, 0), 0.0), ((0, -1), 0.0)], labels=("R1", "R2"))
    region_path = tmp_path / "open.json"
    save_region(region, region_path)
    assert main(["plot", str(region_path), "--out", str(tmp_path / "x.svg")]) == 1
    assert "+R2" in capsys.readouterr().err


def test_plot_dim_guard(tmp_path, capsys):
    from dicregion.polytope import Region, nonneg_inequalities

    region = Region(4, tuple(nonneg_inequalities(4)))
    region_path = tmp_path / "r4.json"
    save_region(region, region_path)
    assert main(["plot", str(region_path), "--out", str(tmp_path / "x.svg")]) == 2
    assert "dim <= 3" in capsys.readouterr().err


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


def test_region_guard_overflow(xor_file, uniform2_file, capsys):
    rc = main(["region", xor_file, uniform2_file, "--method", "theorem", "--guard", "3"])
    assert rc == 1
    assert "size guard" in capsys.readouterr().err


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
