"""What each entry point loads: the projection route and the CLI commands that
do not enumerate facets never import the facet algebra, the theorem route or
xml.sax, and the package's names still resolve.  Each check runs in a fresh
interpreter, whose sys.modules shows exactly what the call imported."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import dicregion

# Modules that only some calls need.
WATCHED = ("dicregion.coeff_scheme", "dicregion.theorem_region", "xml.sax")


def run_python(code, cwd=None):
    """Run code in a fresh interpreter; return its standard output."""
    env = {**os.environ, "PYTHONPATH": str(Path(dicregion.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env, cwd=cwd,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_importing_the_package_loads_neither_route_module():
    out = run_python(f"""
        import sys
        import dicregion
        print(sorted(name for name in {WATCHED!r} if name in sys.modules))
    """)
    assert out == "[]\n"


@pytest.mark.parametrize("argv, loaded", [
    (["validate", "xor.json"], []),
    (["region", "xor.json", "uniform.json", "--method", "hk-project", "--out", "hk.json"], []),
    (["compare", "hk.json", "hk.json"], []),
    (["region", "xor.json", "uniform.json", "--method", "theorem"], ["dicregion.theorem_region"]),
    (["presets", "--k", "2"], ["dicregion.theorem_region"]),
    (["plot", "hk.json", "--out", "hk.svg"], ["xml.sax"]),
], ids=["validate", "region-hk-project", "compare", "region-theorem", "presets", "plot"])
def test_each_command_loads_only_what_it_runs(tmp_path, argv, loaded):
    (tmp_path / "xor.json").write_text(
        '{"K": 2, "x_alphabet_sizes": [2, 2], "g": [[0, 1], [0, 1]], '
        '"f": [[[0, 1], [1, 0]], [[0, 1], [1, 0]]]}'
    )
    (tmp_path / "uniform.json").write_text('{"p": [[0.5, 0.5], [0.5, 0.5]]}')
    (tmp_path / "hk.json").write_text(
        '{"dim": 2, "inequalities": [{"coeffs": [-1, 0], "rhs": 0}, '
        '{"coeffs": [0, -1], "rhs": 0}, {"coeffs": [1, 1], "rhs": 1}]}'
    )
    out = run_python(f"""
        import contextlib, io, sys
        from dicregion.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main({argv!r}) == 0
        print(sorted(name for name in {WATCHED!r} if name in sys.modules))
    """, cwd=tmp_path)
    assert out == f"{loaded!r}\n"


def test_package_names_resolve_to_their_modules_and_the_route_modules_load_on_first_access():
    out = run_python("""
        import sys
        import dicregion
        lazy = ("dicregion.coeff_scheme", "dicregion.theorem_region")
        for name in dicregion.__all__:
            bound = name in vars(dicregion)
            value = getattr(dicregion, name)
            assert value is getattr(sys.modules[value.__module__], name), name
            assert bound == (value.__module__ not in lazy), name
            assert vars(dicregion)[name] is value, name
        for name in lazy:
            assert getattr(dicregion, name.rpartition(".")[2]) is sys.modules[name], name
        try:
            dicregion.no_such_name
        except AttributeError as exc:
            print(exc)
    """)
    assert out == "module 'dicregion' has no attribute 'no_such_name'\n"
