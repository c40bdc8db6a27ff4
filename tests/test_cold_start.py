"""A cold process loads only the layers it uses: `import hnnlab` loads no
submodule, the lattice never loads `biauto`, `isom` or `exact`,
`fsa-check` never loads the lattice or `exact`, and none of them, nor
`classify` or `lengths`, loads `typing`, `dataclasses` or `inspect`.
Each cold case runs in a fresh
`python -I -S -B` process: -I ignores PYTHONDONTWRITEBYTECODE, so -B keeps
it from writing bytecode into the source tree, and -S skips `site`, which
may import `typing` itself before hnnlab is imported (the probe puts the
source tree on sys.path, and hnnlab has no dependencies)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import hnnlab
from hnnlab import cli

SRC = str(Path(hnnlab.__file__).resolve().parent.parent)

# runs BODY with its output captured, then prints what it returned, which
# hnnlab submodules the process loaded and every module that `import hnnlab`
# and BODY added
PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
out, err = io.StringIO(), io.StringIO()
before = set(sys.modules)
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    import hnnlab
    result = None
{body}
assert hnnlab.__file__.startswith(sys.argv[1]), hnnlab.__file__
modules = sorted(m for m in sys.modules if m.startswith("hnnlab."))
added = sorted(set(sys.modules) - before)
print(json.dumps({{"result": result, "out": out.getvalue(),
                   "err": err.getvalue(), "modules": modules, "added": added}}))
"""


def cold(*statements: str) -> dict:
    body = "".join(f"    {s}\n" for s in statements)
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", PROBE.format(body=body), SRC],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


def test_bare_import_loads_no_submodule():
    assert cold()["modules"] == []
    run = cold("result = hnnlab.biauto.__name__")
    assert run["result"] == "hnnlab.biauto"
    assert run["modules"] == ["hnnlab.biauto"]


def test_the_lattice_loads_neither_biauto_nor_isom():
    run = cold("hnnlab.load_builtin_group()")
    assert "hnnlab.hnn" in run["modules"]
    assert not {"hnnlab.biauto", "hnnlab.isom", "hnnlab.exact"} & set(run["modules"])


@pytest.mark.parametrize(
    "layer, statements",
    [
        ("hnnlab.hnn", ["hnnlab.load_builtin_group()"]),
        ("hnnlab.biauto", ["from hnnlab import cli",
                           "result = cli.main(['fsa-check', 'z2-normal', '--radius', '6'])"]),
        ("hnnlab.isom", ["from hnnlab import cli",
                         "result = cli.main(['classify', 'at'])"]),
        ("hnnlab.isom", ["from hnnlab import cli",
                         "result = cli.main(['lengths', 'a', 'c'])"]),
    ],
    ids=["lattice", "fsa-check", "classify", "lengths"],
)
def test_no_dataclasses_machinery_is_loaded(layer, statements):
    run = cold(*statements)
    assert run["result"] in (None, 0) and layer in run["added"]
    assert not {"typing", "dataclasses", "inspect"} & set(run["added"])


@pytest.mark.parametrize(
    "argv, code, out, err, absent",
    [
        (["fsa-check", "z2-normal", "--radius", "6"], 0, None, "",
         {"hnnlab.hnn", "hnnlab.quat", "hnnlab.isom", "hnnlab.exact"}),
        (["fsa-check", "z2-normal", "--radius", "-1"], 2, "",
         "error: window radius must be >= 0, got -1\n",
         {"hnnlab.hnn", "hnnlab.quat", "hnnlab.isom", "hnnlab.exact"}),
        (["trivial", "tDaacBCTD"], 0, "trivial\n", "",
         {"hnnlab.biauto", "hnnlab.isom", "hnnlab.exact"}),
    ],
)
def test_cli_commands_load_only_their_layers(argv, code, out, err, absent):
    run = cold("from hnnlab import cli", f"result = cli.main({argv!r})")
    assert run["result"] == code
    assert run["err"] == err
    if out is not None:
        assert run["out"] == out
    assert "hnnlab.cli" in run["modules"]
    assert not absent & set(run["modules"])


def test_public_names_are_the_objects_of_their_home_modules():
    for name in hnnlab.__all__:
        value = getattr(hnnlab, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("hnnlab.")
        assert getattr(home, name) is value


def test_dir_lists_public_names_and_submodules():
    listed = dir(hnnlab)
    assert set(hnnlab.__all__) <= set(listed)
    for module in ("biauto", "comb", "exact", "hnn", "isom", "quat"):
        assert module in listed
        assert getattr(hnnlab, module) is sys.modules[f"hnnlab.{module}"]


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hnnlab.no_such_name
    with pytest.raises(ImportError):
        from hnnlab import no_such_name  # noqa: F401
    with pytest.raises(AttributeError, match="comb_layer"):
        cli.comb_layer
