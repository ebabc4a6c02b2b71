"""`import kerrmich` loads the closed-form engine; the oracle loads on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import kerrmich

# the names the package exports from the truncated-Fock oracle, and its modules
ORACLE = {
    "crosscheck": ["crosscheck", "CheckBlock", "CheckCase", "CrossCheckReport", "run_crosscheck"],
    "fock": [
        "fock",
        "MomentSet",
        "TruncationError",
        "TwoModeState",
        "apply_kerr",
        "coherent_amplitudes",
        "coherent_identity_residual",
        "fock_dim",
        "gauss_hermite_phase",
        "moments",
        "monte_carlo_phase",
        "noisy_moments",
        "product_input",
    ],
}

# runs in a fresh interpreter, so no test has loaded the oracle before it
SCRIPT = """\
import json, sys
import kerrmich
out = {"loaded": sorted(m for m in sys.modules if m.startswith("kerrmich."))}
out["dir"] = [n for n in dir(kerrmich) if not n.startswith("_")]
out["modules"] = [kerrmich.fock.__name__, kerrmich.crosscheck.__name__]
try:
    kerrmich.no_such_name
except AttributeError as exc:
    out["unknown"] = str(exc)
star = {}
exec("from kerrmich import *", star)
out["star"] = sorted(n for n in star if n != "__builtins__")
table = json.loads(sys.argv[1])
out["same"] = {
    name: getattr(kerrmich, name) is (
        sys.modules["kerrmich." + module] if name == module
        else getattr(sys.modules["kerrmich." + module], name)
    )
    for module, names in table.items()
    for name in names
}
out["resolved"] = sorted(n for n in vars(kerrmich) if not n.startswith("_"))
print(json.dumps(out))
"""


def test_oracle_loads_on_first_use_and_exports_stay_the_same():
    env = dict(os.environ, PYTHONPATH=str(Path(kerrmich.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(ORACLE)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    out = json.loads(proc.stdout)
    assert out["loaded"] == ["kerrmich.analytic", "kerrmich.core", "kerrmich.sweep"]
    names = sum(ORACLE.values(), [])
    assert set(names) <= set(out["dir"])
    # dir() before any oracle access names exactly the public attributes the
    # package holds once every name has loaded, and `import *` gives them all
    assert out["dir"] == out["resolved"] == out["star"]
    assert out["same"] == dict.fromkeys(names, True)
    assert out["modules"] == ["kerrmich.fock", "kerrmich.crosscheck"]
    assert out["unknown"] == "module 'kerrmich' has no attribute 'no_such_name'"


# the command line loads the oracle only when `verify` runs
CLI_SCRIPT = """\
import contextlib, io, json, sys
from kerrmich.cli import main
def oracle():
    return sorted({"kerrmich.fock", "kerrmich.crosscheck"} & set(sys.modules))
out = {"import": oracle()}
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["estimate", "--regime", "giant-eit"]) == 0
    assert main(["regimes"]) == 0
    assert main(["sweep", "--regime", "giant-eit", "--grid", "tau=1e-9:1e-8:2"]) == 0
    out["design"] = oracle()
    out["verify"] = main(["verify", "--max-photons", "4"])
out["after"] = oracle()
print(json.dumps(out))
"""


def test_cli_loads_the_oracle_only_for_verify():
    env = dict(os.environ, PYTHONPATH=str(Path(kerrmich.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", CLI_SCRIPT],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    out = json.loads(proc.stdout)
    assert out == {
        "import": [], "design": [], "verify": 0,
        "after": ["kerrmich.crosscheck", "kerrmich.fock"],
    }


def test_cli_reports_a_truncation_error_as_an_input_error(capsys, monkeypatch):
    import kerrmich.cli
    import kerrmich.crosscheck
    import kerrmich.fock

    def truncated(**kwargs):
        raise kerrmich.fock.TruncationError("basis too small")

    monkeypatch.setattr(kerrmich.crosscheck, "run_crosscheck", truncated)
    assert kerrmich.cli.main(["verify"]) == 1
    assert capsys.readouterr() == ("", "kerrmich: error: basis too small\n")
