"""The package's imports: numpy is its only runtime dependency, and it loads lazily.

scipy is often installed next to numpy, so an accidental ``import scipy``
would pass every other test; the first test imports every submodule in a
fresh interpreter and lists what the import loaded. The rest pin the lazy
namespace: ``import angleid`` loads no submodule, each public name is its
submodule's object, and a CLI command loads only the modules it runs.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import angleid

# The submodules that give the package its public names.
_SUBMODULES = ("core", "neighbors", "angle_id", "baseline_id", "analysis", "synth", "theory")

_PROBE = """
import json, sys
import numpy
before = set(sys.modules)
import angleid.core, angleid.neighbors, angleid.angle_id, angleid.baseline_id
import angleid.analysis, angleid.synth, angleid.theory, angleid.cli
added = {name.split(".")[0] for name in set(sys.modules) - before}
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
    "third_party": sorted(added - set(sys.stdlib_module_names) - {"angleid"}),
}))
"""


def test_package_imports_only_numpy_and_the_standard_library(package_env):
    proc = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True,
                          env=package_env(), check=True)
    loaded = json.loads(proc.stdout)
    assert loaded == {"scipy": [], "third_party": []}


# Put first on PYTHONPATH, it makes a child interpreter write the names in
# its sys.modules to $ANGLEID_MODULES when it exits (atexit runs after the
# command's sys.exit).
_SITECUSTOMIZE = """
import atexit, json, os, sys

def _dump():
    with open(os.environ["ANGLEID_MODULES"], "w") as fh:
        json.dump(sorted(sys.modules), fh)

atexit.register(_dump)
"""


def _loaded(package_env, tmp_path, *args) -> set[str]:
    """The ``angleid`` and ``concurrent`` modules a fresh ``python *args`` process held at exit."""
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(_SITECUSTOMIZE)
    dump = tmp_path / "modules.json"
    env = package_env(ANGLEID_MODULES=str(dump))
    env["PYTHONPATH"] = f"{site}{os.pathsep}{env['PYTHONPATH']}"
    subprocess.run([sys.executable, *args], capture_output=True, env=env, check=True)
    return {m for m in json.loads(dump.read_text()) if m.split(".")[0] in ("angleid", "concurrent")}


def test_importing_the_package_loads_no_submodule(package_env, tmp_path):
    assert _loaded(package_env, tmp_path, "-c", "import angleid") == {"angleid"}


def test_every_public_name_is_its_submodules_object():
    modules = [importlib.import_module(f"angleid.{name}") for name in _SUBMODULES]
    for name in angleid.__all__:
        if name == "theory":
            continue
        (home,) = [m for m in modules if name in m.__all__]
        assert getattr(angleid, name) is getattr(home, name), name
    assert angleid.theory is sys.modules["angleid.theory"]
    assert "theory" in angleid.__all__ and angleid.__version__ == "0.1.0"


def test_dir_lists_every_public_name():
    assert set(angleid.__all__) <= set(dir(angleid))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from angleid import *", namespace)
    assert set(angleid.__all__) <= set(namespace)
    assert namespace["knn"] is angleid.knn and namespace["theory"] is angleid.theory


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        angleid.no_such_name  # noqa: B018


def test_histogram_loads_no_estimator(package_env, tmp_path):
    table = tmp_path / "est.csv"
    table.write_text("index,abid\n0,1.5\n1,2.5\n2,2.75\n")
    loaded = _loaded(package_env, tmp_path, "-m", "angleid", "histogram",
                     "--input", str(table), "--column", "abid", "--bin-width", "0.5",
                     "-o", str(tmp_path / "h.csv"))
    assert "angleid.analysis" in loaded
    assert not loaded & {"angleid.angle_id", "angleid.baseline_id", "angleid.theory",
                         "angleid.synth", "concurrent.futures"}


def test_importtime_logs_the_submodules_a_command_loads(package_env, tmp_path):
    # The package loads its submodules with the interpreter's own import,
    # which ``-X importtime`` logs; importlib.import_module is not logged.
    table = tmp_path / "est.csv"
    table.write_text("index,abid\n0,1.5\n1,2.5\n")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "angleid", "histogram",
                           "--input", str(table), "--column", "abid", "--bin-width", "0.5",
                           "-o", str(tmp_path / "h.csv")],
                          capture_output=True, text=True, env=package_env(), check=True)
    logged = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert {"angleid", "angleid.cli", "angleid.analysis", "angleid.core"} <= logged


def test_estimate_loads_neither_analysis_nor_synth(package_env, tmp_path):
    points = tmp_path / "points.csv"
    points.write_text("".join(f"{i % 5},{i // 5},{i % 3}\n" for i in range(40)))
    loaded = _loaded(package_env, tmp_path, "-m", "angleid", "estimate", "--input", str(points),
                     "--k", "5", "--estimators", "abid,mle", "-o", str(tmp_path / "e.csv"))
    assert {"angleid.angle_id", "angleid.neighbors"} <= loaded
    assert not loaded & {"angleid.analysis", "angleid.synth"}


def test_trails_loads_no_synth(package_env, tmp_path):
    points = tmp_path / "points.csv"
    points.write_text("".join(f"{i},{i % 5}.5\n" for i in range(40)))
    loaded = _loaded(package_env, tmp_path, "-m", "angleid", "trails", "--input", str(points),
                     "--k-values", "3,5", "-o", str(tmp_path / "t.csv"))
    assert "angleid.analysis" in loaded and "angleid.synth" not in loaded


def test_generate_loads_neither_the_search_nor_the_estimators(package_env, tmp_path):
    loaded = _loaded(package_env, tmp_path, "-m", "angleid", "generate", "--shape", "ball",
                     "--d", "2", "--n", "10", "-o", str(tmp_path / "b.csv"))
    assert "angleid.synth" in loaded
    assert not loaded & {"angleid.angle_id", "angleid.neighbors", "angleid.analysis"}
