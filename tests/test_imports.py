"""The package's only runtime dependency is numpy.

scipy is often installed next to numpy, so an accidental ``import scipy``
would pass every other test; this one imports the package in a fresh
interpreter and lists what the import loaded.
"""

import json
import subprocess
import sys

_PROBE = """
import json, sys
import numpy
before = set(sys.modules)
import angleid, angleid.cli
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
