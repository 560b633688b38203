"""Time one cold set-up of a workload's problem and print it in seconds.

Set-up is the package import (numpy and scipy included), the mesh, the
example objective, the initial control and every cached operator of the
mesh. Run as ``python3 setup_probe.py SRC_DIR LEVEL`` in a fresh process,
so the import is cold.
"""

import sys
import time
from functools import cached_property

sys.path.insert(0, sys.argv[1])
level = int(sys.argv[2])

start = time.perf_counter()
import obstacle_control as oc  # noqa: E402

mesh = oc.build_mesh(level)
oc.example_objective(mesh)
oc.initial_control(mesh)
for name, attr in vars(type(mesh)).items():
    if isinstance(attr, cached_property):
        getattr(mesh, name)
print(repr(time.perf_counter() - start))
