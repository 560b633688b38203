"""File output for experiment artifacts: legacy VTK, CSV, JSON metadata.

Field files use the legacy ASCII structured-grid format so any standard
visualization tool can open them. All writers are atomic (write to a
temporary file in the target directory, then rename), leave the file
with the mode a plain open() would (0666 less the umask), and format
floats with 17 significant digits, which round-trips IEEE doubles exactly.
"""

from __future__ import annotations

import json
import os
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .fem import StructuredMesh


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        # mkstemp made it 0600; open() would give 0666 less the umask,
        # which is read by setting it (to the stricter 077 meanwhile)
        umask = os.umask(0o077)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@lru_cache(maxsize=1)
def _points(level: int) -> str:
    """The POINTS lines of the mesh at a level, which they depend on."""
    coords = StructuredMesh(level).nodes.ravel().tolist()
    return "\n".join(["%.17g %.17g 0"] * (len(coords) // 2)) % tuple(coords)


def write_structured_vtk(path, mesh: StructuredMesh,
                         point_data: Mapping[str, np.ndarray]) -> Path:
    """Write nodal scalars on the structured mesh as a legacy VTK file.

    Points are emitted in the mesh's native ordering (x fastest), which is
    exactly the traversal order STRUCTURED_GRID prescribes.
    """
    n_side = mesh.cells_per_side + 1
    lines = [
        "# vtk DataFile Version 3.0",
        "obstacle control fields",
        "ASCII",
        "DATASET STRUCTURED_GRID",
        f"DIMENSIONS {n_side} {n_side} 1",
        f"POINTS {mesh.n_nodes} double",
        _points(mesh.level),
        f"POINT_DATA {mesh.n_nodes}",
    ]
    for name, values in point_data.items():
        values = np.asarray(values, dtype=float)
        if values.shape != (mesh.n_nodes,):
            raise ValueError(f"field {name!r} is not nodal scalar data")
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.append("\n".join(["%.17g"] * len(values))
                     % tuple(values.tolist()))
    _atomic_write_text(Path(path), "\n".join(lines) + "\n")
    return Path(path)


def write_csv(path, header: Sequence[str],
              rows: Iterable[Sequence]) -> Path:
    """Write a CSV table atomically with deterministic float formatting."""
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(
            _fmt(v) if isinstance(v, float) else str(v) for v in row))
    _atomic_write_text(Path(path), "\n".join(out) + "\n")
    return Path(path)


def write_meta(path, meta: Mapping) -> Path:
    """Write run metadata (parameters, stats, timestamps) as JSON."""
    _atomic_write_text(Path(path), json.dumps(meta, indent=2, sort_keys=True,
                                              default=str) + "\n")
    return Path(path)
