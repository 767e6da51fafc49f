"""Loaders for the data files shipped inside the package.

Bundled assets: the shared symbol table, one modeling script per
implemented algorithm, the 20-algorithm reference independency matrix,
and the small labelled flower dataset used by the experiment harness.
"""
from __future__ import annotations

import functools
from importlib import resources
from pathlib import Path

from .cail import GraphArray, Scmt, build_graph, load_scmt, load_script, to_graph_array
from .errors import DataFileError
from .independency import Aidm, build_aidm, load_aidm_csv


def _data_path(name: str) -> Path:
    return Path(str(resources.files("cesel.data").joinpath(name)))


def bundled_scmt() -> Scmt:
    """The shared symbol table for all bundled scripts."""
    return load_scmt(_data_path("scmt.tsv"))


def load_script_arrays(
    script_dir: str | Path | None = None, scmt: Scmt | None = None
) -> list[GraphArray]:
    """Parse every ``.cail`` file in a directory into its cell array.

    Files are taken in sorted name order; each file stem (uppercased) is
    the algorithm ID.
    """
    directory = Path(script_dir) if script_dir is not None else _data_path("scripts")
    table = scmt if scmt is not None else bundled_scmt()
    arrays = []
    for path in sorted(directory.glob("*.cail")):
        script = load_script(path, table)
        arrays.append(to_graph_array(build_graph(script)))
    if not arrays:
        raise DataFileError(f"no .cail scripts found in {directory}")
    return arrays


@functools.cache
def reference_aidm() -> Aidm:
    """The bundled 20-algorithm reference independency matrix, read once."""
    return load_aidm_csv(_data_path("aidm_reference.csv"))


@functools.cache
def computed_aidm() -> Aidm:
    """Independency matrix computed from the bundled modeling scripts, once."""
    return build_aidm(load_script_arrays())


def iris_csv_path() -> Path:
    return _data_path("iris.csv")
