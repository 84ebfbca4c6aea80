"""Every packaged data file is named by a ``package-data`` glob.

The tests run against the source tree, so a data file that no glob names
would pass them all and still be missing from an installed ``graphqa``.
"""

import glob
import os
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "graphqa"


def test_every_data_file_matches_a_package_data_glob():
    with open(REPO / "pyproject.toml", "rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["graphqa"]
    shipped = {path for pattern in globs for path in glob.glob(pattern, root_dir=PACKAGE)}
    on_disk = {
        os.path.relpath(os.path.join(directory, name), PACKAGE)
        for directory, _, names in os.walk(PACKAGE / "data")
        for name in names
    }
    assert on_disk, "no data files found"
    assert sorted(on_disk - shipped) == []
