"""Property tests: a damaged input file either loads or raises DataError.

Starting from one valid file per on-disk format (labelled CSV, labelled
DTCF, DTCE checkpoint), every prefix truncation is tried, and single-byte
overwrites are drawn by hypothesis.  Any exception other than DataError
fails the test, since the CLI maps only DataError (and OSError) to exit
code 2.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transfercluster.dataset import FeatureMatrix, load_labeled, save_features
from transfercluster.encoder import EncoderParams, LayerParams, load_encoder, save_encoder
from transfercluster.errors import DataError

LOADERS = {
    "csv": lambda path: load_labeled(path, "csv"),
    "dtcf": lambda path: load_labeled(path, "binary"),
    "dtce": load_encoder,
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Bytes of one small valid file per format."""
    root = tmp_path_factory.mktemp("valid")
    features = FeatureMatrix(np.array([[0.5, -1.25], [2.0, 0.0], [-3.5, 1.0]]),
                             ("a", "b", "c"))
    labels = np.array([0, 1, 0])
    save_features(root / "f.csv", features, "csv", labels=labels)
    save_features(root / "f.dtcf", features, "binary", labels=labels)
    rng = np.random.default_rng(0)
    encoder = EncoderParams([LayerParams(rng.normal(size=(3, 2)), rng.normal(size=3))],
                            LayerParams(rng.normal(size=(2, 3)), rng.normal(size=2)), 2)
    save_encoder(root / "f.dtce", encoder)
    return {kind: (root / f"f.{kind}").read_bytes() for kind in LOADERS}


def loads_or_data_error(kind, blob, path):
    path.write_bytes(blob)
    try:
        LOADERS[kind](path)
    except DataError:
        pass


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_every_truncation_loads_or_is_data_error(valid_files, tmp_path, kind):
    blob = valid_files[kind]
    (tmp_path / "whole").write_bytes(blob)
    LOADERS[kind](tmp_path / "whole")
    for cut in range(len(blob)):
        loads_or_data_error(kind, blob[:cut], tmp_path / "cut")


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_single_byte_overwrite_loads_or_is_data_error(valid_files, tmp_path_factory,
                                                      kind, data):
    blob = bytearray(valid_files[kind])
    position = data.draw(st.integers(0, len(blob) - 1), label="position")
    blob[position] = data.draw(st.integers(0, 255), label="byte")
    loads_or_data_error(kind, bytes(blob), tmp_path_factory.getbasetemp() / f"garbled.{kind}")
