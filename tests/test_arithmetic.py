"""Streams decode to the same image under other machines' arithmetic.

The decoder recomputes every probability table from floating-point work: the
context nets' products run in the BLAS library, the mixture CDFs in numpy's
SIMD loops.  A decoder whose kernels round differently from the encoder's
would fall out of step with it.  Each stream here is encoded in this process
and decoded in a subprocess forced onto another machine's kernels: an older
OpenBLAS core type, or numpy without its AVX-512 dispatch.  Every decoded
image must match this process's decode.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from iwv3 import models, pipeline
from iwv3.gradtape import load_weights, save_weights

from conftest import active_head_weights, natural_photo, perturbed_lossy_weights

pytestmark = pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="the forced kernels are x86-64 ones")

_BLAS_CORE = """
import ctypes, glob, json, os, sys
import numpy as np

def blas_core():
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename"):
            if hasattr(lib, symbol):
                corename = getattr(lib, symbol)
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return None
"""

_DECODE = _BLAS_CORE + """
import hashlib
from numpy._core._multiarray_umath import __cpu_features__
from iwv3 import models, pipeline
from iwv3.gradtape import load_weights

folder = sys.argv[1]
with open(os.path.join(folder, "cases.json")) as f:
    cases = json.load(f)
digests = {}
for name, weights_file in cases.items():
    if weights_file is None:
        weights = models.default_weights()
    else:
        with open(os.path.join(folder, weights_file), "rb") as f:
            weights = load_weights(f.read())
    with open(os.path.join(folder, name + ".iwv3"), "rb") as f:
        rgb = pipeline.decode_bytes(f.read(), weights)
    digests[name] = hashlib.sha256(rgb.tobytes()).hexdigest()
print(json.dumps({"core": blas_core(), "features": __cpu_features__, "digests": digests}))
"""

# The banded forward's bit test of tests/test_gradtape.py, rerun.
_SPLIT = _BLAS_CORE + """
from test_gradtape import split_cases, split_conv_mismatches

print(json.dumps({"core": blas_core(),
                  "mismatches": {case: split_conv_mismatches(names)
                                 for case, names in split_cases().items()}}))
"""

AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")

# name -> (extra environment, CPU features the forced kernels execute)
ENVIRONMENTS = {
    "openblas-haswell": ({"OPENBLAS_CORETYPE": "Haswell"}, ("AVX2", "FMA3")),
    "openblas-sandybridge": ({"OPENBLAS_CORETYPE": "Sandybridge"}, ("AVX",)),
    "numpy-without-avx512": ({"NPY_DISABLE_CPU_FEATURES": " ".join(AVX512)}, ()),
}


@pytest.fixture(scope="module")
def streams(tmp_path_factory):
    """Encoded cases on disk, with this process's decode digest of each.

    Lossy and active-head weights pass through their float32 file format
    before encoding, so the subprocess decodes under the very values the
    encoder used."""
    folder = tmp_path_factory.mktemp("arithmetic")
    rgb = natural_photo(40, 56, 8)
    cases = {
        "lossless": ("lossless", None),
        "active-head": ("lossless", active_head_weights(3)),
        "additive": ("additive", perturbed_lossy_weights("additive", 2, seed=5)),
        "affine": ("affine", perturbed_lossy_weights("affine", 2, seed=5)),
    }
    manifest, digests = {}, {}
    for name, (mode, weights) in cases.items():
        if weights is None:
            weights, weights_file = models.default_weights(), None
        else:
            weights_file = name + ".iwtw"
            (folder / weights_file).write_bytes(save_weights(weights))
            weights = load_weights((folder / weights_file).read_bytes())
        packed = pipeline.encode_rgb(rgb, weights, mode).pack()
        (folder / (name + ".iwv3")).write_bytes(packed)
        manifest[name] = weights_file
        decoded = pipeline.decode_bytes(packed, weights)
        digests[name] = hashlib.sha256(decoded.tobytes()).hexdigest()
    (folder / "cases.json").write_text(json.dumps(manifest))
    return folder, digests


@pytest.mark.parametrize("name", sorted(ENVIRONMENTS))
def test_decodes_identically_under_other_kernels(name, streams):
    overrides, needed = ENVIRONMENTS[name]
    missing = [f for f in needed if not __cpu_features__.get(f)]
    if missing:
        pytest.skip(f"this CPU lacks {', '.join(missing)}")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "OPENBLAS_CORETYPE" in overrides and "openblas" not in str(blas.get("name")).lower():
        pytest.skip("numpy's BLAS is not OpenBLAS")
    if "NPY_DISABLE_CPU_FEATURES" in overrides and not any(
            __cpu_features__.get(f) for f in AVX512):
        pytest.skip("this CPU has no AVX-512 dispatch to disable")
    folder, want = streams
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **overrides)
    proc = subprocess.run([sys.executable, "-c", _DECODE, str(folder)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    core = overrides.get("OPENBLAS_CORETYPE")
    if core is not None and got["core"] not in (None, core):
        pytest.skip(f"OpenBLAS ran its {got['core']} kernels, not {core}")
    assert not any(got["features"].get(f) for f in overrides.get(
        "NPY_DISABLE_CPU_FEATURES", "").split())
    assert got["digests"] == want


@pytest.mark.parametrize("name", ["openblas-haswell", "openblas-sandybridge"])
def test_image_split_keeps_the_batch_bits_under_other_kernels(name):
    # Each band's product (one image of a batch, or rows of one image) must
    # give the rows of the whole product on every kernel, not only on the
    # one this host picks.
    overrides, needed = ENVIRONMENTS[name]
    missing = [f for f in needed if not __cpu_features__.get(f)]
    if missing:
        pytest.skip(f"this CPU lacks {', '.join(missing)}")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in str(blas.get("name")).lower():
        pytest.skip("numpy's BLAS is not OpenBLAS")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **overrides)
    proc = subprocess.run([sys.executable, "-c", _SPLIT], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    if got["core"] not in (None, overrides["OPENBLAS_CORETYPE"]):
        pytest.skip(f"OpenBLAS ran its {got['core']} kernels, not {overrides['OPENBLAS_CORETYPE']}")
    assert got["mismatches"] == {case: [] for case in got["mismatches"]}
