"""The exp-sum grid product runs through BLAS (zgemm), so its summation order
could follow the BLAS thread count; the Voronoi row sums and the moment
kernel's node sums must not either.  All must give the same bits under one and
two OpenBLAS threads."""

import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"

_PROGRAM = """
from divisorlab.expsum import moment8_S
from divisorlab.moments import moment_profile
from divisorlab.voronoi import residual_mean_square
print([v.hex() for v in moment8_S(4096.0, 64, 2)])
print(residual_mean_square(1e5, 1e5, 16000, 512).hex())
prof = moment_profile([1, 2, 3, 4, 8], [35 / 4, 267 / 27], [10**4, 10**5, 3 * 10**5],
                      threads=2, abs_limit=10**5)
print([[v.hex() for v in values.values()] for values in prof.values()])
"""


def _run(threads: int) -> str:
    path = os.pathsep.join(p for p in (str(_SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", _PROGRAM], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    return done.stdout


def test_grid_kernels_bit_identical_across_blas_threads():
    one = _run(1)
    assert one.count("0x") == 3 + 3 * 7
    assert _run(2) == one
